"""Tensor substrate: dtypes, partially-known shapes, and concrete values."""

from .dtype import (DType, float32, float64, int32, int64, bool_,
                    ALL_DTYPES, result_dtype, from_python_scalar)
from .shape import Shape, broadcast_shapes
from .tensor_value import TensorValue, PyRef, is_numeric_pyvalue

__all__ = [
    "DType", "float32", "float64", "int32", "int64", "bool_", "ALL_DTYPES",
    "result_dtype", "from_python_scalar",
    "Shape", "broadcast_shapes",
    "TensorValue", "PyRef", "is_numeric_pyvalue",
]
