"""Graph export utilities: Graphviz DOT rendering and text summaries.

A generated graph is also a debugging artifact; ``to_dot`` renders it
(with nested function bodies as clusters) so users can inspect what the
speculative generator produced — which assertions guard which regions,
where the deferred heap accesses sit, and how control-flow bodies nest.
"""

from .core import Graph

#: fill colors by node role (Graphviz X11 names).
_NODE_STYLE = {
    "placeholder": ("ellipse", "lightblue"),
    "constant": ("box", "gray90"),
    "var_read": ("box", "palegreen"),
    "var_assign": ("box", "darkseagreen"),
    "py_get_attr": ("box", "khaki"),
    "py_set_attr": ("box", "gold"),
    "py_get_subscr": ("box", "khaki"),
    "py_set_subscr": ("box", "gold"),
    "assert": ("octagon", "salmon"),
    "cond": ("diamond", "plum"),
    "while_loop": ("diamond", "orchid"),
    "replay_grad": ("diamond", "thistle"),
    "invoke": ("component", "lightpink"),
}


def _node_label(node):
    label = node.op_name
    if node.op_name == "var_read" and node.variable is not None:
        label = "read %s" % node.variable.name
    elif node.op_name == "var_assign" and node.variable is not None:
        label = "assign %s" % node.variable.name
    elif node.op_name.startswith("py_"):
        key = node.attrs.get("name", node.attrs.get("key", ""))
        label = "%s[%s]" % (node.op_name, key)
    elif node.op_name == "invoke" and node.func is not None:
        label = "invoke %s" % node.func.name
    elif node.op_name == "placeholder":
        label = "input %s" % node.attrs.get("ph_name", "")
    return label.replace('"', "'")


def to_dot(graph, name=None, max_nodes=400, include_nested=True):
    """Render a Graph as Graphviz DOT text."""
    lines = ["digraph %s {" % _dot_id(name or graph.name),
             "  rankdir=TB;",
             "  node [fontsize=10];"]
    _emit_graph(graph, lines, prefix="n", max_nodes=max_nodes,
                include_nested=include_nested, depth=0, seen=set())
    lines.append("}")
    return "\n".join(lines)


def _dot_id(text):
    return "".join(c if c.isalnum() else "_" for c in str(text))


def _emit_graph(graph, lines, prefix, max_nodes, include_nested, depth,
                seen):
    if id(graph) in seen or depth > 3:
        return
    seen.add(id(graph))
    ids = {}
    for i, node in enumerate(graph.nodes[:max_nodes]):
        node_id = "%s_%d" % (prefix, node.id)
        ids[id(node)] = node_id
        shape, color = _NODE_STYLE.get(node.op_name, ("box", "white"))
        lines.append('  %s [label="%s", shape=%s, style=filled, '
                     'fillcolor=%s];'
                     % (node_id, _node_label(node), shape, color))
    for node in graph.nodes[:max_nodes]:
        dst = ids[id(node)]
        for inp in node.inputs:
            src = ids.get(id(inp.node))
            if src is not None:
                lines.append("  %s -> %s;" % (src, dst))
        for ctrl in node.control_inputs:
            src = ids.get(id(ctrl))
            if src is not None:
                lines.append('  %s -> %s [style=dashed, color=gray];'
                             % (src, dst))
    if len(graph.nodes) > max_nodes:
        lines.append('  %s_more [label="... %d more nodes", shape=plain];'
                     % (prefix, len(graph.nodes) - max_nodes))
    if not include_nested:
        return
    cluster = 0
    for node in graph.nodes[:max_nodes]:
        for func in node._nested_functions():
            if func is None or func.graph is None or \
                    id(func.graph) in seen:
                continue
            cluster += 1
            sub_prefix = "%s_c%d" % (prefix, cluster)
            lines.append("  subgraph cluster_%s {" % sub_prefix)
            lines.append('    label="%s";' % _dot_id(func.name))
            lines.append("    style=dashed;")
            _emit_graph(func.graph, lines, sub_prefix, max_nodes,
                        include_nested, depth + 1, seen)
            lines.append("  }")


def node_census(graph, recurse=True, _seen=None):
    """op_name -> count over a graph (and optionally nested bodies)."""
    if _seen is None:
        _seen = set()
    if id(graph) in _seen:
        return {}
    _seen.add(id(graph))
    census = {}
    for node in graph.nodes:
        census[node.op_name] = census.get(node.op_name, 0) + 1
        if recurse:
            for func in node._nested_functions():
                if func is not None and func.graph is not None:
                    for op, n in node_census(func.graph, True,
                                             _seen).items():
                        census[op] = census.get(op, 0) + n
    return census


def save_dot(graph, path, **kwargs):
    """Write DOT text to a file; render with `dot -Tsvg path -o out.svg`."""
    text = to_dot(graph, **kwargs)
    with open(path, "w") as fh:
        fh.write(text)
    return path
