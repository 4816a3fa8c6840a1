"""What the host gives this process.  Imports nothing from the package,
so every layer can ask."""

import os


def usable_cpus():
    """CPUs this process may run on.

    The affinity mask where the platform has one (``taskset`` and
    container cpusets shrink it; the machine's count does not notice),
    else the machine's count.
    """
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1
