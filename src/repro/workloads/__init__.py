"""The 15-benchmark evaluation suite plus the LL4 walk-through kernel.

Importing this package registers every workload; use
:func:`get_workload` / :func:`all_workload_names` to access them.
"""

from . import ll4  # noqa: F401
from . import dis, spec, stressmark  # noqa: F401
from . import fuzzed  # noqa: F401  (fuzz-found kernels, see docs/fuzzing.md)
from .base import (Workload, all_workload_names, get_workload, register,
                   suite_of)

__all__ = ["Workload", "all_workload_names", "get_workload", "register",
           "suite_of"]
