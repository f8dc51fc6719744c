"""End-to-end and per-layer benchmark of the CLUDE stack.

Run one workload from the repository root::

    python3 perfbench/run.py --workload serve-hot --seed 1 --seconds 40 --trace 0

``--trace 0`` prints the end-to-end metrics of an untraced run; ``--trace 1``
prints the per-layer metrics of a run whose calls into each layer are
wrapped in spans (:mod:`perfbench.spans`).  The last line of standard output
is one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
The benchmark drives the library's public API; tracing wraps entry points
in memory and restores them afterwards.
"""

import os as _os
import sys as _sys

# The repository's benchmark helpers (``host_info``, ``percentile_of``) live in
# ``benchmarks/_shared.py``, a script directory rather than a package.
_ROOT = _os.path.dirname(_os.path.dirname(_os.path.abspath(__file__)))
_BENCHMARKS = _os.path.join(_ROOT, "benchmarks")
if _BENCHMARKS not in _sys.path:
    _sys.path.append(_BENCHMARKS)
