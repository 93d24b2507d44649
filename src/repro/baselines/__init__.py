"""Reference oracles and the paper's comparison codes.

* :func:`tarjan_scc`, :func:`kosaraju_scc` — serial verification oracles;
* :func:`fb_scc`, :func:`fbtrim_scc` — the Forward-Backward lineage;
* :func:`gpu_scc` — Li et al. 2017, the fastest prior GPU code;
* :func:`ispan_scc` — Ji et al. 2018, the fastest parallel CPU code;
* :func:`hong_scc` — Hong et al. 2013.

Every entry point returns an :class:`~repro.results.AlgoResult` (labels,
num_sccs, device, trace) and accepts ``tracer=`` for per-phase spans.

The shared reach/trim/normalize primitives these codes are composed of
live in :mod:`repro.engine`.
"""

from .tarjan import tarjan_scc
from .kosaraju import kosaraju_scc
from .fb import fb_scc
from .fbtrim import fbtrim_scc
from .gpu_scc import gpu_scc
from .ispan import ispan_scc
from .hong import hong_scc
from .coloring import coloring_scc
from .multistep import multistep_scc

__all__ = [
    "tarjan_scc",
    "kosaraju_scc",
    "fb_scc",
    "fbtrim_scc",
    "gpu_scc",
    "ispan_scc",
    "hong_scc",
    "coloring_scc",
    "multistep_scc",
]
