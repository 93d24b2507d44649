"""Configuration of the ECL-SCC implementation.

:class:`EclOptions` exposes exactly the four code optimizations the paper
evaluates in Figure 14, plus the simulation knobs and safety bounds.  The
ablation benchmark flips these flags one at a time.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING

from ..errors import AlgorithmError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (faults -> core)
    from ..faults.plan import FaultPlan

__all__ = [
    "EclOptions",
    "ALL_ON",
    "ALL_OFF",
    "ENGINE_NAMES",
    "ablation_variants",
    "validate_engine",
]

#: The Phase-2 engine registry: every name ``EclOptions.engine``,
#: ``solve(engine=)``, and ``--engine`` accept.  New engines register
#: here (CLI ``--engine`` help and choices are derived from this tuple,
#: never hand-maintained).
ENGINE_NAMES = ("sync", "async", "atomic", "frontier", "adaptive")


def validate_engine(engine: str) -> str:
    """Check *engine* against the registry; raise a helpful error if unknown.

    This is the *single* validation path for engine names: direct
    construction and ``dataclasses.replace`` copies (which round-trip
    every field through the generated ``__init__`` and hence
    ``__post_init__``) both funnel through here — an invalid name can
    never be smuggled into a frozen :class:`EclOptions` instance
    (regression-tested in ``tests/test_core_options_signatures.py``).
    """
    if engine not in ENGINE_NAMES:
        raise AlgorithmError(
            f"unknown engine {engine!r}; valid choices: "
            + ", ".join(ENGINE_NAMES)
        )
    return engine


@dataclass(frozen=True)
class EclOptions:
    """Toggles for ECL-SCC's optimizations (paper §3.3-3.4, Fig. 14).

    Attributes
    ----------
    async_phase2:
        thread blocks iterate their edge chunk to a *local* fixed point
        inside a single kernel launch, instead of one launch per global
        relaxation round.  Cuts kernel launches by ~an order of magnitude.
    remove_scc_edges:
        Phase 3 also drops edges inside already-detected SCCs (not only
        edges spanning different SCCs), shrinking later worklists.
    path_compression:
        propagate ``sig[sig[v]]`` instead of ``sig[v]`` (pointer jumping)
        and apply the paper's signature-feedback rule, so values traverse
        a c-cycle in O(log c) rounds instead of O(c).
    persistent_threads:
        launch only as many thread blocks as the device keeps resident;
        each block owns a large contiguous edge chunk (multiple edges per
        thread).  Interacts with ``async_phase2``: larger chunks converge
        further per launch but keep processing already-converged edges.
    block_edges:
        edge-chunk size per block when ``persistent_threads`` is False
        (one edge per thread x 512 threads).  Exposed for tests.
    max_outer_iterations:
        safety bound on Algorithm 1's outer loop; the theoretical maximum
        is |V| (each iteration finishes >= 1 SCC).  Exceeding it raises
        :class:`~repro.errors.ConvergenceError`.
    max_rounds:
        safety bound on Phase-2 relaxation rounds per outer iteration.
        The auto value (``3|V| + 16``) covers every engine's worst case:
        the sync engine needs at most ``|V| + 1`` global rounds, but the
        async engine's block-local iteration counts *local* rounds — a
        value crossing a block boundary only advances at the next launch,
        so its cross-launch total can reach ``~|V| + #launches``.
    engine:
        name of the Phase-2 engine, validated against the engine
        registry (:data:`ENGINE_NAMES`).  The default ``""`` derives
        the engine from the paper's ablation flag (``async_phase2``
        picks async over sync); an explicit name overrides it.
        ``"atomic"`` selects the two-atomic-max Phase 2 the paper
        rejected (§3.4), for the atomic-vs-atomic-free ablation
        (``benchmarks/test_ext_atomic.py``).  ``"frontier"`` selects
        the persistent vertex-worklist kernel with *cross-iteration
        frontier reuse*:
        after Phase 3 removes edges, the next outer iteration
        re-initializes and re-propagates only the invalidated vertices
        (unfinished vertices plus endpoints of removed edges) instead
        of re-relaxing every surviving edge to quiescence.
        ``"adaptive"`` keeps the frontier engine's drain structure but
        lets an :class:`~repro.engine.scheduler.AdaptiveScheduler` pick
        the propagation policy (dense pull sweep vs. frontier push
        worklist, :mod:`repro.engine.policy`) *per round* from frontier
        density, average frontier degree, and the running
        launch-overhead/bandwidth ratio.
    backend:
        name of the registered :class:`~repro.engine.ArrayBackend` the
        run's primitives account against (``"dense"`` reproduces the
        historical full-array sweeps; ``"frontier"`` models worklist
        kernels).  Validated when the run resolves it via
        :func:`~repro.engine.get_backend`.
    faults:
        optional :class:`~repro.faults.FaultPlan`; when set, the run
        injects the plan's seeded faults and engages the recovery
        machinery (checkpoint/restart, verification-guarded healing).
        ``None`` (the default) is a fault-free run.
    """

    async_phase2: bool = True
    remove_scc_edges: bool = True
    path_compression: bool = True
    persistent_threads: bool = True
    engine: str = ""
    block_edges: int = 512
    max_outer_iterations: int = 0  # 0 = auto (|V| + 2)
    max_rounds: int = 0  # 0 = auto (3|V| + 16, see docstring)
    backend: str = "dense"
    faults: "FaultPlan | None" = None

    def __post_init__(self) -> None:
        if self.engine:
            validate_engine(self.engine)
        if self.block_edges < 1:
            raise AlgorithmError(f"block_edges must be >= 1, got {self.block_edges}")
        if self.max_outer_iterations < 0 or self.max_rounds < 0:
            raise AlgorithmError("iteration bounds must be >= 0 (0 = auto)")

    # ------------------------------------------------------------------
    def outer_bound(self, num_vertices: int) -> int:
        return self.max_outer_iterations or (num_vertices + 2)

    def rounds_bound(self, num_vertices: int) -> int:
        """Phase-2 round bound honored by *every* engine.

        ``max_rounds`` wins when set; the auto value ``3|V| + 16`` is the
        shared engine-safe ceiling (the async engine's cross-launch round
        total can exceed ``|V| + 2`` — see the ``max_rounds`` docs).
        """
        return self.max_rounds or (3 * num_vertices + 16)

    @property
    def phase2_engine(self) -> str:
        """Resolved name of the Phase-2 engine these options select.

        An explicit ``engine`` wins; otherwise the paper's ablation flag
        ``async_phase2`` decides.
        """
        if self.engine:
            return self.engine
        return "async" if self.async_phase2 else "sync"

    def disabling(self, flag: str) -> "EclOptions":
        """Copy with one optimization turned off (ablation helper)."""
        if flag not in (
            "async_phase2",
            "remove_scc_edges",
            "path_compression",
            "persistent_threads",
        ):
            raise AlgorithmError(f"unknown optimization flag {flag!r}")
        return replace(self, **{flag: False})


#: all optimizations enabled — the configuration the paper ships.
ALL_ON = EclOptions()

#: all four optimizations disabled — Fig. 14's "all off" bar.
ALL_OFF = EclOptions(
    async_phase2=False,
    remove_scc_edges=False,
    path_compression=False,
    persistent_threads=False,
)


def ablation_variants() -> "dict[str, EclOptions]":
    """The six configurations of Figure 14."""
    return {
        "all on": ALL_ON,
        "no async": ALL_ON.disabling("async_phase2"),
        "no SCC-edge removal": ALL_ON.disabling("remove_scc_edges"),
        "no path compression": ALL_ON.disabling("path_compression"),
        "no persistent threads": ALL_ON.disabling("persistent_threads"),
        "all off": ALL_OFF,
    }
