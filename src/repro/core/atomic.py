"""The atomic-max formulation of Phase 2 (paper §3.4, first sentence).

"Phase 2 can easily be implemented with two atomic max operations.
However, as it represents the most performance critical section of our
code, we opted for a faster atomic-free implementation."

This module implements the variant the authors rejected so the trade-off
can be measured (``benchmarks/test_ext_atomic.py``).  Semantically the
fixed point is identical — the difference is purely in the device cost:
every edge relaxation issues two atomic RMWs (``atomicMax`` on the
source's out-signature and the destination's in-signature) instead of
the monotonic race-and-retry writes of the shipped kernel, and those
atomics serialize per cache line on real hardware.

The simulation uses ``np.maximum.at`` (an exact scatter-max, which is
what a pair of atomicMax loops guarantees) and reports two atomics per
edge per round to the device model.
"""

from __future__ import annotations

import numpy as np

from ..device.executor import VirtualDevice
from ..engine.accounting import charge_relaxation_round
from ..engine.relax import compress_paths, push, rose, snapshot
from ..trace import NULL_TRACER, Tracer
from .options import EclOptions
from .propagation import _bounds_check
from .signatures import Signatures

__all__ = ["propagate_atomic"]


def propagate_atomic(
    sigs: Signatures,
    src: np.ndarray,
    dst: np.ndarray,
    dev: VirtualDevice,
    opts: EclOptions,
    num_vertices: int,
    *,
    tracer: Tracer = NULL_TRACER,
) -> int:
    """Phase 2 with two atomic max operations per edge.  Returns rounds.

    Rounds iterate to the same fixed point as the sync engine; path
    compression (when enabled in *opts*) applies the same pointer-jump
    and feedback steps so results stay bit-identical across engines.
    """
    bound = opts.rounds_bound(num_vertices)
    rounds = 0
    m = src.size
    while True:
        rounds += 1
        _bounds_check(rounds, bound, "propagate_atomic", sigs)
        tracer.counter("relaxation-round", engine="atomic")
        snap = snapshot(sigs)
        # u_out <- atomicMax(u_out, v_out); v_in <- atomicMax(v_in, u_in)
        push(sigs, src, dst, compress=opts.path_compression)
        extra_vertex_work = 0
        if opts.path_compression:
            compress_paths(sigs, None, None)
            extra_vertex_work = 2 * num_vertices
        changed = rose(sigs, snap).any()
        charge_relaxation_round(
            dev, edges=m, vertices=extra_vertex_work, atomics=2 * m
        )
        if not changed:
            return rounds
