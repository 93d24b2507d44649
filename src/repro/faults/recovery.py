"""Checkpoint/restart, retry backoff, and verification-guarded healing.

Three recovery mechanisms, matched to the three corrupting fault kinds
of :mod:`repro.faults.plan`:

* **Checkpoint/restart** (engine crashes) — :class:`CheckpointStore`
  snapshots the ECL-SCC outer-loop state (labels, active mask, edge
  worklist, round totals, device counters) every ``checkpoint_every``
  iterations.  A crash restores the latest snapshot and the loop
  re-executes from there.  Counter restoration discards the wasted
  work's charges, and the re-executed iterations recharge identically,
  so a crashed-and-restored run reproduces the fault-free run's labels
  *and* counter snapshot bit for bit (the restore itself is charged to
  ``counters.notes``, which :meth:`~repro.device.KernelCounters.snapshot`
  excludes by design).
* **Bounded retry with exponential backoff** (rank crashes) —
  :func:`backoff_seconds` computes attempt *k*'s wait as
  ``backoff_base_us * 2**k``, floored by the straggler-adjusted duration
  of the last superstep (the principled timeout basis: a retry cannot
  observe failure faster than the slowest surviving rank computes).
* **Verification-guarded self-healing** (bit flips) —
  :func:`heal_labels` asks :func:`repro.analysis.verify.fixed_point_offenders`
  for the vertex set on which the labelling is *not* a fixed point of
  max-propagation, re-runs ECL-SCC on the induced offender subgraph, and
  repeats until the invariant holds.  The offender set is always a union
  of complete true SCCs (see ``docs/robustness.md`` §4), so healing the
  induced subgraph in isolation is sound.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..device.counters import KernelCounters
from ..errors import FaultError
from ..graph.ops import induced_subgraph
from .inject import FaultInjector

__all__ = [
    "Checkpoint",
    "CheckpointStore",
    "backoff_seconds",
    "heal_labels",
    "MAX_HEAL_PASSES",
]

#: self-healing gives up (raises FaultError) after this many passes.
MAX_HEAL_PASSES = 3


@dataclass
class Checkpoint:
    """One frozen outer-loop state (taken at the *top* of an iteration)."""

    outer: int                       # iterations fully completed
    labels: np.ndarray
    active: np.ndarray
    wl_src: np.ndarray
    wl_dst: np.ndarray
    wl_generation: int
    total_rounds: int
    completed_per_iteration: "list[int]"
    counters: KernelCounters
    #: launch-ledger length at checkpoint time; restore truncates the
    #: ledger here so profile attribution matches the restored counters
    ledger_len: int = 0
    # reuse-engine (frontier/adaptive) extras: the partial re-init means
    # signatures and the invalidation set are live cross-iteration state
    # (dense engines rebuild both from scratch each iteration, so they
    # skip this)
    sig_in: "np.ndarray | None" = None
    sig_out: "np.ndarray | None" = None
    invalidated: "np.ndarray | None" = None
    #: adaptive-engine extra: the scheduler's tallies and decision-log
    #: length (:meth:`~repro.engine.scheduler.AdaptiveScheduler.state_snapshot`)
    #: — restoring rewinds the decision log with the counters, so a
    #: crash-restore replays the fault-free run's decision sequence
    scheduler_state: "dict | None" = None

    @property
    def nbytes(self) -> int:
        total = (
            self.labels.nbytes
            + self.active.nbytes
            + self.wl_src.nbytes
            + self.wl_dst.nbytes
        )
        if self.sig_in is not None:
            total += self.sig_in.nbytes + self.sig_out.nbytes
        if self.invalidated is not None:
            total += self.invalidated.nbytes
        return total


class CheckpointStore:
    """Holds the latest checkpoint of one ECL-SCC run.

    The driver saves at the top of every iteration where
    :meth:`due` is true (plus a genesis checkpoint before iteration 1, so
    a crash is always recoverable), and restores on
    :meth:`FaultInjector.crash_due`.  Saves are charged to the device as
    a streamed copy-out of the checkpointed arrays; because the counter
    copy inside the checkpoint is taken *before* that charge, restoring
    and re-executing reproduces the exact same charge sequence.
    """

    def __init__(self, cadence: int, *, injector: "FaultInjector | None" = None):
        self.cadence = max(1, int(cadence))
        self.injector = injector
        self._latest: "Checkpoint | None" = None

    def due(self, outer_completed: int) -> bool:
        """True when a checkpoint should be taken after *outer_completed*
        iterations (0 = genesis, always saved)."""
        return outer_completed % self.cadence == 0

    def save(self, *, outer, labels, active, wl, total_rounds,
             completed_per_iteration, device, sigs=None,
             invalidated=None, scheduler=None) -> Checkpoint:
        ledger = getattr(device, "ledger", None)
        ckpt = Checkpoint(
            outer=int(outer),
            labels=labels.copy(),
            active=active.copy(),
            wl_src=wl.src.copy(),
            wl_dst=wl.dst.copy(),
            wl_generation=wl.generation,
            total_rounds=int(total_rounds),
            completed_per_iteration=list(completed_per_iteration),
            counters=device.counters.copy(),
            ledger_len=len(ledger.records) if ledger is not None else 0,
            sig_in=sigs.sig_in.copy() if sigs is not None else None,
            sig_out=sigs.sig_out.copy() if sigs is not None else None,
            invalidated=invalidated.copy() if invalidated is not None else None,
            scheduler_state=(
                scheduler.state_snapshot() if scheduler is not None else None
            ),
        )
        self._latest = ckpt
        # copy-out of the checkpointed state: sequential streaming traffic
        # (charged through the device so the launch ledger sees it too)
        device.launch(
            vertices=labels.size, bytes_per_vertex=0,
            streamed_bytes=ckpt.nbytes,
        )
        device.counters.note("faults:checkpoint_bytes", float(ckpt.nbytes))
        if self.injector is not None:
            self.injector.record_checkpoint(ckpt.outer, ckpt.nbytes)
        return ckpt

    @property
    def latest(self) -> "Checkpoint | None":
        return self._latest

    def restore(self, *, labels, active, wl, device, crashed_at: int,
                sigs=None, invalidated=None, scheduler=None) -> Checkpoint:
        """Roll run state back to the latest checkpoint (in place).

        Device counters are *replaced* by the checkpoint's copy: the
        crashed iterations' charges are discarded and will be recharged
        by re-execution.  The restore's own copy-in traffic goes to
        ``counters.notes`` only, keeping counter snapshots bit-identical
        with a fault-free run of the same plan.  When the checkpoint
        carries frontier-engine state (signatures + invalidation set),
        passing ``sigs``/``invalidated`` rolls those back too, so the
        re-executed iterations recharge the same partial work.
        """
        ckpt = self._latest
        if ckpt is None:
            raise FaultError("no checkpoint available to restore")
        labels[:] = ckpt.labels
        active[:] = ckpt.active
        wl.src = ckpt.wl_src.copy()
        wl.dst = ckpt.wl_dst.copy()
        wl.generation = ckpt.wl_generation
        if sigs is not None and ckpt.sig_in is not None:
            sigs.sig_in[:] = ckpt.sig_in
            sigs.sig_out[:] = ckpt.sig_out
        if invalidated is not None and ckpt.invalidated is not None:
            invalidated[:] = ckpt.invalidated
        if scheduler is not None and ckpt.scheduler_state is not None:
            scheduler.restore_state(ckpt.scheduler_state)
        device.counters = ckpt.counters.copy()
        ledger = getattr(device, "ledger", None)
        if ledger is not None:
            # drop the crashed iterations' launch records alongside their
            # counter charges; re-execution re-records both identically
            del ledger.records[ckpt.ledger_len:]
        device.counters.note("faults:restore_bytes", float(ckpt.nbytes))
        if self.injector is not None:
            self.injector.record_restore(crashed_at, ckpt.outer)
        return ckpt


def backoff_seconds(
    plan, attempt: int, *, floor_s: float = 0.0, rng=None
) -> float:
    """Wait before retry *attempt* (0-based): exponential, floored.

    The floor is the straggler-adjusted duration of the last superstep —
    a retry cannot detect failure faster than the slowest surviving rank
    finishes its local compute.

    With ``rng`` (a plan-seeded ``numpy`` generator) and a plan carrying
    ``backoff_jitter > 0``, the exponential term is scaled by one seeded
    uniform draw from ``[1 - jitter, 1 + jitter]`` so concurrent retries
    de-synchronize deterministically (:mod:`repro.serve` passes its
    service RNG here).  When ``rng`` is omitted or the plan's jitter is
    zero, *no draw happens* and the result is bit-identical to the
    jitter-free formula — existing callers are unaffected.
    """
    base = plan.backoff_base_us * 1e-6 * (2.0 ** attempt)
    jitter = getattr(plan, "backoff_jitter", 0.0)
    if rng is not None and jitter > 0.0:
        base *= 1.0 + jitter * (2.0 * float(rng.random()) - 1.0)
    return max(base, floor_s)


def heal_labels(
    graph,
    labels: np.ndarray,
    *,
    device,
    options=None,
    backend=None,
    injector: "FaultInjector | None" = None,
    tracer=None,
    max_passes: int = MAX_HEAL_PASSES,
) -> np.ndarray:
    """Repair *labels* in place until they verify as an SCC fixed point.

    Each pass computes the offender set (vertices whose labelling
    violates the max-propagation fixed-point invariant), re-runs ECL-SCC
    fault-free on the induced offender subgraph, and writes the repaired
    labels back.  Raises :class:`~repro.errors.FaultError` if the
    invariant still fails after ``max_passes`` passes (which would
    indicate a healing bug, not an injected fault — the offender set is
    a union of complete SCCs, so one pass normally suffices).
    """
    from ..analysis.verify import fixed_point_offenders
    from ..core.eclscc import ecl_scc  # lazy: core.eclscc imports repro.faults

    for _ in range(max_passes):
        offenders = fixed_point_offenders(graph, labels)
        if offenders.size == 0:
            return labels
        sub, _ = induced_subgraph(graph, offenders)
        heal_dev = type(device)(device.spec)
        sub_res = ecl_scc(
            sub, options=options, device=heal_dev, backend=backend,
            tracer=tracer,
        )
        labels[offenders] = offenders[sub_res.labels]
        device.counters.merge(heal_dev.counters)
        device.counters.note("faults:heal_vertices", float(offenders.size))
        if injector is not None:
            injector.record_heal(int(offenders.size), int(offenders.size))
    offenders = fixed_point_offenders(graph, labels)
    if offenders.size:
        raise FaultError(
            f"self-healing did not converge after {max_passes} passes;"
            f" {offenders.size} vertices still violate the fixed-point"
            " invariant"
        )
    return labels
