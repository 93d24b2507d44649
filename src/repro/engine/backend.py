"""Pluggable array backends for the shared SCC engine.

The primitives in :mod:`repro.engine.primitives` are written against a
small *backend* interface instead of hard-coding how per-level kernels
sweep vertex state.  Two strategies ship:

* :class:`DenseNumpyBackend` — the topology-driven formulation every
  algorithm in this library used historically: each level/round kernel
  scans *all* vertex status flags (Barnat/Li style), so the per-launch
  vertex work is ``|V|`` regardless of how narrow the frontier is.  This
  is the default and reproduces the pre-engine counters bit-for-bit.
* :class:`FrontierBackend` — a worklist-driven formulation: each kernel
  is sized to the active frontier/worklist instead of the whole vertex
  set, the organization data-centric GPU codes (and ECL-SCC's own edge
  worklist) use.  Labels are identical; only the device accounting
  (vertex work, hence traffic and estimated runtime) changes.

The two backends form a fixed name table; :func:`get_backend` resolves
a name (or passes an instance through), and the CLI's ``--backend``
choices are :func:`backend_names`:

    >>> from repro.engine import get_backend
    >>> get_backend("frontier").name
    'frontier'
"""

from __future__ import annotations

from ..errors import AlgorithmError

__all__ = [
    "ArrayBackend",
    "DenseNumpyBackend",
    "FrontierBackend",
    "get_backend",
    "backend_names",
    "DEFAULT_BACKEND",
]


class ArrayBackend:
    """Interface every engine backend implements.

    A backend answers one question for the primitive layer: how wide a
    vertex-state sweep a level/round kernel performs
    (:meth:`sweep_vertices`), which is what distinguishes
    topology-driven from worklist-driven kernel organizations.  The CSR
    gather every reachability/trim primitive expands a frontier with is
    shared by both backends (:meth:`~repro.graph.csr.CSRGraph.successors`)
    — what differs between them is the accounting, not the arithmetic.
    """

    #: table key; subclasses must override.
    name = ""

    def sweep_vertices(self, total_vertices: int, worklist_size: int) -> int:
        """Vertex work items one level/round kernel processes.

        ``worklist_size`` is the number of vertices the kernel *needs*
        to look at (frontier, active set, candidate set); backends decide
        whether the modelled kernel actually restricts itself to them.
        """
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{type(self).__name__} {self.name!r}>"


class DenseNumpyBackend(ArrayBackend):
    """Topology-driven sweeps over dense NumPy arrays (the default).

    Every vertex-sized kernel scans the full status-flag array — the
    historical semantics of this library, and the cost structure of the
    topology-driven GPU codes the paper compares against.
    """

    name = "dense"

    def sweep_vertices(self, total_vertices: int, worklist_size: int) -> int:
        return int(total_vertices)


class FrontierBackend(DenseNumpyBackend):
    """Worklist-driven sweeps: kernels sized to the active frontier.

    Produces identical labels; models a data-centric kernel organization
    where per-level launches touch only the frontier/worklist entries
    (plus their adjacency).  On high-diameter inputs this removes the
    ``O(depth · |V|)`` flag-rescan term from the modelled traffic.
    """

    name = "frontier"

    def sweep_vertices(self, total_vertices: int, worklist_size: int) -> int:
        return int(min(total_vertices, max(worklist_size, 0)))


#: the backend used when callers do not choose one — current semantics.
DEFAULT_BACKEND = DenseNumpyBackend()

_BACKENDS: "dict[str, ArrayBackend]" = {
    b.name: b for b in (DEFAULT_BACKEND, FrontierBackend())
}


def get_backend(backend: "str | ArrayBackend | None") -> ArrayBackend:
    """Resolve a backend by name / instance; ``None`` means the default."""
    if backend is None:
        return DEFAULT_BACKEND
    if isinstance(backend, ArrayBackend):
        return backend
    try:
        return _BACKENDS[backend]
    except KeyError:
        raise AlgorithmError(
            f"unknown engine backend {backend!r}; known: {backend_names()}"
        ) from None


def backend_names() -> "tuple[str, ...]":
    """The backend names, the default first."""
    return tuple(_BACKENDS)
