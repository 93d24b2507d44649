"""Per-tenant resource budgets: hard admission limits.

A :class:`Budget` caps what one tenant may consume over the service's
lifetime, in the two currencies of the cost model: **model-seconds**
(estimated device time) and **bytes** (DRAM traffic, ``bytes_moved +
bytes_streamed``).  The :class:`BudgetLedger` tracks per-tenant spend
and enforces the limits at *admission*: a tenant at or over either
limit cannot start new work — the job is ``REJECTED`` with a
structured :class:`BudgetExceeded` payload naming the tenant, the
exhausted resource, the limit, and the spend.

Charging is at *attempt completion* and covers **all executed
attempts, including crashed ones** — a tenant whose jobs crash and
retry pays for the wasted work, which is exactly the incentive shape a
multi-tenant service needs (see ``docs/serve.md`` §4 for the
semantics and their rationale).
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["Budget", "BudgetExceeded", "BudgetLedger", "UNLIMITED"]

#: sentinel for "no limit on this resource".
UNLIMITED = float("inf")


@dataclass(frozen=True)
class Budget:
    """Hard per-tenant limits (``inf`` = unlimited)."""

    model_seconds: float = UNLIMITED
    bytes: float = UNLIMITED

    def __post_init__(self) -> None:
        if self.model_seconds < 0 or self.bytes < 0:
            raise ValueError("budget limits must be >= 0")


@dataclass(frozen=True)
class BudgetExceeded:
    """Structured rejection payload (attached to ``job.error``)."""

    tenant: str
    resource: str          # "model_seconds" | "bytes"
    limit: float
    spent: float

    def as_dict(self) -> "dict[str, object]":
        return {
            "error": "BudgetExceeded",
            "tenant": self.tenant,
            "resource": self.resource,
            "limit": self.limit,
            "spent": self.spent,
        }


#: the budget of a tenant nobody set one for.
_NO_LIMIT = Budget()


class BudgetLedger:
    """Per-tenant spend against per-tenant :class:`Budget` limits.

    Tenants without an explicit budget are unlimited.
    """

    def __init__(self) -> None:
        self._budgets: "dict[str, Budget]" = {}
        self._spent: "dict[str, dict[str, float]]" = {}

    def set_budget(self, tenant: str, budget: Budget) -> None:
        self._budgets[tenant] = budget

    def budget_of(self, tenant: str) -> Budget:
        return self._budgets.get(tenant, _NO_LIMIT)

    def spent_of(self, tenant: str) -> "dict[str, float]":
        return dict(self._spent.get(tenant, {"model_seconds": 0.0, "bytes": 0.0}))

    def charged(self, tenant: str) -> bool:
        """Whether *tenant* has a spend row (:meth:`snapshot` lists it)."""
        return tenant in self._spent

    # ------------------------------------------------------------------
    def check(self, tenant: str) -> "BudgetExceeded | None":
        """Admission test: None when the tenant may start new work.

        The limit is *hard on starting work*, not on total spend: a
        job admitted under the limit may finish over it (its charges
        land at completion), after which the tenant is locked out.
        """
        budget = self.budget_of(tenant)
        spent = self._spent.get(tenant, {})
        for resource, limit in (
            ("model_seconds", budget.model_seconds),
            ("bytes", budget.bytes),
        ):
            used = spent.get(resource, 0.0)
            if used >= limit:
                return BudgetExceeded(
                    tenant=tenant, resource=resource, limit=limit, spent=used
                )
        return None

    def charge(self, tenant: str, *, model_seconds: float, bytes: float) -> None:
        """Record one attempt's consumption (crashed attempts included)."""
        if model_seconds < 0 or bytes < 0:
            raise ValueError("charges must be >= 0")
        row = self._spent.setdefault(
            tenant, {"model_seconds": 0.0, "bytes": 0.0}
        )
        row["model_seconds"] += float(model_seconds)
        row["bytes"] += float(bytes)

    def snapshot(self) -> "dict[str, dict[str, float]]":
        """Spend by tenant (JSON-safe copy)."""
        return {t: dict(row) for t, row in sorted(self._spent.items())}
