"""Per-state relation reports: exact pass/fail classification with an
explicit BOUNDARY class for states whose verdict would be an artifact of
finite truncation rather than of the relations themselves."""

from __future__ import annotations

from collections import namedtuple

__all__ = ["PASS", "FAIL", "BOUNDARY", "StateResult", "RelationReport"]

PASS = "PASS"
FAIL = "FAIL"
BOUNDARY = "BOUNDARY"


class StateResult(namedtuple("StateResult", "state residual_zero klass")):
    """Outcome at one basis state (immutable).  ``residual_zero`` records
    the raw algebra; ``klass`` additionally accounts for truncation:
    BOUNDARY states are never asserted either way."""

    __slots__ = ()


class RelationReport(
    namedtuple("RelationReport", "relation_id carrier q per_state failures summary")
):
    """Exact residual record for one relation family on one carrier at one
    deformation parameter (a ``Fraction`` q), built once from finished
    results (immutable).  PASS means the residual column is exactly zero
    (no tolerances anywhere); FAIL carries the offending word and residual
    entries in ``failures``.  ``per_state`` and ``failures`` are tuples,
    and ``summary``, the count of states per class, is taken once here."""

    __slots__ = ()

    def __new__(cls, relation_id, carrier, q, per_state=(), failures=()):
        per_state = tuple(per_state)
        summary = {"pass": 0, "fail": 0, "boundary": 0}
        for r in per_state:
            summary[r.klass.lower()] += 1
        return super().__new__(cls, relation_id, carrier, q, per_state, tuple(failures), summary)

    @classmethod
    def _make(cls, iterable):
        # namedtuple's own _make (and so _replace) would keep a stale count.
        return cls(*tuple(iterable)[:5])

    @property
    def all_clear(self) -> bool:
        return self.summary["fail"] == 0

    def to_json_dict(self) -> dict:
        return {
            "relation_id": self.relation_id,
            "spec": self.carrier,
            "q": str(self.q),
            "summary": self.summary,
            "failures": self.failures,
        }

    def one_line(self) -> str:
        s = self.summary
        return (
            f"{self.relation_id} q={self.q}: "
            f"pass={s['pass']} fail={s['fail']} boundary={s['boundary']}"
        )
