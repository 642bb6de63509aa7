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


class RelationReport:
    """Exact residual record for one relation family on one carrier at one
    deformation parameter (a ``Fraction`` q).  PASS means the residual
    column is exactly zero (no tolerances anywhere); FAIL carries the
    offending word and residual entries in ``failures``."""

    def __init__(self, relation_id, carrier, q, per_state=None, failures=None):
        self.relation_id = relation_id
        self.carrier = carrier
        self.q = q
        self.per_state = [] if per_state is None else per_state
        self.failures = [] if failures is None else failures

    @property
    def summary(self) -> dict[str, int]:
        counts = {"pass": 0, "fail": 0, "boundary": 0}
        for r in self.per_state:
            counts[r.klass.lower()] += 1
        return counts

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
