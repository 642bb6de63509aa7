"""Per-state relation reports: exact pass/fail classification with an
explicit BOUNDARY class for states whose verdict would be an artifact of
finite truncation rather than of the relations themselves."""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction

__all__ = ["PASS", "FAIL", "BOUNDARY", "StateResult", "RelationReport"]

PASS = "PASS"
FAIL = "FAIL"
BOUNDARY = "BOUNDARY"


@dataclass(frozen=True)
class StateResult:
    """Outcome at one basis state.  ``residual_zero`` records the raw
    algebra; ``klass`` additionally accounts for truncation: BOUNDARY states
    are never asserted either way."""

    state: tuple[int, ...]
    residual_zero: bool
    klass: str


@dataclass
class RelationReport:
    """Exact residual record for one relation family on one carrier at one
    deformation parameter.  PASS means the residual column is exactly zero
    (no tolerances anywhere); FAIL carries the offending word and residual
    entries in ``failures``."""

    relation_id: str
    carrier: dict
    q: Fraction
    per_state: list[StateResult] = field(default_factory=list)
    failures: list[dict] = field(default_factory=list)

    @property
    def summary(self) -> dict[str, int]:
        counts = {"pass": 0, "fail": 0, "boundary": 0}
        for r in self.per_state:
            if r.klass == PASS:
                counts["pass"] += 1
            elif r.klass == FAIL:
                counts["fail"] += 1
            else:
                counts["boundary"] += 1
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

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True, indent=2) + "\n"

    def one_line(self) -> str:
        s = self.summary
        return (
            f"{self.relation_id} q={self.q}: "
            f"pass={s['pass']} fail={s['fail']} boundary={s['boundary']}"
        )
