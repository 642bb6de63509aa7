"""The immutable value types compare and hash by value, refuse attribute
assignment, and keep their constructor defaults; the mutable report types
start with fresh lists."""

from fractions import Fraction

import pytest

from qcrys.crystal import DEFAULT_MARGIN, CrystalSpec
from qcrys.report import PASS, RelationReport, StateResult
from qcrys.scalar import IdentityVerdict, serre_identity_verdict
from qcrys.verify import (
    DEFAULT_FAMILIES,
    DEFAULT_Q_LIST,
    SuiteConfig,
    SuiteResult,
    load_config,
)

VALUES = [
    (CrystalSpec("C", 2, 2, 6), "cap", 8),
    (SuiteConfig("A", 3, 3), "margin", 0),
    (StateResult((1, 0), True, PASS), "klass", "FAIL"),
    (IdentityVerdict(symbolic=True, at_q1=True), "symbolic", False),
]


@pytest.mark.parametrize("value, field, other", VALUES, ids=lambda v: type(v).__name__)
def test_fields_are_read_only(value, field, other):
    with pytest.raises(AttributeError):
        setattr(value, field, other)
    with pytest.raises(AttributeError):
        value.extra = other


def test_equal_values_hash_equal():
    a, b = CrystalSpec("C", 2, 2, 6), CrystalSpec(algebra_type="C", n=2, lam=2, cap=6)
    assert a == b and hash(a) == hash(b)
    assert len({a, b, CrystalSpec("C", 2, 2, 8)}) == 2
    s, t = StateResult((1, 0), True, PASS), StateResult((1, 0), True, PASS)
    assert s == t and hash(s) == hash(t)
    assert IdentityVerdict(True, False) == IdentityVerdict(symbolic=True, at_q1=False)
    assert hash(load_config({"type": "A", "n": 3, "lambda": 3})) == hash(SuiteConfig("A", 3, 3))


def test_suite_config_defaults_and_keywords():
    cfg = SuiteConfig("A", 3, 3)
    assert cfg.cap is None
    assert cfg.margin == DEFAULT_MARGIN
    assert cfg.q_list == DEFAULT_Q_LIST
    assert cfg.families == DEFAULT_FAMILIES
    q_list = (Fraction(2), Fraction(3, 5))
    by_keyword = SuiteConfig(
        algebra_type="C", n=2, lam=2, cap=12, margin=0, q_list=q_list, families=("ladder",)
    )
    assert by_keyword == SuiteConfig("C", 2, 2, 12, 0, q_list, ("ladder",))
    assert by_keyword.spec() == CrystalSpec("C", 2, 2, 12)
    changed = by_keyword._replace(families=("ladder", "map"))
    assert changed.families == ("ladder", "map") and by_keyword.families == ("ladder",)


def test_crystal_spec_checks_survive_replace():
    spec = CrystalSpec("C", 2, 2, 6)
    assert spec._replace(cap=8) == CrystalSpec("C", 2, 2, 8)
    with pytest.raises(ValueError, match="cap must be at least the highest-weight label"):
        spec._replace(cap=1)
    with pytest.raises(ValueError, match="type A state spaces take no cap"):
        spec._replace(algebra_type="A")
    assert repr(spec) == "CrystalSpec(algebra_type='C', n=2, lam=2, cap=6)"


def test_identity_verdict_holds():
    assert serre_identity_verdict(1, 1) == IdentityVerdict(symbolic=True, at_q1=True)
    assert IdentityVerdict(False, True).holds and not IdentityVerdict(False, False).holds


def test_mutable_reports_start_with_fresh_lists():
    a = RelationReport("ladder", {}, Fraction(2))
    b = RelationReport("ladder", {}, Fraction(2))
    a.per_state.append(StateResult((0,), True, PASS))
    a.failures.append({})
    assert b.per_state == [] and b.failures == []
    assert a.summary == {"pass": 1, "fail": 0, "boundary": 0}
    r, s = SuiteResult(SuiteConfig("A", 2, 1)), SuiteResult(config=SuiteConfig("A", 2, 1))
    r.reports.append(a)
    assert s.reports == [] and r.totals == a.summary
