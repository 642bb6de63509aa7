"""The immutable value types compare and hash by value, refuse attribute
assignment, and keep their constructor defaults; reports and suite results
are built once from finished results and count their states once."""

from fractions import Fraction

import pytest

from qcrys.crystal import DEFAULT_MARGIN, CrystalSpec
from qcrys.report import FAIL, PASS, RelationReport, StateResult
from qcrys.scalar import IdentityVerdict, serre_identity_verdict
from qcrys.verify import (
    DEFAULT_FAMILIES,
    DEFAULT_Q_LIST,
    SuiteConfig,
    SuiteResult,
    load_config,
    run_suite,
)

VALUES = [
    (CrystalSpec("C", 2, 2, 6), "cap", 8),
    (SuiteConfig("A", 3, 3), "margin", 0),
    (StateResult((1, 0), True, PASS), "klass", "FAIL"),
    (IdentityVerdict(symbolic=True, at_q1=True), "symbolic", False),
    (RelationReport("ladder", {}, Fraction(2)), "per_state", []),
    (SuiteResult(SuiteConfig("A", 2, 1), ()), "reports", []),
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


def test_reports_count_once_and_recount_on_replace():
    ok, bad = StateResult((0,), True, PASS), StateResult((1,), False, FAIL)
    report = RelationReport("ladder", {}, Fraction(2), [ok, bad], [{"state": [1]}])
    assert report.per_state == (ok, bad) and report.failures == ({"state": [1]},)
    assert report.summary == {"pass": 1, "fail": 1, "boundary": 0} and not report.all_clear
    assert RelationReport._fields[-1] == "summary"  # stored, not recounted per read
    clear = report._replace(per_state=[ok], failures=[])
    assert clear.per_state == (ok,) and clear.failures == ()
    assert clear.summary == {"pass": 1, "fail": 0, "boundary": 0} and clear.all_clear
    assert report.summary["fail"] == 1
    empty = RelationReport("ladder", {}, Fraction(2))
    assert empty.per_state == () == empty.failures and empty.summary["pass"] == 0
    result = SuiteResult(SuiteConfig("A", 2, 1), (report, clear))
    assert result.exit_code == 1 and result.totals == {"pass": 2, "fail": 1, "boundary": 0}
    assert result._replace(reports=(clear,)).exit_code == 0


def test_reports_of_one_binding_share_their_tuples():
    # q and 1/q bind equal keys, so the report at 1/2 reuses the outcome
    # evaluated at 2: the same tuples, not copies.
    cfg = SuiteConfig("C", 2, 2, 12, 0, (Fraction(2), Fraction(1, 2)), ("ladder", "map"))
    result = run_suite(cfg)
    assert isinstance(result.reports, tuple)
    for at_2, at_half in zip(result.reports[:2], result.reports[2:]):
        assert (at_2.q, at_half.q) == (Fraction(2), Fraction(1, 2))
        assert isinstance(at_2.per_state, tuple) and isinstance(at_2.failures, tuple)
        assert at_2.per_state is at_half.per_state and at_2.failures is at_half.failures
    assert any(report.failures for report in result.reports)
