import json
from fractions import Fraction

import pytest

from qcrys.crystal import CrystalSpec, build_model, weight_h
from qcrys.rep import commutator, op_e_deformed, op_h
from qcrys.report import BOUNDARY, FAIL, PASS
from qcrys.verify import (
    ConfigError,
    SuiteConfig,
    _cartan_residual,
    cartan_matrix,
    check_cartan,
    check_ladder,
    check_map,
    check_serre,
    expected_cartan,
    load_config,
    run_suite,
    symmetrizers,
)

F = Fraction


def model_a(n, lam):
    return build_model(CrystalSpec("A", n, lam))


def model_c(n, lam, cap):
    return build_model(CrystalSpec("C", n, lam, cap))


class TestCartanMatrix:
    def test_type_a_matrix(self):
        m = cartan_matrix(model_a(3, 2))
        assert m == [[2, -1], [-1, 2]]

    def test_type_c_asymmetric_pair(self):
        m = cartan_matrix(model_c(2, 1, 9))
        # shift of H_1 under the long-node move is -2, of H_2 under the
        # short-node move is -1
        assert m == [[2, -2], [-1, 2]]

    def test_type_c_rank_three(self):
        m = cartan_matrix(model_c(3, 0, 8))
        assert m == expected_cartan(CrystalSpec("C", 3, 0, 8))
        assert m[1][2] == -2 and m[2][1] == -1

    def test_trivial_rep_falls_back(self):
        assert cartan_matrix(model_a(2, 0)) == [[2]]

    def test_symmetrizers(self):
        spec = CrystalSpec("C", 3, 1, 9)
        model = build_model(spec)
        assert symmetrizers(spec, cartan_matrix(model)) == [1, 1, 2]
        spec_a = CrystalSpec("A", 4, 2)
        model_a4 = build_model(spec_a)
        assert symmetrizers(spec_a, cartan_matrix(model_a4)) == [1, 1, 1]


class TestCheckCartan:
    def test_spin_one_eigenvalue_two(self):
        m = model_a(2, 2)
        report = check_cartan(m, F(2))
        assert report.summary == {"pass": 3, "fail": 0, "boundary": 0}
        e = op_e_deformed(m, 1, 1, F(2))
        assert commutator(op_h(m, 1), e) == e * 2

    def test_adjacent_node_entry(self):
        m = model_a(3, 1)
        report = check_cartan(m, 1)
        assert report.all_clear
        e2 = op_e_deformed(m, 2, 1, 1)
        assert commutator(op_h(m, 1), e2) == e2 * (-1)

    def test_type_c_off_margin_pass(self):
        m = model_c(2, 1, 9)
        report = check_cartan(m, F(3, 5))
        assert report.summary["fail"] == 0
        for r in report.per_state:
            if sum(r.state) <= 9 - 6:
                assert r.klass == PASS


class TestCheckLadder:
    def test_type_a_all_pass(self):
        for q in (F(1), F(2), F(3, 5)):
            report = check_ladder(model_a(3, 2), q)
            assert report.summary == {"pass": 6, "fail": 0, "boundary": 0}

    def test_cross_node_vanishing(self):
        report = check_ladder(model_a(3, 2), 1)
        assert report.all_clear

    def test_type_c_interior_pass_boundary_failure_visible(self):
        m = model_c(1, 0, 8)
        report = check_ladder(m, F(2))
        for r in report.per_state:
            if r.klass != BOUNDARY:
                assert r.klass == PASS
        # the finite top of the ladder is reproduced, not silently passed
        boundary_nonzero = [
            r for r in report.per_state if r.klass == BOUNDARY and not r.residual_zero
        ]
        assert boundary_nonzero
        assert report.summary["fail"] == 0

    def test_type_c_rank_two(self):
        report = check_ladder(model_c(2, 2, 10), F(3, 5))
        assert report.summary["fail"] == 0
        assert report.summary["pass"] > 0


class TestCheckSerre:
    def test_classical_a3(self):
        report = check_serre(model_a(3, 2), 1, deformed=False)
        assert report.summary == {"pass": 6, "fail": 0, "boundary": 0}

    def test_deformed_a3(self):
        report = check_serre(model_a(3, 3), F(2), deformed=True)
        assert report.summary == {"pass": 10, "fail": 0, "boundary": 0}

    def test_nonadjacent_pair_reduces_to_commutator(self):
        report = check_serre(model_a(4, 1), F(3, 5), deformed=True)
        assert report.all_clear

    @pytest.mark.parametrize("q", [F(1), F(2), F(1, 2)])
    def test_type_c_interior(self, q):
        report = check_serre(model_c(2, 0, 10), q, deformed=True)
        assert report.summary["fail"] == 0
        interior = [r for r in report.per_state if r.klass != BOUNDARY]
        assert interior and all(r.klass == PASS for r in interior)

    def test_type_c_classical_interior(self):
        report = check_serre(model_c(2, 1, 9), 1, deformed=False)
        assert report.summary["fail"] == 0


class TestCheckMap:
    @pytest.mark.parametrize("lam", range(1, 9))
    def test_cz_equivalence(self, lam):
        for q in (F(2), F(1, 2)):
            report = check_map(model_a(2, lam), q)
            assert report.summary["fail"] == 0
            assert all(r.klass == PASS for r in report.per_state)

    def test_q1_trivial(self):
        for model in (model_a(3, 2), model_c(2, 2, 8)):
            report = check_map(model, 1)
            assert report.summary["fail"] == 0

    def test_type_c_roundtrip_off_margin(self):
        report = check_map(model_c(2, 2, 10), F(3))
        assert report.summary["fail"] == 0
        for r in report.per_state:
            if sum(r.state) <= 10 - 6:
                assert r.klass == PASS

    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize("lam", [1, 2, 3, 4, 5])
    def test_type_a_completeness(self, n, lam):
        # Full type A grid: the dressing map holds on every state with
        # zero boundary states at every sampled q.
        model = model_a(n, lam)
        for q in (F(1), F(2), F(1, 2), F(3, 5)):
            report = check_map(model, q)
            assert report.summary == {"pass": model.dim, "fail": 0, "boundary": 0}


class TestSuite:
    def test_default_type_a_exit_zero(self):
        cfg = SuiteConfig("A", 3, 3, q_list=(F(2),))
        result = run_suite(cfg)
        assert result.exit_code == 0
        assert result.totals["fail"] == 0
        assert result.totals["boundary"] == 0

    def test_type_c_exit_zero_with_boundary(self):
        cfg = SuiteConfig("C", 2, 2, cap=12, q_list=(F(3, 5),))
        result = run_suite(cfg)
        assert result.exit_code == 0
        assert result.totals["boundary"] > 0

    def test_margin_zero_localizes_truncation_failures(self):
        cfg = SuiteConfig("C", 1, 0, cap=8, margin=0, q_list=(F(2),))
        result = run_suite(cfg)
        assert result.exit_code == 1
        for report in result.reports:
            for r in report.per_state:
                if r.klass == FAIL:
                    # word depth never exceeds two long-node steps
                    assert sum(r.state) > 8 - 4
        assert result.totals["fail"] > 0

    def test_empty_family_list(self):
        cfg = SuiteConfig("A", 2, 1, families=())
        result = run_suite(cfg)
        assert result.exit_code == 0
        assert result.reports == []

    def test_deterministic_json(self):
        cfg = SuiteConfig("C", 2, 1, cap=9, q_list=(F(2), F(1, 2)))
        a = run_suite(cfg).to_json()
        b = run_suite(cfg).to_json()
        assert a == b
        obj = json.loads(a)
        assert {"config", "reports", "totals"} <= set(obj)

    def test_report_schema(self):
        cfg = SuiteConfig("A", 2, 2, q_list=(F(2),), families=("ladder",))
        obj = run_suite(cfg).reports[0].to_json_dict()
        assert set(obj) == {"relation_id", "spec", "q", "summary", "failures"}
        assert obj["q"] == "2"
        assert obj["spec"]["lambda"] == 2

    def test_failure_records_carry_word_and_residual(self):
        cfg = SuiteConfig("C", 1, 0, cap=8, margin=0, q_list=(F(2),), families=("ladder",))
        result = run_suite(cfg)
        assert result.reports[0].failures
        rec = result.reports[0].failures[0]
        assert set(rec) == {"state", "word", "residual"}
        assert "->" in rec["word"]
        assert rec["residual"]


# Shared-input differential checks: the suite's shared generators, model
# data and entrywise Cartan residuals against the standalone operator route.
DIFF_CONFIGS = [
    SuiteConfig("A", 3, 3),
    SuiteConfig("C", 2, 2, cap=12),
    SuiteConfig("C", 3, 2, cap=18, margin=0),
]
DIFF_Q = (F(1), F(3, 5), F(2))


@pytest.mark.parametrize("cfg", DIFF_CONFIGS, ids=lambda c: f"{c.algebra_type}{c.n}-{c.lam}")
class TestSharedInputs:
    def test_entrywise_cartan_residual_matches_operator_route(self, cfg):
        model = build_model(cfg.spec())
        h = [weight_h(model, s) for s in model.states]
        a = cartan_matrix(model)
        nodes = cfg.spec().nodes
        hs = {i: op_h(model, i) for i in range(1, nodes + 1)}
        for i in range(1, nodes + 1):
            for j in range(1, nodes + 1):
                assert _cartan_residual(h, i, hs[j], 0) == commutator(hs[i], hs[j])
        for q in DIFF_Q:
            for j in range(1, nodes + 1):
                for sign in (1, -1):
                    e = op_e_deformed(model, j, sign, q)
                    # a ladder product: a second operator shape, whose
                    # entries carry two-step weight shifts
                    mixed = e @ op_e_deformed(model, nodes + 1 - j, -sign, q)
                    for i in range(1, nodes + 1):
                        shift = sign * a[i - 1][j - 1]
                        comm = commutator(hs[i], e)
                        for c in (shift, shift + 1):
                            assert _cartan_residual(h, i, e, c) == comm - e * c
                        assert not _cartan_residual(h, i, e, shift + 1).is_zero()
                        assert _cartan_residual(h, i, mixed, shift) == (
                            commutator(hs[i], mixed) - mixed * shift
                        )

    def test_suite_reports_match_standalone_checks(self, cfg):
        families = ("cartan", "ladder", "serre", "serre-classical", "map")
        cfg = SuiteConfig(
            cfg.algebra_type, cfg.n, cfg.lam, cfg.cap, cfg.margin, DIFF_Q, families
        )
        suite = run_suite(cfg)
        if cfg.margin == 0:
            # the comparison must cover FAIL records and their word traces
            assert suite.exit_code == 1
        model = build_model(cfg.spec())
        standalone = []
        for q in DIFF_Q:
            standalone += [
                check_cartan(model, q, cfg.margin),
                check_ladder(model, q, cfg.margin),
                check_serre(model, q, True, cfg.margin),
                check_serre(model, q, False, cfg.margin),
                check_map(model, q, cfg.margin),
            ]
        assert len(suite.reports) == len(standalone)
        for got, want in zip(suite.reports, standalone):
            assert json.dumps(got.to_json_dict(), sort_keys=True) == json.dumps(
                want.to_json_dict(), sort_keys=True
            )
            assert got.per_state == want.per_state


class TestLoadConfig:
    def test_minimal(self):
        cfg = load_config({"type": "A", "n": 3, "lambda": 2})
        assert cfg.spec().nodes == 2
        assert cfg.margin == 6

    def test_default_cap_for_type_c(self):
        cfg = load_config({"type": "C", "n": 2, "lambda": 3})
        assert cfg.cap == 13

    def test_q_string_list(self):
        cfg = load_config({"type": "A", "n": 2, "lambda": 1, "q": "1,2,1/2"})
        assert cfg.q_list == (F(1), F(2), F(1, 2))

    def test_missing_key(self):
        with pytest.raises(ConfigError, match="lambda"):
            load_config({"type": "A", "n": 2})

    def test_unknown_family(self):
        with pytest.raises(ConfigError, match="unknown relation family"):
            load_config({"type": "A", "n": 2, "lambda": 1, "families": ["weird"]})

    def test_bad_rational(self):
        with pytest.raises(ConfigError):
            load_config({"type": "A", "n": 2, "lambda": 1, "q": ["0"]})
        with pytest.raises(ConfigError):
            load_config({"type": "A", "n": 2, "lambda": 1, "q": ["x/y"]})

    def test_invalid_spec(self):
        with pytest.raises(ConfigError):
            load_config({"type": "C", "n": 2, "lambda": 5, "cap": 3})

    def test_unknown_keys(self):
        with pytest.raises(ConfigError, match="unknown config keys"):
            load_config({"type": "A", "n": 2, "lambda": 1, "zzz": 1})

    def test_json_file_with_line_diagnostics(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text('{"type": "A",\n  "n": }\n', encoding="utf-8")
        with pytest.raises(ConfigError, match="line 2"):
            load_config(path)

    def test_json_file_ok(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(
            json.dumps({"type": "C", "n": 1, "lambda": 1, "cap": 7, "q": ["2"]}),
            encoding="utf-8",
        )
        cfg = load_config(path)
        assert cfg.cap == 7
