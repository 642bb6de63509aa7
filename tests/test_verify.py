import json
import math
import re
from array import array
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import qcrys.rep as rep
import qcrys.verify as verify
from qcrys.crystal import (
    MOVE_CAPPED,
    MOVE_DEAD,
    MOVE_OK,
    CAP_MARGIN,
    CrystalSpec,
    apply_move,
    boundary_class,
    build_model,
    weight_h,
    weight_h2,
)
from qcrys.rep import (
    CZ_NODE,
    CZ_WEIGHT,
    LinOp,
    _factor_args,
    _is_long_node,
    commutator,
    cz_factor,
    deform_factor,
    deform_factor_inv,
    op_e_classical,
    op_e_deformed,
    op_h,
    op_hat,
)
from qcrys.report import BOUNDARY, FAIL, PASS
from qcrys.scalar import Radical, _lowest, _mul_term, _radical, _sqrt_frac, qbinom, qint_at
from qcrys.verify import (
    _FAMILY_RUNNERS,
    KNOWN_FAMILIES,
    ConfigError,
    SuiteConfig,
    VerificationError,
    _evaluate,
    _Plan,
    _Program,
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


SELF_CHECK_MODELS = [("A", 3, 2, None), ("C", 2, 1, 9)]


@pytest.mark.parametrize("spec", SELF_CHECK_MODELS, ids=lambda s: f"{s[0]}{s[1]}-{s[2]}")
class TestEngineSelfChecks:
    # Each check is hit through a doubled-eigenvalue function that breaks
    # only the invariant under test; the engine must refuse the model.
    def _refused(self, monkeypatch, spec, fake_h2, match):
        monkeypatch.setattr(verify, "weight_h2", fake_h2)
        model = build_model(CrystalSpec(*spec))
        with pytest.raises(VerificationError, match=match):
            cartan_matrix(model)
        with pytest.raises(VerificationError, match=match):
            check_cartan(model, F(2))

    def test_inconsistent_weight_shift(self, monkeypatch, spec):
        # an even extra 2*l_1^2 shifts by 2(2 l_1 + 1) under the node-1 move
        fake = lambda model, s: tuple(x + 2 * s[0] ** 2 for x in weight_h2(model, s))
        self._refused(monkeypatch, spec, fake, "inconsistent weight shifts for node 1")

    def test_measured_matrix_differs_from_expected(self, monkeypatch, spec):
        fake = lambda model, s: tuple(2 * x for x in weight_h2(model, s))
        self._refused(monkeypatch, spec, fake, "differs from expected")

    def test_odd_doubled_shift(self, monkeypatch, spec):
        # an extra l_1 shifts every doubled eigenvalue by 1 under the node-1 move
        fake = lambda model, s: tuple(x + s[0] for x in weight_h2(model, s))
        self._refused(monkeypatch, spec, fake, "Cartan eigenvalue shift is not an integer")

    def test_odd_doubled_bracket_argument(self, monkeypatch, spec):
        # a constant leaves every shift alone but makes 2 H_1 odd
        fake = lambda model, s: tuple(x + 1 for x in weight_h2(model, s))
        self._refused(monkeypatch, spec, fake, "scaled Cartan eigenvalue is not an integer")


def test_unsymmetrizable_matrix_is_engine_error():
    with pytest.raises(VerificationError, match="not symmetrizable"):
        symmetrizers(CrystalSpec("A", 3, 1), [[2, -1], [-2, 2]])


def test_words_reaching_two_targets_is_engine_error(monkeypatch):
    # Every word of a component shifts the labels by one vector; raising
    # moves of nodes 1 and 2 from one state reach two targets.
    def two_targets(plan):
        words = (((1, 1),), ((2, 1),))
        terms = tuple((c, (), (plan.ladder("eq", *w[0]),)) for c, w in zip((1, -1), words))
        return [verify._Component("two", terms, words)]

    monkeypatch.setitem(verify._FAMILIES, "ladder", ("ladder", two_targets))
    with pytest.raises(VerificationError, match="two: words reach two targets"):
        check_ladder(model_a(3, 2), F(2))


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
        assert result.reports == ()

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


# Shared-input differential checks: the suite's shared model data and
# step tables against standalone calls that build their own.
DIFF_CONFIGS = [
    SuiteConfig("A", 3, 3),
    SuiteConfig("C", 2, 2, cap=12),
    SuiteConfig("C", 3, 2, cap=18, margin=0),
]
DIFF_Q = (F(1), F(3, 5), F(2))


def _cfg_id(cfg):
    return f"{cfg.algebra_type}{cfg.n}-{cfg.lam}"


@pytest.mark.parametrize("cfg", DIFF_CONFIGS, ids=_cfg_id)
class TestSharedInputs:
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


# Engine differential checks: every residual the word walker returns for a
# (component, state) pair must equal the column of the same relation built
# as an exact operator from the generator matrices with LinOp arithmetic.
ORACLE_CONFIGS = [
    SuiteConfig("A", 3, 3),
    SuiteConfig("A", 2, 3),  # rank one: carries the cz components of map
    SuiteConfig("C", 2, 2, cap=12, margin=0),
    # three nodes: nodes 1 and 3 are the non-adjacent pair the engine skips
    SuiteConfig("A", 4, 2),
    SuiteConfig("C", 3, 2, cap=8, margin=0),
]

# Each oracle maps every component label of its family, over all node
# pairs, to (the relation as one operator, the ladder moves of its words).


def _oracle_cartan(model, q, data):
    nodes = model.spec.nodes
    hs = {i: op_h(model, i) for i in range(1, nodes + 1)}
    ops = {}
    for i in range(1, nodes + 1):
        for j in range(1, nodes + 1):
            for sign, tag in ((1, "+"), (-1, "-")):
                shift = sign * data.cartan[i - 1][j - 1]
                e = op_e_deformed(model, j, sign, q)
                label = f"[h{i},e{tag}{j}]-({shift})e{tag}{j}"
                ops[label] = commutator(hs[i], e) - e * shift, (((j, sign),),)
    return ops


def _oracle_ladder(model, q, data):
    nodes = model.spec.nodes
    ops = {}
    for i in range(1, nodes + 1):
        for j in range(1, nodes + 1):
            comm = commutator(op_e_deformed(model, i, 1, q), op_e_deformed(model, j, -1, q))
            words = (((j, -1), (i, 1)), ((i, 1), (j, -1)))
            if i != j:
                ops[f"[e+{i},e-{j}]"] = comm, words
                continue
            d = data.d[i - 1]
            bracket = LinOp.diagonal(
                Radical.from_rational(
                    qint_at(int(weight_h(model, s)[i - 1] * d), q) / qint_at(d, q)
                )
                for s in model.states
            )
            ops[f"[e+{i},e-{j}]-[H{i}]_qi"] = comm - bracket, words
    return ops


def _oracle_serre(model, q, data, deformed):
    nodes = model.spec.nodes
    ops = {}
    for i in range(1, nodes + 1):
        for j in range(1, nodes + 1):
            if i == j:
                continue
            m = 1 - data.cartan[i - 1][j - 1]
            qi = q ** data.d[i - 1]
            for sign, tag in ((1, "+"), (-1, "-")):
                if deformed:
                    x = op_e_deformed(model, i, sign, q)
                    y = op_e_deformed(model, j, sign, q)
                else:
                    x = op_e_classical(model, i, sign)
                    y = op_e_classical(model, j, sign)
                powers = [LinOp.identity(model.dim)]
                for _ in range(m):
                    powers.append(powers[-1] @ x)
                total = LinOp.zero(model.dim)
                for v in range(m + 1):
                    coeff = qbinom(m, v).eval((qi,)) if deformed else math.comb(m, v)
                    total = total + (powers[m - v] @ y @ powers[v]) * ((-1) ** v * coeff)
                base = f"q^{data.d[i - 1]}" if deformed else "1"
                xs, ys = ((i, sign),), ((j, sign),)  # in application order, as powers[v] first
                words = tuple(xs * v + ys + xs * (m - v) for v in range(m + 1))
                ops[f"serre(e{tag}{i};e{tag}{j}) len={m} binom_base={base}"] = total, words
    return ops


def _oracle_map(model, q):
    ops = {}
    for node in range(1, model.spec.nodes + 1):
        f = deform_factor(model, node, q)
        fi = deform_factor_inv(model, node, q)
        ep, em = op_e_classical(model, node, 1), op_e_classical(model, node, -1)
        dp, dm = op_e_deformed(model, node, 1, q), op_e_deformed(model, node, -1, q)
        up, down = (((node, 1),),), (((node, -1),),)
        ops[f"E+{node}*F-e+{node}"] = ep @ f - dp, up
        ops[f"F*E-{node}-e-{node}"] = f @ em - dm, down
        ops[f"e+{node}*Finv-E+{node}"] = dp @ fi - ep, up
        ops[f"Finv*e-{node}-E-{node}"] = fi @ dm - em, down
    if model.spec.algebra_type == "A" and model.spec.n == 2:
        d2 = cz_factor(model, q, CZ_WEIGHT)
        d1 = cz_factor(model, q, CZ_NODE)
        hat = op_hat(model, 1, 1)
        up = (((1, 1),),)
        ops["cz_weight*j+-e+1"] = d2 @ op_e_classical(model, 1, 1) - op_e_deformed(
            model, 1, 1, q
        ), up
        ops["cz_weight(image)-cz_node(source)"] = d2 @ hat - hat @ d1, up
    return ops


def _word_end(model, k, word):
    """(end ordinal or None, stopped at the cap) of one walk of a word,
    taken move by move with apply_move rather than the model's table."""
    state = model.states[k]
    for node, sign in word:
        state, status = apply_move(model.spec, state, node, sign)
        if status != MOVE_OK:
            return None, status == MOVE_CAPPED
    return model.index[state], False


def _node_values(plan, family, q):
    prog = plan.programs[family]
    plan.bind(prog, q)
    return prog, _evaluate(prog, plan._values)


def _slots(prog):
    """The stored slots of a program: (component, state) -> (target, index
    in sums, capped word), checked to be in component, then state, order."""
    it = iter(prog.slots)
    quintuples = list(zip(it, it, it, it, it))
    assert [(c, k) for k, c, *_ in quintuples] == sorted({(c, k) for k, c, *_ in quintuples})
    return {(c, k): (t, e, cap) for k, c, t, e, cap in quintuples}


def _assert_matches_oracle(plan, family, q, oracle):
    """Compare every (component, state) residual of the compiled plan at q
    with the operator column, where a slot that is not stored must have an
    empty column, and the target and capped flag of every stored slot, and
    the capped flag of every state, with walks of the components' words.
    The engine builds some of the oracle's components, in the oracle's
    order; each one it leaves out must be the zero operator, and none of its
    words may stop at the cap where the program flags no cap."""
    model = plan.model
    prog, vals = _node_values(plan, family, q)
    built = set(prog.labels)
    assert prog.labels == [label for label in oracle if label in built]
    for label, (op, words) in oracle.items():
        if label not in built:
            assert op.is_zero(), label
            for k in range(model.dim):
                assert prog.capped[k] or not any(_word_end(model, k, w)[1] for w in words)
    slots = _slots(prog)
    capped = [False] * model.dim
    nonzero = 0
    for c, (label, words) in enumerate(zip(prog.labels, prog.words)):
        assert oracle[label][1] == words, label
        columns = {}
        for (s, t), v in oracle[label][0].entries.items():
            columns.setdefault(s, {})[t] = v
        for k in range(model.dim):
            col = columns.get(k, {})
            assert len(col) <= 1, f"{label}: several targets from state {k}"
            walks = [_word_end(model, k, w) for w in words]
            ends = {end for end, _ in walks if end is not None}
            assert len(ends) <= 1, (label, k)
            walk_cap = any(cap for _, cap in walks)
            capped[k] = capped[k] or walk_cap
            if (c, k) not in slots:
                assert not col, (label, k)
                continue
            target, e, cap = slots[(c, k)]
            val = vals[e]
            if col:
                nonzero += 1
                assert val is not None and col == {target: val}, (label, k)
            else:
                assert val is None, (label, k)
            # The ladder bracket's diagonal term sits at the source.
            want = k if "-[H" in label else (ends.pop() if ends else -1)
            assert target == want, (label, k)
            assert bool(cap) == walk_cap, (label, k)
    assert list(map(bool, prog.capped)) == capped
    return nonzero


_ORACLES = {
    "cartan": lambda model, q, data: _oracle_cartan(model, q, data),
    "ladder": lambda model, q, data: _oracle_ladder(model, q, data),
    "serre": lambda model, q, data: _oracle_serre(model, q, data, True),
    "serre-classical": lambda model, q, data: _oracle_serre(model, q, data, False),
    "map": lambda model, q, data: _oracle_map(model, q),
}


@pytest.mark.parametrize("q", DIFF_Q, ids=str)
@pytest.mark.parametrize("cfg", ORACLE_CONFIGS, ids=_cfg_id)
class TestEngineAgainstOperators:
    def _check(self, cfg, q, family):
        plan = _Plan(build_model(cfg.spec()), (family,))
        oracle = _ORACLES[family](plan.model, q, plan)
        _assert_matches_oracle(plan, family, q, oracle)

    def test_cartan(self, cfg, q):
        self._check(cfg, q, "cartan")

    def test_ladder(self, cfg, q):
        self._check(cfg, q, "ladder")

    @pytest.mark.parametrize("deformed", [True, False], ids=["deformed", "classical"])
    def test_serre(self, cfg, q, deformed):
        self._check(cfg, q, "serre" if deformed else "serre-classical")

    def test_map(self, cfg, q):
        self._check(cfg, q, "map")

    def test_cartan_wrong_shift_is_engine_error(self, cfg, q, monkeypatch):
        # Against a reference matrix with every Cartan integer shifted, the
        # coefficient H_i(t) - H_i(s) - sign*a_ij of every live node-j move
        # is -sign, not 0.  The engine refuses such a model before it builds
        # a component, so no Cartan residual is ever nonzero.
        reference = verify.expected_cartan
        shifted = lambda spec: [[a + 1 for a in row] for row in reference(spec)]
        monkeypatch.setattr(verify, "expected_cartan", shifted)
        model = build_model(cfg.spec())
        with pytest.raises(VerificationError, match="differs from expected"):
            _Plan(model, ("cartan",))
        with pytest.raises(VerificationError, match="differs from expected"):
            check_cartan(model, q)


@pytest.mark.parametrize("cfg", ORACLE_CONFIGS, ids=_cfg_id)
def test_cartan_operators_commute(cfg):
    # The Cartan family has no [h_i, h_j] components: the H_i are diagonal,
    # so they commute by construction.
    model = build_model(cfg.spec())
    nodes = model.spec.nodes
    for i in range(1, nodes + 1):
        for j in range(i + 1, nodes + 1):
            assert commutator(op_h(model, i), op_h(model, j)).is_zero(), (i, j)


@pytest.mark.parametrize(
    "cfg",
    [SuiteConfig("A", 40, 1), SuiteConfig("A", 4, 3), SuiteConfig("C", 3, 3, cap=13)],
    ids=_cfg_id,
)
def test_cartan_family_builds_no_diagonal(monkeypatch, cfg):
    # Every coefficient of a correct model vanishes at its move, so the
    # family builds only the (j, j, +-) components, whose terms carry the
    # coefficient 0 and keep no slot; no diagonal is built.
    calls, diagonal = [], _Plan.diagonal

    def counting(plan, entries):
        calls.append(entries)
        return diagonal(plan, entries)

    monkeypatch.setattr(_Plan, "diagonal", counting)
    plan = _Plan(build_model(cfg.spec()), ("cartan",))
    assert calls == []
    prog = plan.programs["cartan"]
    assert len(prog.labels) == 2 * plan.model.spec.nodes
    assert len(prog.slots) == 0 and prog.sums == []


@pytest.mark.parametrize(
    "cfg, counts, slots",
    [
        (SuiteConfig("A", 68, 1), (134, 199, 264, 268), (0, 134, 0, 268)),
        (SuiteConfig("C", 3, 3, 13), (6, 7, 8, 12), (0, 1638, 1384, 2828)),
    ],
    ids=["A68-1", "C3-3"],
)
def test_default_families_build_linear_component_counts(cfg, counts, slots):
    # Ladder and Serre components only for adjacent nodes (|i - j| <= 1 and
    # = 1), Cartan components only for (j, j, +-): O(nodes) per family.  A
    # ladder slot survives only where a word is live or [H_i] is not 0 (two
    # states per node on A(68,1)); a map slot at each live move.
    plan = _Plan(build_model(cfg.spec()), cfg.families)
    assert tuple(len(plan.programs[f].labels) for f in cfg.families) == counts
    assert tuple(len(plan.programs[f].slots) // 5 for f in cfg.families) == slots


@pytest.mark.parametrize(
    "cfg",
    ORACLE_CONFIGS + [SuiteConfig("C", 3, 3, cap=13), SuiteConfig("A", 2, 6)],
    ids=_cfg_id,
)
def test_factor_tables_hold_only_raising_sources(monkeypatch, cfg):
    # The f and finv tables of a node hold entries exactly at the sources
    # where its raising move is live or capped, the only ordinals a map
    # word reads them at; a read elsewhere raises KeyError.
    tables, diagonal = [], _Plan.diagonal

    def recording(plan, entries):
        tables.append(diagonal(plan, entries))
        return tables[-1]

    monkeypatch.setattr(_Plan, "diagonal", recording)
    plan = _Plan(build_model(cfg.spec()), ("map",))
    model, nodes = plan.model, plan.model.spec.nodes
    for node in range(1, nodes + 1):
        moves = (apply_move(model.spec, s, node, 1) for s in model.states)
        want = [k for k, (_, status) in enumerate(moves) if status != MOVE_DEAD]
        for kind, table in zip(("f", "finv"), tables[2 * node - 2 : 2 * node]):
            assert sorted(table) == want, (node, kind)
            assert {plan.keys[leaf][0] for _, leaf in table.values()} == {kind}
            for k in set(range(model.dim)) - set(want):
                with pytest.raises(KeyError):
                    table[k]
    # the rank-one type A weight factor is read at raising targets: full length
    cz = tables[2 * nodes :]
    rank_one = cfg.algebra_type == "A" and cfg.n == 2
    assert [sorted(t) for t in cz] == ([list(range(model.dim))] if rank_one else [])


# Randomised differential audit: run_suite against the LinOp oracles on
# drawn specs, margins and q, classes and FAIL records included.
AUDIT_Q = (F(1), F(2), F(1, 2), F(3, 5), F(5, 3), F(3, 2))


@st.composite
def audit_configs(draw):
    if draw(st.booleans()):
        spec = ("A", draw(st.integers(2, 4)), draw(st.integers(0, 4)), None)
    else:
        lam = draw(st.integers(0, 3))
        spec = ("C", draw(st.integers(1, 3)), lam, draw(st.integers(lam, lam + 8)))
    margin, q = draw(st.integers(0, 6)), draw(st.sampled_from(AUDIT_Q))
    return SuiteConfig(*spec, margin=margin, q_list=(q,), families=KNOWN_FAMILIES)


def _trace(model, k, word):
    """The FAIL-record text of one walk of a word, move by move."""
    state, bits = model.states[k], [str(model.states[k])]
    for move in word:
        state, status = apply_move(model.spec, state, *move)
        if status != MOVE_OK:
            bits.append("cap" if status == MOVE_CAPPED else "0")
            break
        bits.append(str(state))
    return "->".join(bits)


def _oracle_outcome(model, margin, oracle):
    """(residual_zero, class) per state and the FAIL records of one family,
    from its operators: a state is BOUNDARY where some word stops at the
    cap inside the margin, and a nonzero column is a FAIL unless a word of
    its own component stops at the cap from a BOUNDARY state."""
    dim = model.dim
    caps = {
        label: [any(_word_end(model, k, w)[1] for w in words) for k in range(dim)]
        for label, (_, words) in oracle.items()
    }
    edge = [boundary_class(model, s, margin) == CAP_MARGIN for s in model.states]
    boundary = [edge[k] and any(cap[k] for cap in caps.values()) for k in range(dim)]
    ok, klass = [True] * dim, [BOUNDARY if b else PASS for b in boundary]
    failures = []
    for label, (op, words) in oracle.items():
        for (k, t), v in sorted(op.entries.items()):
            ok[k] = False
            if caps[label][k] and boundary[k]:
                continue
            klass[k] = FAIL
            traces = "; ".join(_trace(model, k, w) for w in words)
            word = f"{label} [{traces}] -> {list(model.states[t])}"
            record = {"state": list(model.states[k]), "word": word, "residual": v.json_map()}
            failures.append((k, record))
    # in state order, then component order (the sort is stable)
    return list(zip(ok, klass)), [record for _, record in sorted(failures, key=lambda f: f[0])]


@settings(max_examples=100, deadline=None, derandomize=True)
@given(cfg=audit_configs())
def test_suite_matches_operators_on_random_specs(cfg):
    suite = run_suite(cfg)
    model = build_model(cfg.spec())
    data = _Plan(model, ())
    q = cfg.q_list[0]
    assert len(suite.reports) == len(cfg.families)
    for family, report in zip(cfg.families, suite.reports):
        oracle = _ORACLES[family](model, q, data)
        per_state, failures = _oracle_outcome(model, cfg.margin, oracle)
        assert [(r.residual_zero, r.klass) for r in report.per_state] == per_state, family
        assert report.failures == tuple(failures), family


def _raising_partner(label: str):
    """The label of the raising component whose words are the transposes of
    the words of ``label``'s component, where that is a lowering partner;
    None for a raising or self-transposed component (and the cz rows)."""
    if m := re.fullmatch(r"\[e\+(\d+),e-(\d+)\]", label):
        i, j = m.groups()
        return f"[e+{j},e-{i}]" if int(i) > int(j) else None
    if m := re.fullmatch(r"\[h(\d+),e-\1\]-\(-(\d+)\)e-\1", label):
        return "[h{0},e+{0}]-({1})e+{0}".format(*m.groups())
    if m := re.fullmatch(r"serre\(e-(\d+);e-(\d+)\)( .*)", label):
        return "serre(e+{};e+{}){}".format(*m.groups())
    if m := re.fullmatch(r"F\*E-(\d+)-e-\1", label):
        return "E+{0}*F-e+{0}".format(*m.groups())
    if m := re.fullmatch(r"Finv\*e-(\d+)-E-\1", label):
        return "e+{0}*Finv-E+{0}".format(*m.groups())
    return None


def _mirrored(plan, terms, sign):
    """A residual's terms by leaf keys, times ``sign``, with each q-binomial
    [m; v] read as the equal [m; m - v] where v > m - v, equal monomials
    merged."""
    out = {}
    for mono, c in terms:
        keys = [plan.keys[g] for g in mono]
        keys = sorted(
            ("binom", k[1], k[1] - k[2], k[3]) if k[0] == "binom" and 2 * k[2] > k[1] else k
            for k in keys
        )
        out[tuple(keys)] = out.get(tuple(keys), 0) + sign * c
    return {mono: c for mono, c in out.items() if c}


@settings(max_examples=100, deadline=None, derandomize=True)
@given(cfg=audit_configs())
def test_lowering_components_transpose_raising_ones(cfg):
    # (a) Every slot (k, c', t, e) of a lowering partner c' has the raising
    # slot (t, c, k, e): the transposed words multiply the same leaves.  In
    # the long-node Serre pair (len=3) the reversed words swap terms v and
    # 3 - v, whose signs differ, so there the residual is the negation, with
    # the q-binomials [3; 1] and [3; 2] (equal for every q) traded.
    # (b) Compiling a family without its lowering partners leaves its cap
    # flags unchanged.
    model = build_model(cfg.spec())
    plan = _Plan(model, KNOWN_FAMILIES)
    for family, prog in plan.programs.items():
        index = {label: c for c, label in enumerate(prog.labels)}
        partners = ((c, _raising_partner(label)) for c, label in enumerate(prog.labels))
        partner = {c: index[p] for c, p in partners if p}
        it = iter(prog.slots)
        slots = {(k, c, t): e for k, c, t, e, _ in zip(it, it, it, it, it)}
        for (k, c, t), e in slots.items():
            if c not in partner:
                continue
            f = slots.get((t, partner[c], k))
            assert f is not None, (family, prog.labels[c], model.states[k])
            if " len=3 " in prog.labels[c]:
                assert _mirrored(plan, prog.sums[f], 1) == _mirrored(plan, prog.sums[e], -1)
            else:
                assert f == e, (family, prog.labels[c], model.states[k])
        lowering = {prog.labels[c] for c in partner}
        relation_id, build = verify._FAMILIES[family]
        with pytest.MonkeyPatch.context() as patch:
            raising = lambda plan: [comp for comp in build(plan) if comp.label not in lowering]
            patch.setitem(verify._FAMILIES, family, (relation_id, raising))
            assert _Plan(model, (family,)).programs[family].capped == prog.capped, family


# Fault injection: one entry function scaled by 2 at one factor argument
# pair that a live move reads, in verify's namespace (the leaves) and rep's
# (the oracle's operators).  The map identity of that move then fails, and
# every other FAIL it causes must be attributed as the operators place it.
FAULTY_ENTRIES = ("_e_classical_entry", "_e_deformed_entry", "_deform_entry")


@st.composite
def faulted_configs(draw):
    if draw(st.booleans()):
        spec = ("A", draw(st.integers(2, 4)), draw(st.integers(1, 4)), None)
    else:
        lam = draw(st.integers(0, 3))
        spec = ("C", draw(st.integers(1, 3)), lam, draw(st.integers(lam + 2, lam + 8)))
    margin, q = draw(st.integers(0, 6)), draw(st.sampled_from(AUDIT_Q))
    cfg = SuiteConfig(*spec, margin=margin, q_list=(q,), families=KNOWN_FAMILIES)
    model = build_model(cfg.spec())
    read = {
        _factor_args(model, node, s)
        for node in range(1, model.spec.nodes + 1)
        for s, (t, _) in zip(model.states, model.moves(node, 1))
        if t is not None
    }
    return cfg, draw(st.sampled_from(FAULTY_ENTRIES)), draw(st.sampled_from(sorted(read)))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(case=faulted_configs())
def test_injected_entry_fault_fails_where_the_operators_do(case):
    cfg, name, pair = case
    original = getattr(rep, name)

    def scaled(a, b, *rest):
        m, n, d = original(a, b, *rest)
        return (m, *_lowest(2 * n, d)) if (a, b) == pair else (m, n, d)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(verify, name, scaled)
        patch.setattr(rep, name, scaled)
        suite = run_suite(cfg)
        model = build_model(cfg.spec())
        data = _Plan(model, ())
        oracles = [_ORACLES[family](model, cfg.q_list[0], data) for family in cfg.families]
    for family, report, oracle in zip(cfg.families, suite.reports, oracles):
        per_state, failures = _oracle_outcome(model, cfg.margin, oracle)
        assert [(r.residual_zero, r.klass) for r in report.per_state] == per_state, family
        assert report.failures == tuple(failures), family
    assert any(not r.residual_zero for report in suite.reports for r in report.per_state)
    assert any(report.failures for report in suite.reports)


@pytest.mark.parametrize(
    "cfg", [SuiteConfig("A", 5, 6), SuiteConfig("C", 3, 2, cap=8)], ids=_cfg_id
)
def test_equal_entries_of_different_nodes_share_one_leaf(monkeypatch, cfg):
    # A generator entry depends on its factor arguments and on whether the
    # node is long, not on the node: ladder steps of different nodes that
    # read equal arguments with an equal flag share one leaf id.
    tables, ladder = {}, _Plan.ladder

    def recording(plan, kind, node, sign):
        tables[(kind, node, sign)] = ladder(plan, kind, node, sign)
        return tables[(kind, node, sign)]

    monkeypatch.setattr(_Plan, "ladder", recording)
    plan = _Plan(build_model(cfg.spec()), KNOWN_FAMILIES)
    model = plan.model
    leaves, nodes = {}, {}
    for (kind, node, sign), table in tables.items():
        for k, (t, leaf) in table.items():
            if kind is None or leaf is None:  # the bare move's 1, or a capped move
                continue
            args = _factor_args(model, node, model.states[k if sign > 0 else t])
            key = (kind, _is_long_node(model, node)) + args
            leaves.setdefault(key, set()).add(leaf)
            nodes.setdefault(key, set()).add(node)
    assert all(len(ids) == 1 and plan.keys[min(ids)] == key for key, ids in leaves.items())
    assert any(len(n) > 1 for n in nodes.values())
    assert {key[1] for key in leaves} == {False, cfg.algebra_type == "C"}


@pytest.mark.parametrize("cfg", ORACLE_CONFIGS, ids=_cfg_id)
def test_plan_compiled_once_serves_every_q(cfg):
    # One plan, as run_suite uses it: every family compiles at
    # construction and is re-evaluated at every q against that q's
    # operators, with no program or leaf added after construction.
    plan = _Plan(build_model(cfg.spec()), tuple(_ORACLES))
    model = plan.model
    programs, leaves = dict(plan.programs), len(plan.keys)
    for q in DIFF_Q:
        for family, oracle in _ORACLES.items():
            _assert_matches_oracle(plan, family, q, oracle(model, q, plan))
            assert plan.programs[family] is programs[family]
            assert len(plan.keys) == leaves
        # Residuals that all vanish would hide stale entries: the leaves
        # bound at this q must be this q's generator entries.
        for node in range(1, model.spec.nodes + 1):
            deformed, classical = op_e_deformed(model, node, -1, q), op_e_classical(model, node, -1)
            long_node = _is_long_node(model, node)
            for kind, op in (("eq", deformed), ("e", classical)):
                for (s, t), v in op.entries.items():
                    key = (kind, long_node) + _factor_args(model, node, model.states[t])
                    assert _radical(plan._values[plan.ids[key]]).json_map() == v.json_map()


# Binding reuse: run_suite evaluates a family once per distinct leaf
# binding.  Balanced q-brackets bind the same leaves at q and 1/q, and the
# classical Serre relations bind no q at all.
REUSE_CONFIGS = [
    SuiteConfig("C", 3, 2, cap=18, margin=0, q_list=(F(2), F(1, 2), F(3, 5), F(5, 3))),
    SuiteConfig("A", 3, 3, q_list=(F(2), F(1), F(1, 2), F(3), F(1, 3))),
    SuiteConfig("C", 2, 2, cap=12, q_list=(F(3, 5), F(5, 3), F(1), F(2))),
]


@pytest.mark.parametrize("cfg", REUSE_CONFIGS, ids=_cfg_id)
class TestBindingReuse:
    def _suite(self, cfg):
        return run_suite(cfg._replace(families=KNOWN_FAMILIES))

    def test_reports_match_fresh_plans(self, cfg):
        suite = self._suite(cfg)
        model = build_model(cfg.spec())
        keys = [(q, fam) for q in cfg.q_list for fam in KNOWN_FAMILIES]
        assert len(suite.reports) == len(keys)
        for got, (q, fam) in zip(suite.reports, keys):
            want = _FAMILY_RUNNERS[fam](model, q, cfg.margin, None)
            assert json.dumps(got.to_json_dict(), sort_keys=True) == json.dumps(
                want.to_json_dict(), sort_keys=True
            )
            assert got.per_state == want.per_state

    def test_reciprocal_q_reports_agree(self, cfg):
        suite = self._suite(cfg)
        by_q = {}
        for report in suite.reports:
            by_q.setdefault(report.q, []).append(report)
        pairs = [q for q in cfg.q_list if q > 1 and 1 / q in by_q]
        assert pairs
        for q in pairs:
            for a, b in zip(by_q[q], by_q[1 / q]):
                da, db = a.to_json_dict(), b.to_json_dict()
                assert (da.pop("q"), db.pop("q")) == (str(q), str(1 / q))
                assert da == db
                assert a.per_state == b.per_state
        if cfg.margin == 0:
            # the comparison must cover FAIL records at both ends of a pair
            assert all(by_q[q][1].failures for q in pairs)


@pytest.mark.parametrize(
    "family, q_list, runs",
    [
        ("serre-classical", (F(1), F(2), F(3)), 1),
        ("ladder", (F(2), F(1, 2)), 1),
        ("ladder", (F(2), F(3)), 2),
    ],
    ids=["serre-classical-3q", "ladder-reciprocal", "ladder-distinct"],
)
def test_one_run_per_distinct_binding(monkeypatch, family, q_list, runs):
    calls = []

    def counting_evaluate(prog, values):
        calls.append(len(prog.sums))
        return _evaluate(prog, values)

    monkeypatch.setattr(verify, "_evaluate", counting_evaluate)
    cfg = SuiteConfig("C", 2, 2, cap=12, margin=0, q_list=q_list, families=(family,))
    run_suite(cfg)
    assert len(calls) == runs


@pytest.mark.parametrize("cfg", ORACLE_CONFIGS + [SuiteConfig("A", 2, 40)], ids=_cfg_id)
def test_bound_leaves_are_nonzero_single_terms(cfg):
    # Bindings are compared with plain ==, which is exact only because no
    # leaf value has two spellings: every one is a nonzero integer triple,
    # never zero or a multi-term Radical.
    plan = _Plan(build_model(cfg.spec()), KNOWN_FAMILIES)
    for q in DIFF_Q:
        for family in KNOWN_FAMILIES:
            for value in plan.bind(plan.programs[family], q):
                m, n, d = value
                assert value.__class__ is tuple
                assert m and n and d > 0 and math.gcd(n, d) == 1


@pytest.mark.parametrize("cfg", ORACLE_CONFIGS, ids=_cfg_id)
def test_one_leaf_namespace_per_plan(monkeypatch, cfg):
    # Factor arguments are read once per node at each state where its
    # raising move is live or capped, the only states an entry is read at,
    # and each leaf key is bound once per q, however many families and
    # nodes use it.
    model = build_model(cfg.spec())
    args_calls = []

    def counting_args(model, node, state):
        args_calls.append((node, state))
        return _factor_args(model, node, state)

    monkeypatch.setattr(verify, "_factor_args", counting_args)
    bound = []
    for kind, value in list(verify._LEAF_VALUES.items()):
        monkeypatch.setitem(
            verify._LEAF_VALUES,
            kind,
            lambda q, *args, kind=kind, value=value: bound.append((q, kind) + args)
            or value(q, *args),
        )
    plan = _Plan(model, KNOWN_FAMILIES)
    for q in DIFF_Q:
        for family in KNOWN_FAMILIES:
            _node_values(plan, family, q)
    sources = [
        (node, s)
        for node in range(1, model.spec.nodes + 1)
        for s in model.states
        if apply_move(model.spec, s, node, 1)[1] != MOVE_DEAD
    ]
    assert sorted(args_calls) == sorted(sources)
    assert len(bound) == len(set(bound))
    assert {b[1:] for b in bound} <= set(plan.keys)


@pytest.mark.parametrize("cfg", ORACLE_CONFIGS, ids=_cfg_id)
def test_programs_are_canonical(cfg):
    # Each residual is a signed sum of distinct monomials in ascending
    # order, each a sorted tuple of leaf ids; residuals are interned whole,
    # and a family reads exactly the leaves of its monomials.
    plan = _Plan(build_model(cfg.spec()), KNOWN_FAMILIES)
    for family, prog in plan.programs.items():
        read = set()
        for terms in prog.sums:
            monomials = [mono for mono, _ in terms]
            assert terms and monomials == sorted(set(monomials)), family
            assert all(c.__class__ is int and c for _, c in terms), family
            for mono in monomials:
                assert mono and list(mono) == sorted(mono), family
                read.update(mono)
        assert prog.leaves == sorted(read), family
        assert len(set(prog.sums)) == len(prog.sums), family
        assert set(prog.slots[3::5]) == set(range(len(prog.sums))), family


@pytest.mark.parametrize(
    "cfg", [SuiteConfig("C", 3, 3, cap=13), SuiteConfig("A", 4, 3)], ids=_cfg_id
)
def test_residual_terms_are_interned_leaf_monomials(cfg):
    # A residual term is (monomial, nonzero int) with the monomial the
    # sorted tuple of its leaf ids, and a monomial that several residuals
    # hold is one object.
    plan = _Plan(build_model(cfg.spec()), KNOWN_FAMILIES)
    shared = False
    for family, prog in plan.programs.items():
        seen, terms_held = {}, 0
        for terms in prog.sums:
            terms_held += len(terms)
            for mono, c in terms:
                assert mono.__class__ is tuple and list(mono) == sorted(mono), family
                assert all(0 <= leaf < len(plan.keys) for leaf in mono), family
                assert c.__class__ is int and c, family
                assert seen.setdefault(mono, mono) is mono, family
        # a residual holds distinct monomials: more terms than monomials
        # means some monomial is held by two residuals
        shared = shared or terms_held > len(seen)
    assert shared


@pytest.mark.parametrize(
    "cfg",
    [
        SuiteConfig("C", 3, 3, cap=13),
        SuiteConfig("A", 2, 6),
        SuiteConfig("A", 4, 3),
        SuiteConfig("C", 2, 2, cap=12),
        SuiteConfig("C", 1, 1, cap=9),
        SuiteConfig("A", 40, 1),
    ],
    ids=_cfg_id,
)
def test_walks_start_where_a_first_move_is_not_dead(monkeypatch, cfg):
    # A component is walked exactly from the states where some word is not
    # dead at its first ladder move (live or capped, by apply_move), and,
    # for the ladder relation's [H_i], a word of one diagonal step, where
    # d_i H_i is not 0 (d_i > 0).  From any other state each walk ends at
    # once.
    model = build_model(cfg.spec())
    walked, starts = [], _Plan._starts

    def recording(plan, comp):
        walked.append((comp.label, list(starts(plan, comp))))
        return walked[-1][1]

    monkeypatch.setattr(_Plan, "_starts", recording)
    plan = _Plan(model, KNOWN_FAMILIES)
    want = []
    for prog in plan.programs.values():
        for label, words in zip(prog.labels, prog.words):
            # [e+i,e-i] applies e+i first in its second word
            i = words[1][0][0] if "-[H" in label else None
            live = [
                k
                for k, s in enumerate(model.states)
                if any(apply_move(model.spec, s, *word[0])[1] != MOVE_DEAD for word in words)
                or (i and weight_h2(model, s)[i - 1])
            ]
            want.append((label, live))
    assert walked == want
    assert any(ks for _, ks in want) and not all(len(ks) == model.dim for _, ks in want)


def test_high_rank_ladder_plan_is_linear_in_nodes(monkeypatch):
    # On A(140,1), 139 nodes and 140 states, each node's raising move is
    # live at one state and [H_i] is not 0 at two: the ladder family walks
    # a few starts per component, not nodes * states, and reads factor
    # arguments once per node.
    walked, starts = [], _Plan._starts
    args_calls = []

    def recording(plan, comp):
        ks = starts(plan, comp)
        walked.extend(ks)
        return ks

    def counting_args(model, node, state):
        args_calls.append((node, state))
        return _factor_args(model, node, state)

    monkeypatch.setattr(_Plan, "_starts", recording)
    monkeypatch.setattr(verify, "_factor_args", counting_args)
    _Plan(model_a(140, 1), ("ladder",))
    assert len(walked) < 1000
    assert len(args_calls) == 139


def test_zero_leaf_is_refused(monkeypatch):
    # Programs only multiply nonzero terms, and decide zeros when they
    # compile; binding refuses a zero leaf value and names its key.
    monkeypatch.setitem(verify._LEAF_VALUES, "bracket", lambda *_: (1, 0, 1))
    with pytest.raises(VerificationError, match=r"leaf \('bracket', .* is zero"):
        check_ladder(model_a(3, 2), F(2))


def _program(leaves, sums):
    """A hand-built program over ``leaves`` leaf ids, its residuals as
    (monomial, coefficient) tuples."""
    return _Program([], [], list(range(leaves)), sums, array("i"), b"")


def test_repeated_monomial_coefficient_in_lowest_terms():
    # 2 * (1/2)sqrt(6) is sqrt(6), and 3 * (1/6)sqrt(5) is (1/2)sqrt(5):
    # the coefficient is folded in before the term is stored.
    prog = _program(3, [(((0, 1), 2),), (((2,), 3),), (((0,), -2), ((0, 1), 1))])
    got = _evaluate(prog, [(2, 1, 2), (3, 1, 1), (5, 1, 6)])
    assert [v.json_map() for v in got] == [{"6": "1"}, {"5": "1/2"}, {"2": "-1", "6": "1/2"}]


# Runner differential: monomials multiplied out on integer triples and
# signed sums against Radical arithmetic.  The radicands include two
# spellings of one square class (two primes above the trial bound, times a
# square), whose sum only merges through Radical's class check, and the
# small coefficient pools make sums cancel.
_RUN_RADICANDS = (1, -1, 2, -3, 6, 1009 * 1013, 1009 * 1013 * 1019**2, -1009 * 1031)
_run_leaves = st.builds(
    lambda m, c: _mul_term(*_sqrt_frac(m, 1), 1, c.numerator, c.denominator),
    st.sampled_from(_RUN_RADICANDS),
    st.sampled_from((F(1), F(-1), F(1, 2), F(-1, 2), F(2), F(3, 5))),
)


def test_runner_cancels_and_merges():
    short = 1009 * 1013
    long = short * 1019**2  # the same square class
    leaves = [(6, 1, 2), (short, 1, 1), (short, -1, 1), (long, 1, 1019), (6, -1, 2)]
    sums = [
        (((0,), 1), ((4,), 1)),  # cancels
        (((1,), 1), ((3,), 1)),  # sqrt(s) + sqrt(1019^2 s) / 1019 = 2 sqrt(s)
        (((1,), -1), ((3,), 2)),  # merges into the spelling already held
        (((1,), 1), ((2,), 1), ((3,), 1)),  # the class cancels first: the long spelling stays
        (((0, 1), 1), ((1, 4), 1)),  # products that cancel
        (((1, 3), 1),),  # sqrt(s) * sqrt(1019^2 s) / 1019 = s
        (((0, 1), 1),),  # (1/2)sqrt(6) * sqrt(s)
        (((1, 4), 1),),  # sqrt(s) * -(1/2)sqrt(6)
    ]
    got = [v and v.json_map() for v in _evaluate(_program(5, sums), leaves)]
    assert got == [
        None,
        {str(short): "2"},
        {str(short): "1"},
        {str(long): "1/1019"},
        None,
        {"1": str(short)},
        {str(6 * short): "1/2"},
        {str(6 * short): "-1/2"},
    ]


@given(leaves=st.lists(_run_leaves, min_size=1, max_size=5), data=st.data())
@settings(deadline=None, max_examples=300)
def test_runner_matches_radical_reference(leaves, data):
    ids = st.integers(0, len(leaves) - 1)
    monomials = st.lists(ids, min_size=1, max_size=6).map(lambda m: tuple(sorted(m)))
    coeffs, sums = st.sampled_from((1, -1, 2, -2, 3)), []
    for _ in range(data.draw(st.integers(1, 4))):
        monos = data.draw(st.lists(monomials, min_size=1, max_size=5, unique=True))
        sums.append(tuple((mono, data.draw(coeffs)) for mono in sorted(monos)))
    want = [_radical(v) for v in leaves]
    for got, terms in zip(_evaluate(_program(len(leaves), sums), leaves), sums):
        total = Radical.zero()
        for mono, c in terms:
            product = want[mono[0]]
            for leaf in mono[1:]:
                product = product * want[leaf]
            assert product  # products of nonzero single terms stay nonzero
            total = total + product * c
        assert (got.json_map() if got is not None else None) == (total.json_map() or None)


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

    @pytest.mark.parametrize(
        "overrides",
        [
            {"n": 3.7},
            {"n": True},
            {"n": "3"},
            {"lambda": 2.9},
            {"lambda": None},
            {"margin": 1.5},
            {"margin": None},
            {"cap": 13.0},
            {"cap": False},
        ],
        ids=repr,
    )
    def test_non_integer_values_refused(self, overrides):
        # int() used to truncate these silently (n = 3.7 ran with n = 3).
        data = {"type": "C", "n": 3, "lambda": 3, **overrides}
        with pytest.raises(ConfigError, match="must be an integer"):
            load_config(data)

    def test_null_cap_takes_default(self):
        cfg = load_config({"type": "C", "n": 2, "lambda": 3, "cap": None})
        assert cfg.cap == 13
        assert load_config({"type": "A", "n": 2, "lambda": 3, "cap": None}).cap is None

    def test_families_comma_string(self):
        cfg = load_config({"type": "A", "n": 3, "lambda": 2, "families": "cartan,ladder"})
        assert cfg.families == ("cartan", "ladder")
        with pytest.raises(ConfigError, match="unknown relation family"):
            load_config({"type": "A", "n": 3, "lambda": 2, "families": "cartan,weird"})

    def test_family_names_are_stripped(self, tmp_path):
        # As q entries are: "1/2, 2" reads 1/2 and 2.
        path = tmp_path / "spaced.json"
        cfg = {"type": "A", "n": 2, "lambda": 3, "families": "ladder, map", "q": "1/2, 2"}
        path.write_text(json.dumps(cfg), encoding="utf-8")
        config = load_config(str(path))
        assert config.families == ("ladder", "map")
        assert config.q_list == (F(1, 2), F(2))

    @pytest.mark.parametrize(
        "overrides, repeated",
        [
            ({"q": "1,1"}, "'1'"),
            ({"q": ["2", "3/5", "4/2"]}, "'2'"),
            ({"q": "1/2,2/4"}, "'1/2'"),
            ({"families": "cartan,cartan"}, "'cartan'"),
            ({"families": ["map", "serre", "map"]}, "'map'"),
        ],
        ids=repr,
    )
    def test_repeats_refused(self, overrides, repeated):
        # Each q and family runs once; a repeat (after normalising q, so 2
        # and 4/2 are one value) would double reports and totals.
        data = {"type": "A", "n": 3, "lambda": 2, **overrides}
        with pytest.raises(ConfigError, match=f"repeats {repeated}"):
            load_config(data)

    def test_families_must_be_list_or_string(self):
        with pytest.raises(ConfigError, match="families"):
            load_config({"type": "A", "n": 3, "lambda": 2, "families": 5})

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
