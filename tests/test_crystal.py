import json
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from qcrys.crystal import (
    CAP_MARGIN,
    INTERIOR,
    MOVE_CAPPED,
    MOVE_DEAD,
    MOVE_OK,
    CrystalModel,
    CrystalSpec,
    apply_move,
    boundary_class,
    build_model,
    e_hat,
    graph_dot,
    graph_json,
    graph_json_obj,
    move_delta,
    resolve_cap,
    state_count,
    weight_h,
    weight_h2,
    weight_n,
)

F = Fraction


def model_a(n, lam):
    return build_model(CrystalSpec("A", n, lam))


def model_c(n, lam, cap):
    return build_model(CrystalSpec("C", n, lam, cap))


SMALL_MODELS = [
    model_a(2, 0),
    model_a(2, 2),
    model_a(3, 2),
    model_a(3, 3),
    model_a(4, 2),
    model_c(1, 1, 5),
    model_c(1, 0, 8),
    model_c(2, 2, 8),
    model_c(3, 1, 7),
]


class TestSpecValidation:
    def test_type_c_requires_cap(self):
        with pytest.raises(ValueError):
            CrystalSpec("C", 2, 1)

    def test_resolve_cap_defaults_type_c_only(self):
        assert resolve_cap("C", 2, None) == 12
        assert resolve_cap("C", 2, 5) == 5
        assert resolve_cap("A", 2, None) is None
        # an explicit type A cap is passed through for CrystalSpec to refuse
        assert resolve_cap("A", 2, 4) == 4

    def test_cap_below_lambda(self):
        with pytest.raises(ValueError):
            CrystalSpec("C", 2, 5, 3)

    def test_type_a_rejects_cap(self):
        with pytest.raises(ValueError):
            CrystalSpec("A", 2, 1, 4)

    def test_type_a_min_rank(self):
        with pytest.raises(ValueError):
            CrystalSpec("A", 1, 1)

    def test_unknown_type(self):
        with pytest.raises(ValueError):
            CrystalSpec("B", 2, 1)

    def test_negative_lambda(self):
        with pytest.raises(ValueError, match="highest-weight label must be non-negative"):
            CrystalSpec("A", 2, -1)

    def test_type_c_min_rank(self):
        with pytest.raises(ValueError, match="type C needs n >= 1"):
            CrystalSpec("C", 0, 0, 0)

    def test_node_counts(self):
        assert CrystalSpec("A", 4, 1).nodes == 3
        assert CrystalSpec("C", 3, 1, 5).nodes == 3

    @pytest.mark.parametrize("n", [1, 2, 5])
    def test_long_node(self, n):
        # The node whose move shifts the last label by two: n on type C,
        # none on type A, as move_delta reads it.
        spec_c, spec_a = CrystalSpec("C", n, 0, 4), CrystalSpec("A", n + 1, 1)
        assert spec_c.long_node == n and spec_a.long_node is None
        assert move_delta(spec_c, n, 1)[-1] == 2
        assert all(move_delta(spec_a, node, 1)[-1] < 2 for node in range(1, n + 1))


class TestBuildModel:
    def test_spin_one_triplet(self):
        assert model_a(2, 2).states == ((2, 0), (1, 1), (0, 2))

    def test_a3_dimension(self):
        assert model_a(3, 2).dim == 6

    def test_c1_odd_ladder(self):
        assert model_c(1, 1, 5).states == ((1,), (3,), (5,))

    def test_c1_even_ladder(self):
        assert model_c(1, 0, 4).states == ((0,), (2,), (4,))

    def test_trivial_rep(self):
        assert model_a(2, 0).states == ((0, 0),)

    def test_duplicate_states_refused(self):
        with pytest.raises(ValueError, match="duplicate states"):
            CrystalModel(CrystalSpec("A", 2, 1), [(1, 0), (0, 1), [1, 0]])

    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize("lam", [0, 1, 2, 3, 4, 5])
    def test_dimension_oracle(self, n, lam):
        # Independent combinatorial count of compositions.
        assert model_a(n, lam).dim == math.comb(lam + n - 1, n - 1)

    def test_type_c_membership_rule(self):
        m = model_c(2, 2, 8)
        for s in m.states:
            assert sum(s) <= 8 and sum(s) % 2 == 0 and all(v >= 0 for v in s)
        # and every such tuple is present
        count = sum(
            1
            for a in range(9)
            for b in range(9)
            if a + b <= 8 and (a + b) % 2 == 0
        )
        assert m.dim == count

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("lam", [0, 1, 2, 3])
    def test_state_count_matches_enumeration(self, n, lam):
        for cap in range(lam, lam + 12):
            assert state_count(CrystalSpec("C", n, lam, cap)) == model_c(n, lam, cap).dim
        if n >= 2:
            assert state_count(CrystalSpec("A", n, lam)) == model_a(n, lam).dim

    def test_state_count_of_huge_spaces(self):
        assert state_count(CrystalSpec("A", 30, 30)) == math.comb(59, 29)
        # type C n = 1: one state per total of lam's parity
        assert state_count(CrystalSpec("C", 1, 1, 10**12 + 1)) == 10**12 // 2 + 1

    def test_ordering_type_c_ascending(self):
        m = model_c(2, 0, 4)
        assert m.states == tuple(sorted(m.states))

    def test_ordering_type_a_descending(self):
        m = model_a(4, 3)
        assert m.states == tuple(sorted(m.states, reverse=True))
        assert len(set(m.states)) == m.dim and all(sum(s) == 3 for s in m.states)

    def test_enumeration_does_not_recurse_on_rank(self):
        # deeper than the interpreter's default recursion limit
        n = 1500
        m = model_a(n, 1)
        assert m.states[0] == (1,) + (0,) * (n - 1)
        assert m.states[-1] == (0,) * (n - 1) + (1,)
        assert model_c(n, 0, 0).states == ((0,) * n,)


class TestMoves:
    def test_three_state_string(self):
        m = model_a(2, 2)
        assert e_hat(m, 1, -1, (2, 0)) == (1, 1)
        assert e_hat(m, 1, -1, (1, 1)) == (0, 2)
        assert e_hat(m, 1, -1, (0, 2)) is None

    def test_annihilation_propagates(self):
        m = model_a(3, 1)
        assert e_hat(m, 2, -1, (1, 0, 0)) is None

    def test_type_c_cap_and_negativity(self):
        m = model_c(1, 1, 5)
        assert e_hat(m, 1, 1, (5,)) is None
        assert e_hat(m, 1, -1, (1,)) is None
        assert e_hat(m, 1, 1, (3,)) == (5,)

    def test_move_status_distinguishes_cap(self):
        spec = CrystalSpec("C", 1, 1, 5)
        assert apply_move(spec, (5,), 1, 1) == (None, MOVE_CAPPED)
        assert apply_move(spec, (1,), 1, -1) == (None, MOVE_DEAD)
        assert apply_move(spec, (3,), 1, 1) == ((5,), MOVE_OK)

    def test_type_a_never_capped(self):
        spec = CrystalSpec("A", 3, 4)
        for s in build_model(spec).states:
            for node in (1, 2):
                for sign in (1, -1):
                    _, status = apply_move(spec, s, node, sign)
                    assert status in (MOVE_OK, MOVE_DEAD)

    def test_node_range_error(self):
        m = model_a(2, 2)
        with pytest.raises(ValueError):
            e_hat(m, 2, 1, (2, 0))
        with pytest.raises(ValueError):
            e_hat(m, 0, 1, (2, 0))

    def test_unknown_state_error(self):
        m = model_a(2, 2)
        with pytest.raises(ValueError):
            e_hat(m, 1, 1, (3, 0))

    @pytest.mark.parametrize("model", SMALL_MODELS, ids=repr)
    def test_partial_bijection_law(self, model):
        for s in model.states:
            for node in range(1, model.spec.nodes + 1):
                for sign in (1, -1):
                    t = e_hat(model, node, sign, s)
                    if t is not None:
                        assert e_hat(model, node, -sign, t) == s

    @pytest.mark.parametrize("model", SMALL_MODELS, ids=repr)
    def test_distinct_moves_commute(self, model):
        nodes = range(1, model.spec.nodes + 1)
        for s in model.states:
            for i in nodes:
                for j in nodes:
                    if i == j:
                        continue
                    a = e_hat(model, i, 1, s)
                    b = e_hat(model, j, -1, s)
                    if a is None or b is None:
                        continue
                    ab = e_hat(model, j, -1, a)
                    ba = e_hat(model, i, 1, b)
                    if ab is not None and ba is not None:
                        assert ab == ba

    @pytest.mark.parametrize("model", SMALL_MODELS, ids=repr)
    def test_weight_shift_matches_move_vector(self, model):
        for s in model.states:
            for node in range(1, model.spec.nodes + 1):
                for sign in (1, -1):
                    t = e_hat(model, node, sign, s)
                    if t is None:
                        continue
                    delta = tuple(a - b for a, b in zip(t, s))
                    assert delta == move_delta(model.spec, node, sign)

    def test_type_a_total_conserved(self):
        m = model_a(3, 3)
        assert {sum(s) for s in m.states} == {3}

    def test_highest_weight_annihilated(self):
        for n, lam in [(2, 3), (3, 2), (4, 5)]:
            m = model_a(n, lam)
            hw = (lam,) + (0,) * (n - 1)
            for node in range(1, n):
                assert e_hat(m, node, 1, hw) is None


TABLE_MODELS = [
    model_a(3, 3),
    model_a(4, 2),
    model_c(1, 0, 8),
    model_c(2, 2, 12),
    model_c(3, 2, 9),
]


class TestMoveTable:
    @pytest.mark.parametrize("model", TABLE_MODELS, ids=repr)
    def test_entries_are_apply_move_by_ordinal(self, model):
        spec = model.spec
        for node in range(1, spec.nodes + 1):
            for sign in (1, -1):
                column = model.moves(node, sign)
                assert set(column) <= set(range(model.dim))
                for k, s in enumerate(model.states):
                    t, status = apply_move(spec, s, node, sign)
                    if status == MOVE_DEAD:
                        assert k not in column
                    elif status == MOVE_CAPPED:
                        assert column[k] == MOVE_CAPPED
                    else:
                        assert column[k] == model.index[t]

    @staticmethod
    def _assert_lowering_inverts_raising(model):
        for node in range(1, model.spec.nodes + 1):
            down = model.moves(node, -1)
            assert MOVE_CAPPED not in down.values()
            live = {t: k for k, t in model.moves(node, 1).items() if t != MOVE_CAPPED}
            assert down == live

    @pytest.mark.parametrize("model", TABLE_MODELS, ids=repr)
    def test_lowering_column_inverts_live_raising_moves(self, model):
        self._assert_lowering_inverts_raising(model)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_lowering_column_inverts_live_raising_moves_on_drawn_specs(self, data):
        if data.draw(st.booleans()):
            spec = CrystalSpec("A", data.draw(st.integers(2, 5)), data.draw(st.integers(0, 5)))
        else:
            lam = data.draw(st.integers(0, 4))
            cap = data.draw(st.integers(lam, lam + 8))
            spec = CrystalSpec("C", data.draw(st.integers(1, 4)), lam, cap)
        self._assert_lowering_inverts_raising(build_model(spec))

    def test_column_built_once(self):
        m = model_c(2, 2, 12)
        assert m.moves(2, 1) is m.moves(2, 1)
        assert m.moves(2, 1) is not m.moves(2, -1)

    @pytest.mark.parametrize("model", TABLE_MODELS, ids=repr)
    def test_e_hat_refusals_survive_built_columns(self, model):
        s, spec = model.states[0], model.spec
        outside = ((spec.cap or spec.lam) + 1,) * spec.n
        bad = [(0, 1, s), (spec.nodes + 1, 1, s), (1, 0, s), (1, 1, outside)]
        for _ in range(2):
            for node, sign, state in bad:
                with pytest.raises(ValueError):
                    e_hat(model, node, sign, state)
            # build every valid column, then refuse the same calls again
            for node in range(1, model.spec.nodes + 1):
                for sign in (1, -1):
                    e_hat(model, node, sign, s)

    @pytest.mark.parametrize("model", TABLE_MODELS, ids=repr)
    def test_graph_edges_in_source_node_order(self, model):
        got = [(e["from"], e["to"], e["node"]) for e in graph_json_obj(model)["edges"]]
        assert [(a, i) for a, _, i in got] == sorted({(a, i) for a, _, i in got})
        expected = [
            (k, model.index[t], node)
            for k, s in enumerate(model.states)
            for node in range(1, model.spec.nodes + 1)
            for t in [apply_move(model.spec, s, node, -1)[0]]
            if t is not None
        ]
        assert got == expected


class TestWeights:
    def test_symmetric_state(self):
        m = model_a(2, 2)
        assert weight_h(m, (1, 1)) == (F(0),)

    def test_direct_subtraction(self):
        m = model_a(3, 2)
        assert weight_h(m, (0, 2, 0)) == (F(-2), F(2))

    def test_type_c_half_integer(self):
        m = model_c(2, 2, 8)
        assert weight_h(m, (1, 3)) == (F(-2), F(7, 2))

    @pytest.mark.parametrize(
        "spec",
        [
            CrystalSpec("A", 2, 3),
            CrystalSpec("A", 4, 3),
            CrystalSpec("C", 1, 1, 7),
            CrystalSpec("C", 3, 2, 8),
        ],
        ids=repr,
    )
    def test_weight_h_is_half_of_integer_weight_h2(self, spec):
        m = build_model(spec)
        for s in m.states:
            h2 = weight_h2(m, s)
            assert all(type(x) is int for x in h2)
            short = [2 * (s[i] - s[i + 1]) for i in range(spec.n - 1)]
            # the type C long node carries 2 l_n + 1, always odd
            assert list(h2) == short + ([2 * s[-1] + 1] if spec.algebra_type == "C" else [])
            assert weight_h(m, s) == tuple(F(x, 2) for x in h2)

    def test_weight_n_is_label_tuple(self):
        m = model_c(2, 2, 8)
        assert weight_n(m, (1, 3)) == (1, 3)

    def test_weight_n_outside_model_refused(self):
        # (1, 2) has odd total, and the lambda = 2 states have even totals.
        with pytest.raises(ValueError, match=r"state \(1, 2\) not in model"):
            weight_n(model_c(2, 2, 8), (1, 2))


class TestBoundaryClass:
    def test_type_a_always_interior(self):
        m = model_a(3, 2)
        for s in m.states:
            assert boundary_class(m, s, 6) == INTERIOR

    def test_cap_margin(self):
        m = model_c(1, 1, 9)
        assert boundary_class(m, (5,), 6) == CAP_MARGIN
        assert boundary_class(m, (1,), 6) == INTERIOR

    def test_margin_zero_asserts_everything(self):
        m = model_c(1, 1, 9)
        for s in m.states:
            assert boundary_class(m, s, 0) == INTERIOR

    def test_negative_margin_rejected(self):
        m = model_c(1, 1, 9)
        with pytest.raises(ValueError):
            boundary_class(m, (1,), -1)


class TestExport:
    def test_doublet_graph(self):
        obj = graph_json_obj(model_a(2, 1))
        assert len(obj["states"]) == 2
        assert obj["edges"] == [{"from": 0, "to": 1, "node": 1}]

    def test_defining_rep_path(self):
        obj = graph_json_obj(model_a(3, 1))
        assert len(obj["states"]) == 3
        assert len(obj["edges"]) == 2

    def test_even_ladder_under_cap(self):
        m = model_c(1, 0, 4)
        obj = graph_json_obj(m)
        assert obj["states"] == [[0], [2], [4]]
        assert obj["edges"] == [
            {"from": 1, "to": 0, "node": 1},
            {"from": 2, "to": 1, "node": 1},
        ]

    def test_trivial_graph(self):
        obj = graph_json_obj(model_a(2, 0))
        assert obj["states"] == [[0, 0]]
        assert obj["edges"] == []

    def test_json_round_trips_and_is_deterministic(self):
        m = model_a(3, 2)
        s1 = graph_json(m)
        s2 = graph_json(build_model(CrystalSpec("A", 3, 2)))
        assert s1 == s2
        assert json.loads(s1)["spec"]["lambda"] == 2

    def test_dot_deterministic_and_labeled(self):
        m = model_c(2, 2, 8)
        d1 = graph_dot(m)
        d2 = graph_dot(build_model(CrystalSpec("C", 2, 2, 8)))
        assert d1 == d2
        assert 'label="(0,2) H=(-2,5/2)"' in d1
        # Labels are written from 2H; weight_h is the Fraction reference.
        for model in (m, model_a(3, 2)):
            dot = graph_dot(model)
            for k, s in enumerate(model.states):
                h = ",".join(str(x) for x in weight_h(model, s))
                l = ",".join(str(x) for x in s)
                assert f'  s{k} [label="({l}) H=({h})"];' in dot
