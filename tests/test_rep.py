from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from qcrys.crystal import CrystalSpec, build_model, weight_h
from qcrys.rep import (
    CZ_NODE,
    CZ_WEIGHT,
    LinOp,
    _deform_entry,
    _e_classical_entry,
    _e_deformed_entry,
    _factor_args,
    casimir,
    casimir_generator_route,
    commutator,
    cz_factor,
    deform_factor,
    deform_factor_inv,
    matrix_csv,
    matrix_json_entries,
    op_e_classical,
    op_e_deformed,
    op_h,
    op_hat,
    op_num,
)
from qcrys.scalar import Radical, qint, qint_at, sqrt_rat

F = Fraction
Q_SAMPLES = (F(2), F(1, 2), F(3, 5))


def model_a(n, lam):
    return build_model(CrystalSpec("A", n, lam))


def model_c(n, lam, cap):
    return build_model(CrystalSpec("C", n, lam, cap))


GRID = [
    model_a(2, 1),
    model_a(2, 3),
    model_a(3, 2),
    model_a(4, 2),
    model_c(1, 0, 8),
    model_c(1, 1, 5),
    model_c(2, 2, 8),
    model_c(3, 1, 7),
]


def rad(m, c):
    return Radical({m: F(c)})


class TestLinOpAlgebra:
    def test_self_commutator_vanishes(self):
        x = op_e_classical(model_a(3, 2), 1, 1)
        assert commutator(x, x).is_zero()

    def test_transpose_involution(self):
        x = op_e_classical(model_a(3, 2), 2, 1)
        assert x.transpose().transpose() == x

    def test_transpose_antihomomorphism(self):
        m = model_a(3, 2)
        a = op_e_classical(m, 1, 1)
        b = op_e_classical(m, 2, 1)
        assert (a @ b).transpose() == b.transpose() @ a.transpose()

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            LinOp.identity(2) @ LinOp.identity(3)
        with pytest.raises(ValueError):
            LinOp.identity(2) + LinOp.identity(3)

    def test_weight_shift_commutator(self):
        m = model_a(2, 2)
        hat = op_hat(m, 1, 1)
        assert commutator(op_h(m, 1), hat) == hat * 2

    def test_equality_across_square_class_representatives(self):
        # 1009 lies above the trial-division bound, so both entries keep
        # different radicands of one square class.
        a = LinOp(2, {(0, 1): sqrt_rat(1009**2 * 1013)})
        b = LinOp(2, {(0, 1): sqrt_rat(1013) * 1009})
        assert a == b
        assert a != b * 2
        with pytest.raises(TypeError):
            hash(a)

    def test_entry_type_checked(self):
        with pytest.raises(TypeError, match="cannot use str as an operator entry"):
            LinOp(2, {(0, 1): "x"})

    def test_entry_bounds_checked(self):
        with pytest.raises(ValueError):
            LinOp(2, {(0, 5): Radical.one()})
        with pytest.raises(ValueError):
            LinOp(2, {(0, 5): 1})

    def test_arithmetic_results_store_no_zero_entries(self):
        # Source 0 reaches target 0 directly and through target 1; the two
        # paths cancel exactly in the product.
        a = LinOp(2, {(0, 0): 1, (1, 0): -1})
        b = LinOp(2, {(0, 0): 1, (0, 1): 1})
        assert (a @ b).entries == {}
        assert (b + (-b)).entries == {}
        assert (b * 0).entries == {}
        m = model_c(2, 2, 8)
        x, y = op_e_deformed(m, 1, 1, F(3, 5)), op_e_deformed(m, 1, -1, F(3, 5))
        h = op_h(m, 1)
        for op in (x @ y - y @ x, commutator(h, x) - x * 2, x @ y + y @ x, h @ h - h):
            assert all(op.entries.values())
        assert (commutator(h, x) - x * 2).is_zero()

    def test_column(self):
        m = model_a(2, 2)
        e = op_e_classical(m, 1, 1)
        # from (1,1) (ordinal 1) to (2,0) (ordinal 0) with sqrt(2)
        assert e.column(1) == {0: rad(2, 1)}


class TestOpHat:
    def test_single_entry_doublet(self):
        m = model_a(2, 1)
        lower = op_hat(m, 1, -1)
        assert lower.entries == {(0, 1): Radical.one()}

    @pytest.mark.parametrize("model", GRID, ids=repr)
    def test_plus_is_transpose_of_minus(self, model):
        for node in range(1, model.spec.nodes + 1):
            assert op_hat(model, node, 1) == op_hat(model, node, -1).transpose()

    def test_ladder_entry_count(self):
        m = model_c(1, 1, 5)
        up = op_hat(m, 1, 1)
        assert up.entries == {
            (0, 1): Radical.one(),
            (1, 2): Radical.one(),
        }

    @pytest.mark.parametrize("model", GRID, ids=repr)
    def test_sparsity_partial_bijection(self, model):
        for node in range(1, model.spec.nodes + 1):
            for sign in (1, -1):
                for op in (
                    op_hat(model, node, sign),
                    op_e_classical(model, node, sign),
                    op_e_deformed(model, node, sign, F(2)),
                ):
                    rows = [s for s, _ in op.entries]
                    cols = [t for _, t in op.entries]
                    assert len(rows) == len(set(rows))
                    assert len(cols) == len(set(cols))


class TestDiagonals:
    def test_spin_one_cartan(self):
        m = model_a(2, 2)
        assert op_h(m, 1) == LinOp.diagonal(
            [Radical.from_rational(v) for v in (2, 0, -2)]
        )

    def test_number_operators_commute(self):
        m = model_c(2, 2, 8)
        for i in (1, 2):
            for j in (1, 2):
                assert commutator(op_num(m, i), op_num(m, j)).is_zero()

    def test_type_c_half_integer_cartan(self):
        m = model_c(1, 1, 5)
        assert op_h(m, 1) == LinOp.diagonal(
            [Radical.from_rational(F(v, 2)) for v in (3, 7, 11)]
        )

    def test_index_range(self):
        m = model_a(3, 1)
        with pytest.raises(ValueError):
            op_h(m, 3)
        with pytest.raises(ValueError):
            op_num(m, 4)


class TestClassicalGenerators:
    def test_spin_half_raising(self):
        m = model_a(2, 1)
        e = op_e_classical(m, 1, 1)
        assert e.entries == {(1, 0): Radical.one()}

    def test_spin_one_normalization(self):
        m = model_a(2, 2)
        e = op_e_classical(m, 1, 1)
        assert e.entries[(1, 0)] == rad(2, 1)

    def test_long_node_imaginary_entry(self):
        m = model_c(1, 0, 8)
        e = op_e_classical(m, 1, 1)
        assert e.entries[(0, 1)] == rad(-2, F(1, 2))

    @pytest.mark.parametrize("model", GRID, ids=repr)
    def test_transpose_symmetry(self, model):
        for node in range(1, model.spec.nodes + 1):
            plus = op_e_classical(model, node, 1)
            minus = op_e_classical(model, node, -1)
            assert minus == plus.transpose()

    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize("lam", [1, 2, 3, 4, 5])
    def test_highest_weight_diagonal(self, n, lam):
        # On the highest-weight state, raising after lowering acts by
        # l_i l_{i+1} + l_i, which equals the Cartan eigenvalue there.
        m = model_a(n, lam)
        hw = (lam,) + (0,) * (n - 1)
        k = m.index[hw]
        l = hw
        for node in range(1, n):
            prod = op_e_classical(m, node, 1) @ op_e_classical(m, node, -1)
            expect = F(l[node - 1] * l[node] + l[node - 1])
            got = prod.column(k).get(k, Radical.zero())
            assert got == Radical.from_rational(expect)
            assert expect == weight_h(m, hw)[node - 1]


class TestDeformedGenerators:
    @pytest.mark.parametrize("model", GRID, ids=repr)
    def test_q1_equals_classical(self, model):
        for node in range(1, model.spec.nodes + 1):
            for sign in (1, -1):
                assert op_e_deformed(model, node, sign, 1) == op_e_classical(
                    model, node, sign
                )

    def test_spin_one_deformed_entry(self):
        m = model_a(2, 2)
        e = op_e_deformed(m, 1, 1, F(2))
        # sqrt([2]_2 [1]_2) = sqrt(5/2) = (1/2) sqrt(10)
        assert e.entries[(1, 0)] == rad(10, F(1, 2))

    def test_long_node_deformed_entry(self):
        m = model_c(1, 0, 8)
        e = op_e_deformed(m, 1, 1, F(2))
        # (2/5) sqrt([1]_2 [-2]_2) = (2/5) sqrt(-5/2) = (1/5) sqrt(-10)
        assert e.entries[(0, 1)] == rad(-10, F(1, 5))

    def test_rejects_bad_q(self):
        m = model_a(2, 1)
        with pytest.raises(ValueError):
            op_e_deformed(m, 1, 1, 0)
        with pytest.raises(ValueError):
            op_e_deformed(m, 1, 1, F(-2))

    @pytest.mark.parametrize("model", GRID, ids=repr)
    def test_transpose_symmetry_deformed(self, model):
        for q in Q_SAMPLES:
            for node in range(1, model.spec.nodes + 1):
                plus = op_e_deformed(model, node, 1, q)
                assert op_e_deformed(model, node, -1, q) == plus.transpose()

    def test_sp_ladder_bottom_eigenvalue(self):
        # [e+, e-] on the bottom rung of the even ladder evaluates to
        # 1/(q + 1/q), matching the bracket of H = 1/2 in base q^2.
        for q in Q_SAMPLES:
            m = model_c(1, 0, 8)
            ep = op_e_deformed(m, 1, 1, q)
            em = op_e_deformed(m, 1, -1, q)
            comm = commutator(ep, em)
            assert comm.column(0) == {0: Radical.from_rational(1 / (q + 1 / q))}


class TestDeformFactor:
    @pytest.mark.parametrize("model", GRID, ids=repr)
    def test_identity_at_q1(self, model):
        for node in range(1, model.spec.nodes + 1):
            assert deform_factor(model, node, 1) == LinOp.identity(model.dim)

    @pytest.mark.parametrize("model", GRID, ids=repr)
    def test_dressing_map(self, model):
        # Classical generator composed with the factor reproduces the
        # deformed generator, both routes computed independently.
        for q in Q_SAMPLES:
            for node in range(1, model.spec.nodes + 1):
                f = deform_factor(model, node, q)
                assert op_e_classical(model, node, 1) @ f == op_e_deformed(
                    model, node, 1, q
                )
                assert f @ op_e_classical(model, node, -1) == op_e_deformed(
                    model, node, -1, q
                )

    @pytest.mark.parametrize("model", GRID, ids=repr)
    def test_partial_inverse(self, model):
        for q in Q_SAMPLES:
            for node in range(1, model.spec.nodes + 1):
                f = deform_factor(model, node, q)
                fi = deform_factor_inv(model, node, q)
                assert f @ fi == LinOp.identity(model.dim)

    @pytest.mark.parametrize("model", GRID, ids=repr)
    def test_roundtrip_recovers_classical(self, model):
        for q in Q_SAMPLES:
            for node in range(1, model.spec.nodes + 1):
                fi = deform_factor_inv(model, node, q)
                assert op_e_deformed(model, node, 1, q) @ fi == op_e_classical(
                    model, node, 1
                )
                assert fi @ op_e_deformed(model, node, -1, q) == op_e_classical(
                    model, node, -1
                )


class TestSharedEntries:
    # The relation engine keys each generator entry by (kind, long node flag,
    # factor arguments in ascending order), with one key for raising and
    # lowering, and each deforming factor entry likewise; that is sound only
    # if the entries agree, and if every entry function is symmetric in its
    # two arguments.
    @settings(max_examples=200, deadline=None)
    @given(
        a=st.integers(-30, 30),
        b=st.integers(-30, 30),
        q=st.fractions(min_value=F(1, 30), max_value=30, max_denominator=30),
        long_node=st.booleans(),
    )
    def test_entry_functions_are_symmetric(self, a, b, q, long_node):
        assert _e_classical_entry(a, b, long_node) == _e_classical_entry(b, a, long_node)
        assert _e_deformed_entry(a, b, q, long_node) == _e_deformed_entry(b, a, q, long_node)
        assert _deform_entry(a, b, q, long_node) == _deform_entry(b, a, q, long_node)

    @pytest.mark.parametrize("model", [model_a(3, 3), model_c(2, 2, 12)], ids=repr)
    @pytest.mark.parametrize("q", [F(1), F(3, 5), F(2)], ids=str)
    def test_keys_shared_by_raising_lowering_and_equal_arguments(self, model, q):
        states = model.states
        for node in range(1, model.spec.nodes + 1):
            for build in (
                lambda sign: op_e_deformed(model, node, sign, q),
                lambda sign: op_e_classical(model, node, sign),
            ):
                plus, minus = build(1), build(-1)
                assert set(minus.entries) == {(t, s) for s, t in plus.entries}
                for (s, t), v in plus.entries.items():
                    assert minus.entries[(t, s)].json_map() == v.json_map()
            f = deform_factor(model, node, q)
            by_args = {}
            for k, s in enumerate(states):
                value = f.entries[(k, k)].json_map()
                assert by_args.setdefault(_factor_args(model, node, s), value) == value


def _sqrt_bracket(x, q, over_x=False):
    """sqrt([x]_q) or sqrt([x]_q / x) from the power-sum definition."""
    value = qint(x).eval((q,))
    return sqrt_rat(value / x if over_x else value)


class TestEntriesOnIntegers:
    # Generator and deforming-factor entries are built from cached roots of
    # integer-keyed q-integers; they must be the Radicals the Fraction
    # route writes, term by term, because reports print the representative.
    @pytest.mark.parametrize(
        "model", GRID + [model_a(2, 40), model_c(2, 2, 20)], ids=repr
    )
    @pytest.mark.parametrize("q", [F(1), F(2), F(3, 5), F(3, 4), F(7, 4), F(1, 7)], ids=str)
    def test_entries_match_the_fraction_route(self, model, q):
        terms = lambda v: list(v._terms.items())
        for node in range(1, model.spec.nodes + 1):
            long_node = model.spec.algebra_type == "C" and node == model.spec.n
            e = op_e_deformed(model, node, 1, q)
            for (s, _), v in e.entries.items():
                a, b = _factor_args(model, node, model.states[s])
                expect = _sqrt_bracket(a, q) * _sqrt_bracket(b, q)
                if long_node:
                    expect = expect * (1 / (q + 1 / q))
                assert terms(v) == terms(expect)
            f = deform_factor(model, node, q)
            for k, s in enumerate(model.states):
                a, b = _factor_args(model, node, s)
                if a * b == 0:
                    expect = Radical.one()
                else:
                    expect = _sqrt_bracket(a, q, True) * _sqrt_bracket(b, q, True)
                    if long_node:
                        expect = expect * (2 / (q + 1 / q))
                assert terms(f.entries[(k, k)]) == terms(expect)


class TestCzFactor:
    def test_both_variants_identity_at_q1(self):
        m = model_a(2, 3)
        assert cz_factor(m, 1, CZ_WEIGHT) == LinOp.identity(m.dim)
        assert cz_factor(m, 1, CZ_NODE) == LinOp.identity(m.dim)

    def test_spin_half_matrix_elements_undeformed(self):
        m = model_a(2, 1)
        dressed = cz_factor(m, F(2), CZ_WEIGHT) @ op_e_classical(m, 1, 1)
        assert dressed.entries == {(1, 0): Radical.one()}
        assert dressed == op_e_deformed(m, 1, 1, F(2))

    def test_spin_one_entry_matches_deformed_route(self):
        m = model_a(2, 2)
        dressed = cz_factor(m, F(2), CZ_WEIGHT) @ op_e_classical(m, 1, 1)
        assert dressed.entries[(1, 0)] == rad(10, F(1, 2))
        assert dressed == op_e_deformed(m, 1, 1, F(2))

    @pytest.mark.parametrize("lam", range(1, 9))
    def test_image_source_agreement_of_variants(self, lam):
        # EQ2 read on the image of a raising edge equals EQ1A read on its
        # source; as whole dressed operators the two routes coincide.
        m = model_a(2, lam)
        hat = op_hat(m, 1, 1)
        for q in (F(2), F(1, 2)):
            d2 = cz_factor(m, q, CZ_WEIGHT)
            d1 = cz_factor(m, q, CZ_NODE)
            assert d2 @ hat == hat @ d1

    def test_domain_error_outside_rank_one(self):
        with pytest.raises(ValueError):
            cz_factor(model_a(3, 2), F(2), CZ_WEIGHT)
        with pytest.raises(ValueError):
            cz_factor(model_c(1, 1, 5), F(2), CZ_WEIGHT)

    def test_unknown_variant(self):
        with pytest.raises(ValueError):
            cz_factor(model_a(2, 2), F(2), "EQ3")


class TestCasimir:
    def test_spin_half_classical(self):
        m = model_a(2, 1)
        assert casimir(m, deformed=False) == LinOp.identity(2) * F(3, 4)

    def test_spin_one_deformed(self):
        m = model_a(2, 2)
        # [1]_2 [2]_2 = 5/2
        assert casimir(m, deformed=True, q=F(2)) == LinOp.identity(3) * F(5, 2)

    @pytest.mark.parametrize("lam", range(1, 7))
    def test_commutes_with_generators(self, lam):
        m = model_a(2, lam)
        for q in (F(2), F(1, 2)):
            c = casimir(m, deformed=True, q=q)
            for sign in (1, -1):
                e = op_e_deformed(m, 1, sign, q)
                assert commutator(c, e).is_zero()

    @pytest.mark.parametrize("lam", range(1, 7))
    def test_generator_route_matches_scalar_route(self, lam):
        m = model_a(2, lam)
        assert casimir_generator_route(m, deformed=False) == casimir(m, deformed=False)
        for q in (F(2), F(1, 2), F(3, 5)):
            assert casimir_generator_route(m, deformed=True, q=q) == casimir(
                m, deformed=True, q=q
            )

    def test_requires_rank_one(self):
        with pytest.raises(ValueError):
            casimir(model_a(3, 1), deformed=False)


class TestExport:
    def test_json_entries_sorted_and_exact(self):
        m = model_a(2, 2)
        entries = matrix_json_entries(op_e_classical(m, 1, 1))
        assert entries == [
            {"from": 1, "to": 0, "coeff": {"2": "1"}},
            {"from": 2, "to": 1, "coeff": {"2": "1"}},
        ]

    def test_csv_contains_radical_rendering(self):
        m = model_c(1, 0, 8)
        text = matrix_csv({"plus": op_e_classical(m, 1, 1)})
        assert "sqrt(-2)" in text
        assert text.splitlines()[0] == "sign,from,to,coeff"

    def test_exports_deterministic(self):
        m1 = model_c(2, 2, 8)
        m2 = build_model(CrystalSpec("C", 2, 2, 8))
        for q in Q_SAMPLES:
            a = matrix_csv({"plus": op_e_deformed(m1, 2, 1, q)})
            b = matrix_csv({"plus": op_e_deformed(m2, 2, 1, q)})
            assert a == b
