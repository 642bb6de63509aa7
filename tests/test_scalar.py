import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from qcrys.scalar import (
    Laurent,
    Radical,
    SymBracket,
    check_bracket_identity_A,
    check_bracket_identity_C,
    check_serre_identity,
    half_bracket_product,
    qbinom,
    qint,
    qint_at,
    qint_sym,
    serre_identity_sum,
    serre_identity_verdict,
    sqrt_rat,
    sym_bracket,
)
from qcrys.scalar import _qbinom_pair, _qint_root, _radical, _reciprocal, _sqrt_frac

F = Fraction
Q_SAMPLES = (F(2), F(1, 2), F(3, 5))


def lp(terms):
    return Laurent(1, {(e,): F(c) for e, c in terms.items()})


rationals = st.fractions(min_value=-10, max_value=10, max_denominator=12)
large_rationals = st.fractions(
    min_value=-(10**15), max_value=10**15, max_denominator=10**15
)
# Integers with and without prime factors above the trial-division bound.
large_multipliers = st.integers(1, 10**12) | st.lists(
    st.sampled_from((1009, 1013, 1019, 999983)), min_size=1, max_size=3
).map(math.prod)


class TestLaurent:
    def test_ring_basics(self):
        q = Laurent.var(1, 0)
        p = (q + 1) * (q - 1)
        assert p == lp({2: 1, 0: -1})
        assert p - p == Laurent.zero(1)
        assert (q**3).eval((F(2),)) == 8

    def test_eval_negative_exponents(self):
        p = lp({-2: 3, 1: F(1, 2)})
        assert p.eval((F(2),)) == F(3, 4) + 1

    def test_collapse(self):
        p = Laurent(2, {(1, 2): F(3), (0, -1): F(1)})
        # Q := q^2 sends q*Q^2 -> q^5 and Q^-1 -> q^-2.
        assert p.collapse(1, 2) == lp({5: 3, -2: 1})

    @pytest.mark.parametrize("exp", [1.7, 2.0, "2", F(3, 2)], ids=repr)
    def test_refuses_non_integer_exponents(self, exp):
        with pytest.raises(TypeError):
            Laurent(1, {(exp,): 1})

    @pytest.mark.parametrize(
        "call, message",
        [
            (lambda: Laurent(1, {(0, 0): 1}), "exponent tuple has wrong arity"),
            (lambda: Laurent.var(1, 0) + Laurent.var(2, 0), "mixed variable counts"),
            (lambda: Laurent.var(1, 0) ** -1, "negative powers"),
            (lambda: Laurent.var(1, 0).eval((F(1), F(2))), "evaluation point has wrong arity"),
            (lambda: Laurent.var(2, 0).collapse(0, 2, 0), "variables coincide"),
            (lambda: Laurent.var(2, 0).lift(3, (0,)), "positions must list every old variable"),
        ],
        ids=["arity", "mixed", "negative-power", "eval-arity", "collapse", "lift"],
    )
    def test_argument_checks(self, call, message):
        with pytest.raises(ValueError, match=message):
            call()

    def test_integral_fraction_exponent_is_an_integer(self):
        assert Laurent(1, {(F(2),): 1}) == Laurent.var(1, 0, 2)

    def test_integral_coefficient_is_an_int(self):
        p = Laurent(1, {(0,): F(3)})
        assert p == Laurent.const(1, 3)
        assert hash(p) == hash(Laurent.const(1, 3))
        assert type(p.terms[(0,)]) is int

    def test_non_integral_coefficient_stays_a_fraction(self):
        p = lp({-2: 3, 1: F(1, 2)})
        assert type(p.terms[(1,)]) is Fraction
        assert type(p.terms[(-2,)]) is int
        # Ring results that turn integral are stored as int again.
        assert type((p + p).terms[(1,)]) is int
        assert type((p * 2).terms[(1,)]) is int
        assert type((p * p).terms[(2,)]) is Fraction

    def test_lift_adds_terms_that_meet(self):
        p = Laurent(2, {(1, 0): 2, (0, 1): 3, (1, -1): 1})
        assert p.lift(1, (0, 0)) == lp({1: 5, 0: 1})
        assert p.lift(2, (0, 0)) == Laurent(2, {(1, 0): 5, (0, 0): 1})


class TestQint:
    def test_zero(self):
        assert qint(0) == Laurent.zero(1)

    def test_two(self):
        assert qint(2) == lp({1: 1, -1: 1})

    def test_minus_three_antisymmetry(self):
        assert qint(-3) == lp({2: -1, 0: -1, -2: -1})
        assert qint(-3) == -qint(3)

    def test_integer_coefficients(self):
        for x in range(-20, 21):
            assert all(type(c) is int for c in qint(x).terms.values())

    def test_regular_at_q1(self):
        for x in range(-20, 21):
            assert qint(x).eval((F(1),)) == x
            assert qint_at(x, 1) == x

    @given(x=st.integers(-6, 6), y=st.integers(-6, 6))
    def test_bracket_addition_law(self, x, y):
        # [x+y]_q = [x]_q q^y + q^(-x) [y]_q at every sampled rational q.
        for q in Q_SAMPLES:
            assert qint_at(x + y, q) == qint_at(x, q) * q**y + q**-x * qint_at(y, q)

    def test_rejects_nonpositive_q(self):
        with pytest.raises(ValueError):
            qint_at(2, F(-1))
        with pytest.raises(ValueError):
            qint_at(2, F(0))


class TestQbinom:
    def test_empty_product(self):
        assert qbinom(3, 0) == Laurent.one(1)
        assert qbinom(3, 3) == Laurent.one(1)

    def test_two_choose_one(self):
        assert qbinom(2, 1) == qint(2)

    def test_four_choose_two_product_oracle(self):
        # Independent route: [4;2] [2]! = [4][3], with no division.
        assert qbinom(4, 2) == lp({4: 1, 2: 1, 0: 2, -2: 1, -4: 1})
        assert qbinom(4, 2) * qint(2) * qint(1) == qint(4) * qint(3)
        assert qbinom(4, 2).eval((F(1),)) == 6

    @pytest.mark.parametrize("m", range(9))
    def test_q1_is_binomial(self, m):
        for k in range(m + 1):
            assert qbinom(m, k).eval((F(1),)) == math.comb(m, k)

    def test_matches_recursive_definition(self):
        # Independent reference: [m;k] = q^k [m-1;k] + q^(k-m) [m-1;k-1],
        # built with Laurent products by powers of q.
        ref = {(0, 0): Laurent.one(1)}
        for m in range(1, 17):
            for k in range(m + 1):
                up = Laurent.var(1, 0, k) * ref[m - 1, k] if k < m else Laurent.zero(1)
                down = Laurent.var(1, 0, k - m) * ref[m - 1, k - 1] if k else Laurent.zero(1)
                ref[m, k] = up + down
        for (m, k), value in ref.items():
            assert qbinom(m, k) == value, (m, k)

    @pytest.mark.parametrize("m", [0, 7, 16, 41])
    def test_integer_coefficients(self, m):
        for k in range(m + 1):
            assert all(type(c) is int for c in qbinom(m, k).terms.values())

    @pytest.mark.parametrize("m,k", [(5, 2), (6, 3), (7, 1)])
    def test_symmetry(self, m, k):
        assert qbinom(m, k) == qbinom(m, m - k)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            qbinom(2, 3)
        with pytest.raises(ValueError):
            qbinom(-1, 0)

    def test_deep_row_recurses_one_row(self):
        # A fresh process with a small recursion limit: the q-Pascal
        # recurrence must not descend one frame per row.
        code = (
            "import sys; sys.setrecursionlimit(100)\n"
            "from fractions import Fraction\n"
            "from qcrys.scalar import qbinom\n"
            "print(qbinom(150, 1).eval((Fraction(1),)))\n"
        )
        src = Path(__file__).resolve().parent.parent / "src"
        env = dict(os.environ, PYTHONPATH=str(src))
        proc = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=False
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "150\n"


class TestQintSym:
    def test_specialize_definition(self):
        assert qint_sym(0, 1).specialize(5) == qint(5)

    def test_constant_bracket_one(self):
        sb = qint_sym(1, 0)
        assert sb == 1
        assert sb == SymBracket(Laurent.one(2))
        assert sb != 2

    def test_unhashable(self):
        with pytest.raises(TypeError):
            hash(qint_sym(1, 0))

    @pytest.mark.parametrize(
        "call, message",
        [
            (lambda: SymBracket(Laurent.one(2), -1), "denominator power must be non-negative"),
            (lambda: SymBracket(Laurent.one(1)) + SymBracket(Laurent.one(2)), "mixed variable"),
            (lambda: SymBracket(Laurent.one(1)).specialize(2), "applies to two-variable quotients"),
        ],
        ids=["den-pow", "mixed", "specialize"],
    )
    def test_argument_checks(self, call, message):
        with pytest.raises(ValueError, match=message):
            call()

    @given(
        args=st.lists(st.tuples(st.integers(-4, 4), st.integers(-3, 3)), min_size=3, max_size=3),
        const=st.integers(-3, 3),
        k=st.integers(-4, 4),
    )
    @settings(max_examples=60)
    def test_mixed_powers_match_qint(self, args, const, k):
        # den_pow 0, 1 and 2 meet in one sum; the specialisation must agree
        # with the same expression over explicit q-integers.
        (c1, z1), (c2, z2), (c3, z3) = args
        sym = qint_sym(c1, z1) + qint_sym(c2, z2) * qint_sym(c3, z3) - const
        sym = sym * qint_sym(c1, z1) + SymBracket(Laurent.var(2, 1))
        val = qint(z1 * k + c1) + qint(z2 * k + c2) * qint(z3 * k + c3) - const
        val = val * qint(z1 * k + c1) + Laurent.var(1, 0, k)
        assert sym.specialize(k) == val
        assert sym.specialize(k) != val + qint(1)
        assert sym.specialize(k) + qint(1) != val

    def test_equal_powers_add_without_products(self, monkeypatch):
        # Quotients of one power add their numerators: no lift by
        # (q - q^(-1))^0, and no Laurent product at all.
        a = qint_sym(3, 1) * qint_sym(-1, 2)
        b = qint_sym(2, -1) * qint_sym(4, 1)
        assert a.den_pow == b.den_pow == 2
        want = a.num + b.num
        calls = []
        mul = Laurent.__mul__
        monkeypatch.setattr(Laurent, "__mul__", lambda x, y: calls.append(1) or mul(x, y))
        total = a + b
        difference = a - b
        assert calls == []
        assert (total.num, total.den_pow) == (want, 2)
        assert difference.den_pow == 2 and difference.num == a.num - b.num
        # a lower power is still lifted
        assert (a + qint_sym(1, 1)).den_pow == 2 and calls

    def test_shifted_specialization(self):
        assert qint_sym(-2, 1).specialize(3) == qint(1)

    @pytest.mark.parametrize("c,z,k", [(0, 1, 4), (3, -2, 1), (-1, 2, -3)])
    def test_specialize_matches_qint(self, c, z, k):
        assert qint_sym(c, z).specialize(k) == qint(z * k + c)

    @pytest.mark.parametrize(
        "call",
        [
            lambda: qint_sym(2.5, 1),
            lambda: qint_sym(2, 1.0),
            lambda: qint_sym("2", 1),
            lambda: sym_bracket(2, F(1, 2), (1,)),
            lambda: sym_bracket(3, 0, (1, 0.5)),
        ],
        ids=["c-float", "z-float", "c-str", "c-fraction", "zvec-float"],
    )
    def test_refuses_non_integer_arguments(self, call):
        with pytest.raises(TypeError):
            call()

    def test_integral_fraction_arguments_are_integers(self):
        assert qint_sym(F(2), F(1)) == qint_sym(2, 1)
        assert sym_bracket(3, F(-1), (F(1), 0)) == sym_bracket(3, -1, (1, 0))


def _identity_value(a, z, q, n_val):
    """Brute-force oracle: the alternating sum at concrete (q, N)."""
    return sum(
        (-1) ** k * qbinom(1 + a, k).eval((q,)) * qint_at(n_val - k * z, q)
        for k in range(a + 2)
    )


class TestSerreIdentity:
    @pytest.mark.parametrize("a,z", [(1, 1), (2, -2), (3, -2)])
    def test_consumed_instances_hold(self, a, z):
        assert check_serre_identity(a, z)

    @pytest.mark.parametrize("a,z", [(1, 0), (3, -2), (6, 5), (12, 1)])
    def test_integer_coefficients(self, a, z):
        num = serre_identity_sum(a, z).num
        assert num.terms
        assert all(type(c) is int for c in num.terms.values())

    def test_symbolic_instances(self):
        assert serre_identity_verdict(1, 1).symbolic
        assert serre_identity_verdict(2, -2).symbolic

    def test_a3_z_minus2_holds_only_at_q1(self):
        # The instance consumed by the classical rank-n argument: zero for
        # every N at q = 1, but not identically in q.
        v = serre_identity_verdict(3, -2)
        assert not v.symbolic
        assert v.at_q1
        assert v.holds
        assert _identity_value(3, -2, F(1), 7) == 0
        assert _identity_value(3, -2, F(2), 7) != 0

    def test_unused_instance_only_q1(self):
        v = serre_identity_verdict(1, 0)
        assert not v.symbolic
        assert v.at_q1
        assert _identity_value(1, 0, F(2), 3) != 0

    @pytest.mark.parametrize("a", [1, 2, 3])
    @pytest.mark.parametrize("z", [-2, -1, 1, 2])
    def test_property_grid(self, a, z):
        assert check_serre_identity(a, z)

    @pytest.mark.parametrize("a", [1, 2, 3])
    @pytest.mark.parametrize("z", [-2, -1, 0, 1, 2])
    def test_symbolic_verdict_matches_sampling(self, a, z):
        symbolic = serre_identity_verdict(a, z).symbolic
        samples = [
            _identity_value(a, z, q, n_val)
            for q in Q_SAMPLES
            for n_val in (-3, 0, 2, 5)
        ]
        if symbolic:
            assert all(v == 0 for v in samples)
        else:
            assert any(v != 0 for v in samples)

    def test_rejects_a_below_one(self):
        with pytest.raises(ValueError):
            serre_identity_sum(0, 1)


class TestBracketIdentities:
    def test_identity_A_symbolic(self):
        assert check_bracket_identity_A()

    def test_identity_A_specialization(self):
        # N1=3, N2=1, q=2: both sides evaluate to the same rational.
        q = F(2)
        lhs = qint_at(3, q) * qint_at(2, q) - qint_at(4, q) * qint_at(1, q)
        rhs = qint_at(3 - 1, q)
        assert lhs == rhs == F(5, 2)

    def test_identity_A_coincident_arguments(self):
        for q in Q_SAMPLES:
            for n in range(5):
                assert qint_at(n, q) * qint_at(n + 1, q) - qint_at(n + 1, q) * qint_at(n, q) == 0

    def test_identity_C_symbolic(self):
        assert check_bracket_identity_C()

    def test_identity_C_at_n0(self):
        for q in Q_SAMPLES:
            lhs = qint_at(-1, q) * qint_at(0, q) - qint_at(1, q) * qint_at(-2, q)
            rhs = qint_at(1, q) * (q + 1 / q)
            assert lhs == rhs == qint_at(2, q)

    def test_identity_C_at_n2_q3(self):
        q = F(3)
        lhs = qint_at(1, q) * qint_at(-2, q) - qint_at(3, q) * qint_at(-4, q)
        rhs = qint_at(5, q) * (q + 1 / q)
        assert lhs == rhs == F(73810, 243)

    def test_sym_bracket_arity_check(self):
        with pytest.raises(ValueError):
            sym_bracket(2, 0, (1, 2))


class TestHalfBracketProduct:
    def test_even_case_is_plain_product(self):
        for q in Q_SAMPLES:
            assert half_bracket_product(4, q) == qint_at(2, q) * qint_at(3, q)

    def test_spin_half_value(self):
        assert half_bracket_product(1, F(2)) == F(7, 9)

    def test_reflection(self):
        # [-3/2][-1/2] == [1/2][3/2]
        for q in Q_SAMPLES:
            assert half_bracket_product(-3, q) == half_bracket_product(1, q)

    @pytest.mark.parametrize("h2", range(-6, 7))
    def test_q1_degeneration(self, h2):
        assert half_bracket_product(h2, F(1)) == F(h2, 2) * (F(h2, 2) + 1)


# q samples of the integer kernel: q = 1, reciprocal pairs, and bases far
# from 1 on both sides.
KERNEL_Q = tuple(F(q) for q in ("1", "2", "1/2", "3/5", "5/3", "3/4", "4/3", "7/4", "1/7"))
positive_rationals = st.fractions(min_value=F(1, 30), max_value=30, max_denominator=30)


def _power_sum(m: int, q: Fraction) -> Fraction:
    """sign(m) * (q^-h + ... + q^h) for odd m = +-(2h + 1), summed term by
    term."""
    sign = -1 if m < 0 else 1
    return sign * sum((q**t for t in range(-(abs(m) - 1) // 2, (abs(m) - 1) // 2 + 1)), F(0))


class TestIntegerKernel:
    """The per-q values computed on integers agree exactly with the
    symbolic definitions, and the cached roots are the radicals sqrt_rat
    builds, term by term."""

    @pytest.mark.parametrize("q", KERNEL_Q, ids=str)
    def test_qint_at_is_the_symbolic_value(self, q):
        for x in range(-60, 61):
            assert qint_at(x, q) == qint(x).eval((q,))

    @settings(max_examples=60, deadline=None)
    @given(q=positive_rationals, x=st.integers(-60, 60))
    def test_qint_at_is_the_symbolic_value_at_any_q(self, q, x):
        assert qint_at(x, q) == qint(x).eval((q,))

    @pytest.mark.parametrize("q", KERNEL_Q, ids=str)
    def test_qbinom_point_value(self, q):
        for d in (1, 2):
            base = q**d
            for m in range(9):
                for k in range(m + 1):
                    pair = _qbinom_pair(m, k, base.numerator, base.denominator)
                    assert pair[1] > 0
                    assert F(*pair) == qbinom(m, k).eval((base,))

    @pytest.mark.parametrize("q", KERNEL_Q, ids=str)
    def test_half_bracket_product_is_the_power_sum_form(self, q):
        for h2 in range(-21, 22):
            if h2 % 2:
                expect = _power_sum(h2, q) * _power_sum(h2 + 2, q) / (q + 2 + 1 / q)
            else:
                expect = qint(h2 // 2).eval((q,)) * qint(h2 // 2 + 1).eval((q,))
            assert half_bracket_product(h2, q) == expect

    @settings(max_examples=40, deadline=None)
    @given(q=positive_rationals, h2=st.integers(-21, 21))
    def test_half_bracket_product_at_any_q(self, q, h2):
        if h2 % 2:
            expect = _power_sum(h2, q) * _power_sum(h2 + 2, q) / (q + 2 + 1 / q)
        else:
            expect = qint(h2 // 2).eval((q,)) * qint(h2 // 2 + 1).eval((q,))
        assert half_bracket_product(h2, q) == expect

    @pytest.mark.parametrize("q", KERNEL_Q, ids=str)
    def test_cached_roots_are_sqrt_rat_term_by_term(self, q):
        # Negative x includes the long-node argument -l_n - 2.
        a, b = q.numerator, q.denominator
        for x in range(-40, 41):
            root = _radical(_qint_root(x, a, b, False))
            assert list(root._terms.items()) == list(sqrt_rat(qint_at(x, q))._terms.items())
            if x:
                ratio = _radical(_qint_root(x, a, b, True))
                assert list(ratio._terms.items()) == list(
                    sqrt_rat(qint_at(x, q) / x)._terms.items()
                )

    @settings(max_examples=40, deadline=None)
    @given(q=positive_rationals, x=st.integers(-40, 40).filter(bool))
    def test_cached_roots_at_any_q(self, q, x):
        a, b = q.numerator, q.denominator
        assert _radical(_qint_root(x, a, b, False))._terms == sqrt_rat(qint_at(x, q))._terms
        assert _radical(_qint_root(x, a, b, True))._terms == sqrt_rat(qint_at(x, q) / x)._terms

    @pytest.mark.parametrize(
        "call",
        [
            lambda: qint_at(2.5, 2),
            lambda: qint_at(2.0, 2),
            lambda: qint_at(F(5, 2), 2),
            lambda: qint(2.7),
            lambda: qint(F(7, 3)),
            lambda: qbinom(F(5, 2), 1),
            lambda: qbinom(4, 1.0),
            lambda: half_bracket_product(3.7, 2),
            lambda: half_bracket_product(F(7, 2), 2),
        ],
    )
    def test_refuses_non_integer_arguments(self, call):
        with pytest.raises(TypeError):
            call()

    def test_integral_fractions_are_integers(self):
        assert qint_at(F(4, 2), 2) == qint_at(2, 2) == F(5, 2)
        assert qint(F(3)) == qint(3)
        assert qbinom(F(4), F(2)) == qbinom(4, 2)
        assert half_bracket_product(F(3), 2) == half_bracket_product(3, 2)


class TestSqrtRat:
    def test_small_primes_match_trial_division(self):
        from qcrys.scalar import _SMALL_PRIMES, _TRIAL_BOUND

        trial = tuple(
            p for p in range(2, _TRIAL_BOUND) if all(p % d for d in range(2, math.isqrt(p) + 1))
        )
        assert _SMALL_PRIMES == trial

    def test_perfect_square(self):
        assert sqrt_rat(F(4, 9)) == Radical({1: F(2, 3)})

    def test_square_extraction(self):
        assert sqrt_rat(8) == Radical({2: F(2)})

    def test_negative_branch(self):
        r = sqrt_rat(-2)
        assert r == Radical({-2: F(1)})
        assert r * r == Radical.from_rational(-2)

    def test_zero(self):
        assert sqrt_rat(0).is_zero()

    @given(r=rationals)
    @settings(deadline=None)
    def test_square_recovers_argument(self, r):
        s = sqrt_rat(r)
        assert s * s == Radical.from_rational(r)

    @given(r=rationals, s=rationals)
    @settings(deadline=None)
    def test_branch_consistency(self, r, s):
        a = sqrt_rat(r)
        b = sqrt_rat(s)
        assert a * b * a * b == Radical.from_rational(r * s)

    # 1009, 1013 and 1019 lie above the trial-division bound, so their
    # squares stay inside the radicand until arithmetic folds them.
    def test_large_prime_square_in_radicand(self):
        assert (sqrt_rat(1009**2 * 1013) - 1009 * sqrt_rat(1013)).is_zero()
        assert sqrt_rat(1009**2 * 1013) == Radical({1013: F(1009)})

    def test_square_cofactor_folds(self):
        assert sqrt_rat(3 * 1009**2 * 1013**2)._terms == {3: (1009 * 1013, 1)}
        assert sqrt_rat(F(-(1019**2), 4))._terms == {-1: (1019, 2)}

    @given(r=large_rationals)
    @settings(deadline=None)
    def test_square_recovers_large_argument(self, r):
        s = sqrt_rat(r)
        assert s * s == r

    @given(a=large_multipliers, b=st.integers(-(10**12), 10**12))
    @settings(deadline=None)
    def test_square_factor_comes_out(self, a, b):
        assert (sqrt_rat(a * a * b) - a * sqrt_rat(b)).is_zero()


def _mk_radical(pairs):
    total = Radical()
    for c, m in pairs:
        total = total + sqrt_rat(F(m)) * c
    return total


radical_st = st.builds(
    _mk_radical,
    st.lists(st.tuples(rationals, st.integers(-30, 30)), min_size=0, max_size=3),
)


class TestRadical:
    def test_known_product(self):
        assert sqrt_rat(2) * sqrt_rat(6) == Radical({3: F(2)})
        assert sqrt_rat(-2) * sqrt_rat(3) == Radical({-6: F(1)})
        assert sqrt_rat(-2) * sqrt_rat(-3) == Radical({6: F(-1)})
        assert sqrt_rat(-2) * sqrt_rat(6) == Radical({-3: F(2)})

    def test_from_rational_refuses_float(self):
        with pytest.raises(TypeError, match="expected an exact rational, got float"):
            Radical.from_rational(0.5)

    def test_division_by_zero(self):
        with pytest.raises(ZeroDivisionError, match="division of a radical by zero"):
            Radical.one() / 0

    def test_zero_iff_no_terms(self):
        assert (sqrt_rat(2) - sqrt_rat(8) / 2).is_zero()
        assert not (sqrt_rat(2) - sqrt_rat(3)).is_zero()

    def test_rational_embedding(self):
        assert Radical.from_rational(F(3, 4)).as_fraction() == F(3, 4)
        with pytest.raises(ArithmeticError):
            (sqrt_rat(2) + 1).as_fraction()

    def test_inverse_single_term(self):
        v = sqrt_rat(F(-5, 2)) * F(1, 3)
        assert v * v.inverse() == Radical.one()
        with pytest.raises(ArithmeticError):
            (sqrt_rat(2) + sqrt_rat(3)).inverse()

    def test_render(self):
        v = sqrt_rat(-2) * F(1, 2) + F(3)
        assert v.render() == "1/2*sqrt(-2) + 3"
        assert Radical().render() == "0"

    def test_json_map_sorted(self):
        v = sqrt_rat(5) + sqrt_rat(-2) * F(2, 7)
        assert v.json_map() == {"-2": "2/7", "5": "1"}

    def test_square_class_product_is_rational(self):
        v = sqrt_rat(1009**2 * 1013 * 1019) * sqrt_rat(1013 * 1019)
        assert v.is_rational()
        assert v.as_fraction() == 1009 * 1013 * 1019

    def test_imaginary_branch_sign_kept(self):
        assert sqrt_rat(-2) + sqrt_rat(-8) == 3 * sqrt_rat(-2)
        v = sqrt_rat(-(1009**2) * 1013) + sqrt_rat(-1013)
        assert v.json_map() == {"-1013": "1010"}
        assert sqrt_rat(1009**2 * 1013) != 1009 * sqrt_rat(-1013)

    def test_constructor_reduces_radicands(self):
        assert Radical({8: F(1)})._terms == {2: (2, 1)}
        assert Radical({2: F(1), 8: F(-2), -9: F(1)})._terms == {-1: (3, 1), 2: (-3, 1)}
        assert Radical({1009**2 * 1013: F(1)}) == Radical({1013: F(1009)})

    def test_unhashable(self):
        with pytest.raises(TypeError):
            hash(Radical.one())

    def test_disallows_radicand_zero(self):
        with pytest.raises(ValueError):
            Radical({0: F(1)})

    @pytest.mark.parametrize("m", [2.5, 2.0, "3", F(5, 2)], ids=repr)
    def test_refuses_non_integer_radicands(self, m):
        with pytest.raises(TypeError):
            Radical({m: 1})

    def test_integral_fraction_radicand_is_an_integer(self):
        assert Radical({F(12): 1})._terms == {3: (2, 1)}

    def test_single_term_triples_round_trip(self):
        # sqrt(-5/2) = (1/2)sqrt(-10), and 0 is the triple with n = 0.
        assert _sqrt_frac(-5, 2) == (-10, 1, 2)
        assert _radical((-10, 1, 6))._terms == (sqrt_rat(F(-5, 2)) * F(1, 3))._terms
        assert _sqrt_frac(0, 1) == (1, 0, 1)
        assert _radical(_sqrt_frac(0, 1))._terms == {}
        # 1/((1/6)sqrt(-10)) = (-3/5)sqrt(-10), as Radical.inverse gives it.
        assert _reciprocal(-10, 1, 6) == (-10, -3, 5)
        assert _radical((-10, -3, 5))._terms == _radical((-10, 1, 6)).inverse()._terms

    @given(a=radical_st, b=radical_st, c=radical_st)
    @settings(deadline=None, max_examples=60)
    def test_distributivity(self, a, b, c):
        assert (a + b) * c == a * c + b * c

    @given(a=radical_st, b=radical_st, c=radical_st)
    @settings(deadline=None, max_examples=60)
    def test_associativity(self, a, b, c):
        assert (a * b) * c == a * (b * c)


# -- differential test of the radical kernel against a Fraction reference ----
#
# Radicands are drawn from products of known primes, so the test can find
# each radicand's true squarefree core by trial division over that list.
# Products of two primes above the trial bound (times an optional square
# of a third) exceed 10**6, so distinct representatives of one square class
# meet and the kernel's class merging runs.  The reference keeps terms as
# {squarefree core: Fraction} and multiplies cores directly.

_REF_PRIMES = (2, 3, 5, 7, 11, 13, 1009, 1013, 1019, 1021, 1031)
_BIG_PRIMES = (1009, 1013, 1019, 1021, 1031)

_small_radicands = st.sampled_from((1, 2, 3, 5, 6, 7, 10, 11, 13, 15, 30))
_big_radicands = st.tuples(
    st.sampled_from(_BIG_PRIMES),
    st.sampled_from(_BIG_PRIMES),
    st.sampled_from((1, 1009, 1031)),
).filter(lambda t: t[0] != t[1]).map(lambda t: t[0] * t[1] * t[2] ** 2)
_radicands = st.tuples(_small_radicands | _big_radicands, st.sampled_from((1, -1))).map(
    lambda t: t[0] * t[1]
)
_coeffs = st.fractions(min_value=-10, max_value=10, max_denominator=12)
_ref_radicals = st.lists(st.tuples(_coeffs, _radicands), min_size=1, max_size=3).map(
    lambda pairs: sum((sqrt_rat(m) * c for c, m in pairs), Radical.zero())
)


def _core(m: int) -> tuple[int, int]:
    """(squarefree core, root of the square part) of m, found by trial
    division over the test's prime list."""
    sign = -1 if m < 0 else 1
    m, core, root = abs(m), 1, 1
    for p in _REF_PRIMES:
        e = 0
        while m % p == 0:
            m //= p
            e += 1
        root *= p ** (e // 2)
        if e % 2:
            core *= p
    assert m == 1
    return sign * core, root


def _ref(x: Radical) -> dict[int, Fraction]:
    """x as {squarefree core: coefficient}; also checks that no two terms
    of x share a square class and that every coefficient is nonzero."""
    out = {}
    for m, (n, d) in x._terms.items():
        c = F(n, d)
        assert c
        core, root = _core(m)
        assert core not in out
        out[core] = c * root
    return out


def _ref_add(a: dict, b: dict, sign: int = 1) -> dict:
    out = dict(a)
    for k, c in b.items():
        out[k] = out.get(k, 0) + sign * c
    return {k: c for k, c in out.items() if c}


def _ref_mul(a: dict, b: dict) -> dict:
    out = {}
    for k1, c1 in a.items():
        for k2, c2 in b.items():
            g = math.gcd(k1, k2)
            c = c1 * c2 * g * (-1 if k1 < 0 and k2 < 0 else 1)
            core = (k1 // g) * (k2 // g)
            out[core] = out.get(core, 0) + c
    return {k: c for k, c in out.items() if c}


class TestRadicalDifferential:
    @given(x=_ref_radicals, y=_ref_radicals)
    @settings(deadline=None, max_examples=150)
    def test_sum_and_difference(self, x, y):
        assert _ref(x + y) == _ref_add(_ref(x), _ref(y))
        assert _ref(x - y) == _ref_add(_ref(x), _ref(y), -1)
        assert (x + y) - y == x
        assert _ref((x + y) - y) == _ref(x)

    @given(x=_ref_radicals, y=_ref_radicals, z=_ref_radicals)
    @settings(deadline=None, max_examples=100)
    def test_product_distributes(self, x, y, z):
        assert _ref(x * y) == _ref_mul(_ref(x), _ref(y))
        assert x * (y + z) == x * y + x * z
        assert _ref(x * (y + z)) == _ref_mul(_ref(x), _ref_add(_ref(y), _ref(z)))

    @given(r=_coeffs, m=_radicands)
    @settings(deadline=None, max_examples=150)
    def test_square_root_squares_back(self, r, m):
        s = sqrt_rat(r * m)
        assert (s * s).as_fraction() == r * m
        assert s * s == r * m

    @given(c=_coeffs.filter(bool), m=_radicands, r=_coeffs)
    @settings(deadline=None, max_examples=150)
    def test_single_term_inverse(self, c, m, r):
        x = sqrt_rat(m) * c
        assert x * x.inverse() == 1
        assert (x * x.inverse())._terms == {1: (1, 1)}
        assert _ref(x.inverse()) == {k: 1 / (v * k) for k, v in _ref(x).items()}
        assert (x / c)._terms == sqrt_rat(m)._terms
        assert x * r == x * Radical.from_rational(r)

    @given(r=st.fractions(max_denominator=10**6) | st.integers(-(10**20), 10**20))
    @settings(deadline=None, max_examples=150)
    def test_rational_text_matches_fraction(self, r):
        x = Radical.from_rational(r)
        assert x.render() == str(F(r))
        assert x.json_map() == ({"1": str(F(r))} if r else {})
        assert x.as_fraction() == r

    @given(x=_ref_radicals)
    @settings(deadline=None, max_examples=100)
    def test_coefficient_text_matches_fraction(self, x):
        assert x.json_map() == {str(m): str(F(n, d)) for m, (n, d) in sorted(x._terms.items())}
        assert all(d > 0 and math.gcd(n, d) == 1 for n, d in x._terms.values())
