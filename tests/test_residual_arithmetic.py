"""An arithmetic audit of every compiled residual, sharing no code with the
scalar layer: nothing here comes from qcrys.scalar or qcrys.rep.

Each leaf value is recomputed from its key in Fractions, as the entry
functions' docstrings define it, from the power sum
[x]_q = sum_k q^(x-1-2k).  A value is a term (c, p, r) standing for
c * i^p * sqrt(r) with c and r > 0 rational, on the branch
sqrt(r) = i * sqrt(|r|) for r < 0, and a product multiplies the parts
without reducing anything.  A sum is zero exactly when, grouped by the
parity of p and by square class (r_s / r_t a rational square), every
group's rational sum is: the square roots of rationals of distinct
square classes are linearly independent over Q.  So each residual's
zero-ness, and its value where it is not zero, is checked against
_evaluate's, which a wrong closed form, branch sign or class merge in the
scalar kernel would change on both sides of the LinOp oracle alike."""

import math
from fractions import Fraction
from functools import lru_cache

from hypothesis import given, settings, strategies as st
import pytest

from qcrys.crystal import CrystalSpec, build_model
from qcrys.verify import KNOWN_FAMILIES, _evaluate, _Plan

F = Fraction


@lru_cache(maxsize=None)
def qint(x: int, q: Fraction) -> Fraction:
    """[x]_q as the power sum of q^(x-1-2k), k = 0..x-1, odd in x."""
    if x < 0:
        return -qint(-x, q)
    return sum((q ** (x - 1 - 2 * k) for k in range(x)), F(0))


def qfactorial(x: int, q: Fraction) -> Fraction:
    return math.prod((qint(k, q) for k in range(1, x + 1)), start=F(1))


def rational(c) -> tuple:
    return F(c), 0, F(1)


def root(r: Fraction) -> tuple:
    return (F(1), 1, -r) if r < 0 else (F(1), 0, r)


def mul(x: tuple, y: tuple) -> tuple:
    return x[0] * y[0], (x[1] + y[1]) % 4, x[2] * y[2]


def leaf_value(key: tuple, q: Fraction) -> tuple:
    kind, *args = key
    if kind == "int":
        return rational(args[0])
    if kind == "bracket":  # [H_i] in base q^d: [k]_q / [d]_q
        k, d = args
        return rational(qint(k, q) / qint(d, q))
    if kind == "binom":  # the balanced binomial [m choose v] in base q^d
        m, v, d = args
        qd = q**d
        return rational(qfactorial(m, qd) / (qfactorial(v, qd) * qfactorial(m - v, qd)))
    long_node, a, b = args
    if kind == "e":  # sqrt(a) sqrt(b), halved on the long node
        return mul(rational(F(1, 2) if long_node else 1), mul(root(F(a)), root(F(b))))
    if kind == "eq":  # sqrt([a]_q) sqrt([b]_q), times 1/(q + 1/q) on the long node
        scale = 1 / (q + 1 / q) if long_node else 1
        return mul(rational(scale), mul(root(qint(a, q)), root(qint(b, q))))
    # the deforming factor: 1 where ab = 0, else sqrt([a]_q [b]_q / (ab)),
    # times 2/(q + 1/q) on the long node; finv is its inverse
    if a * b == 0:
        factor = rational(1)
    else:
        scale = 2 / (q + 1 / q) if long_node else 1
        factor = mul(rational(scale), root(qint(a, q) * qint(b, q) / (a * b)))
    if kind == "f":
        return factor
    assert kind == "finv", key
    c, p, r = factor
    return 1 / (c * r), -p % 4, r


def rational_sqrt(x: Fraction):
    """The positive rational square root of x, or None if x is not a square."""
    n, d = math.isqrt(x.numerator), math.isqrt(x.denominator)
    return F(n, d) if n * n == x.numerator and d * d == x.denominator else None


def nonzero_classes(terms) -> list:
    """The nonzero sums of the terms (c, p, r) by parity of p and square
    class of r, as [parity, representative radicand, coefficient]."""
    groups = []
    for c, p, r in terms:
        c = -c if p >= 2 else c  # i^2 = -1
        for group in groups:
            s = group[0] == p % 2 and rational_sqrt(r / group[1])
            if s:
                group[2] += c * s
                break
        else:
            groups.append([p % 2, r, c])
    return [group for group in groups if group[2]]


def _terms(value):
    """The (radicand, coefficient) pairs of a Radical, from its JSON map."""
    return [(int(m), F(c)) for m, c in value.json_map().items()]


def audit(plan: _Plan, q: Fraction) -> tuple:
    """Check every residual of every family of ``plan`` at q against
    _evaluate; return (residuals, nonzero ones)."""
    leaves, checked, nonzero = {}, 0, 0
    for prog in plan.programs.values():
        plan.bind(prog, q)
        for terms, value in zip(prog.sums, _evaluate(prog, plan._values)):
            mine = []
            for mono, c in terms:
                term = rational(c)
                for g in mono:
                    if g not in leaves:
                        leaves[g] = leaf_value(plan.keys[g], q)
                    term = mul(term, leaves[g])
                mine.append(term)
            checked += 1
            assert (value is None) == (not nonzero_classes(mine)), (terms, value)
            if value is not None:
                nonzero += 1
                # the difference from the engine's value is zero
                theirs = [(-F(c), int(m < 0), F(abs(m))) for m, c in _terms(value)]
                assert not nonzero_classes(mine + theirs), (terms, value)
    return checked, nonzero


@pytest.mark.parametrize(
    "spec, q_list, fails",
    [
        # at margin 6 the cap leaves nonzero residuals, so values are compared
        (("C", 3, 3, 13), (F(2), F(1, 2), F(3, 5), F(5, 3)), True),
        (("A", 5, 6, None), (F(2), F(3, 5)), False),
        (("A", 2, 40, None), (F(3, 4),), False),
    ],
    ids=["C3-3-13", "A5-6", "A2-40"],
)
def test_residuals_match_an_independent_evaluation(spec, q_list, fails):
    plan = _Plan(build_model(CrystalSpec(*spec)), KNOWN_FAMILIES)
    for q in q_list:
        checked, nonzero = audit(plan, q)
        assert checked and bool(nonzero) == fails


def test_audit_arithmetic():
    # The audit's own arithmetic: i * i = -1, and classes split on parity
    # and on square class.
    assert mul(root(F(-2)), root(F(-3))) == (F(1), 2, F(6))
    assert not nonzero_classes([(F(1), 2, F(6)), (F(1), 0, F(6))])
    assert nonzero_classes([(F(1), 1, F(2)), (F(-1), 0, F(2))])
    assert not nonzero_classes([(F(1), 0, F(8)), (F(-2), 0, F(2))])
    assert nonzero_classes([(F(1), 0, F(3)), (F(-1), 0, F(12, 5))])


AUDIT_Q = (F(1), F(2), F(1, 2), F(3, 5), F(5, 3), F(3, 2))


@st.composite
def random_specs(draw):
    """The spec and q shapes of the randomised LinOp audit."""
    if draw(st.booleans()):
        spec = ("A", draw(st.integers(2, 4)), draw(st.integers(0, 4)), None)
    else:
        lam = draw(st.integers(0, 3))
        spec = ("C", draw(st.integers(1, 3)), lam, draw(st.integers(lam, lam + 8)))
    return spec, draw(st.sampled_from(AUDIT_Q))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(case=random_specs())
def test_residuals_match_on_random_specs(case):
    spec, q = case
    audit(_Plan(build_model(CrystalSpec(*spec)), KNOWN_FAMILIES), q)
