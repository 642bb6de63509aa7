"""Exact scalar arithmetic: Laurent polynomials, symbolic q-brackets and
their identities, q-combinatorics, and radicals (sums of c*sqrt(m)).

Everything in this module is exact rational arithmetic, over ``Fraction``
or, inside radicals and for the point values of q-integers, over integer
numerator/denominator pairs; no floating point appears anywhere in the
package.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

__all__ = [
    "Laurent",
    "SymBracket",
    "Radical",
    "IdentityVerdict",
    "qint",
    "qint_at",
    "qbinom",
    "qint_sym",
    "sym_bracket",
    "serre_identity_sum",
    "serre_identity_verdict",
    "check_serre_identity",
    "check_bracket_identity_A",
    "check_bracket_identity_C",
    "half_bracket_product",
    "sqrt_rat",
    "ensure_positive_q",
]


def _pair(x) -> tuple[int, int]:
    """An exact rational as its (numerator, denominator) pair."""
    if isinstance(x, (int, Fraction)):
        return x.numerator, x.denominator
    raise TypeError(f"expected an exact rational, got {type(x).__name__}")


def _frac(x) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(*_pair(x))


def ensure_positive_q(q) -> Fraction:
    """Validate and normalize a deformation parameter."""
    q = _frac(q)
    if q <= 0:
        raise ValueError("deformation parameter q must be a positive rational")
    return q


def _udiv(num: dict[int, Fraction], den: dict[int, Fraction]) -> dict[int, Fraction]:
    """Exact division of univariate Laurent polynomials given as
    exponent -> coefficient maps.  Raises ArithmeticError when the division
    is not exact."""
    if not den:
        raise ZeroDivisionError("division by the zero polynomial")
    if not num:
        return {}
    nmin = min(num)
    dmin = min(den)
    rem = {e - nmin: c for e, c in num.items()}
    div = {e - dmin: c for e, c in den.items()}
    ddeg = max(div)
    dlead = div[ddeg]
    quot: dict[int, Fraction] = {}
    while rem:
        rdeg = max(rem)
        if rdeg < ddeg:
            raise ArithmeticError("polynomial division is not exact")
        f = rem[rdeg] / dlead
        quot[rdeg - ddeg] = f
        for e, c in div.items():
            pos = rdeg - ddeg + e
            val = rem.get(pos, Fraction(0)) - f * c
            if val:
                rem[pos] = val
            else:
                rem.pop(pos, None)
    shift = nmin - dmin
    return {e + shift: c for e, c in quot.items()}


class Laurent:
    """Laurent polynomial in ``nvars`` commuting variables over Q.

    Variable 0 is the deformation parameter q throughout the package;
    higher variables stand for formal powers such as Q = q^N.  Terms map
    exponent tuples to nonzero rational coefficients, so equality is
    structural and exact.  Instances are treated as immutable.
    """

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms: dict | None = None):
        self.nvars = nvars
        clean: dict[tuple[int, ...], Fraction] = {}
        if terms:
            for exps, c in terms.items():
                c = _frac(c)
                if not c:
                    continue
                key = tuple(_integer(e) for e in exps)
                if len(key) != nvars:
                    raise ValueError("exponent tuple has wrong arity")
                clean[key] = c
        self.terms = clean

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, nvars: int) -> "Laurent":
        return cls(nvars)

    @classmethod
    def const(cls, nvars: int, c) -> "Laurent":
        return cls(nvars, {(0,) * nvars: _frac(c)})

    @classmethod
    def one(cls, nvars: int) -> "Laurent":
        return cls.const(nvars, 1)

    @classmethod
    def var(cls, nvars: int, index: int, power: int = 1) -> "Laurent":
        exps = [0] * nvars
        exps[index] = power
        return cls(nvars, {tuple(exps): Fraction(1)})

    @classmethod
    def monomial(cls, nvars: int, exps, coeff=1) -> "Laurent":
        return cls(nvars, {tuple(exps): _frac(coeff)})

    # -- ring operations ---------------------------------------------------

    def _coerce(self, other) -> "Laurent | None":
        if isinstance(other, Laurent):
            if other.nvars != self.nvars:
                raise ValueError("mixed variable counts")
            return other
        if isinstance(other, (int, Fraction)):
            return Laurent.const(self.nvars, other)
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        acc = dict(self.terms)
        for exps, c in other.terms.items():
            acc[exps] = acc.get(exps, Fraction(0)) + c
        return Laurent(self.nvars, acc)

    __radd__ = __add__

    def __neg__(self):
        return Laurent(self.nvars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            s = _frac(other)
            return Laurent(self.nvars, {e: c * s for e, c in self.terms.items()})
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        acc: dict[tuple[int, ...], Fraction] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                key = tuple(a + b for a, b in zip(e1, e2))
                acc[key] = acc.get(key, Fraction(0)) + c1 * c2
        return Laurent(self.nvars, acc)

    __rmul__ = __mul__

    def __pow__(self, power: int):
        if power < 0:
            raise ValueError("negative powers of polynomials are not defined")
        out = Laurent.one(self.nvars)
        for _ in range(power):
            out = out * self
        return out

    def __eq__(self, other):
        coerced = self._coerce(other)
        if coerced is None:
            return NotImplemented
        return self.terms == coerced.terms

    def __hash__(self):
        return hash((self.nvars, frozenset(self.terms.items())))

    def is_zero(self) -> bool:
        return not self.terms

    def __repr__(self):
        if not self.terms:
            return "Laurent(0)"
        bits = [f"{c}*x{e}" for e, c in sorted(self.terms.items())]
        return "Laurent(" + " + ".join(bits) + ")"

    # -- evaluation and substitution ----------------------------------------

    def eval(self, point) -> Fraction:
        """Exact value at a tuple of rational coordinates."""
        vals = tuple(_frac(p) for p in point)
        if len(vals) != self.nvars:
            raise ValueError("evaluation point has wrong arity")
        total = Fraction(0)
        for exps, c in self.terms.items():
            term = c
            for v, e in zip(vals, exps):
                term *= v**e
            total += term
        return total

    def collapse(self, src: int, power: int, dst: int = 0) -> "Laurent":
        """Substitute variable ``src`` := (variable ``dst``)**power and
        remove variable ``src``."""
        if src == dst:
            raise ValueError("source and destination variables coincide")
        acc: dict[tuple[int, ...], Fraction] = {}
        for exps, c in self.terms.items():
            lst = list(exps)
            lst[dst] += power * lst[src]
            del lst[src]
            key = tuple(lst)
            acc[key] = acc.get(key, Fraction(0)) + c
        return Laurent(self.nvars - 1, acc)

    def lift(self, nvars: int, positions) -> "Laurent":
        """Re-embed into a ring with ``nvars`` variables, sending old
        variable i to new variable positions[i]."""
        positions = tuple(positions)
        if len(positions) != self.nvars:
            raise ValueError("positions must list every old variable")
        acc = {}
        for exps, c in self.terms.items():
            lst = [0] * nvars
            for i, e in enumerate(exps):
                lst[positions[i]] += e
            acc[tuple(lst)] = c
        return Laurent(nvars, acc)

    def divexact(self, other: "Laurent") -> "Laurent":
        """Exact division by a divisor supported on a single variable.

        Raises ArithmeticError when the division is not exact."""
        if other.nvars != self.nvars:
            raise ValueError("mixed variable counts")
        support = {i for exps in other.terms for i, e in enumerate(exps) if e}
        if len(support) > 1:
            raise NotImplementedError("divisor must involve a single variable")
        v = support.pop() if support else 0
        den = {exps[v]: c for exps, c in other.terms.items()}
        groups: dict[tuple[int, ...], dict[int, Fraction]] = {}
        for exps, c in self.terms.items():
            key = exps[:v] + exps[v + 1 :]
            groups.setdefault(key, {})[exps[v]] = c
        out: dict[tuple[int, ...], Fraction] = {}
        for key, num in groups.items():
            for e, c in _udiv(num, den).items():
                out[key[:v] + (e,) + key[v:]] = c
        return Laurent(self.nvars, out)


def _qcomm(nvars: int) -> Laurent:
    """The commutator denominator q - q^(-1)."""
    return Laurent.var(nvars, 0, 1) - Laurent.var(nvars, 0, -1)


class SymBracket:
    """Quotient  num / (q - q^(-1))**den_pow  of Laurent polynomials.

    A q-bracket of a symbolic argument, [z*N + c]_q with Q = q^N formal,
    is not itself a Laurent polynomial, but its numerator
    q^c Q^z - q^(-c) Q^(-z) is.  Sums and products of such quotients reduce
    back to honest Laurent polynomials whenever the division by
    q - q^(-1) is exact; the constructor performs that reduction eagerly,
    so zero tests and equality are exact for all q and all N at once.
    """

    __slots__ = ("num", "den_pow")

    def __init__(self, num: Laurent, den_pow: int = 0):
        if den_pow < 0:
            raise ValueError("denominator power must be non-negative")
        if num.is_zero():
            den_pow = 0
        else:
            comm = _qcomm(num.nvars)
            while den_pow > 0:
                try:
                    num = num.divexact(comm)
                except ArithmeticError:
                    break
                den_pow -= 1
        self.num = num
        self.den_pow = den_pow

    @property
    def nvars(self) -> int:
        return self.num.nvars

    def _coerce(self, other) -> "SymBracket | None":
        if isinstance(other, SymBracket):
            if other.nvars != self.nvars:
                raise ValueError("mixed variable counts")
            return other
        if isinstance(other, Laurent):
            return SymBracket(other)
        if isinstance(other, (int, Fraction)):
            return SymBracket(Laurent.const(self.nvars, other))
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        comm = _qcomm(self.nvars)
        den = max(self.den_pow, other.den_pow)
        a = self.num * comm ** (den - self.den_pow)
        b = other.num * comm ** (den - other.den_pow)
        return SymBracket(a + b, den)

    __radd__ = __add__

    def __neg__(self):
        return SymBracket(-self.num, self.den_pow)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return SymBracket(self.num * other, self.den_pow)
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return SymBracket(self.num * other.num, self.den_pow + other.den_pow)

    __rmul__ = __mul__

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def __eq__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return (self - other).is_zero()

    def __hash__(self):
        return hash((self.num, self.den_pow))

    def __repr__(self):
        return f"SymBracket({self.num!r}, den_pow={self.den_pow})"

    def specialize(self, k: int) -> Laurent:
        """Substitute Q := q**k (two-variable quotients only) and clear the
        denominator exactly, returning a Laurent polynomial in q."""
        if self.nvars != 2:
            raise ValueError("specialize applies to two-variable quotients")
        num = self.num.collapse(1, k)
        comm = _qcomm(1)
        for _ in range(self.den_pow):
            num = num.divexact(comm)
        return num


# -- q-combinatorics ---------------------------------------------------------


def _integer(x) -> int:
    """An integer argument: an int or an integral Fraction.  A float or a
    non-integral Fraction is refused, never truncated."""
    if isinstance(x, int) or (isinstance(x, Fraction) and x.denominator == 1):
        return int(x)
    raise TypeError(f"expected an integer, got {x!r}")


@lru_cache(maxsize=None)
def _qint_terms(x: int) -> tuple[tuple[int, int], ...]:
    if x == 0:
        return ()
    if x < 0:
        return tuple((e, -c) for e, c in _qint_terms(-x))
    return tuple((x - 1 - 2 * k, 1) for k in range(x))


def qint(x: int) -> Laurent:
    """The symmetric q-integer [x]_q as an explicit exponent sum.

    [x]_q = q^(x-1) + q^(x-3) + ... + q^(1-x) for x > 0, with [0]_q = 0 and
    [-x]_q = -[x]_q.  Because the sum is explicit the value is regular at
    q = 1, where it equals x.
    """
    return Laurent(1, {(e,): c for e, c in _qint_terms(_integer(x))})


# -- point values on integers --------------------------------------------------
#
# At q = a/b (a, b > 0 coprime) every per-q value is computed on integers
# and cached on integer keys.  For n > 0 and a != b,
#     [n]_q = (a^(2n) - b^(2n)) / ((a^2 - b^2) (ab)^(n-1)),
# where the quotient S = (a^(2n) - b^(2n)) / (a^2 - b^2) is the integer
# sum of a^(2i) b^(2(n-1-i)).  S is prime to ab (it is b^(2(n-1)) mod a
# and a^(2(n-1)) mod b), so S / (ab)^(n-1) is already in lowest terms.


@lru_cache(maxsize=None)
def _qint_pair(x: int, a: int, b: int) -> tuple[int, int]:
    """[x]_q at q = a/b as (numerator, denominator) in lowest terms, with a
    positive denominator: x at q = 1, 0 at x = 0, odd in x."""
    n = abs(x)
    if n == 0 or a == b:
        return x, 1
    num = (a ** (2 * n) - b ** (2 * n)) // (a * a - b * b)
    return (num if x > 0 else -num), (a * b) ** (n - 1)


@lru_cache(maxsize=None)
def _qint_root(x: int, a: int, b: int, ratio: bool) -> Radical:
    """sqrt([x]_q), or sqrt([x]_q / x) when ``ratio`` (x != 0), at q = a/b,
    as sqrt_rat writes it: the same (num, den) pair reaches _sqrt_frac."""
    n, d = _qint_pair(x, a, b)
    return _sqrt_frac(*_lowest(n, d * x)) if ratio else _sqrt_frac(n, d)


def qint_at(x: int, q) -> Fraction:
    """Exact value of [x]_q at a positive rational q (q = 1 included).

    At q = a/b the value is the closed form
    (a^(2n) - b^(2n)) / ((a^2 - b^2) (ab)^(n-1)) with n = |x| and the sign
    of x, computed on integers and cached on (x, a, b); no power sum is
    formed.  :func:`qint` is the symbolic definition it agrees with."""
    q = ensure_positive_q(q)
    return Fraction(*_qint_pair(_integer(x), q.numerator, q.denominator))


def _qbinom_pair(m: int, k: int, a: int, b: int) -> tuple[int, int]:
    """The balanced q-binomial [m choose k] (0 <= k <= m) at q = a/b as a
    lowest-terms (num, den) pair: the product of [m - k + i]_q / [i]_q for
    i = 1..k.  :func:`qbinom` is the symbolic definition it agrees with."""
    num, den = 1, 1
    for i in range(1, k + 1):
        n1, d1 = _qint_pair(m - k + i, a, b)
        n2, d2 = _qint_pair(i, a, b)
        num, den = num * n1 * d2, den * d1 * n2
    return _lowest(num, den)


@lru_cache(maxsize=None)
def _qbinom(m: int, k: int) -> Laurent:
    if k == 0 or k == m:
        return Laurent.one(1)
    up = Laurent.var(1, 0, k) * _qbinom(m - 1, k)
    down = Laurent.var(1, 0, k - m) * _qbinom(m - 1, k - 1)
    return up + down


def qbinom(m: int, k: int) -> Laurent:
    """Balanced Gaussian binomial [m choose k]_q.

    Computed with the q-Pascal recurrence
    [m;k] = q^k [m-1;k] + q^(k-m) [m-1;k-1]; the value at q = 1 is the
    ordinary binomial coefficient.
    """
    m, k = _integer(m), _integer(k)
    if m < 0 or k < 0 or k > m:
        raise ValueError("require 0 <= k <= m")
    return _qbinom(m, k)


def sym_bracket(nvars: int, c: int, zvec) -> SymBracket:
    """Symbolic bracket [c + sum_i z_i N_i]_q with Q_i = q^(N_i) formal,
    as the quotient (q^c prod Q_i^(z_i) - inverse) / (q - q^(-1))."""
    c, zvec = _integer(c), tuple(_integer(z) for z in zvec)
    if len(zvec) != nvars - 1:
        raise ValueError("one z per formal variable required")
    plus = Laurent.monomial(nvars, (c,) + zvec)
    minus = Laurent.monomial(nvars, tuple(-e for e in (c,) + zvec))
    return SymBracket(plus - minus, 1)


def qint_sym(c: int, z_coeff: int) -> SymBracket:
    """Symbolic bracket [z_coeff*N + c]_q over the two variables (q, Q).

    Specializing Q := q**k recovers qint(z_coeff*k + c) exactly.
    """
    return sym_bracket(2, c, (z_coeff,))


# -- bracket identities ------------------------------------------------------


@dataclass(frozen=True)
class IdentityVerdict:
    """Outcome of the alternating bracket identity check.

    ``symbolic`` means the sum is zero for all q and all N at once (zero as
    a two-variable quotient); ``at_q1`` means it is zero for all N after
    setting q = 1.  The classical Serre arguments only consume the q = 1
    form, while the deformed ones need the symbolic form.
    """

    symbolic: bool
    at_q1: bool

    @property
    def holds(self) -> bool:
        return self.symbolic or self.at_q1


def serre_identity_sum(a: int, z: int) -> SymBracket:
    """The alternating sum  sum_n (-1)^n [1+a; n]_q [N - n*z]_q  as an exact
    two-variable quotient."""
    if a < 1:
        raise ValueError("require a >= 1")
    total = SymBracket(Laurent.zero(2))
    for n in range(a + 2):
        coeff = qbinom(1 + a, n).lift(2, (0,))
        term = qint_sym(-n * z, 1) * coeff
        if n % 2:
            term = -term
        total = total + term
    return total


def serre_identity_verdict(a: int, z: int) -> IdentityVerdict:
    symbolic = serre_identity_sum(a, z).is_zero()
    # Independent q = 1 route: the sum degenerates to a linear polynomial
    # s0*N - z*s1 in N, with ordinary alternating binomial sums s0, s1.
    s0 = sum((-1) ** n * math.comb(a + 1, n) for n in range(a + 2))
    s1 = sum((-1) ** n * n * math.comb(a + 1, n) for n in range(a + 2))
    at_q1 = s0 == 0 and z * s1 == 0
    return IdentityVerdict(symbolic=symbolic, at_q1=at_q1)


def check_serre_identity(a: int, z: int) -> bool:
    """True when the alternating bracket identity holds in the mode some
    Serre-relation argument can consume: for all q and all N, or else for
    all N at q = 1 (the classical case)."""
    return serre_identity_verdict(a, z).holds


def check_bracket_identity_A() -> bool:
    """[N1]_q [N2+1]_q - [N1+1]_q [N2]_q = [N1-N2]_q, exactly, as a
    trivariate identity in (q, q^N1, q^N2)."""
    b = lambda c, zv: sym_bracket(3, c, zv)
    lhs = b(0, (1, 0)) * b(1, (0, 1)) - b(1, (1, 0)) * b(0, (0, 1))
    rhs = b(0, (1, -1))
    return (lhs - rhs).is_zero()


def check_bracket_identity_C() -> bool:
    """[N-1]_q [-N]_q - [N+1]_q [-N-2]_q = [2N+1]_q (q + q^(-1)), exactly,
    as a bivariate identity in (q, q^N)."""
    b = lambda c, zv: sym_bracket(2, c, zv)
    lhs = b(-1, (1,)) * b(0, (-1,)) - b(1, (1,)) * b(-2, (-1,))
    qplus = Laurent.var(2, 0, 1) + Laurent.var(2, 0, -1)
    rhs = b(1, (2,)) * qplus
    return (lhs - rhs).is_zero()


def half_bracket_product(h2: int, q) -> Fraction:
    """Exact value of [h2/2]_q * [h2/2 + 1]_q for an integer h2.

    The two half-integer brackets are individually irrational when h2 is
    odd, but their product is rational: it equals S(h2) S(h2+2) / (q+2+1/q)
    with S(m) = sign(m) * sum of q^t over the symmetric integer range of
    length |m|.  At q = a/b that sum is
    (a^(2h+1) - b^(2h+1)) / ((a - b)(ab)^h) with |m| = 2h + 1, computed on
    integers like :func:`qint_at`.  Regular at q = 1, where the product
    equals (h2/2)(h2/2 + 1).
    """
    q = ensure_positive_q(q)
    h2 = _integer(h2)
    a, b = q.numerator, q.denominator
    if h2 % 2 == 0:
        n1, d1 = _qint_pair(h2 // 2, a, b)
        n2, d2 = _qint_pair(h2 // 2 + 1, a, b)
        return Fraction(n1 * n2, d1 * d2)

    def oddsum(m: int) -> tuple[int, int]:
        h = (abs(m) - 1) // 2
        if a == b:
            num = 2 * h + 1
        else:
            num = (a ** (2 * h + 1) - b ** (2 * h + 1)) // (a - b)
        return (num if m > 0 else -num), (a * b) ** h

    (n1, d1), (n2, d2) = oddsum(h2), oddsum(h2 + 2)
    # q + 2 + 1/q = (a + b)^2 / (ab)
    return Fraction(n1 * n2 * a * b, d1 * d2 * (a + b) ** 2)


# -- radicals ----------------------------------------------------------------

# Radicands are square-class representatives, so no integer is ever
# factored: squares of the primes below _TRIAL_BOUND are stripped, and a
# cofactor free of those primes is folded only when it is itself a perfect
# square.  A representative below _TRIAL_BOUND**2 is squarefree, because the
# square of any prime it could still hold twice is larger.
_TRIAL_BOUND = 1000
_SMALL_PRIMES = tuple(
    p for p in range(2, _TRIAL_BOUND) if all(p % d for d in range(2, math.isqrt(p) + 1))
)
_SQUAREFREE_BELOW = _TRIAL_BOUND**2


def _exact_isqrt(n: int) -> int | None:
    """The square root of a perfect square n >= 0, else None."""
    root = math.isqrt(n)
    return root if root * root == n else None


def _class_merge(k: int, m: int) -> tuple[int, int, int] | None:
    """(g, a, b) with k = a*a*g and m = b*b*g when the distinct
    representatives k and m share a square class, else None."""
    if (k < 0) != (m < 0) or max(abs(k), abs(m)) < _SQUAREFREE_BELOW:
        return None
    if _exact_isqrt(k * m) is None:
        return None
    # k = a'^2 f and m = b'^2 f give gcd(k, m) = gcd(a', b')^2 f.
    g = math.gcd(k, m) * (-1 if k < 0 else 1)
    return g, math.isqrt(k // g), math.isqrt(m // g)


def _lowest(n: int, d: int) -> tuple[int, int]:
    """n/d in lowest terms with a positive denominator (d != 0)."""
    g = math.gcd(n, d) if d > 0 else -math.gcd(n, d)
    return n // g, d // g


def _sum(n1: int, d1: int, n2: int, d2: int) -> tuple[int, int]:
    """n1/d1 + n2/d2 in lowest terms (positive denominators; zero is (0, 1))."""
    if d1 == d2:
        n, d = n1 + n2, d1
    else:
        n, d = n1 * d2 + n2 * d1, d1 * d2
    g = math.gcd(n, d)
    return n // g, d // g


def _accumulate(acc: dict[int, tuple[int, int]], m: int, n: int, d: int) -> None:
    """Add (n/d)*sqrt(m) to a term map that holds one key per square class.
    Coefficients may cancel to zero; callers drop those keys."""
    cur = acc.get(m)
    if cur is not None:
        acc[m] = _sum(cur[0], cur[1], n, d)
        return
    for k in acc:
        merged = _class_merge(k, m)
        if merged is not None:
            break
    else:
        acc[m] = (n, d)
        return
    g, a, b = merged
    n1, d1 = acc.pop(k)
    acc[g] = _sum(n1 * a, d1, n * b, d)


def _mul_term(m1: int, n1: int, d1: int, m2: int, n2: int, d2: int) -> tuple[int, int, int]:
    """(n1/d1)*sqrt(m1) * (n2/d2)*sqrt(m2) as a single term (m, n, d) with
    m a representative and n/d in lowest terms."""
    g = math.gcd(m1, m2)
    core = (m1 // g) * (m2 // g)
    num = n1 * n2 * g
    if m1 < 0 and m2 < 0:
        num = -num  # i * i = -1 on the fixed branch
    # With g = 1 the core is a square only if both radicands are +-1.
    if g > 1 and abs(core) >= _SQUAREFREE_BELOW:
        root = _exact_isqrt(abs(core))
        if root is not None:
            core, num = (1 if core > 0 else -1), num * root
    den = d1 * d2
    g = math.gcd(num, den)
    return core, num // g, den // g


class Radical:
    """Exact number of the form  sum_m c_m * sqrt(m)  with rational c_m and
    nonzero integer radicands m (m may be negative).

    The branch for negative radicands is fixed once and for all:
    sqrt(m) = i*sqrt(|m|), so sqrt(m)*sqrt(m) == m for every radicand and
    products of matched radical pairs come out as exact rationals with the
    correct sign.  No complex floating arithmetic ever happens.

    Radicands are square-class representatives, found without factoring:
    no prime below the trial bound (1000) divides a radicand twice, no
    radicand is a perfect square other than 1 and -1, and no two radicands
    of one number share a square class (their product is never a perfect
    square).  Square roots of distinct square classes are linearly
    independent over Q (Besicovitch 1940), so a number is zero exactly when
    it has no terms.  The constructor reduces any nonzero integer radicands
    to this form; :func:`sqrt_rat` builds square roots of rationals.

    Each term is an integer pair m -> (numerator, denominator) in lowest
    terms with a positive denominator, normalised by one ``math.gcd`` per
    result term.  ``Fraction`` appears only at the edges: rational inputs
    and :meth:`as_fraction`; :meth:`render` and :meth:`json_map` write
    coefficients as ``str(Fraction)`` does.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: dict | None = None):
        acc: dict[int, tuple[int, int]] = {}
        for m, c in (terms or {}).items():
            m = _integer(m)
            if not m:
                raise ValueError("radicand 0 is not allowed")
            ((m, (square, _)),) = _sqrt_frac(m, 1)._terms.items()
            n, d = _pair(c)
            _accumulate(acc, m, *_lowest(n * square, d))
        self._terms = {m: nd for m, nd in acc.items() if nd[0]}

    @classmethod
    def from_rational(cls, r) -> "Radical":
        n, d = _pair(r)
        return _wrap({1: (n, d)} if n else {})

    @classmethod
    def zero(cls) -> "Radical":
        return _wrap({})

    @classmethod
    def one(cls) -> "Radical":
        return _wrap({1: (1, 1)})

    def is_zero(self) -> bool:
        return not self._terms

    def __bool__(self) -> bool:
        return bool(self._terms)

    def is_rational(self) -> bool:
        return all(m == 1 for m in self._terms)

    def as_fraction(self) -> Fraction:
        if not self.is_rational():
            raise ArithmeticError("radical value is not rational")
        return Fraction(*self._terms.get(1, (0, 1)))

    def _plus(self, other, sign: int):
        """self + sign*other for sign = +-1 and other a Radical or a rational."""
        if not isinstance(other, Radical):
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            other = Radical.from_rational(other)
        t1, t2 = self._terms, other._terms
        if len(t1) == 1 and len(t2) == 1:
            ((m1, (n1, d1)),) = t1.items()
            ((m2, (n2, d2)),) = t2.items()
            if m1 == m2:
                n, d = _sum(n1, d1, sign * n2, d2)
                return _wrap({m1: (n, d)} if n else {})
        acc = dict(t1)
        for m, (n, d) in t2.items():
            _accumulate(acc, m, sign * n, d)
        return _wrap({m: nd for m, nd in acc.items() if nd[0]})

    def __add__(self, other):
        return self._plus(other, 1)

    __radd__ = __add__

    def __neg__(self):
        return _wrap({m: (-n, d) for m, (n, d) in self._terms.items()})

    def __sub__(self, other):
        return self._plus(other, -1)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, Radical):
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            other = Radical.from_rational(other)
        t1, t2 = self._terms, other._terms
        if len(t1) == 1 and len(t2) == 1:
            ((m1, (n1, d1)),) = t1.items()
            ((m2, (n2, d2)),) = t2.items()
            m, n, d = _mul_term(m1, n1, d1, m2, n2, d2)
            return _wrap({m: (n, d)})
        acc: dict[int, tuple[int, int]] = {}
        for m1, (n1, d1) in t1.items():
            for m2, (n2, d2) in t2.items():
                _accumulate(acc, *_mul_term(m1, n1, d1, m2, n2, d2))
        return _wrap({m: nd for m, nd in acc.items() if nd[0]})

    __rmul__ = __mul__

    def __truediv__(self, other):
        if not isinstance(other, (int, Fraction)):
            return NotImplemented
        if not other:
            raise ZeroDivisionError("division of a radical by zero")
        return self * _wrap({1: _lowest(other.denominator, other.numerator)})

    def inverse(self) -> "Radical":
        """Reciprocal of a single-term radical: 1/(c*sqrt(m)) = sqrt(m)/(c*m)."""
        if len(self._terms) != 1:
            raise ArithmeticError("inverse implemented for single-term radicals only")
        ((m, (n, d)),) = self._terms.items()
        return _wrap({m: _lowest(d, n * m)})

    def __eq__(self, other):
        diff = self._plus(other, -1)
        return diff if diff is NotImplemented else not diff._terms

    def render(self) -> str:
        """Deterministic text form, e.g. ``1/2*sqrt(-2) + 3``."""
        parts = [c if m == "1" else f"{c}*sqrt({m})" for m, c in self.json_map().items()]
        return " + ".join(parts) or "0"

    def json_map(self) -> dict[str, str]:
        """Radicand -> coefficient text (as str(Fraction) writes it), sorted."""
        return {
            str(m): str(n) if d == 1 else f"{n}/{d}" for m, (n, d) in sorted(self._terms.items())
        }

    def __repr__(self):
        return f"Radical({self.render()})"


def _wrap(terms: dict[int, tuple[int, int]]) -> Radical:
    """A Radical over a term map that already satisfies the invariant and
    has no zero coefficients, built without the reducing constructor."""
    obj = object.__new__(Radical)
    obj._terms = terms
    return obj


def _term(value: Radical):
    """A single-term value as the integer triple (m, n, d) for (n/d)*sqrt(m)
    that _mul_term takes and gives; any other value is returned as is."""
    if len(value._terms) != 1:
        return value
    ((m, (n, d)),) = value._terms.items()
    return m, n, d


def _radical(value) -> Radical:
    """The Radical of a triple from :func:`_term`; a Radical passes through."""
    return _wrap({value[0]: (value[1], value[2])}) if value.__class__ is tuple else value


@lru_cache(maxsize=None)
def _sqrt_frac(num: int, den: int) -> Radical:
    """sqrt(num/den) for num/den in lowest terms with den > 0."""
    if num == 0:
        return _wrap({})
    # sqrt(p/s) = sqrt(p*s)/s; split p*s into a square and a representative.
    n = num * den
    key = -1 if n < 0 else 1
    n = abs(n)
    square = 1
    for p in _SMALL_PRIMES:
        if p * p > n:
            break  # what is left of n is 1 or a prime
        if n % p:
            continue
        e = 0
        while n % p == 0:
            n //= p
            e += 1
        square *= p ** (e // 2)
        if e % 2:
            key *= p
    root = _exact_isqrt(n)
    if root is None:
        key *= n
    else:
        square *= root
    return _wrap({key: _lowest(square, den)})


def sqrt_rat(r) -> Radical:
    """Square root of a rational as a single-term radical c*sqrt(m) with m a
    square-class representative (squarefree whenever m has no repeated
    prime factor above the trial bound), on the fixed branch
    sqrt(r) = i*sqrt(|r|) for r < 0, so that sqrt_rat(r)**2 == r exactly."""
    return _sqrt_frac(*_pair(r))
