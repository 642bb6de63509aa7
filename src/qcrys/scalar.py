"""Exact scalar arithmetic: Laurent polynomials, symbolic q-brackets and
their identities, q-combinatorics, and radicals (sums of c*sqrt(m)).

Everything in this module is exact integer arithmetic (Laurent coefficients,
q-binomial rows, numerator/denominator pairs of radicals and q-integer point
values) with ``Fraction`` only at the edges, and no floating point appears
anywhere in the package.  Nothing here divides a polynomial: a symbolic
q-bracket is kept as a quotient num / (q - q^(-1))**k that is never divided
out, and deciding an identity only multiplies to a common power of q - q^(-1).
"""

from __future__ import annotations

import math
import operator
from collections import namedtuple
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


def ensure_positive_q(q) -> Fraction:
    """Validate and normalize a deformation parameter."""
    q = q if isinstance(q, Fraction) else Fraction(*_pair(q))
    if q <= 0:
        raise ValueError("deformation parameter q must be a positive rational")
    return q


class Laurent:
    """Laurent polynomial in ``nvars`` commuting variables over Q.

    Variable 0 is the deformation parameter q throughout the package;
    higher variables stand for formal powers such as Q = q^N.  Terms map
    exponent tuples to nonzero coefficients, so equality is structural and
    exact.  A coefficient is an ``int`` whenever it is integral and a
    ``Fraction`` only when it is not.  Instances are treated as immutable.
    """

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms: dict | None = None):
        self.nvars = nvars
        self.terms = {}
        for exps, c in (terms or {}).items():
            n, d = _pair(c)
            key = tuple(_integer(e) for e in exps)
            if len(key) != nvars:
                raise ValueError("exponent tuple has wrong arity")
            if n:
                self.terms[key] = n if d == 1 else c

    @classmethod
    def _make(cls, nvars: int, acc: dict) -> "Laurent":
        """A Laurent over a term map from the ring operations, validated no
        further: zero coefficients are dropped and integral ones made ints."""
        obj = object.__new__(cls)
        obj.nvars = nvars
        obj.terms = {e: c.numerator if c.denominator == 1 else c for e, c in acc.items() if c}
        return obj

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, nvars: int) -> "Laurent":
        return cls(nvars)

    @classmethod
    def const(cls, nvars: int, c) -> "Laurent":
        return cls(nvars, {(0,) * nvars: c})

    @classmethod
    def one(cls, nvars: int) -> "Laurent":
        return cls.const(nvars, 1)

    @classmethod
    def var(cls, nvars: int, index: int, power: int = 1) -> "Laurent":
        exps = [0] * nvars
        exps[index] = power
        return cls(nvars, {tuple(exps): 1})

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
            acc[exps] = acc.get(exps, 0) + c
        return Laurent._make(self.nvars, acc)

    __radd__ = __add__

    def __neg__(self):
        return Laurent._make(self.nvars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        acc: dict[tuple[int, ...], int | Fraction] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                key = tuple(map(operator.add, e1, e2))
                acc[key] = acc.get(key, 0) + c1 * c2
        return Laurent._make(self.nvars, acc)

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
        vals = tuple(Fraction(*_pair(p)) for p in point)
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
        acc: dict[tuple[int, ...], int | Fraction] = {}
        for exps, c in self.terms.items():
            lst = list(exps)
            lst[dst] += power * lst[src]
            del lst[src]
            key = tuple(lst)
            acc[key] = acc.get(key, 0) + c
        return Laurent._make(self.nvars - 1, acc)

    def lift(self, nvars: int, positions) -> "Laurent":
        """Re-embed into a ring with ``nvars`` variables, sending old
        variable i to new variable positions[i]."""
        positions = tuple(positions)
        if len(positions) != self.nvars:
            raise ValueError("positions must list every old variable")
        acc: dict[tuple[int, ...], int | Fraction] = {}
        for exps, c in self.terms.items():
            lst = [0] * nvars
            for i, e in zip(positions, exps):
                lst[i] += e
            key = tuple(lst)
            acc[key] = acc.get(key, 0) + c
        return Laurent._make(nvars, acc)


class SymBracket:
    """Quotient  num / (q - q^(-1))**den_pow  of Laurent polynomials.

    A q-bracket of a symbolic argument, [z*N + c]_q with Q = q^N formal,
    is not itself a Laurent polynomial, but its numerator
    q^c Q^z - q^(-c) Q^(-z) is.  The quotient is kept as given and never
    divided out: ``+`` and ``-`` lift the numerator of the lower power to
    the larger one by multiplying by q - q^(-1), and ``*`` adds the
    powers.  Since q - q^(-1) is not a zero divisor among Laurent
    polynomials, a quotient is zero exactly when its numerator is, so zero
    tests and equality are exact for all q and all N at once.  Equal
    values need not share a representation, so quotients are unhashable.
    """

    __slots__ = ("num", "den_pow")

    def __init__(self, num: Laurent, den_pow: int = 0):
        if den_pow < 0:
            raise ValueError("denominator power must be non-negative")
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
        a, b, lift = self.num, other.num, other.den_pow - self.den_pow
        if lift:  # only the numerator of the lower power is lifted
            comm = Laurent.var(self.nvars, 0, 1) - Laurent.var(self.nvars, 0, -1)  # q - q^(-1)
            a, b = (a * comm**lift, b) if lift > 0 else (a, b * comm**-lift)
        return SymBracket(a + b, max(self.den_pow, other.den_pow))

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

    __hash__ = None

    def __repr__(self):
        return f"SymBracket({self.num!r}, den_pow={self.den_pow})"

    def specialize(self, k: int) -> "SymBracket":
        """Substitute Q := q**k (two-variable quotients only), giving the
        one-variable quotient over the same power of q - q^(-1)."""
        if self.nvars != 2:
            raise ValueError("specialize applies to two-variable quotients")
        return SymBracket(self.num.collapse(1, k), self.den_pow)


# -- q-combinatorics ---------------------------------------------------------


def _integer(x) -> int:
    """An integer argument: an int or an integral Fraction.  A float or a
    non-integral Fraction is refused, never truncated."""
    if isinstance(x, int) or (isinstance(x, Fraction) and x.denominator == 1):
        return int(x)
    raise TypeError(f"expected an integer, got {x!r}")


def qint(x: int) -> Laurent:
    """The symmetric q-integer [x]_q as an explicit exponent sum.

    [x]_q = q^(x-1) + q^(x-3) + ... + q^(1-x) for x > 0, with [0]_q = 0 and
    [-x]_q = -[x]_q.  Because the sum is explicit the value is regular at
    q = 1, where it equals x.
    """
    x = _integer(x)
    sign = -1 if x < 0 else 1
    return Laurent._make(1, {(e,): sign for e in range(1 - abs(x), abs(x), 2)})


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
def _qint_root(x: int, a: int, b: int, ratio: bool) -> tuple[int, int, int]:
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


@lru_cache(maxsize=8)
def _gauss_row(m: int, width: int) -> tuple[tuple[int, ...], ...]:
    """Columns 0..width of row m of the Gaussian binomials in t = q^2:
    entry k lists the integer coefficients of [m;k]_t, of degree k(m - k),
    by ascending power of t.  Filled from row 0 with the q-Pascal rule
    [r;k] = [r-1;k-1] + t^k [r-1;k], keeping only the previous row."""
    row: list[list[int]] = [[1]]
    for r in range(1, m + 1):
        row.append([])  # [r-1;r] = 0
        new = [[1]]
        for k in range(1, min(r, width) + 1):
            poly = row[k - 1] + [0] * (r - k)  # degree (k-1)(r-k) -> k(r-k)
            poly[k:] = map(operator.add, poly[k:], row[k])
            new.append(poly)
        row = new
    return tuple(map(tuple, row))


def qbinom(m: int, k: int) -> Laurent:
    """Balanced Gaussian binomial [m choose k]_q, with integer coefficients.

    Read off the integer row m of :func:`_gauss_row` (columns up to
    min(k, m - k), since [m;k] = [m;m-k]) as q^(-k(m-k)) [m;k]_(q^2); the
    value at q = 1 is the ordinary binomial coefficient.
    """
    m, k = _integer(m), _integer(k)
    if m < 0 or k < 0 or k > m:
        raise ValueError("require 0 <= k <= m")
    return _balanced(m, k, _gauss_row(m, min(k, m - k)))


def _balanced(m: int, k: int, row) -> Laurent:
    """[m;k]_q from a row of :func:`_gauss_row` holding column min(k, m - k)."""
    shift = k * (m - k)
    return Laurent._make(1, {(2 * i - shift,): c for i, c in enumerate(row[min(k, m - k)])})


def sym_bracket(nvars: int, c: int, zvec) -> SymBracket:
    """Symbolic bracket [c + sum_i z_i N_i]_q with Q_i = q^(N_i) formal,
    as the quotient (q^c prod Q_i^(z_i) - inverse) / (q - q^(-1))."""
    c, zvec = _integer(c), tuple(_integer(z) for z in zvec)
    if len(zvec) != nvars - 1:
        raise ValueError("one z per formal variable required")
    plus = Laurent(nvars, {(c,) + zvec: 1})
    minus = Laurent(nvars, {tuple(-e for e in (c,) + zvec): 1})
    return SymBracket(plus - minus, 1)


def qint_sym(c: int, z_coeff: int) -> SymBracket:
    """Symbolic bracket [z_coeff*N + c]_q over the two variables (q, Q).

    Specializing Q := q**k recovers qint(z_coeff*k + c) exactly.
    """
    return sym_bracket(2, c, (z_coeff,))


# -- bracket identities ------------------------------------------------------


class IdentityVerdict(namedtuple("IdentityVerdict", "symbolic at_q1")):
    """Outcome of the alternating bracket identity check (immutable).

    ``symbolic`` means the sum is zero for all q and all N at once (zero as
    a two-variable quotient); ``at_q1`` means it is zero for all N after
    setting q = 1.  The classical Serre arguments only consume the q = 1
    form, while the deformed ones need the symbolic form.
    """

    __slots__ = ()

    @property
    def holds(self) -> bool:
        return self.symbolic or self.at_q1


def serre_identity_sum(a: int, z: int) -> SymBracket:
    """The alternating sum  sum_n (-1)^n [1+a; n]_q [N - n*z]_q  as an exact
    two-variable quotient; every bracket is over q - q^(-1), so the
    numerators are summed directly."""
    if a < 1:
        raise ValueError("require a >= 1")
    num = Laurent.zero(2)
    row = _gauss_row(1 + a, (1 + a) // 2)
    for n in range(a + 2):
        term = qint_sym(-n * z, 1).num * _balanced(1 + a, n, row).lift(2, (0,))
        num = num - term if n % 2 else num + term
    return SymBracket(num, 1)


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


def _primes_below(bound: int) -> tuple[int, ...]:
    """The primes below ``bound``, by a sieve of Eratosthenes."""
    sieve = bytearray([1]) * bound
    sieve[:2] = b"\0\0"
    for p in range(2, math.isqrt(bound - 1) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytes(len(range(p * p, bound, p)))
    return tuple(p for p, is_prime in enumerate(sieve) if is_prime)


_SMALL_PRIMES = _primes_below(_TRIAL_BOUND)
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
            m, square, _ = _sqrt_frac(m, 1)
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
        return _radical(_reciprocal(m, n, d))

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


def _radical(value: tuple[int, int, int]) -> Radical:
    """The Radical of a triple (m, n, d) for (n/d)*sqrt(m), zero where n = 0."""
    m, n, d = value
    return _wrap({m: (n, d)} if n else {})


def _reciprocal(m: int, n: int, d: int) -> tuple[int, int, int]:
    """The reciprocal of a nonzero triple: 1/((n/d)*sqrt(m)) = (d/(n*m))*sqrt(m)."""
    return (m, *_lowest(d, n * m))


@lru_cache(maxsize=None)
def _sqrt_frac(num: int, den: int) -> tuple[int, int, int]:
    """sqrt(num/den) for num/den in lowest terms with den > 0, as the triple
    (m, n, d) for (n/d)*sqrt(m) that _mul_term takes and gives; 0 is (1, 0, 1)."""
    if num == 0:
        return 1, 0, 1
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
    return (key, *_lowest(square, den))


def sqrt_rat(r) -> Radical:
    """Square root of a rational as a single-term radical c*sqrt(m) with m a
    square-class representative (squarefree whenever m has no repeated
    prime factor above the trial bound), on the fixed branch
    sqrt(r) = i*sqrt(|r|) for r < 0, so that sqrt_rat(r)**2 == r exactly."""
    return _radical(_sqrt_frac(*_pair(r)))
