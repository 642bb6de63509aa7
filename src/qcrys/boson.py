"""Truncated three-mode Fock spaces, standard and Biedenharn-MacFarlane
q-deformed oscillator triples, and two boson realizations of so_q(3) with
truncation-aware relation checks."""

from __future__ import annotations

from .rep import LinOp, _deform_entry, commutator
from .report import BOUNDARY, FAIL, PASS, RelationReport, StateResult
from .scalar import Radical, _qint_root, _radical, ensure_positive_q, qint_at, sqrt_rat

__all__ = [
    "STANDARD",
    "Q_DEFORMED",
    "MODES",
    "FockSpace",
    "boson_ops",
    "vdj_so3",
    "standard_so3",
    "check_so3",
    "check_so3_towers",
    "weight_multiplicity",
]

STANDARD = "STANDARD"
Q_DEFORMED = "Q_DEFORMED"

# Mode labels follow the spherical convention for a vector triplet.
MODES = (1, 0, -1)
_MODE_INDEX = {1: 0, 0: 1, -1: 2}


class FockSpace:
    """All three-mode occupation tuples with total occupation <= cutoff,
    ascending lexicographic order.  The cutoff truncates an infinite space;
    states at total occupation == cutoff are the truncation edge, where
    creation operators are silently cut short."""

    __slots__ = ("cutoff", "states", "index")

    def __init__(self, cutoff: int):
        if cutoff < 0:
            raise ValueError("cutoff must be non-negative")
        self.cutoff = cutoff
        states = [
            (a, b, c)
            for a in range(cutoff + 1)
            for b in range(cutoff + 1 - a)
            for c in range(cutoff + 1 - a - b)
        ]
        states.sort()
        self.states = tuple(states)
        self.index = {s: k for k, s in enumerate(states)}

    @property
    def dim(self) -> int:
        return len(self.states)

    def truncation_edge(self, state) -> bool:
        return sum(state) == self.cutoff

    def describe(self) -> dict:
        return {"modes": 3, "cutoff": self.cutoff}

    def __repr__(self):
        return f"FockSpace(cutoff={self.cutoff}, dim={self.dim})"


def boson_ops(space: FockSpace, mode: int, kind: str, q=None):
    """(annihilator, creator, number) for one mode.

    STANDARD: b|n> = sqrt(n)|n-1>, b+|n> = sqrt(n+1)|n+1>.
    Q_DEFORMED: the square roots carry brackets, so b+b = [N]_q and
    bb+ = [N+1]_q below the cutoff.  Creation out of the cutoff yields the
    zero vector; the affected source states are exactly the truncation
    edge (see FockSpace.truncation_edge).
    """
    if mode not in _MODE_INDEX:
        raise ValueError(f"mode must be one of {MODES}")
    if kind not in (STANDARD, Q_DEFORMED):
        raise ValueError(f"unknown oscillator kind {kind!r}")
    if kind == Q_DEFORMED:
        q = ensure_positive_q(q)
        root = lambda n: _radical(_qint_root(n, q.numerator, q.denominator, False))
    else:
        root = sqrt_rat
    pos = _MODE_INDEX[mode]
    ann: dict[tuple[int, int], Radical] = {}
    num: dict[tuple[int, int], Radical] = {}
    for k, s in enumerate(space.states):
        n = s[pos]
        if n:
            num[(k, k)] = Radical.from_rational(n)
            lowered = list(s)
            lowered[pos] -= 1
            ann[(k, space.index[tuple(lowered)])] = root(n)
    annihilator = LinOp(space.dim, ann)
    creator = annihilator.transpose()
    return annihilator, creator, LinOp(space.dim, num)


def _diagonal(space: FockSpace, fn) -> LinOp:
    return LinOp.diagonal(fn(s) for s in space.states)


def vdj_so3(space: FockSpace, q):
    """The q-boson so_q(3) triple built from Biedenharn-MacFarlane
    oscillators dressed with exact q^N and sqrt(q^N + q^-N) diagonals.

    The lowering generator is the transpose of the raising one; the usual
    pair of left/right-dressed bilinears is exactly that, term by term,
    since diagonals cross sides under transposition.
    """
    q = ensure_positive_q(q)
    b1, b1c, _ = boson_ops(space, 1, Q_DEFORMED, q)
    b0, b0c, _ = boson_ops(space, 0, Q_DEFORMED, q)
    bm1, _, _ = boson_ops(space, -1, Q_DEFORMED, q)

    def left_diag(s):
        n1, n0, nm1 = s
        return (q**nm1) * sqrt_rat(q**-n0) * sqrt_rat(q**n1 + q**-n1)

    def right_diag(s):
        n1, n0, nm1 = s
        return (q**n1) * sqrt_rat(q**-n0) * sqrt_rat(q**nm1 + q**-nm1)

    raising = _diagonal(space, left_diag) @ (b1c @ b0) + (b0c @ bm1) @ _diagonal(
        space, right_diag
    )
    l0 = _diagonal(space, lambda s: Radical.from_rational(s[0] - s[2]))
    return raising, raising.transpose(), l0


def standard_so3(space: FockSpace, q):
    """so_q(3) from *standard* bosons: the classical vector-boson raising
    bilinear sqrt(2)(b1+ b0 + b0+ b-1) composed with the deforming diagonal
    sqrt([N1+1]_q [N2]_q / ((N1+1) N2)) built from the composite number
    operators N1 = 2 n1 + n0 and N2 = 2 n-1 + n0.

    Returns (L+, L-, L0, N1, N2); L- is the transpose of L+ (equivalently
    the left-dressed lowering bilinear), and L0 = n1 - n-1.
    """
    q = ensure_positive_q(q)
    b1, b1c, _ = boson_ops(space, 1, STANDARD)
    b0, b0c, _ = boson_ops(space, 0, STANDARD)
    bm1, _, _ = boson_ops(space, -1, STANDARD)

    def factor(s):
        # the short-node deforming factor at (N1 + 1, N2)
        n1_, n0_, nm1_ = s
        return _radical(_deform_entry(2 * n1_ + n0_ + 1, 2 * nm1_ + n0_, q))

    bilinear = (b1c @ b0 + b0c @ bm1) * sqrt_rat(2)
    raising = bilinear @ _diagonal(space, factor)
    l0 = _diagonal(space, lambda s: Radical.from_rational(s[0] - s[2]))
    n1 = _diagonal(space, lambda s: Radical.from_rational(2 * s[0] + s[1]))
    n2 = _diagonal(space, lambda s: Radical.from_rational(2 * s[2] + s[1]))
    return raising, raising.transpose(), l0, n1, n2


def weight_multiplicity(state) -> int:
    """Number of occupation states sharing this state's composite label
    pair (N1, N2) = (2 n1 + n0, 2 n-1 + n0) inside its total-occupation
    block.  Blocks decompose into irreducible pieces of decreasing spin,
    so multiplicity above one means the basis state mixes components."""
    n1 = 2 * state[0] + state[1]
    n2 = 2 * state[2] + state[1]
    return min(n1, n2) // 2 + 1


def check_so3(gens, q, space: FockSpace, realization: str = "so3") -> RelationReport:
    """Verify [L0, L+-] = +-L+- and [L+, L-] = [2 L0]_q per basis state.

    States on the truncation edge (total occupation == cutoff) are
    classified BOUNDARY and never asserted; everything below the edge is
    an exact PASS/FAIL statement.  Failure records carry the composite
    weight multiplicity so that reducible-carrier effects (basis states
    mixing components of different spin) are attributable from the report
    alone.
    """
    q = ensure_positive_q(q)
    lp, lm, l0 = gens[:3]
    bracket_2l0 = _diagonal(
        space, lambda s: Radical.from_rational(qint_at(2 * (s[0] - s[2]), q))
    )
    components = [
        ("[L0,L+]-L+", commutator(l0, lp) - lp),
        ("[L0,L-]+L-", commutator(l0, lm) + lm),
        ("[L+,L-]-[2L0]_q", commutator(lp, lm) - bracket_2l0),
    ]
    per_state, failures = [], []
    for k, s in enumerate(space.states):
        residuals = [(label, op.column(k)) for label, op in components]
        zero = all(not col for _, col in residuals)
        if space.truncation_edge(s):
            klass = BOUNDARY
        elif zero:
            klass = PASS
        else:
            klass = FAIL
            failures.extend(
                {
                    "state": list(s),
                    "word": f"{label}; target={list(space.states[t])}; "
                    f"weight_multiplicity={weight_multiplicity(s)}",
                    "residual": val.json_map(),
                }
                for label, col in residuals
                for t, val in sorted(col.items())
            )
        per_state.append(StateResult(s, zero, klass))
    return RelationReport(f"so3[{realization}]", space.describe(), q, per_state, failures)


def check_so3_towers(gens, q, space: FockSpace, realization: str = "so3") -> RelationReport:
    """Verify the relations on the spin-T lowering tower of each block T.

    Every total-occupation block T has a one-dimensional top weight state
    (T, 0, 0); repeated lowering from it sweeps out the single spin-T
    component, on which the composite labels read (T+m, T-m).  The
    relations are checked exactly on every tower vector (per_state entries
    are the pairs (T, m)), and the tower must close after 2T+1 steps.
    Only these towers are asserted: (c+1)^2 of the C(c+3, 3) basis
    dimensions at cutoff c.  The lower-spin components of a block are
    not, and for the standard-boson realization at q != 1 they fail
    [L+, L-] = [2L0]_q.
    """
    q = ensure_positive_q(q)
    lp, lm, l0 = gens[:3]
    per_state, failures = [], []

    def scale(vec, factor):
        factor = Radical.from_rational(factor)
        return {t: p for t, v in vec.items() if (p := v * factor)}

    for top in range(space.cutoff + 1):
        vec = {space.index[(top, 0, 0)]: Radical.one()}
        for m in range(top, -top - 1, -1):
            up = lp.apply_vec(vec)
            down = lm.apply_vec(vec)
            bad = []
            if _vec_sub(l0.apply_vec(up), lp.apply_vec(l0.apply_vec(vec))) != up:
                bad.append("[L0,L+]-L+")
            if _vec_sub(l0.apply_vec(down), lm.apply_vec(l0.apply_vec(vec))) != scale(
                down, -1
            ):
                bad.append("[L0,L-]+L-")
            comm = _vec_sub(lp.apply_vec(down), lm.apply_vec(up))
            if comm != scale(vec, qint_at(2 * m, q)):
                bad.append("[L+,L-]-[2L0]_q")
            for label in bad:
                failures.append({"state": [top, m], "word": f"tower {label}", "residual": {}})
            per_state.append(StateResult((top, m), not bad, PASS if not bad else FAIL))
            vec = down
        if vec:
            failures.append(
                {"state": [top, -top - 1], "word": "tower does not close", "residual": {}}
            )
            per_state.append(StateResult((top, -top - 1), False, FAIL))
    return RelationReport(f"so3-towers[{realization}]", space.describe(), q, per_state, failures)


def _vec_sub(a: dict, b: dict) -> dict:
    out = dict(a)
    for t, v in b.items():
        cur = out.get(t)
        val = -v if cur is None else cur - v
        if val:
            out[t] = val
        else:
            out.pop(t, None)
    return out
