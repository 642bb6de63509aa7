"""Sparse exact linear operators over the radical field, and the operator
realizations on crystal models: bare ladder matrices, their classical and
q-deformed dressings, number/Cartan diagonals, the deforming diagonal
factors, the weight-diagonal dressing functional for rank one, and the
sl(2) Casimir."""

from __future__ import annotations

from fractions import Fraction

from .crystal import TYPE_C, CrystalModel, weight_h, weight_n
from .scalar import (
    Radical,
    _lowest,
    _mul_term,
    _qint_root,
    _radical,
    _sqrt_frac,
    ensure_positive_q,
    half_bracket_product,
)

__all__ = [
    "LinOp",
    "commutator",
    "op_hat",
    "op_num",
    "op_h",
    "op_e_classical",
    "op_e_deformed",
    "deform_factor",
    "deform_factor_inv",
    "CZ_WEIGHT",
    "CZ_NODE",
    "cz_factor",
    "casimir",
    "casimir_generator_route",
    "matrix_json_entries",
    "matrix_csv",
]


def _coerce_radical(val) -> Radical:
    if isinstance(val, Radical):
        return val
    if isinstance(val, (int, Fraction)):
        return Radical.from_rational(val)
    raise TypeError(f"cannot use {type(val).__name__} as an operator entry")


class LinOp:
    """Sparse linear operator with Radical entries keyed (source, target).

    ``A @ B`` composes as "apply B first, then A", matching the usual
    operator product AB.  All arithmetic is exact; zero results simply
    drop out of the entry map, so ``is_zero`` is an exact statement.
    Instances are treated as immutable.
    """

    __slots__ = ("dim", "entries")

    def __init__(self, dim: int, entries: dict | None = None):
        self.dim = dim
        clean: dict[tuple[int, int], Radical] = {}
        if entries:
            for (src, tgt), val in entries.items():
                val = _coerce_radical(val)
                if not val:
                    continue
                if not (0 <= src < dim and 0 <= tgt < dim):
                    raise ValueError("entry index out of range")
                clean[(src, tgt)] = val
        self.entries = clean

    @classmethod
    def _make(cls, dim: int, entries: dict[tuple[int, int], Radical]) -> "LinOp":
        """Wrap the result of LinOp arithmetic, whose entries are already
        Radicals keyed by in-range indices: skip coercion and the bounds
        check, but still drop zero entries."""
        obj = object.__new__(cls)
        obj.dim = dim
        obj.entries = {k: v for k, v in entries.items() if v}
        return obj

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, dim: int) -> "LinOp":
        return cls(dim)

    @classmethod
    def identity(cls, dim: int) -> "LinOp":
        return cls(dim, {(k, k): Radical.one() for k in range(dim)})

    @classmethod
    def diagonal(cls, values) -> "LinOp":
        values = list(values)
        return cls(len(values), {(k, k): v for k, v in enumerate(values)})

    # -- algebra -----------------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, LinOp):
            return NotImplemented
        if other.dim != self.dim:
            raise ValueError("dimension mismatch")
        acc = dict(self.entries)
        for key, val in other.entries.items():
            cur = acc.get(key)
            acc[key] = val if cur is None else cur + val
        return LinOp._make(self.dim, acc)

    def __neg__(self):
        return LinOp._make(self.dim, {k: -v for k, v in self.entries.items()})

    def __sub__(self, other):
        if not isinstance(other, LinOp):
            return NotImplemented
        return self + (-other)

    def __mul__(self, scalar):
        if isinstance(scalar, (int, Fraction, Radical)):
            return LinOp._make(self.dim, {k: v * scalar for k, v in self.entries.items()})
        return NotImplemented

    __rmul__ = __mul__

    def __matmul__(self, other):
        if not isinstance(other, LinOp):
            return NotImplemented
        if other.dim != self.dim:
            raise ValueError("dimension mismatch")
        by_src: dict[int, list[tuple[int, Radical]]] = {}
        for (s, t), v in self.entries.items():
            by_src.setdefault(s, []).append((t, v))
        acc: dict[tuple[int, int], Radical] = {}
        for (s, t), v in other.entries.items():
            for u, w in by_src.get(t, ()):
                key = (s, u)
                cur = acc.get(key)
                prod = w * v
                acc[key] = prod if cur is None else cur + prod
        return LinOp._make(self.dim, acc)

    def transpose(self) -> "LinOp":
        return LinOp(self.dim, {(t, s): v for (s, t), v in self.entries.items()})

    def __eq__(self, other):
        if not isinstance(other, LinOp):
            return NotImplemented
        return self.dim == other.dim and self.entries == other.entries

    def is_zero(self) -> bool:
        return not self.entries

    def column(self, src: int) -> dict[int, Radical]:
        """All targets reached from one source basis state."""
        return {t: v for (s, t), v in self.entries.items() if s == src}

    def apply_vec(self, vec: dict[int, Radical]) -> dict[int, Radical]:
        """Image of a sparse vector {ordinal: coefficient}."""
        out: dict[int, Radical] = {}
        for (src, tgt), v in self.entries.items():
            c = vec.get(src)
            if c is None:
                continue
            cur = out.get(tgt)
            prod = v * c
            out[tgt] = prod if cur is None else cur + prod
        return {t: v for t, v in out.items() if v}

    def __repr__(self):
        return f"LinOp(dim={self.dim}, nnz={len(self.entries)})"


def commutator(a: LinOp, b: LinOp) -> LinOp:
    return a @ b - b @ a


# -- generator matrices on crystal models -------------------------------------


def op_hat(model: CrystalModel, node: int, sign: int) -> LinOp:
    """0/1 matrix of the bare crystal ladder operator."""
    moves = enumerate(model.moves(node, sign))
    return LinOp(model.dim, {(k, t): Radical.one() for k, (t, _) in moves if t is not None})


def op_num(model: CrystalModel, i: int) -> LinOp:
    """Diagonal number operator N_i (1-based, i = 1..n)."""
    if not 1 <= i <= model.spec.n:
        raise ValueError(f"number operator index {i} out of range 1..{model.spec.n}")
    return LinOp.diagonal(
        Radical.from_rational(weight_n(model, s)[i - 1]) for s in model.states
    )


def op_h(model: CrystalModel, i: int) -> LinOp:
    """Diagonal Cartan operator H_i (1-based node index)."""
    if not 1 <= i <= model.spec.nodes:
        raise ValueError(f"node {i} out of range 1..{model.spec.nodes}")
    return LinOp.diagonal(
        Radical.from_rational(weight_h(model, s)[i - 1]) for s in model.states
    )


def _is_long_node(model: CrystalModel, node: int) -> bool:
    return model.spec.algebra_type == TYPE_C and node == model.spec.n


def _factor_args(model: CrystalModel, node: int, state) -> tuple[int, int]:
    """The two integer factors under the square root of the dressing
    diagonal, evaluated at a state's labels: (l_i + 1, l_{i+1}) for short
    nodes, (l_n + 1, -l_n - 2) for the type C long node."""
    l = weight_n(model, state)
    if _is_long_node(model, node):
        return l[-1] + 1, -l[-1] - 2
    return l[node - 1] + 1, l[node]


def _dressed_ladder(model: CrystalModel, node: int, sign: int, value) -> LinOp:
    """Ladder matrix with a diagonal dressing evaluated on the raising
    operand / lowering image, i.e. on the state where both square-root
    factor arguments are read off: the entry is the triple ``value(a, b)``."""
    states, entries = model.states, {}
    for k, (t, _) in enumerate(model.moves(node, sign)):
        if t is not None:
            args = _factor_args(model, node, states[k if sign > 0 else t])
            entries[(k, t)] = _radical(value(*args))
    return LinOp(model.dim, entries)


def _e_classical_entry(a: int, b: int, long_node: bool) -> tuple[int, int, int]:
    """Classical generator entry at factor arguments (a, b), halved on the long node."""
    m, n, d = _mul_term(*_sqrt_frac(a, 1), *_sqrt_frac(b, 1))
    return (m, *_lowest(n, 2 * d)) if long_node else (m, n, d)


def _root_product(
    a: int, b: int, q: Fraction, ratio: bool, long_scale: int
) -> tuple[int, int, int]:
    """The cached roots sqrt([a]_q) sqrt([b]_q), or sqrt([a]_q/a) sqrt([b]_q/b)
    with ``ratio`` (small, real radicands), times long_scale/(q + 1/q) =
    long_scale*nd/(n^2 + d^2) at q = n/d unless long_scale is 0."""
    n, d = q.numerator, q.denominator
    m, c, e = _qint_root(a, n, d, ratio)
    if long_scale:
        c, e = long_scale * c * n * d, e * (n * n + d * d)
    return _mul_term(m, c, e, *_qint_root(b, n, d, ratio))


def _e_deformed_entry(a: int, b: int, q: Fraction, long_node: bool) -> tuple[int, int, int]:
    """Deformed generator entry at factor arguments (a, b), nonzero on a live
    move: sqrt([a]_q [b]_q), times 1/(q + 1/q) on the long node."""
    return _root_product(a, b, q, False, long_node)


def _deform_entry(a: int, b: int, q: Fraction, long_node: bool = False) -> tuple[int, int, int]:
    """Deforming-factor entry at factor arguments (a, b): 1 where a*b = 0,
    else sqrt([a]_q [b]_q / (ab)), times 2/(q + 1/q) on the long node."""
    if a * b == 0:
        return 1, 1, 1
    return _root_product(a, b, q, True, 2 * long_node)


def op_e_classical(model: CrystalModel, node: int, sign: int) -> LinOp:
    """Undeformed Chevalley generator: the crystal ladder operator dressed
    with sqrt((N_i+1) N_{i+1}), or (1/2) sqrt((N_n+1)(-N_n-2)) on the type C
    long node.  The long-node radicand is negative, so those entries are
    imaginary and carried exactly by the radical branch rule."""
    long_node = _is_long_node(model, node)
    return _dressed_ladder(model, node, sign, lambda a, b: _e_classical_entry(a, b, long_node))


def op_e_deformed(model: CrystalModel, node: int, sign: int, q) -> LinOp:
    """q-deformed Chevalley generator: each arithmetic factor x of the
    classical dressing becomes the bracket [x]_q, and the long-node
    prefactor 1/2 becomes 1/(q + q^(-1)).  At q = 1 this coincides with
    op_e_classical entry for entry."""
    q, long_node = ensure_positive_q(q), _is_long_node(model, node)
    return _dressed_ladder(model, node, sign, lambda a, b: _e_deformed_entry(a, b, q, long_node))


def deform_factor(model: CrystalModel, node: int, q) -> LinOp:
    """Diagonal deforming factor F with
    F = sqrt([N_i+1]_q [N_{i+1}]_q / ((N_i+1) N_{i+1})) on short nodes and
    the extra prefactor 2/(q+q^(-1)) on the type C long node, so that
    op_e_classical composed with F reproduces op_e_deformed entrywise.

    On states where the classical radicand vanishes (exactly the states the
    ladder operator annihilates) the factor is set to 1, which keeps it
    invertible on its support without changing either side of the map.
    """
    q = ensure_positive_q(q)
    long_node = _is_long_node(model, node)
    return LinOp.diagonal(
        _radical(_deform_entry(*_factor_args(model, node, s), q, long_node))
        for s in model.states
    )


def deform_factor_inv(model: CrystalModel, node: int, q) -> LinOp:
    """Partial inverse of the deforming factor: reciprocal entries on the
    support, 1 on the vanishing-radicand states (same convention)."""
    f = deform_factor(model, node, q)
    return LinOp.diagonal(f.entries[(k, k)].inverse() for k in range(model.dim))


CZ_WEIGHT = "weight"
CZ_NODE = "node"


def _require_sl2(model: CrystalModel) -> None:
    if model.spec.algebra_type != "A" or model.spec.n != 2:
        raise ValueError("the rank-one dressing functional needs a type A, n = 2 model")


def cz_factor(model: CrystalModel, q, variant: str) -> LinOp:
    """Diagonal rank-one dressing functional in its two equivalent forms.

    The "node" variant is the deforming factor of the single node.  The
    "weight" variant is sqrt([j0+j]_q [j0-j-1]_q / ((j0+j)(j0-j-1))) with
    j the Casimir-defined scalar lam/2 and j0 the weight; it multiplies
    the raising generator on the image side, where it agrees with the
    node variant read on the source side.  Where its denominator vanishes
    (only the lowest-weight state) the entry is set to 1.
    """
    _require_sl2(model)
    q = ensure_positive_q(q)
    if variant == CZ_NODE:
        return deform_factor(model, 1, q)
    if variant != CZ_WEIGHT:
        raise ValueError(f"unknown dressing variant {variant!r}")
    return LinOp.diagonal(_radical(_deform_entry(*_cz_args(s), q)) for s in model.states)


def _cz_args(state) -> tuple[int, int]:
    """The weight variant's factor arguments (j0 + j, j0 - j - 1) at a
    rank-one state, which are (l1, -(l2 + 1)) in the label variables; the
    second is never 0, so the entry is 1 exactly where j0 + j = 0."""
    l1, l2 = state
    return l1, -(l2 + 1)


def casimir(model: CrystalModel, deformed: bool, q=None) -> LinOp:
    """Scalar sl(2) Casimir: j(j+1) or its bracket analogue
    [lam/2]_q [lam/2+1]_q, times the identity, with j = lam/2."""
    _require_sl2(model)
    lam = model.spec.lam
    if deformed:
        value = half_bracket_product(lam, ensure_positive_q(q))
    else:
        value = Fraction(lam * (lam + 2), 4)
    return LinOp.identity(model.dim) * value


def casimir_generator_route(model: CrystalModel, deformed: bool, q=None) -> LinOp:
    """Casimir rebuilt from the generators, e- e+ + f(H) with
    f(H) = (H/2)(H/2+1) classically and [H/2]_q [H/2+1]_q deformed; used to
    cross-check the scalar route."""
    _require_sl2(model)
    if deformed:
        q = ensure_positive_q(q)
        lower = op_e_deformed(model, 1, -1, q)
        raise_ = op_e_deformed(model, 1, 1, q)
        diag_val = lambda h: half_bracket_product(h, q)
    else:
        lower = op_e_classical(model, 1, -1)
        raise_ = op_e_classical(model, 1, 1)
        diag_val = lambda h: Fraction(h * (h + 2), 4)
    diag = LinOp.diagonal(
        Radical.from_rational(diag_val(int(weight_h(model, s)[0])))
        for s in model.states
    )
    return lower @ raise_ + diag


# -- export -------------------------------------------------------------------


def matrix_json_entries(op: LinOp) -> list[dict]:
    """Deterministic entry list: [{"from": s, "to": t, "coeff": {m: c}}]."""
    return [
        {"from": s, "to": t, "coeff": op.entries[(s, t)].json_map()}
        for (s, t) in sorted(op.entries)
    ]


def matrix_csv(ops: dict[str, LinOp]) -> str:
    """CSV rendering of one or more labeled matrices, radical entries shown
    as c*sqrt(m) sums."""
    lines = ["sign,from,to,coeff"]
    for label in sorted(ops):
        op = ops[label]
        for s, t in sorted(op.entries):
            lines.append(f'{label},{s},{t},"{op.entries[(s, t)].render()}"')
    return "\n".join(lines) + "\n"
