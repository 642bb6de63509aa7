"""The relation-verification engine: writes the Cartan, ladder, Serre, and
dressing-map relations as weighted sums of exact operator words on a
crystal model, evaluates each relation state by state, and classifies
each state PASS / FAIL / BOUNDARY, where BOUNDARY marks verdicts that
would only reflect the finite cap truncating the type C state space.

Every operator in a word is monomial (a ladder generator or a diagonal),
so a word applied to a basis state is a single walk, and all words of one
relation component reach the same target: its residual at a state is one
exact number.  Where a walk goes, where it stops (a dead move, or the
type C cap, which decides BOUNDARY) and which entries it multiplies do
not depend on q, so each family is compiled once per model into a
straight-line program over entry keys; each q binds every key once and
runs the program.  Sparse operator products (LinOp) are not used here;
the tests rebuild every relation with them as the reference."""

from __future__ import annotations

import json
import math
import os
from array import array
from dataclasses import dataclass, field
from fractions import Fraction

from .crystal import (
    CAP_MARGIN,
    DEFAULT_MARGIN,
    MOVE_CAPPED,
    MOVE_DEAD,
    MOVE_OK,
    TYPE_A,
    TYPE_C,
    CrystalModel,
    CrystalSpec,
    apply_move,
    boundary_class,
    build_model,
    weight_h,
)
from .rep import _cz_entry, _deform_entry, _e_classical_entry, _e_deformed_entry, _factor_args
from .report import BOUNDARY, FAIL, PASS, RelationReport, StateResult
from .scalar import Radical, _mul_term, _wrap, ensure_positive_q, qbinom, qint_at

__all__ = [
    "VerificationError",
    "ConfigError",
    "cartan_matrix",
    "expected_cartan",
    "symmetrizers",
    "check_cartan",
    "check_ladder",
    "check_serre",
    "check_map",
    "SuiteConfig",
    "SuiteResult",
    "load_config",
    "run_suite",
    "DEFAULT_Q_LIST",
    "DEFAULT_FAMILIES",
]


class VerificationError(Exception):
    """An internal consistency check of the engine itself failed."""


class ConfigError(Exception):
    """A verification-suite configuration is malformed."""


DEFAULT_Q_LIST = (Fraction(1), Fraction(2), Fraction(1, 2), Fraction(3, 5))
DEFAULT_FAMILIES = ("cartan", "ladder", "serre", "map")
KNOWN_FAMILIES = ("cartan", "ladder", "serre", "serre-classical", "map")


# -- Cartan data derived from the crystal ------------------------------------


def expected_cartan(spec: CrystalSpec) -> list[list[int]]:
    """Reference Cartan matrix, rows indexed by the Cartan operator and
    columns by the ladder node: tridiagonal 2/-1, except that the type C
    entry coupling H_{n-1} to the long-node ladder is -2."""
    nodes = spec.nodes
    m = [[0] * nodes for _ in range(nodes)]
    for i in range(nodes):
        m[i][i] = 2
        if i + 1 < nodes:
            m[i][i + 1] = -1
            m[i + 1][i] = -1
    if spec.algebra_type == TYPE_C and nodes >= 2:
        m[nodes - 2][nodes - 1] = -2
    return m


def cartan_matrix(
    model: CrystalModel, moves: list | None = None, h: list | None = None
) -> list[list[int]]:
    """Cartan integers measured from the crystal weight shifts: entry
    (i, j) is the shift of the H_i eigenvalue under the node-j raising
    move.  Every state admitting the move must report the same shift, and
    the result must agree with the reference matrix; disagreement is an
    engine error, not a relation failure.  ``moves`` is the model's
    ladder-move table and ``h`` the weight_h of every state by ordinal
    (each built here when absent)."""
    spec = model.spec
    nodes = spec.nodes
    if moves is None:
        moves = _move_table(model)
    if h is None:
        h = [weight_h(model, s) for s in model.states]
    expected = expected_cartan(spec)
    measured: list[list[int]] = [[0] * nodes for _ in range(nodes)]
    for j in range(1, nodes + 1):
        shifts = set()
        for k, row in enumerate(moves):
            t, status = row[(j, 1)]
            if status != MOVE_OK:
                continue
            hs, ht = h[k], h[t]
            shifts.add(tuple(ht[i] - hs[i] for i in range(nodes)))
        if not shifts:
            # No state admits the move (trivial representations); fall
            # back to the reference column.
            for i in range(nodes):
                measured[i][j - 1] = expected[i][j - 1]
            continue
        if len(shifts) > 1:
            raise VerificationError(f"inconsistent weight shifts for node {j}")
        (shift,) = shifts
        for i in range(nodes):
            if shift[i].denominator != 1:
                raise VerificationError("non-integer Cartan entry measured")
            measured[i][j - 1] = int(shift[i])
    if measured != expected:
        raise VerificationError(
            f"measured Cartan matrix {measured} differs from expected {expected}"
        )
    return measured


def symmetrizers(spec: CrystalSpec, cartan: list[list[int]]) -> list[int]:
    """Node lengths d_i making (d_i a_ij) symmetric: all 1 except the type
    C long node, which carries d_n = 2.  Cross-checked against the
    measured matrix."""
    nodes = spec.nodes
    d = [1] * nodes
    if spec.algebra_type == TYPE_C:
        d[nodes - 1] = 2
    for i in range(nodes):
        for j in range(nodes):
            if d[i] * cartan[i][j] != d[j] * cartan[j][i]:
                raise VerificationError("Cartan matrix is not symmetrizable by d")
    return d


# -- per-model data shared by the families ------------------------------------


def _move_table(model: CrystalModel) -> list[dict[tuple[int, int], tuple]]:
    """Every ladder move of the model, evaluated once: entry k maps
    (node, sign) to (target ordinal or None, move status) for state k.
    A move that succeeds always lands inside the model, so word walks
    never leave the table."""
    spec, index = model.spec, model.index
    steps = [(node, sign) for node in range(1, spec.nodes + 1) for sign in (1, -1)]
    table = []
    for s in model.states:
        row = {}
        for node, sign in steps:
            t, status = apply_move(spec, s, node, sign)
            row[(node, sign)] = (index[t] if status == MOVE_OK else None, status)
        table.append(row)
    return table


@dataclass(frozen=True)
class _ModelData:
    """The q-independent inputs of the relation families on one model:
    the ladder-move table, the Cartan eigenvalues of each state (by
    ordinal), the measured Cartan matrix and the symmetrizers.  Derived
    from them on construction: the integer Cartan coefficients keyed
    (i, j, sign), per source ordinal H_i(target) - H_i(source) - sign*a_ij
    on a live node-j move and 0 elsewhere."""

    moves: list
    h: list
    cartan: list
    d: list
    cartan_coeffs: dict = field(init=False, repr=False)

    def __post_init__(self):
        moves, a = self.moves, self.cartan
        nodes = len(a)
        # Eigenvalues are integers or half-integers: work with them doubled.
        h2 = [[2 * x for x in hs] for hs in self.h]
        if any(x.denominator != 1 for hs in h2 for x in hs):
            raise VerificationError("Cartan eigenvalue is not a half-integer")
        h2 = [[int(x) for x in hs] for hs in h2]
        coeffs = {}
        for i in range(nodes):
            for j in range(1, nodes + 1):
                for sign in (1, -1):
                    shift2 = 2 * sign * a[i][j - 1]
                    column = []
                    for k, row in enumerate(moves):
                        t, status = row[(j, sign)]
                        c2 = h2[t][i] - h2[k][i] - shift2 if status == MOVE_OK else 0
                        if c2 % 2:
                            raise VerificationError("non-integer Cartan coefficient")
                        column.append(c2 // 2)
                    coeffs[(i + 1, j, sign)] = column
        object.__setattr__(self, "cartan_coeffs", coeffs)


def _model_data(model: CrystalModel) -> _ModelData:
    moves = _move_table(model)
    h = [weight_h(model, s) for s in model.states]
    cartan = cartan_matrix(model, moves, h)
    return _ModelData(moves, h, cartan, symmetrizers(model.spec, cartan))


# -- compiled relation plans ---------------------------------------------------
#
# Every operator a relation word uses is monomial: each state has at most
# one target.  A symbolic step table lists, per source ordinal k, the pair
# (target ordinal, leaf id) of one operator, where a leaf names an entry by
# its kind and the integers its value is computed from, so equal entries
# share one leaf.  Where a ladder move is dead or capped the pair is (move
# status, None), so a walk knows why it stopped.  Walking every word once
# per model turns a family into a straight-line program over its leaves;
# evaluating it at q binds each leaf once and runs the program.

_MUL, _ADD, _SUB, _NEG = range(4)

# The value of the leaf (kind, *args) at q.  Generator and factor entries
# come from the same functions that build the rep matrices; a "finv" leaf
# is the inverse of the "f" leaf with the same arguments.
_LEAF_VALUES = {
    "e": lambda model, q, node, a, b: _e_classical_entry(model, node, a, b),
    "eq": lambda model, q, node, a, b: _e_deformed_entry(model, node, a, b, q),
    "f": lambda model, q, node, a, b: _deform_entry(model, node, a, b, q),
    "cz": lambda _, q, a, b: _cz_entry(a, b, q),
    "one": lambda _, q: Radical.one(),
    "int": lambda _, q, c: Radical.from_rational(c),
    "bracket": lambda _, q, k, d: Radical.from_rational(qint_at(k, q) / qint_at(d, q)),
    "binom": lambda _, q, m, v, d: Radical.from_rational((-1) ** v * qbinom(m, v).eval((q**d,))),
    "comb": lambda _, q, m, v: Radical.from_rational((-1) ** v * math.comb(m, v)),
}


def _term(value: Radical):
    """A single-term value as its integer triple (m, n, d), else itself."""
    if len(value._terms) != 1:
        return value
    ((m, (n, d)),) = value._terms.items()
    return m, n, d


def _radical(value) -> Radical:
    return _wrap({value[0]: (value[1], value[2])}) if value.__class__ is tuple else value


class _Tables:
    """Leaf interning and symbolic step tables while one family compiles."""

    def __init__(self, model: CrystalModel, data: _ModelData):
        self.model, self.data = model, data
        self.leaves = {}
        self.ladders = {}

    def leaf(self, *key) -> int:
        return self.leaves.setdefault(key, len(self.leaves))

    def ladder(self, kind: str, node: int, sign: int) -> list:
        """Step table of a ladder generator.  Its leaves are keyed by the
        factor arguments read on the raising source or the lowering target,
        so raising and lowering share keys; kind "one" is the bare move."""
        table = self.ladders.get((kind, node, sign))
        if table is None:
            table = self.ladders[(kind, node, sign)] = []
            states = self.model.states
            for k, row in enumerate(self.data.moves):
                t, status = row[(node, sign)]
                if status != MOVE_OK:
                    table.append((status, None))
                elif kind == "one":
                    table.append((t, self.leaf(kind)))
                else:
                    args = _factor_args(self.model, node, states[k] if sign > 0 else states[t])
                    table.append((t, self.leaf(kind, node, *args)))
        return table

    def diagonal(self, kind: str, node: int) -> list:
        """Step table of a deforming factor (kind "f") or its inverse ("finv")."""
        args = (_factor_args(self.model, node, s) for s in self.model.states)
        return [(k, self.leaf(kind, node, *ab)) for k, ab in enumerate(args)]


@dataclass
class _Component:
    """One identity inside a relation family, as a weighted sum of words.

    ``terms`` are (sign, scale, word) triples: the walk of the word (step
    tables in application order) is multiplied by the ``scale`` leaf, if
    any, then added (sign 1) or subtracted (sign -1).  A scale is one leaf
    id or a list of them by source ordinal, None where the coefficient is
    0 (the Cartan integers, all 0 on a correct model).  ``minus_diag``
    lists per-state leaves subtracted at the source.  ``words`` are the
    ladder moves of the words (application order), which name the
    component's paths in FAIL traces.  Every word of a component shifts
    the labels by one vector, so the residual at a state has at most one
    target."""

    label: str
    terms: tuple = ()
    words: tuple[tuple[tuple[int, int], ...], ...] = ()
    minus_diag: list | None = None


@dataclass
class _Program:
    """One family compiled on one model.  Node ids below len(leaves) are
    the leaves (keys by id); op i, the flat triple (code, a, b) at 3i in
    ``ops``, defines node len(leaves) + i from earlier nodes.  Per
    (component, state), component-major: the target ordinal (-1 for
    none), the residual's node (-1 when no word survives) and whether a
    word stopped at the cap."""

    labels: list
    words: list
    leaves: list
    ops: array
    targets: array
    exprs: array
    capped: bytearray


def _compile(model: CrystalModel, data: _ModelData, family: str) -> _Program:
    """Walk every word of every component from every state over symbolic
    step tables, interning products and sums into one program."""
    tables = _Tables(model, data)
    components = _COMPONENTS[family](model, data, tables)
    base = len(tables.leaves)
    ops = array("i")
    nodes = {}

    def op(code: int, a: int, b: int = 0) -> int:
        key = (a << 32 | b) << 2 | code
        node = nodes.get(key)
        if node is None:
            node = nodes[key] = base + len(ops) // 3
            ops.extend((code, a, b))
        return node

    targets, exprs, capped = array("i"), array("i"), bytearray()
    for comp in components:
        for k in range(model.dim):
            target, acc, cap = None, None, False
            for sign, scale, word in comp.terms:
                t, val = k, None
                for table in word:
                    t, leaf = table[t]
                    if leaf is None:
                        cap = cap or t == MOVE_CAPPED
                        break
                    # later steps multiply on the left
                    val = leaf if val is None else op(_MUL, leaf, val)
                else:
                    if target is None:
                        target = t
                    elif t != target:
                        raise VerificationError(f"{comp.label}: words reach two targets")
                    if scale is not None:
                        s = scale[k] if isinstance(scale, list) else scale
                        if s is None:
                            continue
                        val = op(_MUL, val, s)
                    if acc is None:
                        acc = val if sign > 0 else op(_NEG, val)
                    else:
                        acc = op(_ADD if sign > 0 else _SUB, acc, val)
            if comp.minus_diag is not None:
                if target not in (None, k):
                    raise VerificationError(f"{comp.label}: diagonal term off the word target")
                target, d = k, comp.minus_diag[k]
                acc = op(_NEG, d) if acc is None else op(_SUB, acc, d)
            targets.append(-1 if target is None else target)
            exprs.append(-1 if acc is None else acc)
            capped.append(cap)
    # Flag the last read of every node that is not a residual (4: operand a,
    # 8: operand b), so a run drops each value as soon as it is spent.
    nodes.clear()
    read = bytearray(base + len(ops) // 3)
    for e in set(exprs) - {-1}:
        read[e] = 1
    for i in range(len(ops) - 3, -1, -3):
        for bit, node in ((4, ops[i + 1]), (8, ops[i + 2])):
            if not read[node] and (bit == 4 or ops[i] != _NEG):
                read[node] = 1
                ops[i] |= bit
    labels, words = [c.label for c in components], [c.words for c in components]
    return _Program(labels, words, list(tables.leaves), ops, targets, exprs, capped)


def _run(ops: array, vals: list) -> list:
    """Append the value of every op to ``vals`` (the leaf values).  Products
    of single terms run on integer triples, as Radical's single-term product
    does; sums run on Radicals in term order, so merges are unchanged."""
    push = vals.append
    it = iter(ops)
    for code, a, b in zip(it, it, it):
        x = vals[a]
        kind = code & 3
        if kind == _MUL:
            y = vals[b]
            if x.__class__ is tuple and y.__class__ is tuple:
                push(_mul_term(*x, *y))
            else:
                push(_radical(x) * _radical(y))
        elif kind == _NEG:
            push(-_radical(x))
        elif kind == _ADD:
            push(_radical(x) + _radical(vals[b]))
        else:
            push(_radical(x) - _radical(vals[b]))
        if code > 3:
            if code & 4:
                vals[a] = None
            if code & 8:
                vals[b] = None
    return vals


class _Plan:
    """The relation families of one model, each compiled once on first use
    and evaluated per q.  Leaf values are kept for one q at a time, node
    values only while one family at one q is assembled."""

    def __init__(self, model: CrystalModel, data: _ModelData | None = None):
        self.model = model
        self.data = _model_data(model) if data is None else data
        self.programs = {}
        self._q, self._leaf_values = None, {}

    def program(self, family: str) -> _Program:
        if family not in self.programs:
            self.programs[family] = _compile(self.model, self.data, family)
        return self.programs[family]

    def _leaf(self, key: tuple):
        val = self._leaf_values.get(key)
        if val is None:
            if key[0] == "finv":
                val = _radical(self._leaf(("f",) + key[1:])).inverse()
            else:
                val = _LEAF_VALUES[key[0]](self.model, self._q, *key[1:])
            val = self._leaf_values[key] = _term(val)
        return val

    def evaluate(self, prog: _Program, q: Fraction) -> list:
        """Node values of ``prog`` at q, where every residual node holds a
        nonzero Radical or None and spent nodes hold None."""
        if q != self._q:
            self._q, self._leaf_values = q, {}
        vals = _run(prog.ops, [self._leaf(key) for key in prog.leaves])
        for e in set(prog.exprs) - {-1}:
            vals[e] = _radical(vals[e]) or None
        return vals


def _word_trace(model: CrystalModel, moves: list, k: int, word) -> str:
    bits = [str(model.states[k])]
    for move in word:
        k, status = moves[k][move]
        if status != MOVE_OK:
            bits.append("0" if status == MOVE_DEAD else "cap")
            break
        bits.append(str(model.states[k]))
    return "->".join(bits)


def _assemble(family: str, model: CrystalModel, q, margin: int, plan) -> RelationReport:
    q = ensure_positive_q(q)
    relation_id = "serre-deformed" if family == "serre" else family
    if plan is None:
        plan = _Plan(model)
    prog = plan.program(family)
    vals = plan.evaluate(prog, q)
    moves, dim = plan.data.moves, model.dim
    exprs, capped = prog.exprs, prog.capped
    report = RelationReport(relation_id=relation_id, carrier=model.spec.describe(), q=q)
    for k, s in enumerate(model.states):
        in_margin = boundary_class(model, s, margin) == CAP_MARGIN
        any_boundary = False
        any_fail = False
        all_zero = True
        for c, (label, words) in enumerate(zip(prog.labels, prog.words)):
            i = c * dim + k
            e = exprs[i]
            val = vals[e] if e >= 0 else None
            if val is not None:
                all_zero = False
            # A capped word excuses the state only inside the margin.
            if in_margin and capped[i]:
                any_boundary = True
            elif val is not None:
                any_fail = True
                traces = "; ".join(_word_trace(model, moves, k, w) for w in words)
                t = model.states[prog.targets[i]]
                report.failures.append(
                    {
                        "state": list(s),
                        "word": f"{label} [{traces}] -> {list(t)}",
                        "residual": val.json_map(),
                    }
                )
        klass = FAIL if any_fail else (BOUNDARY if any_boundary else PASS)
        report.per_state.append(StateResult(s, all_zero, klass))
    return report


# -- relation families ---------------------------------------------------------
#
# Each family lists its components over the symbolic step tables.  The
# public check_* functions take the compiled plan of the model as the
# optional keyword ``plan``: run_suite builds one per run and passes it to
# every family at every q; a standalone call compiles its own.


def _cartan_components(model: CrystalModel, data: _ModelData, tables: _Tables) -> list:
    a = data.cartan
    nodes = model.spec.nodes
    components = []
    for i in range(1, nodes + 1):
        for j in range(i + 1, nodes + 1):
            components.append(_Component(f"[h{i},h{j}]"))
    for i in range(1, nodes + 1):
        for j in range(1, nodes + 1):
            for sign, tag in ((1, "+"), (-1, "-")):
                shift = sign * a[i - 1][j - 1]
                column = data.cartan_coeffs[(i, j, sign)]
                coeffs = [tables.leaf("int", c) if c else None for c in column]
                components.append(
                    _Component(
                        f"[h{i},e{tag}{j}]-({shift})e{tag}{j}",
                        ((1, coeffs, (tables.ladder("eq", j, sign),)),),
                        (((j, sign),),),
                    )
                )
    return components


def check_cartan(
    model: CrystalModel, q, margin: int = DEFAULT_MARGIN, *, plan=None
) -> RelationReport:
    """[h_i, h_j] = 0 and [h_i, e_j^+-] = +-a e_j^+- with the Cartan
    integers recomputed from the crystal weight shifts.  With H_i diagonal
    the residual entry (s, t) is (H_i(t) - H_i(s) -+ a_ij) e_j^+-(s, t), an
    integer multiple of the generator entry read from the weights (the
    integers are built once per model), so [h_i, h_j] vanishes identically
    and is recorded without words."""
    return _assemble("cartan", model, q, margin, plan)


def _bracket_h_diag(tables: _Tables, h: list, i: int, d: int) -> list:
    """Leaves of [H_i] in base q^d per state ordinal, from the weights
    ``h``.  With k = d * H_i an integer the value is [k]_q / [d]_q, which
    is exact and regular at q = 1."""
    leaves = []
    for hs in h:
        hd = hs[i - 1] * d
        if hd.denominator != 1:
            raise VerificationError("scaled Cartan eigenvalue is not integral")
        leaves.append(tables.leaf("bracket", int(hd), d))
    return leaves


def _ladder_components(model: CrystalModel, data: _ModelData, tables: _Tables) -> list:
    nodes = model.spec.nodes
    components = []
    for i in range(1, nodes + 1):
        for j in range(1, nodes + 1):
            words = (((j, -1), (i, 1)), ((i, 1), (j, -1)))
            terms = tuple(
                (sign, None, tuple(tables.ladder("eq", *move) for move in word))
                for sign, word in zip((1, -1), words)
            )
            label = f"[e+{i},e-{j}]" + (f"-[H{i}]_qi" if i == j else "")
            diag = _bracket_h_diag(tables, data.h, i, data.d[i - 1]) if i == j else None
            components.append(_Component(label, terms, words, diag))
    return components


def check_ladder(
    model: CrystalModel, q, margin: int = DEFAULT_MARGIN, *, plan=None
) -> RelationReport:
    """[e_i^+, e_j^-] = delta_ij [H_i] in base q^(d_i) (so the long type C
    node uses base q^2, where the half-integer H_n still gives an exact
    rational bracket)."""
    return _assemble("ladder", model, q, margin, plan)


def _serre_components(
    model: CrystalModel, data: _ModelData, tables: _Tables, deformed: bool
) -> list:
    a, d = data.cartan, data.d
    nodes = model.spec.nodes
    kind = "eq" if deformed else "e"
    components = []
    for i in range(1, nodes + 1):
        for j in range(1, nodes + 1):
            if i == j:
                continue
            m = 1 - a[i - 1][j - 1]
            if m < 1:
                raise VerificationError("off-diagonal Cartan entry must be <= 0")
            # The end binomials are 1; the inner ones exceed 1 at every q > 0.
            coeffs = [(1, None)]
            for v in range(1, m):
                key = ("binom", m, v, d[i - 1]) if deformed else ("comb", m, v)
                coeffs.append((1, tables.leaf(*key)))
            coeffs.append(((-1) ** m, None))
            for sign, tag in ((1, "+"), (-1, "-")):
                x, y = (i, sign), (j, sign)
                words = tuple((x,) * v + (y,) + (x,) * (m - v) for v in range(m + 1))
                terms = tuple(
                    (s, scale, tuple(tables.ladder(kind, *mv) for mv in word))
                    for (s, scale), word in zip(coeffs, words)
                )
                base = f"q^{d[i - 1]}" if deformed else "1"
                label = f"serre(e{tag}{i};e{tag}{j}) len={m} binom_base={base}"
                components.append(_Component(label, terms, words))
    return components


def check_serre(
    model: CrystalModel, q, deformed: bool = True, margin: int = DEFAULT_MARGIN, *, plan=None
) -> RelationReport:
    """Serre relations for every ordered node pair, built from the
    measured Cartan matrix: sum_v (-1)^v B(1-a_ij, v) x^(1-a_ij-v) y x^v
    with x = e_i, y = e_j, and B the q^(d_i)-binomial (deformed) or the
    ordinary binomial (classical).  Each term is one word."""
    return _assemble("serre" if deformed else "serre-classical", model, q, margin, plan)


def _map_components(model: CrystalModel, data: _ModelData, tables: _Tables) -> list:
    rows = []  # (label, word added, word subtracted, ladder moves of the words)
    for node in range(1, model.spec.nodes + 1):
        fac, inv = tables.diagonal("f", node), tables.diagonal("finv", node)
        ep, em = tables.ladder("e", node, 1), tables.ladder("e", node, -1)
        dp, dm = tables.ladder("eq", node, 1), tables.ladder("eq", node, -1)
        up, down = (((node, 1),),), (((node, -1),),)
        rows.extend(
            [
                (f"E+{node}*F-e+{node}", (fac, ep), (dp,), up),
                (f"F*E-{node}-e-{node}", (em, fac), (dm,), down),
                (f"e+{node}*Finv-E+{node}", (inv, dp), (ep,), up),
                (f"Finv*e-{node}-E-{node}", (dm, inv), (em,), down),
            ]
        )
    if model.spec.algebra_type == TYPE_A and model.spec.n == 2:
        # The weight variant of the rank-one functional, and its node
        # variant, which is the node-1 factor.
        d2 = [(k, tables.leaf("cz", l1, -(l2 + 1))) for k, (l1, l2) in enumerate(model.states)]
        d1, hat = tables.diagonal("f", 1), tables.ladder("one", 1, 1)
        jp, dp = tables.ladder("e", 1, 1), tables.ladder("eq", 1, 1)
        rows.append(("cz_weight*j+-e+1", (jp, d2), (dp,), (((1, 1),),)))
        rows.append(("cz_weight(image)-cz_node(source)", (hat, d2), (d1, hat), (((1, 1),),)))
    return [
        _Component(label, ((1, None, plus), (-1, None, minus)), words)
        for label, plus, minus, words in rows
    ]


def check_map(
    model: CrystalModel, q, margin: int = DEFAULT_MARGIN, *, plan=None
) -> RelationReport:
    """Entrywise dressing-map identities: classical * factor = deformed on
    every node, the partial-inverse roundtrip back to the classical
    generators, and for rank-one type A additionally the weight-diagonal
    dressing route and its agreement with the node factor.  Each deforming
    factor entry and its inverse are computed once per q."""
    return _assemble("map", model, q, margin, plan)


_COMPONENTS = {
    "cartan": _cartan_components,
    "ladder": _ladder_components,
    "serre": lambda model, data, tables: _serre_components(model, data, tables, True),
    "serre-classical": lambda model, data, tables: _serre_components(model, data, tables, False),
    "map": _map_components,
}


# -- suite ---------------------------------------------------------------------


@dataclass(frozen=True)
class SuiteConfig:
    algebra_type: str
    n: int
    lam: int
    cap: int | None = None
    margin: int = DEFAULT_MARGIN
    q_list: tuple[Fraction, ...] = DEFAULT_Q_LIST
    families: tuple[str, ...] = DEFAULT_FAMILIES

    def spec(self) -> CrystalSpec:
        return CrystalSpec(self.algebra_type, self.n, self.lam, self.cap)

    def describe(self) -> dict:
        return {
            "algebra_type": self.algebra_type,
            "n": self.n,
            "lambda": self.lam,
            "cap": self.cap,
            "margin": self.margin,
            "q_list": [str(v) for v in self.q_list],
            "families": list(self.families),
        }


def _parse_q(text) -> Fraction:
    try:
        q = Fraction(str(text))
    except (ValueError, ZeroDivisionError) as exc:
        raise ConfigError(f"cannot parse rational {text!r}: {exc}") from None
    if q <= 0:
        raise ConfigError(f"q must be positive, got {text!r}")
    return q


_REQUIRED = object()


def _config_int(data: dict, key: str, default=_REQUIRED):
    """The integer under ``key``, or ``default`` when the key is absent (a
    null counts as absent where the default is None).  Only a real int is
    accepted: 3.7, "3" and true are refused rather than truncated."""
    if key not in data or (data[key] is None and default is None):
        if default is _REQUIRED:
            raise ConfigError(f"missing config key: {key!r}")
        return default
    value = data[key]
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"config key {key!r} must be an integer, got {value!r}")
    return value


def _config_list(data: dict, key: str, default) -> list:
    """The list under ``key``, given as a JSON list or a comma string."""
    value = data.get(key, default)
    if isinstance(value, str):
        return value.split(",")
    if not isinstance(value, (list, tuple)):
        raise ConfigError(f"config key {key!r} must be a list or a comma string")
    return list(value)


def load_config(data) -> SuiteConfig:
    """Build a SuiteConfig from a mapping or a JSON file path; malformed
    input raises ConfigError with location diagnostics where available."""
    if isinstance(data, (str, os.PathLike)):
        try:
            with open(data, "r", encoding="utf-8") as fh:
                data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(
                f"invalid JSON in {data}: line {exc.lineno} column {exc.colno}: {exc.msg}"
            ) from None
        except OSError as exc:
            raise ConfigError(f"cannot read config: {exc}") from None
    if not isinstance(data, dict):
        raise ConfigError("config must be a JSON object")
    known = {"type", "n", "lambda", "cap", "margin", "q", "families"}
    unknown = set(data) - known
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    if "type" not in data:
        raise ConfigError("missing config key: 'type'")
    algebra_type = str(data["type"])
    n = _config_int(data, "n")
    lam = _config_int(data, "lambda")
    cap = _config_int(data, "cap", None)
    if cap is None and algebra_type == TYPE_C:
        cap = lam + 10
    margin = _config_int(data, "margin", DEFAULT_MARGIN)
    if margin < 0:
        raise ConfigError("margin must be non-negative")
    q_list = tuple(_parse_q(v) for v in _config_list(data, "q", DEFAULT_Q_LIST))
    if not q_list:
        raise ConfigError("at least one q value is required")
    families = tuple(_config_list(data, "families", DEFAULT_FAMILIES))
    for fam in families:
        if fam not in KNOWN_FAMILIES:
            raise ConfigError(
                f"unknown relation family {fam!r}; known: {list(KNOWN_FAMILIES)}"
            )
    # A repeat would print every report twice and count it twice.
    for key, values in (("q", q_list), ("families", families)):
        repeated = [str(v) for i, v in enumerate(values) if v in values[:i]]
        if repeated:
            raise ConfigError(f"config key {key!r} repeats {repeated[0]!r}")
    cfg = SuiteConfig(algebra_type, n, lam, cap, margin, q_list, families)
    try:
        cfg.spec()
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    return cfg


@dataclass
class SuiteResult:
    config: SuiteConfig
    reports: list[RelationReport] = field(default_factory=list)

    @property
    def exit_code(self) -> int:
        return 0 if all(r.all_clear for r in self.reports) else 1

    @property
    def totals(self) -> dict[str, int]:
        out = {"pass": 0, "fail": 0, "boundary": 0}
        for r in self.reports:
            for key, val in r.summary.items():
                out[key] += val
        return out

    def to_json_obj(self) -> dict:
        return {
            "config": self.config.describe(),
            "reports": [r.to_json_dict() for r in self.reports],
            "totals": self.totals,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_obj(), sort_keys=True, indent=2) + "\n"


_FAMILY_RUNNERS = {
    "cartan": lambda model, q, margin, plan: check_cartan(model, q, margin, plan=plan),
    "ladder": lambda model, q, margin, plan: check_ladder(model, q, margin, plan=plan),
    "serre": lambda model, q, margin, plan: check_serre(model, q, True, margin, plan=plan),
    "serre-classical": lambda model, q, margin, plan: check_serre(
        model, q, False, margin, plan=plan
    ),
    "map": lambda model, q, margin, plan: check_map(model, q, margin, plan=plan),
}


def run_suite(config: SuiteConfig) -> SuiteResult:
    """Run every configured relation family at every configured q,
    deterministically: report order is (q, family) in the configured
    order, and the JSON rendering is byte-stable across runs.

    The model's relation plan is built once: its move table and Cartan
    data, and each family's program, compiled at the family's first q.
    Every q then binds the plan's leaves once and evaluates one family at
    a time."""
    model = build_model(config.spec())
    plan = _Plan(model)
    reports = [
        _FAMILY_RUNNERS[fam](model, q, config.margin, plan)
        for q in config.q_list
        for fam in config.families
    ]
    return SuiteResult(config=config, reports=reports)
