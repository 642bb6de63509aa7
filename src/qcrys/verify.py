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
not depend on q, so each model gets one plan, built once: its move
table, its Cartan data read off the integer doubled eigenvalues 2H_i,
one namespace of entry keys with step tables shared by every family, and
each requested family compiled into a straight-line program over those
keys, after which the step tables are dropped.  Per q the plan only
binds, runs and classifies: each q binds every key once, and the
programs run on integer triples (m, n, d) for (n/d)*sqrt(m): sums and
products of single terms stay triples, and only multi-term values or
sums of two radicands go through Radical.

A family is evaluated once per distinct binding of its keys, found by
exact comparison with the bindings of the earlier q of the plan; a match
reuses that q's per-state results and FAIL records.  The balanced
q-brackets bind equal keys at q and 1/q, and serre-classical binds no q,
so it runs once per suite.  Sparse operator products (LinOp) are not
used here; the tests rebuild every relation with them as the
reference."""

from __future__ import annotations

import copy
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
    apply_delta,
    boundary_class,
    build_model,
    move_delta,
    resolve_cap,
    weight_h2,
)
from .rep import (
    _deform_entry,
    _e_classical_entry,
    _e_deformed_entry,
    _factor_args,
    _is_long_node,
)
from .report import BOUNDARY, FAIL, PASS, RelationReport, StateResult
from .scalar import (
    Radical,
    _lowest,
    _mul_term,
    _qbinom_pair,
    _qint_pair,
    _radical,
    _sum,
    _term,
    _wrap,
    ensure_positive_q,
)

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


def cartan_matrix(model: CrystalModel) -> list[list[int]]:
    """Cartan integers measured from the crystal weight shifts: entry
    (i, j) is the shift of the H_i eigenvalue under the node-j raising
    move.  Every state admitting the move must report the same shift, and
    the result must agree with the reference matrix; disagreement is an
    engine error, not a relation failure (see _model_data)."""
    return _model_data(model)[1]


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
    deltas = {
        (node, sign): move_delta(spec, node, sign)
        for node in range(1, spec.nodes + 1)
        for sign in (1, -1)
    }
    table = []
    for s in model.states:
        row = {}
        for step, delta in deltas.items():
            t, status = apply_delta(spec, s, delta)
            row[step] = (index[t] if status == MOVE_OK else None, status)
        table.append(row)
    return table


def _half(x2: int, what: str) -> int:
    """Half of a doubled value that must be even."""
    if x2 % 2:
        raise VerificationError(f"{what} is not an integer: {x2}/2")
    return x2 // 2


def _model_data(model: CrystalModel) -> tuple:
    """The q-independent integers of the relation families on one model,
    read off the doubled Cartan eigenvalues 2H_i (weight_h2) of its states:
    the move table, the measured Cartan matrix, the symmetrizers, the
    Cartan coefficients keyed (i, j, sign), per source ordinal
    H_i(target) - H_i(source) - sign*a_ij on a live node-j move and 0
    elsewhere, and per node i the [H_i] bracket arguments d_i*H_i by
    ordinal.  Inconsistent weight shifts, a measured matrix other than the
    reference one, and an odd doubled value where one is halved are
    engine errors."""
    spec, nodes = model.spec, model.spec.nodes
    moves = _move_table(model)
    h2 = [weight_h2(model, s) for s in model.states]
    shifts = {}  # (j, sign) -> per ordinal, the H shift of the live move or None
    for j in range(1, nodes + 1):
        for sign in (1, -1):
            column = shifts[(j, sign)] = []
            for k, row in enumerate(moves):
                t, status = row[(j, sign)]
                if status != MOVE_OK:
                    column.append(None)
                    continue
                hs, ht = h2[k], h2[t]
                column.append(
                    tuple(_half(ht[i] - hs[i], "Cartan eigenvalue shift") for i in range(nodes))
                )
    expected = expected_cartan(spec)
    cartan = [row[:] for row in expected]
    for j in range(1, nodes + 1):
        # Where no state admits the move (trivial representations), the
        # reference column stands.
        measured = set(shifts[(j, 1)]) - {None}
        if len(measured) > 1:
            raise VerificationError(f"inconsistent weight shifts for node {j}")
        for shift in measured:
            for i in range(nodes):
                cartan[i][j - 1] = shift[i]
    if cartan != expected:
        raise VerificationError(
            f"measured Cartan matrix {cartan} differs from expected {expected}"
        )
    d = symmetrizers(spec, cartan)
    coeffs = {
        (i + 1, j, sign): [0 if x is None else x[i] - sign * cartan[i][j - 1] for x in column]
        for (j, sign), column in shifts.items()
        for i in range(nodes)
    }
    brackets = [
        [_half(hs[i] * d[i], "scaled Cartan eigenvalue") for hs in h2] for i in range(nodes)
    ]
    return moves, cartan, d, coeffs, brackets


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
# come from the same functions that build the rep matrices.  The kinds in
# _Q_FREE do not read q, so a plan binds them once.
_LEAF_VALUES = {
    "e": lambda model, q, node, a, b: _e_classical_entry(model, node, a, b),
    "eq": lambda model, q, node, a, b: _e_deformed_entry(model, node, a, b, q),
    "f": lambda model, q, node, a, b: _deform_entry(a, b, q, _is_long_node(model, node)),
    "finv": lambda m, q, node, a, b: _deform_entry(a, b, q, _is_long_node(m, node)).inverse(),
    "cz": lambda _, q, a, b: _deform_entry(a, b, q),
    "one": lambda _, q: Radical.one(),
    "int": lambda _, q, c: Radical.from_rational(c),
    "bracket": lambda _, q, k, d: _bracket(k, d, q),
    "binom": lambda _, q, m, v, d: _binom(m, v, d, q),
    "comb": lambda _, q, m, v: Radical.from_rational((-1) ** v * math.comb(m, v)),
}

_Q_FREE = frozenset(("e", "one", "int", "comb"))


def _bracket(k: int, d: int, q: Fraction) -> Radical:
    """[k]_q / [d]_q (d != 0), from the integer pairs of the q-integers."""
    a, b = q.numerator, q.denominator
    (n1, d1), (n2, d2) = _qint_pair(k, a, b), _qint_pair(d, a, b)
    return _wrap({1: _lowest(n1 * d2, d1 * n2)} if n1 else {})


def _binom(m: int, v: int, d: int, q: Fraction) -> Radical:
    """(-1)^v times the balanced q-binomial [m choose v] at base q^d."""
    n, den = _qbinom_pair(m, v, q.numerator**d, q.denominator**d)
    return _wrap({1: (-n if v % 2 else n, den)})


# The value every cancelled sum of single terms evaluates to.
_ZERO = Radical.zero()


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
    """One family compiled on one model.  Node ids below ``base`` are the
    plan's leaf ids (the family reads those in ``leaves``); op i, the flat
    triple (code, a, b) at 3i in ``ops``, defines node base + i from
    earlier nodes.  Per (component, state), component-major: the target
    ordinal (-1 for none), the residual's node (-1 when no word survives)
    and whether a word stopped at the cap.  ``residuals`` are the distinct
    residual nodes."""

    labels: list
    words: list
    base: int
    leaves: list
    ops: array
    targets: array
    exprs: array
    residuals: array
    capped: bytearray


def _run(ops: array, vals: list) -> list:
    """Append the value of every op to ``vals`` (the leaf values).  Single
    terms run on integer triples through scalar's single-term kernel:
    products with _mul_term, sums and differences of one radicand with
    _sum, a cancelled sum as the shared zero.  Anything else (multi-term
    values, a sum of two radicands that may share a square class) runs on
    Radicals."""
    push = vals.append
    it = iter(ops)
    for code, a, b in zip(it, it, it):
        x = vals[a]
        kind = code & 3
        if kind == _NEG:
            push((x[0], -x[1], x[2]) if x.__class__ is tuple else -x)
        else:
            y = vals[b]
            single = x.__class__ is tuple and y.__class__ is tuple
            if single and kind == _MUL:
                push(_mul_term(*x, *y))
            elif single and x[0] == y[0]:
                n, d = _sum(x[1], x[2], y[1] if kind == _ADD else -y[1], y[2])
                push((x[0], n, d) if n else _ZERO)
            elif kind == _MUL:
                push(_term(_radical(x) * _radical(y)))
            elif kind == _ADD:
                push(_term(_radical(x) + _radical(y)))
            else:
                push(_term(_radical(x) - _radical(y)))
        if code > 3:
            if code & 4:
                vals[a] = None
            if code & 8:
                vals[b] = None
    return vals


def _evaluate(prog: _Program, values: list) -> list:
    """Node values of ``prog`` over a copy of the plan's leaf values, where
    every residual node holds a nonzero Radical or None and spent nodes
    hold None."""
    vals = _run(prog.ops, values[: prog.base])
    for e in prog.residuals:
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


class _Plan:
    """The relation families of one model, compiled over one leaf
    namespace.  Construction builds the move table and Cartan data, the
    symbolic step tables and the program of every family in ``families``,
    then drops the step tables and factor arguments, which only compiling
    reads; the leaf namespace stays for binding.  Per q a family is only
    bound, run and classified.  Leaf values are kept for one q at a time,
    node values only while one family at one q is evaluated.  Each
    evaluated outcome (per-state results and FAIL records) is kept with
    the leaf binding it came from, so a later q whose binding of the
    family's leaves is equal reuses it: every leaf value is an integer
    triple or the zero Radical, so == compares how values are written."""

    def __init__(self, model: CrystalModel, families):
        self.model = model
        self.moves, self.cartan, self.d, self._coeffs, self._brackets = _model_data(model)
        self.keys = []  # leaf id -> key
        self.ids = {}  # key -> leaf id
        self._steps, self._args = {}, {}
        self.programs = {family: self._compile(family) for family in families}
        del self._steps, self._args, self._coeffs, self._brackets
        self._q, self._values = None, [None] * len(self.keys)
        self._outcomes = {}  # (family, margin) -> [(binding, per_state, failures)]
        self._clean = {}  # (family, margin) -> per_state when no residual survives
        self._in_margin = {}  # margin -> per-ordinal flags

    def leaf(self, *key) -> int:
        leaf = self.ids.get(key)
        if leaf is None:
            leaf = self.ids[key] = len(self.keys)
            self.keys.append(key)
        return leaf

    def factor_args(self, node: int) -> list:
        args = self._args.get(node)
        if args is None:
            args = self._args[node] = [_factor_args(self.model, node, s) for s in self.model.states]
        return args

    def ladder(self, kind: str, node: int, sign: int) -> list:
        """Step table of a ladder generator.  Its leaves are keyed by the
        factor arguments read on the raising source or the lowering target,
        so raising and lowering share keys; kind "one" is the bare move."""
        table = self._steps.get((kind, node, sign))
        if table is None:
            table = self._steps[(kind, node, sign)] = []
            args = self.factor_args(node) if kind != "one" else None
            for k, row in enumerate(self.moves):
                t, status = row[(node, sign)]
                if status != MOVE_OK:
                    table.append((status, None))
                elif kind == "one":
                    table.append((t, self.leaf(kind)))
                else:
                    table.append((t, self.leaf(kind, node, *args[k if sign > 0 else t])))
        return table

    def diagonal(self, kind: str, node: int) -> list:
        """Step table of a deforming factor (kind "f") or its inverse ("finv")."""
        table = self._steps.get((kind, node, 0))
        if table is None:
            table = self._steps[(kind, node, 0)] = [
                (k, self.leaf(kind, node, *ab)) for k, ab in enumerate(self.factor_args(node))
            ]
        return table

    def _compile(self, family: str) -> _Program:
        """Walk every word of every component from every state over the
        step tables, interning products and sums into one program."""
        dim = self.model.dim
        components = _FAMILIES[family][1](self)
        base = len(self.keys)
        ops = array("i")
        nodes = {}

        def op(code: int, a: int, b: int) -> int:
            key = (a << 32 | b) << 2 | code
            node = nodes.get(key)
            if node is None:
                node = nodes[key] = base + len(ops) // 3
                ops.extend((code, a, b))
            return node

        targets, exprs, capped = array("i"), array("i"), bytearray()
        for comp in components:
            for k in range(dim):
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
                            # a negation reads its operand twice, so every b is a node
                            acc = val if sign > 0 else op(_NEG, val, val)
                        else:
                            acc = op(_ADD if sign > 0 else _SUB, acc, val)
                if comp.minus_diag is not None:
                    if target not in (None, k):
                        raise VerificationError(f"{comp.label}: diagonal term off the word target")
                    target, d = k, comp.minus_diag[k]
                    acc = op(_NEG, d, d) if acc is None else op(_SUB, acc, d)
                targets.append(-1 if target is None else target)
                exprs.append(-1 if acc is None else acc)
                capped.append(cap)
        nodes.clear()
        residuals = array("i", sorted(set(exprs) - {-1}))
        # Flag the last read of every node that is not a residual (4: operand
        # a, 8: operand b), so a run drops each value as soon as it is spent.
        read = bytearray(base + len(ops) // 3)
        for e in residuals:
            read[e] = 1
        for i in range(len(ops) - 3, -1, -3):
            a, b = ops[i + 1], ops[i + 2]
            if not read[a]:
                read[a] = 1
                ops[i] |= 4
            if not read[b]:
                read[b] = 1
                ops[i] |= 8
        leaves = [g for g in range(base) if read[g]]
        labels, words = [c.label for c in components], [c.words for c in components]
        return _Program(labels, words, base, leaves, ops, targets, exprs, residuals, capped)

    def _leaf(self, key: tuple):
        """The value of the leaf ``key`` at the q of the last binding."""
        leaf = self.ids[key]
        val = self._values[leaf]
        if val is None:
            val = self._values[leaf] = _term(_LEAF_VALUES[key[0]](self.model, self._q, *key[1:]))
        return val

    def bind(self, prog: _Program, q: Fraction) -> list:
        """The values of ``prog``'s leaves at q.  Every leaf of the plan is
        bound at most once per q, and one whose kind takes no q once."""
        keys = self.keys
        if q != self._q:
            self._q = q
            self._values = [
                v if v is not None and keys[g][0] in _Q_FREE else None
                for g, v in enumerate(self._values)
            ]
        values = self._values
        return [values[g] if values[g] is not None else self._leaf(keys[g]) for g in prog.leaves]

    def report(self, family: str, q, margin: int) -> RelationReport:
        """The report of ``family`` at q: its per-state results and FAIL
        records, evaluated unless an earlier q bound the same leaves."""
        q = ensure_positive_q(q)
        prog = self.programs[family]
        binding = self.bind(prog, q)
        seen = self._outcomes.setdefault((family, margin), [])
        for old, per_state, failures in seen:
            if old == binding:
                break
        else:
            vals = _evaluate(prog, self._values)
            if any(vals[e] is not None for e in prog.residuals):
                per_state, failures = self._classify(prog, vals, margin)
            else:
                per_state, failures = self._clean_states(family, prog, margin), []
            seen.append((binding, per_state, failures))
        relation_id = _FAMILIES[family][0]
        return RelationReport(
            relation_id, self.model.spec.describe(), q, list(per_state), copy.deepcopy(failures)
        )

    def _margin(self, margin: int) -> list:
        flags = self._in_margin.get(margin)
        if flags is None:
            model = self.model
            flags = self._in_margin[margin] = [
                boundary_class(model, s, margin) == CAP_MARGIN for s in model.states
            ]
        return flags

    def _clean_states(self, family: str, prog: _Program, margin: int) -> list:
        """Per-state results when every residual vanishes: BOUNDARY where a
        word stopped at the cap inside the margin, PASS elsewhere."""
        key = (family, margin)
        states = self._clean.get(key)
        if states is None:
            dim, capped, in_margin = self.model.dim, prog.capped, self._margin(margin)
            states = self._clean[key] = [
                StateResult(s, True, BOUNDARY if in_margin[k] and any(capped[k::dim]) else PASS)
                for k, s in enumerate(self.model.states)
            ]
        return states

    def _classify(self, prog: _Program, vals: list, margin: int) -> tuple[list, list]:
        model, moves, dim = self.model, self.moves, self.model.dim
        exprs, capped, in_margin = prog.exprs, prog.capped, self._margin(margin)
        per_state, failures = [], []
        for k, s in enumerate(model.states):
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
                if in_margin[k] and capped[i]:
                    any_boundary = True
                elif val is not None:
                    any_fail = True
                    traces = "; ".join(_word_trace(model, moves, k, w) for w in words)
                    t = model.states[prog.targets[i]]
                    failures.append(
                        {
                            "state": list(s),
                            "word": f"{label} [{traces}] -> {list(t)}",
                            "residual": val.json_map(),
                        }
                    )
            klass = FAIL if any_fail else (BOUNDARY if any_boundary else PASS)
            per_state.append(StateResult(s, all_zero, klass))
        return per_state, failures


# -- relation families ---------------------------------------------------------
#
# Each family lists its components over the plan's step tables.  The
# public check_* functions take the plan of the model as the optional
# keyword ``plan``: run_suite builds one per run with every configured
# family and passes it to every family at every q; a standalone call
# builds one for its own family.


def _cartan_components(plan: _Plan) -> list:
    a = plan.cartan
    nodes = plan.model.spec.nodes
    components = []
    for i in range(1, nodes + 1):
        for j in range(i + 1, nodes + 1):
            components.append(_Component(f"[h{i},h{j}]"))
    for i in range(1, nodes + 1):
        for j in range(1, nodes + 1):
            for sign, tag in ((1, "+"), (-1, "-")):
                shift = sign * a[i - 1][j - 1]
                column = plan._coeffs[(i, j, sign)]
                coeffs = [plan.leaf("int", c) if c else None for c in column]
                components.append(
                    _Component(
                        f"[h{i},e{tag}{j}]-({shift})e{tag}{j}",
                        ((1, coeffs, (plan.ladder("eq", j, sign),)),),
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
    return (plan or _Plan(model, ("cartan",))).report("cartan", q, margin)


def _ladder_components(plan: _Plan) -> list:
    nodes = plan.model.spec.nodes
    components = []
    for i in range(1, nodes + 1):
        for j in range(1, nodes + 1):
            words = (((j, -1), (i, 1)), ((i, 1), (j, -1)))
            terms = tuple(
                (sign, None, tuple(plan.ladder("eq", *move) for move in word))
                for sign, word in zip((1, -1), words)
            )
            label = f"[e+{i},e-{j}]" + (f"-[H{i}]_qi" if i == j else "")
            # [H_i] in base q^d is [d H_i]_q / [d]_q, exact and regular at q = 1.
            d = plan.d[i - 1]
            diag = [plan.leaf("bracket", hd, d) for hd in plan._brackets[i - 1]] if i == j else None
            components.append(_Component(label, terms, words, diag))
    return components


def check_ladder(
    model: CrystalModel, q, margin: int = DEFAULT_MARGIN, *, plan=None
) -> RelationReport:
    """[e_i^+, e_j^-] = delta_ij [H_i] in base q^(d_i) (so the long type C
    node uses base q^2, where the half-integer H_n still gives an exact
    rational bracket)."""
    return (plan or _Plan(model, ("ladder",))).report("ladder", q, margin)


def _serre_components(plan: _Plan, deformed: bool) -> list:
    a, d = plan.cartan, plan.d
    nodes = plan.model.spec.nodes
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
                coeffs.append((1, plan.leaf(*key)))
            coeffs.append(((-1) ** m, None))
            for sign, tag in ((1, "+"), (-1, "-")):
                x, y = (i, sign), (j, sign)
                words = tuple((x,) * v + (y,) + (x,) * (m - v) for v in range(m + 1))
                terms = tuple(
                    (s, scale, tuple(plan.ladder(kind, *mv) for mv in word))
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
    family = "serre" if deformed else "serre-classical"
    return (plan or _Plan(model, (family,))).report(family, q, margin)


def _map_components(plan: _Plan) -> list:
    model = plan.model
    rows = []  # (label, word added, word subtracted, ladder moves of the words)
    for node in range(1, model.spec.nodes + 1):
        fac, inv = plan.diagonal("f", node), plan.diagonal("finv", node)
        ep, em = plan.ladder("e", node, 1), plan.ladder("e", node, -1)
        dp, dm = plan.ladder("eq", node, 1), plan.ladder("eq", node, -1)
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
        d2 = [(k, plan.leaf("cz", l1, -(l2 + 1))) for k, (l1, l2) in enumerate(model.states)]
        d1, hat = plan.diagonal("f", 1), plan.ladder("one", 1, 1)
        jp, dp = plan.ladder("e", 1, 1), plan.ladder("eq", 1, 1)
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
    return (plan or _Plan(model, ("map",))).report("map", q, margin)


# Family name -> (relation id in reports, component builder).
_FAMILIES = {
    "cartan": ("cartan", _cartan_components),
    "ladder": ("ladder", _ladder_components),
    "serre": ("serre-deformed", lambda plan: _serre_components(plan, True)),
    "serre-classical": ("serre-classical", lambda plan: _serre_components(plan, False)),
    "map": ("map", _map_components),
}
KNOWN_FAMILIES = tuple(_FAMILIES)


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
    cap = resolve_cap(algebra_type, lam, _config_int(data, "cap", None))
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

    The model's relation plan is built once, before the first q: its
    move table and Cartan data, one leaf namespace, and every configured
    family's program.  Every q binds the plan's
    leaves once (those that take no q once per run), and each family
    runs on integer triples only when its binding differs from that of
    every earlier q; on an exact match the earlier q's per-state results
    and FAIL records are reused under the new q label.  The balanced
    q-brackets bind equal leaves at q and 1/q, and serre-classical runs
    once per suite; the comparison finds this, it is never assumed."""
    model = build_model(config.spec())
    plan = _Plan(model, config.families)
    reports = [
        _FAMILY_RUNNERS[fam](model, q, config.margin, plan)
        for q in config.q_list
        for fam in config.families
    ]
    return SuiteResult(config=config, reports=reports)
