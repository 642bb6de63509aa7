"""The relation-verification engine: writes the Cartan, ladder, Serre, and
dressing-map relations as integer combinations of exact operator words on
a crystal model, evaluates each relation state by state, and classifies
each state PASS / FAIL / BOUNDARY, where BOUNDARY marks verdicts that
would only reflect the finite cap truncating the type C state space.

A term of a relation is an integer coefficient (a sign, a Cartan
coefficient or a classical Serre binomial) times constant entries (a
deformed Serre binomial) times a word of ladder and diagonal steps (the
[H_i] brackets and the deforming factors are diagonals).  Every step is
monomial, so a word applied to a basis state is a single walk, and all
words of one relation component reach the same target: its residual at a
state is one exact number.  Where a walk goes, where it stops (a dead
move, or the type C cap, which decides BOUNDARY), which entries it
multiplies and which of them are zero do not depend on q (a [k]_q bracket
is 0 exactly when k = 0, and entries on live moves never are).  Each
model gets one plan, built once: its Cartan data read off the integer
doubled eigenvalues 2H_i, one namespace of entry keys with step tables
over the model's move table (CrystalModel.moves) shared by every family,
and each requested family compiled, after which the step tables are
dropped.  A key names what its value is computed from: a generator or
factor entry depends on its two factor arguments and the long node flag,
not on the node, so equal entries of different nodes are one key.  Only
the components that can hold a slot are built: ladder ones for nodes
|i - j| <= 1, Serre ones for |i - j| = 1, and of the Cartan family only
[h_j, e_j^+-], for its cap flags, as every Cartan coefficient is 0 at
every live move of a model that _model_data accepts.  Nodes further
apart move and read disjoint labels (move_delta, rep._factor_args), so
their words are equal monomials that cancel for every q, and stop at the
cap only where the long node's raising move does.  A step table holds
only the steps a walk can take, so a component is walked only from the
keys of its words' first tables.  A surviving term is the monomial of its
sorted entry keys with the term's coefficient, so terms that differ only
in factor order merge at compile time, for every q; a residual is an
integer combination of distinct monomials, and only the (component,
state) slots whose residual survives are kept.  Per q the plan only
binds, folds and classifies: a new q binds every key that a family reads
once, in one loop, to a nonzero integer triple (m, n, d) for (n/d)*sqrt(m),
each residual multiplies out its monomials on those triples as it folds
them into a Radical, and one pass over the slots and cap flags classifies.

A family is evaluated once per distinct binding of its keys: its outcomes
are kept by the binding they came from, so a q whose binding equals an
earlier q's finds that q's per-state results and FAIL records and reuses
them.  The balanced q-brackets bind equal keys at q and 1/q, and the keys
of serre-classical take no q, so their bindings compare equal and it runs
once per suite.  Sparse operator products (LinOp) are not used here;
the tests rebuild every relation with them as the reference."""

from __future__ import annotations

import json
import math
import os
from array import array
from collections import namedtuple
from fractions import Fraction

from .crystal import (
    CAP_MARGIN,
    DEFAULT_MARGIN,
    MOVE_CAPPED,
    MOVE_DEAD,
    TYPE_A,
    TYPE_C,
    CrystalModel,
    CrystalSpec,
    boundary_class,
    build_model,
    resolve_cap,
    weight_h2,
)
from .rep import (
    _cz_args,
    _deform_entry,
    _e_classical_entry,
    _e_deformed_entry,
    _factor_args,
    _is_long_node,
)
from .report import BOUNDARY, FAIL, PASS, RelationReport, StateResult
from .scalar import (
    _accumulate,
    _lowest,
    _mul_term,
    _qbinom_pair,
    _qint_pair,
    _reciprocal,
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
    return _model_data(model)[0]


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


def _half(x2: int, what: str) -> int:
    """Half of a doubled value that must be even."""
    if x2 % 2:
        raise VerificationError(f"{what} is not an integer: {x2}/2")
    return x2 // 2


def _model_data(model: CrystalModel) -> tuple:
    """The q-independent integers of the relation families on one model,
    read off the doubled Cartan eigenvalues 2H_i (weight_h2) of its states:
    the Cartan matrix, measured on the live raising moves (a live lowering
    move s -> t is the raising move t -> s read backwards), the
    symmetrizers, and per node i the [H_i] bracket arguments d_i*H_i by
    ordinal.  Inconsistent weight shifts, a measured matrix other than the
    reference one, and an odd doubled value where one is halved are engine
    errors, so every live move shifts the weights by the reference matrix."""
    spec, nodes = model.spec, model.spec.nodes
    h2 = [weight_h2(model, s) for s in model.states]
    expected = expected_cartan(spec)
    cartan = [row[:] for row in expected]
    for j in range(1, nodes + 1):
        measured = {
            tuple(_half(h2[t][i] - hs[i], "Cartan eigenvalue shift") for i in range(nodes))
            for hs, (t, _) in zip(h2, model.moves(j, 1))
            if t is not None
        }
        # Where no state admits the move (trivial representations), the
        # reference column stands.
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
    brackets = [
        [_half(hs[i] * d[i], "scaled Cartan eigenvalue") for hs in h2] for i in range(nodes)
    ]
    return cartan, d, brackets


# -- compiled relation plans ---------------------------------------------------
#
# A symbolic step table maps a source ordinal k to the pair (target
# ordinal, leaf id) of one monomial operator, where a leaf names a nonzero
# value by its kind and the integers it is computed from (an entry by the
# long node flag and its factor arguments (a, b), not the node), so equal
# values share one leaf.  A capped ladder move is (MOVE_CAPPED, None), so
# a walk knows it stopped at the cap; a dead move or a zero diagonal entry
# is not stored, and a walk that reads no step ends with no target and no
# cap.  Compiling turns a family into its surviving residuals, integer
# combinations of monomials of its leaves; a new q binds each read leaf
# once, and evaluating multiplies out each monomial where its residual folds.

_NO_STEP = (None, None)  # what a walk reads where its table holds no step

# The value of the leaf (kind, *args) at q, as the integer triple (m, n, d)
# for (n/d)*sqrt(m).  Generator and factor entries come from the same
# functions that build the rep matrices.
_LEAF_VALUES = {
    "e": lambda q, long_node, a, b: _e_classical_entry(a, b, long_node),
    "eq": lambda q, long_node, a, b: _e_deformed_entry(a, b, q, long_node),
    "f": lambda q, long_node, a, b: _deform_entry(a, b, q, long_node),
    "finv": lambda q, long_node, a, b: _reciprocal(*_deform_entry(a, b, q, long_node)),
    "int": lambda q, c: (1, c, 1),
    "bracket": lambda q, k, d: _bracket(k, d, q),
    "binom": lambda q, m, v, d: (1, *_qbinom_pair(m, v, q.numerator**d, q.denominator**d)),
}


def _bracket(k: int, d: int, q: Fraction) -> tuple[int, int, int]:
    """[k]_q / [d]_q (d != 0), from the integer pairs of the q-integers."""
    a, b = q.numerator, q.denominator
    (n1, d1), (n2, d2) = _qint_pair(k, a, b), _qint_pair(d, a, b)
    return (1, *_lowest(n1 * d2, d1 * n2))


class _Component(namedtuple("_Component", "label terms words")):
    """One identity inside a relation family, as a sum of terms.

    ``terms`` are (coefficient, constant leaves, word) triples: the walk of
    the word, a tuple of ladder and diagonal step tables in application
    order, times the constant leaves, is added with the integer
    coefficient.  ``words`` are the ladder moves of the words (application
    order), which name the component's paths in FAIL traces.  Every word
    of a component shifts the labels by one vector, so the residual at a
    state has at most one target."""

    __slots__ = ()


class _Program(namedtuple("_Program", "labels words leaves sums slots capped")):
    """One family compiled on one model.  ``leaves`` are the ascending ids
    of the plan's leaves that the family reads.  The distinct residuals are
    ``sums``, tuples of (monomial, nonzero int) pairs in ascending monomial
    order, a monomial being the sorted tuple of its leaf ids; equal
    monomials are one object.  Only a (component, state) slot whose
    residual survives compiling is stored: ``slots`` is a flat array of
    (state, component, target ordinal, index in ``sums``, capped word)
    quintuples, in component order, then state order.  ``capped`` flags,
    per state, a word of any component that stopped at the cap there."""

    __slots__ = ()


def _evaluate(prog: _Program, values: list) -> list:
    """The value of every residual of ``prog``, a nonzero Radical or None,
    from the leaf values by leaf id (nonzero integer triples): each term's
    monomial is multiplied out in scalar's single-term kernel and folds at
    once, in order, through scalar's _accumulate, and a square class that
    cancels is dropped at once, as Radical addition drops it."""
    out = []
    for terms in prog.sums:
        acc = {}
        for mono, c in terms:
            m, n, d = values[mono[0]]
            for leaf in mono[1:]:
                m, n, d = _mul_term(m, n, d, *values[leaf])
            _accumulate(acc, m, *((c * n, d) if c in (1, -1) else _lowest(c * n, d)))
            if not acc.get(m, (0,))[0]:  # cancelled, or merged into another spelling
                acc = {k: nd for k, nd in acc.items() if nd[0]}
        out.append(_wrap(acc) if acc else None)
    return out


def _word_trace(model: CrystalModel, k: int, word) -> str:
    bits = [str(model.states[k])]
    for move in word:
        k, status = model.moves(*move)[k]
        if k is None:
            bits.append("0" if status == MOVE_DEAD else "cap")
            break
        bits.append(str(model.states[k]))
    return "->".join(bits)


class _Plan:
    """The relation families of one model, compiled over one leaf
    namespace.  Construction builds the Cartan data, the symbolic step
    tables and the program of every family in ``families``, then drops
    the step tables and factor arguments, which only compiling reads; the
    leaf namespace stays for binding.  Per q a family is only bound, folded
    and classified.  Leaf values are kept for one q at a time: a new q binds
    every leaf that some family reads (``_read``, the union of the programs'
    leaves) in one loop, and no product of leaves outlives the fold of its
    term.  Each evaluated outcome, the finished tuples of per-state
    results and FAIL records, is kept in a dict keyed by the family's
    binding, the tuple of its leaf values, so a later q with an equal
    binding finds it there and its report shares those tuples: every leaf
    value is a nonzero integer triple, so == compares how values are
    written."""

    def __init__(self, model: CrystalModel, families):
        self.model = model
        self.cartan, self.d, self._brackets = _model_data(model)
        self.keys = []  # leaf id -> key
        self.ids = {}  # key -> leaf id
        self._steps, self._args = {}, {}
        self.programs = {family: self._compile(family) for family in families}
        del self._steps, self._args, self._brackets
        self._read = sorted(set().union(*(prog.leaves for prog in self.programs.values())))
        self._q, self._values = None, [None] * len(self.keys)
        self._outcomes = {}  # (family, margin) -> {binding: (per_state, failures)}
        self._clean = {}  # (family, margin) -> per_state when every residual vanishes

    def leaf(self, *key) -> int:
        leaf = self.ids.get(key)
        if leaf is None:
            leaf = self.ids[key] = len(self.keys)
            self.keys.append(key)
        return leaf

    def factor_args(self, node: int) -> dict:
        """The factor arguments of ``node`` by ordinal, where its raising
        move is live or capped: the only ordinals an entry is read at, as a
        live lowering move ends at one."""
        args = self._args.get(node)
        if args is None:
            model = self.model
            args = self._args[node] = {
                k: _factor_args(model, node, s)
                for (s, k), (_, status) in zip(model.index.items(), model.moves(node, 1))
                if status != MOVE_DEAD
            }
        return args

    def ladder(self, kind, node: int, sign: int) -> dict:
        """Step table of a ladder generator.  Its leaves are keyed by the
        long node flag and the factor arguments read on the raising source
        or the lowering target, so raising and lowering share keys; kind
        None is the bare move, whose entries are the integer 1.  Its keys
        are the model's own ordinal ints (index values), so the tables of a
        plan share them rather than each holding a copy."""
        table = self._steps.get((kind, node, sign))
        if table is None:
            table = self._steps[(kind, node, sign)] = {}
            args = self.factor_args(node) if kind else None
            long_node = _is_long_node(self.model, node)
            for k, (t, status) in zip(self.model.index.values(), self.model.moves(node, sign)):
                if status == MOVE_CAPPED:
                    table[k] = (MOVE_CAPPED, None)
                elif t is not None:
                    key = (kind, long_node, *args[k if sign > 0 else t]) if kind else ("int", 1)
                    table[k] = (t, self.leaf(*key))
        return table

    def diagonal(self, entries) -> dict:
        """Step table of the diagonal with the given (ordinal k, key)
        entries, each a nonzero value, holding the leaf of the key at k."""
        return {k: (k, self.leaf(*key)) for k, key in entries}

    def _starts(self, comp: _Component) -> list:
        """The ordinals a component is walked from: the keys of its words'
        first step tables (from any other ordinal every walk ends at once,
        with no target and no cap)."""
        return sorted(set().union(*(word[0] for *_, word in comp.terms)))

    def _compile(self, family: str) -> _Program:
        """Walk every word of every component from its starts over the step
        tables into monomials of sorted leaf ids with integer coefficients,
        so equal ones merge here for every q, and intern each monomial and
        each residual; keep a slot only where a residual survives."""
        components = _FAMILIES[family][1](self)
        monos, sums = {}, {}
        slots, capped = array("i"), bytearray(self.model.dim)
        for c, comp in enumerate(components):
            for k in self._starts(comp):
                # nothing is allocated for a slot until a word survives
                target, monomials, cap = None, None, False
                for coef, mono, word in comp.terms:
                    t = k
                    for table in word:
                        t, leaf = table.get(t, _NO_STEP)
                        if leaf is None:
                            break
                        mono += (leaf,)
                    if leaf is None:  # no step, or a capped move
                        cap = cap or t == MOVE_CAPPED
                        continue
                    if target is None:
                        target = t
                    elif t != target:
                        raise VerificationError(f"{comp.label}: words reach two targets")
                    if not coef:
                        continue
                    mono = tuple(sorted(mono))
                    monomials = monomials or {}
                    monomials[mono] = monomials.get(mono, 0) + coef
                capped[k] |= cap
                terms = monomials and tuple(
                    (monos.setdefault(m, m), n) for m, n in sorted(monomials.items()) if n
                )
                if terms:
                    slots.extend((k, c, target, sums.setdefault(terms, len(sums)), cap))
        leaves = sorted(set().union(*monos))
        labels, words = [c.label for c in components], [c.words for c in components]
        return _Program(labels, words, leaves, list(sums), slots, capped)

    def bind(self, prog: _Program, q: Fraction) -> tuple:
        """The binding of ``prog`` at q, the values of its leaves.  A q other
        than the last one binds every leaf that some family reads, once, to
        a nonzero integer triple, as programs only multiply nonzero terms."""
        if q != self._q:
            values = [None] * len(self.keys)
            for g in self._read:
                key = self.keys[g]
                values[g] = val = _LEAF_VALUES[key[0]](q, *key[1:])
                if not val[1]:
                    raise VerificationError(f"leaf {key} at q = {q} is zero")
            self._q, self._values = q, values
        return tuple(self._values[g] for g in prog.leaves)

    def report(self, family: str, q, margin: int) -> RelationReport:
        """The report of ``family`` at q: its per-state results and FAIL
        records, evaluated unless an earlier q bound the same leaves."""
        q = ensure_positive_q(q)
        prog = self.programs[family]
        binding = self.bind(prog, q)
        seen = self._outcomes.setdefault((family, margin), {})
        if binding not in seen:
            vals = _evaluate(prog, self._values)
            seen[binding] = self._classify(family, prog, vals, margin)
        return RelationReport(_FAMILIES[family][0], self.model.spec.describe(), q, *seen[binding])

    def _classify(self, family: str, prog: _Program, vals: list, margin: int) -> tuple:
        """Per-state results and FAIL records from the residual values.  With
        no nonzero residual a state is BOUNDARY where a word stopped at the
        cap inside the margin, PASS elsewhere (kept per family and margin);
        a nonzero residual is a FAIL unless its own slot is so capped."""
        model = self.model
        clean = self._clean.get((family, margin))
        if clean is None:
            clean = []
            for s, cap in zip(model.states, prog.capped):
                boundary = cap and boundary_class(model, s, margin) == CAP_MARGIN
                clean.append(StateResult(s, True, BOUNDARY if boundary else PASS))
            clean = self._clean[(family, margin)] = tuple(clean)
        if not any(vals):
            return clean, ()
        per_state, failures = list(clean), []
        it = iter(prog.slots)
        for k, c, t, e, cap in zip(it, it, it, it, it):
            if vals[e] is None:
                continue
            s, _, klass = per_state[k]
            # A capped word excuses the residual only inside the margin.
            if not cap or clean[k].klass != BOUNDARY:
                klass = FAIL
                traces = "; ".join(_word_trace(model, k, w) for w in prog.words[c])
                word = f"{prog.labels[c]} [{traces}] -> {list(model.states[t])}"
                record = {"state": list(s), "word": word, "residual": vals[e].json_map()}
                failures.append((k, c, record))
            per_state[k] = StateResult(s, False, klass)
        # FAIL records go in state order, then component order.
        failures.sort(key=lambda f: f[:2])
        return tuple(per_state), tuple(record for *_, record in failures)


# -- relation families ---------------------------------------------------------
#
# Each family lists its components over the plan's step tables.  The
# public check_* functions take the plan of the model as the optional
# keyword ``plan``: run_suite builds one per run with every configured
# family and passes it to every family at every q; a standalone call
# builds one for its own family.


def _cartan_components(plan: _Plan) -> list:
    # _model_data refuses a model with any live move whose weight shift is not
    # the reference matrix's, so every coefficient H_i(t) - H_i(s) -+ a_ij is 0:
    # per (j, sign) one component keeps the cap flags of the move.
    components = []
    for j in range(1, plan.model.spec.nodes + 1):
        for sign, tag in ((1, "+"), (-1, "-")):
            ladder = plan.ladder("eq", j, sign)
            label = f"[h{j},e{tag}{j}]-({sign * plan.cartan[j - 1][j - 1]})e{tag}{j}"
            components.append(_Component(label, ((0, (), (ladder,)),), (((j, sign),),)))
    return components


def check_cartan(
    model: CrystalModel, q, margin: int = DEFAULT_MARGIN, *, plan=None
) -> RelationReport:
    """[h_i, e_j^+-] = +-a_ij e_j^+- with the Cartan integers recomputed
    from the crystal weight shifts.  With H_i diagonal the residual entry
    (s, t) is (H_i(t) - H_i(s) -+ a_ij) e_j^+-(s, t), and building the plan
    (_model_data) refuses a model where that integer is not 0 at every live
    move, as an engine error.  So every residual vanishes, and the family
    only marks BOUNDARY where the node-j move stops at the cap, one
    [h_j, e_j^+-] component each.  [h_i, h_j] = 0 holds by construction, as
    the H_i are diagonal, and is not checked."""
    return (plan or _Plan(model, ("cartan",))).report("cartan", q, margin)


def _ladder_components(plan: _Plan) -> list:
    nodes = plan.model.spec.nodes
    components = []
    for i in range(1, nodes + 1):
        for j in range(max(1, i - 1), min(nodes, i + 1) + 1):
            words = (((j, -1), (i, 1)), ((i, 1), (j, -1)))
            terms = tuple(
                (sign, (), tuple(plan.ladder("eq", *move) for move in word))
                for sign, word in zip((1, -1), words)
            )
            label = f"[e+{i},e-{j}]" + (f"-[H{i}]_qi" if i == j else "")
            if i == j:
                # [H_i] in base q^d is [d H_i]_q / [d]_q, exact and regular at q = 1,
                # and 0 exactly where d H_i = 0.
                d = plan.d[i - 1]
                hds = enumerate(plan._brackets[i - 1])
                brackets = plan.diagonal((k, ("bracket", hd, d)) for k, hd in hds if hd)
                terms += ((-1, (), (brackets,)),)
            components.append(_Component(label, terms, words))
    return components


def check_ladder(
    model: CrystalModel, q, margin: int = DEFAULT_MARGIN, *, plan=None
) -> RelationReport:
    """[e_i^+, e_j^-] = delta_ij [H_i] in base q^(d_i), for |i - j| <= 1 (the
    long type C node uses base q^2, where the half-integer H_n still gives
    an exact rational bracket; farther nodes commute by locality)."""
    return (plan or _Plan(model, ("ladder",))).report("ladder", q, margin)


def _serre_components(plan: _Plan, deformed: bool) -> list:
    a, d = plan.cartan, plan.d
    nodes = plan.model.spec.nodes
    kind = "eq" if deformed else "e"
    components = []
    for i in range(1, nodes + 1):
        for j in [j for j in (i - 1, i + 1) if 1 <= j <= nodes]:
            m = 1 - a[i - 1][j - 1]
            # Term v carries (-1)^v C(m, v) as its coefficient (classical), or
            # (-1)^v and the q-binomial, 1 at the ends and a constant leaf
            # inside, which exceeds 1 at every q > 0 (deformed).
            scales = [
                ((-1) ** v, (plan.leaf("binom", m, v, d[i - 1]),) if 0 < v < m else ())
                if deformed
                else ((-1) ** v * math.comb(m, v), ())
                for v in range(m + 1)
            ]
            for sign, tag in ((1, "+"), (-1, "-")):
                x, y = (i, sign), (j, sign)
                words = tuple((x,) * v + (y,) + (x,) * (m - v) for v in range(m + 1))
                terms = tuple(
                    (coef, leaves, tuple(plan.ladder(kind, *mv) for mv in word))
                    for (coef, leaves), word in zip(scales, words)
                )
                base = f"q^{d[i - 1]}" if deformed else "1"
                label = f"serre(e{tag}{i};e{tag}{j}) len={m} binom_base={base}"
                components.append(_Component(label, terms, words))
    return components


def check_serre(
    model: CrystalModel, q, deformed: bool = True, margin: int = DEFAULT_MARGIN, *, plan=None
) -> RelationReport:
    """Serre relations for every ordered pair of adjacent nodes (others
    commute by locality, module docstring), built from the measured Cartan
    matrix: sum_v (-1)^v B(1-a_ij, v) x^(1-a_ij-v) y x^v
    with x = e_i, y = e_j, and B the q^(d_i)-binomial (deformed) or the
    ordinary binomial (classical).  Each term is one word."""
    family = "serre" if deformed else "serre-classical"
    return (plan or _Plan(model, (family,))).report(family, q, margin)


def _map_components(plan: _Plan) -> list:
    model = plan.model
    rows = []  # (label, word added, word subtracted, ladder moves of the words)
    for node in range(1, model.spec.nodes + 1):
        args, long_node = plan.factor_args(node).items(), _is_long_node(model, node)
        fac = plan.diagonal((k, ("f", long_node, *ab)) for k, ab in args)
        inv = plan.diagonal((k, ("finv", long_node, *ab)) for k, ab in args)
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
        # The weight variant of the rank-one functional (a short node's deforming
        # factor at other arguments), and its node variant, the only node's factor.
        d2 = plan.diagonal(enumerate(("f", False, *_cz_args(s)) for s in model.states))
        hat, jp, dp = plan.ladder(None, 1, 1), plan.ladder("e", 1, 1), plan.ladder("eq", 1, 1)
        rows.append(("cz_weight*j+-e+1", (jp, d2), (dp,), (((1, 1),),)))
        rows.append(("cz_weight(image)-cz_node(source)", (hat, d2), (fac, hat), (((1, 1),),)))
    return [
        _Component(label, ((1, (), plus), (-1, (), minus)), words)
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


class SuiteConfig(
    namedtuple(
        "SuiteConfig",
        "algebra_type n lam cap margin q_list families",
        defaults=(None, DEFAULT_MARGIN, DEFAULT_Q_LIST, DEFAULT_FAMILIES),
    )
):
    """One verification suite (immutable): the crystal spec's fields, the
    truncation margin, the q values (Fractions) and the relation families,
    in report order.  ``_replace`` returns a changed copy."""

    __slots__ = ()

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
    # A JSON float is refused rather than read: 0.1 would silently run q = 1/10.
    if isinstance(text, (bool, float)):
        raise ConfigError(f"q must be an integer or a string, got {text!r}")
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
        except (OSError, UnicodeDecodeError) as exc:
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
    families = tuple(str(f).strip() for f in _config_list(data, "families", DEFAULT_FAMILIES))
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


class SuiteResult(namedtuple("SuiteResult", "config reports")):
    """The reports of one suite run, a tuple in (q, family) order
    (immutable)."""

    __slots__ = ()

    @property
    def exit_code(self) -> int:
        return 0 if all(r.all_clear for r in self.reports) else 1

    @property
    def totals(self) -> dict[str, int]:
        keys = ("pass", "fail", "boundary")
        return {key: sum(r.summary[key] for r in self.reports) for key in keys}

    def to_json_obj(self) -> dict:
        return {
            "config": self.config.describe(),
            "reports": [r.to_json_dict() for r in self.reports],
            "totals": self.totals,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_obj(), sort_keys=True, indent=2) + "\n"


# run_suite calls each family's check_* by name, so a wrapper installed on
# this module (perfbench/tracer.py times each family so) sees every suite
# run; calling plan.report directly would bypass it.
_FAMILY_RUNNERS = {
    "cartan": lambda model, q, margin, plan: check_cartan(model, q, margin, plan=plan),
    "ladder": lambda model, q, margin, plan: check_ladder(model, q, margin, plan=plan),
    "serre": lambda model, q, margin, plan: check_serre(model, q, True, margin, plan=plan),
    "serre-classical": lambda m, q, margin, plan: check_serre(m, q, False, margin, plan=plan),
    "map": lambda model, q, margin, plan: check_map(model, q, margin, plan=plan),
}


def run_suite(config: SuiteConfig) -> SuiteResult:
    """Run every configured relation family at every configured q, in
    (q, family) order, with byte-stable JSON.  One plan serves every q; a
    family whose binding at q equals an earlier q's reuses that q's results
    under the new q label (the lookup finds such q, never assumes)."""
    model = build_model(config.spec())
    plan = _Plan(model, config.families)
    reports = tuple(
        _FAMILY_RUNNERS[fam](model, q, config.margin, plan)
        for q in config.q_list
        for fam in config.families
    )
    return SuiteResult(config=config, reports=reports)
