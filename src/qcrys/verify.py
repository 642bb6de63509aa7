"""The relation-verification engine: writes the Cartan, ladder, Serre, and
dressing-map relations as weighted sums of exact operator words on a
crystal model, evaluates each relation state by state, and classifies
each state PASS / FAIL / BOUNDARY, where BOUNDARY marks verdicts that
would only reflect the finite cap truncating the type C state space.

Every operator in a word is monomial (a ladder generator or a diagonal),
so a word applied to a basis state is a single walk through per-operator
step tables, one exact product per step.  All words of one relation
component shift the labels by the same vector, so its residual at a state
is one exact number at one target state.  The walk that computes it also
reports whether a word stopped at the type C cap, which decides BOUNDARY.
Sparse operator products (LinOp) are not used here; the tests rebuild
every relation with them as the reference."""

from __future__ import annotations

import json
import math
import os
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
from .rep import (
    CZ_WEIGHT,
    LinOp,
    cz_factor,
    deform_factor,
    op_e_classical,
    op_e_deformed,
    op_hat,
)
from .report import BOUNDARY, FAIL, PASS, RelationReport, StateResult
from .scalar import Radical, ensure_positive_q, qbinom, qint_at

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


def cartan_matrix(model: CrystalModel, moves: list | None = None) -> list[list[int]]:
    """Cartan integers measured from the crystal weight shifts: entry
    (i, j) is the shift of the H_i eigenvalue under the node-j raising
    move.  Every state admitting the move must report the same shift, and
    the result must agree with the reference matrix; disagreement is an
    engine error, not a relation failure.  ``moves`` is the model's
    ladder-move table (built here when absent)."""
    spec = model.spec
    nodes = spec.nodes
    if moves is None:
        moves = _move_table(model)
    expected = expected_cartan(spec)
    measured: list[list[int]] = [[0] * nodes for _ in range(nodes)]
    for j in range(1, nodes + 1):
        shifts = set()
        for k, row in enumerate(moves):
            t, status = row[(j, 1)]
            if status != MOVE_OK:
                continue
            hs = weight_h(model, model.states[k])
            ht = weight_h(model, model.states[t])
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
    cartan = cartan_matrix(model, moves)
    return _ModelData(
        moves,
        [weight_h(model, s) for s in model.states],
        cartan,
        symmetrizers(model.spec, cartan),
    )


def _gen_set(model: CrystalModel, q, deformed: bool = True) -> dict:
    """Chevalley generators keyed (node, sign): q-deformed, or classical
    (then q is unused)."""
    gens = {}
    for node in range(1, model.spec.nodes + 1):
        for sign in (1, -1):
            if deformed:
                gens[(node, sign)] = op_e_deformed(model, node, sign, q)
            else:
                gens[(node, sign)] = op_e_classical(model, node, sign)
    return gens


# -- step tables and the word walker -------------------------------------------
#
# Every operator a relation word uses is monomial: each state has at most
# one target.  A step table lists, per source ordinal k, the pair
# (target ordinal, entry) of one operator.  Where a ladder move is dead or
# capped the pair is (move status, None), so a walk knows why it stopped.


def _ladder_table(op: LinOp, moves: list, move) -> list:
    """Step table of a ladder generator whose support is the move ``move``
    of the move table: generator entries never vanish on a live move."""
    table = []
    for k, row in enumerate(moves):
        t, status = row[move]
        table.append((t, op.entries[(k, t)]) if status == MOVE_OK else (status, None))
    return table


def _step_tables(gens: dict, moves: list) -> dict:
    """Step tables of a generator set, keyed (node, sign) like the set."""
    return {move: _ladder_table(op, moves, move) for move, op in gens.items()}


def _diagonal_table(op: LinOp) -> list:
    """Step table of an invertible diagonal operator."""
    return [(k, op.entries[(k, k)]) for k in range(op.dim)]


def _memo_mul():
    """Product of two Radicals, memoized by operand identity.  Generator
    entries are shared per factor-argument pair, and a memoized product is
    the same object on every hit, so walks through equal entries hit the
    memo.  Each memo entry keeps both operands alive, so no id it is keyed
    by can be reused while the memo lives.  _assemble keeps one memo per
    relation component, which bounds the memory it holds."""
    memo = {}

    def mul(a: Radical, b: Radical) -> Radical:
        key = (id(a), id(b))
        hit = memo.get(key)
        if hit is None:
            hit = memo[key] = (a, b, a * b)
        return hit[2]

    return mul


def _walk(word, k: int, mul):
    """Run one word (step tables in application order) from state k.
    Returns (target ordinal, product of the entries met, later steps on
    the left), or (status, None) with the status of the move that
    stopped it (MOVE_DEAD or MOVE_CAPPED)."""
    val = None
    for table in word:
        k, step = table[k]
        if step is None:
            return k, None
        val = step if val is None else mul(step, val)
    return k, val


@dataclass
class _Component:
    """One identity inside a relation family, as a weighted sum of words.

    ``terms`` pairs a coefficient with a word of step tables (application
    order); a coefficient is the integer 1 or -1 (add or subtract the
    walk), a Radical (multiply, then add), or a list of integers indexed
    by source ordinal (the Cartan coefficients, all 0 on a correct model).
    ``minus_diag`` holds per-state Radicals subtracted at the source.
    ``words`` are the ladder moves of the words (application order), which
    name the component's paths in FAIL traces.  Every word
    of a component shifts the labels by one vector, so the residual at a
    state has at most one target."""

    label: str
    terms: tuple = ()
    words: tuple[tuple[tuple[int, int], ...], ...] = ()
    minus_diag: list | None = None


def _residual(comp: _Component, k: int, mul):
    """Exact residual of one component at state k, from one walk per
    word: (target ordinal, nonzero residual or None, capped), where
    ``capped`` says some word stopped at the cap."""
    target = acc = None
    capped = False
    for coeff, word in comp.terms:
        t, val = _walk(word, k, mul)
        if val is None:
            capped = capped or t == MOVE_CAPPED
            continue
        if target is None:
            target = t
        elif t != target:
            raise VerificationError(f"{comp.label}: words reach two targets")
        if isinstance(coeff, Radical):
            val = mul(val, coeff)
        elif isinstance(coeff, list):
            if not coeff[k]:
                continue
            val = val * coeff[k]
        elif coeff == -1:
            acc = -val if acc is None else acc - val
            continue
        acc = val if acc is None else acc + val
    if comp.minus_diag is not None:
        if target not in (None, k):
            raise VerificationError(f"{comp.label}: diagonal term off the word target")
        target = k
        d = comp.minus_diag[k]
        acc = -d if acc is None else acc - d
    return target, (acc if acc else None), capped


def _word_trace(model: CrystalModel, moves: list, k: int, word) -> str:
    bits = [str(model.states[k])]
    for move in word:
        k, status = moves[k][move]
        if status != MOVE_OK:
            bits.append("0" if status == MOVE_DEAD else "cap")
            break
        bits.append(str(model.states[k]))
    return "->".join(bits)


def _assemble(
    relation_id: str,
    model: CrystalModel,
    q: Fraction,
    components: list[_Component],
    margin: int,
    moves: list,
) -> RelationReport:
    spec = model.spec
    report = RelationReport(relation_id=relation_id, carrier=spec.describe(), q=q)
    residuals = []
    for comp in components:
        mul = _memo_mul()
        residuals.append([_residual(comp, k, mul) for k in range(model.dim)])
    for k, s in enumerate(model.states):
        in_margin = boundary_class(model, s, margin) == CAP_MARGIN
        any_boundary = False
        any_fail = False
        all_zero = True
        for comp, column in zip(components, residuals):
            t, val, capped = column[k]
            if val is not None:
                all_zero = False
            # A capped word excuses the state only inside the margin.
            if in_margin and capped:
                any_boundary = True
            elif val is not None:
                any_fail = True
                traces = "; ".join(_word_trace(model, moves, k, w) for w in comp.words)
                report.failures.append(
                    {
                        "state": list(s),
                        "word": f"{comp.label} [{traces}] -> {list(model.states[t])}",
                        "residual": val.json_map(),
                    }
                )
        klass = FAIL if any_fail else (BOUNDARY if any_boundary else PASS)
        report.per_state.append(StateResult(s, all_zero, klass))
    return report


# -- relation families ---------------------------------------------------------
#
# Each family builds its components from the shared inputs, which the
# public check_* functions take as optional keyword arguments: the model
# data (``data``) and the step tables of the generators at q (``steps``,
# of the classical generators for the classical Serre family).  run_suite
# builds them once and passes them in; a standalone call builds what it
# is not given.


def _prepare(model: CrystalModel, q, data, steps, deformed: bool = True):
    """Validate q and build whichever shared inputs the caller left out."""
    q = ensure_positive_q(q)
    if data is None:
        data = _model_data(model)
    if steps is None:
        steps = _step_tables(_gen_set(model, q, deformed), data.moves)
    return q, data, steps


def _cartan_components(model: CrystalModel, data: _ModelData, steps: dict) -> list:
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
                coeffs = data.cartan_coeffs[(i, j, sign)]
                components.append(
                    _Component(
                        f"[h{i},e{tag}{j}]-({shift})e{tag}{j}",
                        ((coeffs, (steps[(j, sign)],)),),
                        (((j, sign),),),
                    )
                )
    return components


def check_cartan(
    model: CrystalModel, q, margin: int = DEFAULT_MARGIN, *, data=None, steps=None
) -> RelationReport:
    """[h_i, h_j] = 0 and [h_i, e_j^+-] = +-a e_j^+- with the Cartan
    integers recomputed from the crystal weight shifts.  With H_i diagonal
    the residual entry (s, t) is (H_i(t) - H_i(s) -+ a_ij) e_j^+-(s, t), an
    integer multiple of the generator entry read from the weights (the
    integers are built once per model), so [h_i, h_j] vanishes identically
    and is recorded without words."""
    q, data, steps = _prepare(model, q, data, steps)
    components = _cartan_components(model, data, steps)
    return _assemble("cartan", model, q, components, margin, data.moves)


def _bracket_h_diag(h: list, i: int, d: int, q: Fraction) -> list:
    """Values of [H_i] in base q^d per state ordinal, from the weights
    ``h``.  With k = d * H_i an integer the value is [k]_q / [d]_q, which
    is exact and regular at q = 1.  States with equal k share one value."""
    values = []
    shared = {}
    denom = qint_at(d, q)
    for hs in h:
        hd = hs[i - 1] * d
        if hd.denominator != 1:
            raise VerificationError("scaled Cartan eigenvalue is not integral")
        k = int(hd)
        val = shared.get(k)
        if val is None:
            val = shared[k] = Radical.from_rational(qint_at(k, q) / denom)
        values.append(val)
    return values


def _ladder_components(model: CrystalModel, q, data: _ModelData, steps: dict) -> list:
    nodes = model.spec.nodes
    components = []
    for i in range(1, nodes + 1):
        for j in range(1, nodes + 1):
            words = (((j, -1), (i, 1)), ((i, 1), (j, -1)))
            terms = tuple(
                (coeff, tuple(steps[move] for move in word))
                for coeff, word in zip((1, -1), words)
            )
            label = f"[e+{i},e-{j}]" + (f"-[H{i}]_qi" if i == j else "")
            diag = _bracket_h_diag(data.h, i, data.d[i - 1], q) if i == j else None
            components.append(_Component(label, terms, words, diag))
    return components


def check_ladder(
    model: CrystalModel, q, margin: int = DEFAULT_MARGIN, *, data=None, steps=None
) -> RelationReport:
    """[e_i^+, e_j^-] = delta_ij [H_i] in base q^(d_i) (so the long type C
    node uses base q^2, where the half-integer H_n still gives an exact
    rational bracket)."""
    q, data, steps = _prepare(model, q, data, steps)
    components = _ladder_components(model, q, data, steps)
    return _assemble("ladder", model, q, components, margin, data.moves)


def _serre_components(
    model: CrystalModel, q, deformed: bool, data: _ModelData, steps: dict
) -> list:
    a, d = data.cartan, data.d
    nodes = model.spec.nodes
    components = []
    for i in range(1, nodes + 1):
        for j in range(1, nodes + 1):
            if i == j:
                continue
            m = 1 - a[i - 1][j - 1]
            if m < 1:
                raise VerificationError("off-diagonal Cartan entry must be <= 0")
            qi = q ** d[i - 1]
            coeffs = []
            for v in range(m + 1):
                c = qbinom(m, v).eval((qi,)) if deformed else math.comb(m, v)
                c = -c if v % 2 else c
                coeffs.append(int(c) if c in (1, -1) else Radical.from_rational(c))
            for sign, tag in ((1, "+"), (-1, "-")):
                x, y = (i, sign), (j, sign)
                words = tuple((x,) * v + (y,) + (x,) * (m - v) for v in range(m + 1))
                terms = tuple(
                    (coeffs[v], tuple(steps[mv] for mv in word)) for v, word in enumerate(words)
                )
                base = f"q^{d[i - 1]}" if deformed else "1"
                label = f"serre(e{tag}{i};e{tag}{j}) len={m} binom_base={base}"
                components.append(_Component(label, terms, words))
    return components


def check_serre(
    model: CrystalModel,
    q,
    deformed: bool = True,
    margin: int = DEFAULT_MARGIN,
    *,
    data=None,
    steps=None,
) -> RelationReport:
    """Serre relations for every ordered node pair, built from the
    measured Cartan matrix: sum_v (-1)^v B(1-a_ij, v) x^(1-a_ij-v) y x^v
    with x = e_i, y = e_j, and B the q^(d_i)-binomial (deformed) or the
    ordinary binomial (classical).  Each term is one word, walked per
    state.  ``steps`` are the step tables of the generators of the chosen
    kind."""
    q, data, steps = _prepare(model, q, data, steps, deformed)
    components = _serre_components(model, q, deformed, data, steps)
    rid = "serre-deformed" if deformed else "serre-classical"
    return _assemble(rid, model, q, components, margin, data.moves)


def _map_components(
    model: CrystalModel, q, data: _ModelData, steps: dict, classical: dict
) -> list:
    components = []
    factors = {}
    for node in range(1, model.spec.nodes + 1):
        fac = factors[node] = _diagonal_table(deform_factor(model, node, q))
        # One inverse per distinct (shared) entry keeps the inverses shared.
        distinct = {id(v): v for _, v in fac}
        inverse = {i: v.inverse() for i, v in distinct.items()}
        inv = [(k, inverse[id(v)]) for k, v in fac]
        ep, em = classical[(node, 1)], classical[(node, -1)]
        dp, dm = steps[(node, 1)], steps[(node, -1)]
        up = (((node, 1),),)
        down = (((node, -1),),)
        components.extend(
            [
                _Component(f"E+{node}*F-e+{node}", ((1, (fac, ep)), (-1, (dp,))), up),
                _Component(f"F*E-{node}-e-{node}", ((1, (em, fac)), (-1, (dm,))), down),
                _Component(f"e+{node}*Finv-E+{node}", ((1, (inv, dp)), (-1, (ep,))), up),
                _Component(f"Finv*e-{node}-E-{node}", ((1, (dm, inv)), (-1, (em,))), down),
            ]
        )
    if model.spec.algebra_type == TYPE_A and model.spec.n == 2:
        # The node variant of the rank-one functional is the node-1 factor.
        d2 = _diagonal_table(cz_factor(model, q, CZ_WEIGHT))
        d1 = factors[1]
        hat = _ladder_table(op_hat(model, 1, 1), data.moves, (1, 1))
        jp, dp = classical[(1, 1)], steps[(1, 1)]
        up = (((1, 1),),)
        components.append(_Component("cz_weight*j+-e+1", ((1, (jp, d2)), (-1, (dp,))), up))
        components.append(
            _Component(
                "cz_weight(image)-cz_node(source)", ((1, (hat, d2)), (-1, (d1, hat))), up
            )
        )
    return components


def check_map(
    model: CrystalModel,
    q,
    margin: int = DEFAULT_MARGIN,
    *,
    data=None,
    steps=None,
    classical=None,
) -> RelationReport:
    """Entrywise dressing-map identities: classical * factor = deformed on
    every node, the partial-inverse roundtrip back to the classical
    generators, and for rank-one type A additionally the weight-diagonal
    dressing route and its agreement with the node factor.  Each node's
    deforming factor is built once per q and its partial inverse taken
    entry by entry.  ``steps`` are the step tables of the deformed
    generators at q, ``classical`` those of the classical ones."""
    q, data, steps = _prepare(model, q, data, steps)
    if classical is None:
        classical = _step_tables(_gen_set(model, q, deformed=False), data.moves)
    components = _map_components(model, q, data, steps, classical)
    return _assemble("map", model, q, components, margin, data.moves)


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


# Which generator sets each family reads.
_DEFORMED_FAMILIES = ("cartan", "ladder", "serre", "map")
_CLASSICAL_FAMILIES = ("serre-classical", "map")

_FAMILY_RUNNERS = {
    "cartan": lambda model, q, margin, data, steps, classical: check_cartan(
        model, q, margin, data=data, steps=steps
    ),
    "ladder": lambda model, q, margin, data, steps, classical: check_ladder(
        model, q, margin, data=data, steps=steps
    ),
    "serre": lambda model, q, margin, data, steps, classical: check_serre(
        model, q, True, margin, data=data, steps=steps
    ),
    "serre-classical": lambda model, q, margin, data, steps, classical: check_serre(
        model, q, False, margin, data=data, steps=classical
    ),
    "map": lambda model, q, margin, data, steps, classical: check_map(
        model, q, margin, data=data, steps=steps, classical=classical
    ),
}


def run_suite(config: SuiteConfig) -> SuiteResult:
    """Run every configured relation family at every configured q,
    deterministically: report order is (q, family) in the configured
    order, and the JSON rendering is byte-stable across runs.

    Shared inputs are built once: the model's ladder-move table, Cartan
    data and (when a family reads them) the step tables of the classical
    generators for the whole run, and the step tables of the deformed
    generators once per q, handed to every family at that q and released
    before the next q builds its own."""
    model = build_model(config.spec())
    families = config.families
    data = _model_data(model)
    classical = None
    if any(fam in _CLASSICAL_FAMILIES for fam in families):
        classical = _step_tables(_gen_set(model, None, deformed=False), data.moves)
    needs_deformed = any(fam in _DEFORMED_FAMILIES for fam in families)
    reports = []
    for q in config.q_list:
        steps = _step_tables(_gen_set(model, q), data.moves) if needs_deformed else None
        for fam in families:
            reports.append(
                _FAMILY_RUNNERS[fam](model, q, config.margin, data, steps, classical)
            )
        steps = None
    return SuiteResult(config=config, reports=reports)
