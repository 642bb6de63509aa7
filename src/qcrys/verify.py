"""The relation-verification engine: builds the Cartan, ladder, Serre, and
dressing-map relations as exact operator words on a crystal model,
evaluates residuals per state, and classifies each state PASS / FAIL /
BOUNDARY, where BOUNDARY marks verdicts that would only reflect the
finite cap truncating the type C state space."""

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
    CZ_NODE,
    CZ_WEIGHT,
    LinOp,
    commutator,
    cz_factor,
    deform_factor,
    deform_factor_inv,
    op_e_classical,
    op_e_deformed,
    op_h,
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
    ordinal), the measured Cartan matrix and the symmetrizers."""

    moves: list
    h: list
    cartan: list
    d: list


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


def _prepare(model: CrystalModel, q, data, gens, deformed: bool = True):
    """Validate q and build whichever shared inputs the caller left out."""
    q = ensure_positive_q(q)
    if data is None:
        data = _model_data(model)
    if gens is None:
        gens = _gen_set(model, q, deformed)
    return q, data, gens


# -- generic per-state assembly ------------------------------------------------


@dataclass
class _Component:
    """One identity inside a relation family: an exact residual operator
    plus the ladder words (in application order) whose paths decide
    whether a state's verdict is a truncation artifact."""

    label: str
    residual: LinOp
    words: tuple[tuple[tuple[int, int], ...], ...] = ()


def _word_capped(moves: list, k: int, word) -> bool:
    for move in word:
        k, status = moves[k][move]
        if status != MOVE_OK:
            return status == MOVE_CAPPED
    return False


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
    columns: list[dict[int, dict[int, Radical]]] = []
    for comp in components:
        by_src: dict[int, dict[int, Radical]] = {}
        for (src, tgt), val in comp.residual.entries.items():
            by_src.setdefault(src, {})[tgt] = val
        columns.append(by_src)
    for k, s in enumerate(model.states):
        in_margin = boundary_class(model, s, margin) == CAP_MARGIN
        any_boundary = False
        any_fail = False
        all_zero = True
        for ci, comp in enumerate(components):
            col = columns[ci].get(k, {})
            if col:
                all_zero = False
            # Word paths only matter inside the margin: outside it a flag
            # could not excuse the state anyway.
            flagged = in_margin and any(_word_capped(moves, k, w) for w in comp.words)
            if flagged:
                any_boundary = True
            elif col:
                any_fail = True
                traces = "; ".join(_word_trace(model, moves, k, w) for w in comp.words)
                for t, val in sorted(col.items()):
                    report.failures.append(
                        {
                            "state": list(s),
                            "word": f"{comp.label} [{traces}]"
                            f" -> {list(model.states[t])}",
                            "residual": val.json_map(),
                        }
                    )
        klass = FAIL if any_fail else (BOUNDARY if any_boundary else PASS)
        report.per_state.append(StateResult(s, all_zero, klass))
    return report


# -- relation families ---------------------------------------------------------
#
# Each family takes the shared inputs as optional keyword arguments: the
# model data (``data``) and the generators at q (``gens``, classical ones
# for the classical Serre family).  run_suite builds them once and passes
# them in; a standalone call builds what it is not given.


def _cartan_residual(h: list, i: int, op: LinOp, shift) -> LinOp:
    """[H_i, X] - shift * X with H_i diagonal, entry by entry: the entry
    (s, t) is (H_i(t) - H_i(s) - shift) X(s, t), a rational multiple of
    X(s, t) read from the weights ``h`` (per state ordinal), so no
    radical products arise.  Equal to commutator(op_h(model, i), X) -
    X * shift as an exact operator."""
    entries = {}
    for (s, t), v in op.entries.items():
        c = h[t][i - 1] - h[s][i - 1] - shift
        if c:
            entries[(s, t)] = v * c
    return LinOp(op.dim, entries)


def check_cartan(
    model: CrystalModel, q, margin: int = DEFAULT_MARGIN, *, data=None, gens=None
) -> RelationReport:
    """[h_i, h_j] = 0 and [h_i, e_j^+-] = +-a e_j^+- with the Cartan
    integers recomputed from the crystal weight shifts."""
    q, data, e = _prepare(model, q, data, gens)
    a = data.cartan
    nodes = model.spec.nodes
    components = []
    for i in range(1, nodes + 1):
        for j in range(i + 1, nodes + 1):
            components.append(
                _Component(f"[h{i},h{j}]", _cartan_residual(data.h, i, op_h(model, j), 0))
            )
    for i in range(1, nodes + 1):
        for j in range(1, nodes + 1):
            for sign, tag in ((1, "+"), (-1, "-")):
                shift = sign * a[i - 1][j - 1]
                components.append(
                    _Component(
                        f"[h{i},e{tag}{j}]-({shift})e{tag}{j}",
                        _cartan_residual(data.h, i, e[(j, sign)], shift),
                        (((j, sign),),),
                    )
                )
    return _assemble("cartan", model, q, components, margin, data.moves)


def _bracket_h_diag(h: list, i: int, d: int, q: Fraction) -> LinOp:
    """Diagonal of [H_i] in base q^d, from the weights ``h`` (per state
    ordinal).  With k = d * H_i an integer the value is [k]_q / [d]_q,
    which is exact and regular at q = 1."""
    values = []
    denom = qint_at(d, q)
    for hs in h:
        hd = hs[i - 1] * d
        if hd.denominator != 1:
            raise VerificationError("scaled Cartan eigenvalue is not integral")
        values.append(Radical.from_rational(qint_at(int(hd), q) / denom))
    return LinOp.diagonal(values)


def check_ladder(
    model: CrystalModel, q, margin: int = DEFAULT_MARGIN, *, data=None, gens=None
) -> RelationReport:
    """[e_i^+, e_j^-] = delta_ij [H_i] in base q^(d_i) (so the long type C
    node uses base q^2, where the half-integer H_n still gives an exact
    rational bracket)."""
    q, data, e = _prepare(model, q, data, gens)
    d = data.d
    nodes = model.spec.nodes
    components = []
    for i in range(1, nodes + 1):
        for j in range(1, nodes + 1):
            residual = commutator(e[(i, 1)], e[(j, -1)])
            if i == j:
                residual = residual - _bracket_h_diag(data.h, i, d[i - 1], q)
            label = f"[e+{i},e-{j}]" + (f"-[H{i}]_qi" if i == j else "")
            words = (((j, -1), (i, 1)), ((i, 1), (j, -1)))
            components.append(_Component(label, residual, words))
    return _assemble("ladder", model, q, components, margin, data.moves)


def check_serre(
    model: CrystalModel,
    q,
    deformed: bool = True,
    margin: int = DEFAULT_MARGIN,
    *,
    data=None,
    gens=None,
) -> RelationReport:
    """Serre relations for every ordered node pair, built from the
    measured Cartan matrix: sum_v (-1)^v B(1-a_ij, v) x^(1-a_ij-v) y x^v
    with x = e_i, y = e_j, and B the q^(d_i)-binomial (deformed) or the
    ordinary binomial (classical).  ``gens`` are the generators of the
    chosen kind."""
    q, data, gens = _prepare(model, q, data, gens, deformed)
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
            for sign, tag in ((1, "+"), (-1, "-")):
                x = gens[(i, sign)]
                y = gens[(j, sign)]
                powers = [LinOp.identity(model.dim)]
                for _ in range(m):
                    powers.append(powers[-1] @ x)
                residual = LinOp.zero(model.dim)
                words = []
                for v in range(m + 1):
                    coeff = (
                        qbinom(m, v).eval((qi,))
                        if deformed
                        else Fraction(math.comb(m, v))
                    )
                    if v % 2:
                        coeff = -coeff
                    residual = residual + (powers[m - v] @ y @ powers[v]) * coeff
                    words.append(
                        tuple([(i, sign)] * v + [(j, sign)] + [(i, sign)] * (m - v))
                    )
                base = f"q^{d[i - 1]}" if deformed else "1"
                label = f"serre(e{tag}{i};e{tag}{j}) len={m} binom_base={base}"
                components.append(_Component(label, residual, tuple(words)))
    rid = "serre-deformed" if deformed else "serre-classical"
    return _assemble(rid, model, q, components, margin, data.moves)


def check_map(
    model: CrystalModel,
    q,
    margin: int = DEFAULT_MARGIN,
    *,
    data=None,
    gens=None,
    classical=None,
) -> RelationReport:
    """Entrywise dressing-map identities: classical * factor = deformed on
    every node, the partial-inverse roundtrip back to the classical
    generators, and for rank-one type A additionally the weight-diagonal
    dressing route and its agreement with the node factor.  ``gens`` are
    the deformed generators at q, ``classical`` the classical ones."""
    q, data, gens = _prepare(model, q, data, gens)
    if classical is None:
        classical = _gen_set(model, q, deformed=False)
    components = []
    for node in range(1, model.spec.nodes + 1):
        f = deform_factor(model, node, q)
        fi = deform_factor_inv(model, node, q)
        ep, em = classical[(node, 1)], classical[(node, -1)]
        dp, dm = gens[(node, 1)], gens[(node, -1)]
        up = (((node, 1),),)
        down = (((node, -1),),)
        components.extend(
            [
                _Component(f"E+{node}*F-e+{node}", ep @ f - dp, up),
                _Component(f"F*E-{node}-e-{node}", f @ em - dm, down),
                _Component(f"e+{node}*Finv-E+{node}", dp @ fi - ep, up),
                _Component(f"Finv*e-{node}-E-{node}", fi @ dm - em, down),
            ]
        )
    if model.spec.algebra_type == TYPE_A and model.spec.n == 2:
        d2 = cz_factor(model, q, CZ_WEIGHT)
        d1 = cz_factor(model, q, CZ_NODE)
        jp = classical[(1, 1)]
        dp = gens[(1, 1)]
        hat = op_hat(model, 1, 1)
        components.append(_Component("cz_weight*j+-e+1", d2 @ jp - dp, (((1, 1),),)))
        components.append(
            _Component("cz_weight(image)-cz_node(source)", d2 @ hat - hat @ d1, (((1, 1),),))
        )
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
    try:
        algebra_type = str(data["type"])
        n = int(data["n"])
        lam = int(data["lambda"])
    except KeyError as exc:
        raise ConfigError(f"missing config key: {exc.args[0]!r}") from None
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad config value: {exc}") from None
    cap = data.get("cap")
    if cap is None and algebra_type == TYPE_C:
        cap = lam + 10
    if cap is not None:
        cap = int(cap)
    margin = int(data.get("margin", DEFAULT_MARGIN))
    if margin < 0:
        raise ConfigError("margin must be non-negative")
    q_raw = data.get("q", [str(v) for v in DEFAULT_Q_LIST])
    if isinstance(q_raw, str):
        q_raw = q_raw.split(",")
    q_list = tuple(_parse_q(v) for v in q_raw)
    if not q_list:
        raise ConfigError("at least one q value is required")
    families = tuple(data.get("families", DEFAULT_FAMILIES))
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
    "cartan": lambda model, q, margin, data, gens, classical: check_cartan(
        model, q, margin, data=data, gens=gens
    ),
    "ladder": lambda model, q, margin, data, gens, classical: check_ladder(
        model, q, margin, data=data, gens=gens
    ),
    "serre": lambda model, q, margin, data, gens, classical: check_serre(
        model, q, True, margin, data=data, gens=gens
    ),
    "serre-classical": lambda model, q, margin, data, gens, classical: check_serre(
        model, q, False, margin, data=data, gens=classical
    ),
    "map": lambda model, q, margin, data, gens, classical: check_map(
        model, q, margin, data=data, gens=gens, classical=classical
    ),
}


def run_suite(config: SuiteConfig) -> SuiteResult:
    """Run every configured relation family at every configured q,
    deterministically: report order is (q, family) in the configured
    order, and the JSON rendering is byte-stable across runs.

    Shared inputs are built once: the model's ladder-move table, Cartan
    data and (when a family reads them) classical generators for the
    whole run, and the deformed generators once per q, handed to every
    family at that q and released before the next q builds its own."""
    model = build_model(config.spec())
    families = config.families
    data = _model_data(model)
    classical = None
    if any(fam in _CLASSICAL_FAMILIES for fam in families):
        classical = _gen_set(model, None, deformed=False)
    needs_deformed = any(fam in _DEFORMED_FAMILIES for fam in families)
    reports = []
    for q in config.q_list:
        gens = _gen_set(model, q) if needs_deformed else None
        for fam in families:
            reports.append(
                _FAMILY_RUNNERS[fam](model, q, config.margin, data, gens, classical)
            )
        gens = None
    return SuiteResult(config=config, reports=reports)
