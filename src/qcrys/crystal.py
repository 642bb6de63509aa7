"""Symmetric-representation crystal models: state enumeration, partial
ladder moves, number/Cartan weights, truncation classification, and graph
export in DOT and JSON form."""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction

__all__ = [
    "TYPE_A",
    "TYPE_C",
    "INTERIOR",
    "CAP_MARGIN",
    "MOVE_OK",
    "MOVE_DEAD",
    "MOVE_CAPPED",
    "DEFAULT_MARGIN",
    "DEFAULT_CAP_HEADROOM",
    "resolve_cap",
    "CrystalSpec",
    "CrystalModel",
    "build_model",
    "move_delta",
    "apply_move",
    "apply_delta",
    "e_hat",
    "weight_n",
    "weight_h",
    "weight_h2",
    "boundary_class",
    "graph_json_obj",
    "graph_json",
    "graph_dot",
]

TYPE_A = "A"
TYPE_C = "C"

INTERIOR = "INTERIOR"
CAP_MARGIN = "CAP_MARGIN"

# Outcomes of a single ladder move.  DEAD is genuine annihilation (a label
# would go negative), CAPPED means the move is only blocked by the finite
# cap that truncates the unbounded top of the long-node ladder.
MOVE_OK = "ok"
MOVE_DEAD = "dead"
MOVE_CAPPED = "capped"

DEFAULT_MARGIN = 6

# A type C space built without an explicit cap stops at lam + this headroom.
DEFAULT_CAP_HEADROOM = 10


def resolve_cap(algebra_type: str, lam: int, cap: int | None) -> int | None:
    """``cap`` when given, else lam + DEFAULT_CAP_HEADROOM for type C and
    None for type A; CrystalSpec still refuses a cap that does not fit."""
    if cap is None and algebra_type == TYPE_C:
        return lam + DEFAULT_CAP_HEADROOM
    return cap


@dataclass(frozen=True)
class CrystalSpec:
    """Which symmetric state space to build.

    ``lam`` is the single nonzero Dynkin label.  Type A carries sl(n) on
    tuples summing to lam; type C carries sp(2n) on tuples of total
    occupation at most ``cap`` with the parity of lam (the long-node ladder
    has no finite top, so a cap is required to materialize it).
    """

    algebra_type: str
    n: int
    lam: int
    cap: int | None = None

    def __post_init__(self):
        if self.algebra_type not in (TYPE_A, TYPE_C):
            raise ValueError(f"unknown algebra type {self.algebra_type!r}")
        if self.lam < 0:
            raise ValueError("highest-weight label must be non-negative")
        if self.algebra_type == TYPE_A:
            if self.n < 2:
                raise ValueError("type A needs n >= 2")
            if self.cap is not None:
                raise ValueError("type A state spaces take no cap")
        else:
            if self.n < 1:
                raise ValueError("type C needs n >= 1")
            if self.cap is None:
                raise ValueError("type C state spaces need a cap")
            if self.cap < self.lam:
                raise ValueError("cap must be at least the highest-weight label")

    @property
    def nodes(self) -> int:
        """Number of ladder-operator nodes (simple roots)."""
        return self.n - 1 if self.algebra_type == TYPE_A else self.n

    def describe(self) -> dict:
        return {
            "algebra_type": self.algebra_type,
            "n": self.n,
            "lambda": self.lam,
            "cap": self.cap,
        }


class CrystalModel:
    """Immutable enumerated state space with ordinal lookup."""

    __slots__ = ("spec", "states", "index")

    def __init__(self, spec: CrystalSpec, states):
        self.spec = spec
        self.states = tuple(tuple(s) for s in states)
        self.index = {s: k for k, s in enumerate(self.states)}
        if len(self.index) != len(self.states):
            raise ValueError("duplicate states")

    @property
    def dim(self) -> int:
        return len(self.states)

    def __contains__(self, state) -> bool:
        return tuple(state) in self.index

    def __repr__(self):
        return f"CrystalModel({self.spec!r}, dim={self.dim})"


def _compositions(total: int, parts: int):
    """All tuples of ``parts`` non-negative integers summing to ``total``,
    in descending lexicographic order."""
    if parts == 1:
        yield (total,)
        return
    for first in range(total, -1, -1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def build_model(spec: CrystalSpec) -> CrystalModel:
    """Enumerate the state space.

    Type A: compositions of lam into n parts, highest weight first
    (descending lexicographic).  Type C: all tuples with total at most cap
    and total congruent to lam mod 2, ascending lexicographic.  Both
    orderings are deterministic so matrices and reports are reproducible.
    """
    if spec.algebra_type == TYPE_A:
        states = list(_compositions(spec.lam, spec.n))
    else:
        states = []
        for total in range(spec.lam % 2, spec.cap + 1, 2):
            states.extend(_compositions(total, spec.n))
        states.sort()
    return CrystalModel(spec, states)


def _check_node(spec: CrystalSpec, node: int) -> None:
    if not 1 <= node <= spec.nodes:
        raise ValueError(f"node {node} out of range 1..{spec.nodes}")


def move_delta(spec: CrystalSpec, node: int, sign: int) -> tuple[int, ...]:
    """Label shift of the ladder move: nodes below n exchange one box
    between adjacent labels; the type C long node shifts the last label
    by two."""
    _check_node(spec, node)
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    delta = [0] * spec.n
    if spec.algebra_type == TYPE_C and node == spec.n:
        delta[-1] = 2 * sign
    else:
        delta[node - 1] = sign
        delta[node] = -sign
    return tuple(delta)


def apply_move(spec: CrystalSpec, state, node: int, sign: int):
    """Apply one ladder move; returns (new_state, status).

    Status MOVE_DEAD marks genuine annihilation at a string end (a label
    would turn negative, which also kills the move on the untruncated
    space); MOVE_CAPPED marks a move blocked only by the type C cap.
    """
    return apply_delta(spec, state, move_delta(spec, node, sign))


def apply_delta(spec: CrystalSpec, state, delta: tuple[int, ...]):
    """apply_move with the move given by its label shift, as move_delta
    returns it, so a caller that applies one move to many states computes
    the shift once."""
    new = tuple(a + b for a, b in zip(state, delta))
    if min(new) < 0:
        return None, MOVE_DEAD
    if spec.algebra_type == TYPE_C and sum(new) > spec.cap:
        return None, MOVE_CAPPED
    return new, MOVE_OK


def e_hat(model: CrystalModel, node: int, sign: int, state):
    """Crystal ladder operator on a basis state: the shifted state, or
    None when the operator annihilates (string end or cap)."""
    state = tuple(state)
    if state not in model.index:
        raise ValueError(f"state {state} not in model")
    new, _ = apply_move(model.spec, state, node, sign)
    return new


def weight_n(model: CrystalModel, state) -> tuple[int, ...]:
    """Number-operator eigenvalues: the label tuple itself."""
    state = tuple(state)
    if state not in model.index:
        raise ValueError(f"state {state} not in model")
    return state


def weight_h2(model: CrystalModel, state) -> tuple[int, ...]:
    """Doubled Cartan eigenvalues 2H_i, all integers: twice the adjacent
    label differences, plus 2 l_n + 1 on the type C long node."""
    state = weight_n(model, state)
    out = [2 * (state[i] - state[i + 1]) for i in range(model.spec.n - 1)]
    if model.spec.algebra_type == TYPE_C:
        out.append(2 * state[-1] + 1)
    return tuple(out)


def weight_h(model: CrystalModel, state) -> tuple[Fraction, ...]:
    """Cartan eigenvalues: adjacent label differences, plus l_n + 1/2 on
    the type C long node (half of weight_h2)."""
    return tuple(Fraction(x, 2) for x in weight_h2(model, state))


def boundary_class(model: CrystalModel, state, margin: int = DEFAULT_MARGIN) -> str:
    """CAP_MARGIN when a type C state sits within ``margin`` of the cap,
    INTERIOR otherwise.  Type A spaces are exact, never truncated."""
    if margin < 0:
        raise ValueError("margin must be non-negative")
    state = weight_n(model, state)
    spec = model.spec
    if spec.algebra_type == TYPE_C and sum(state) > spec.cap - margin:
        return CAP_MARGIN
    return INTERIOR


def _edges(model: CrystalModel):
    """Directed lowering edges (source ordinal, target ordinal, node)."""
    for k, state in enumerate(model.states):
        for node in range(1, model.spec.nodes + 1):
            target = e_hat(model, node, -1, state)
            if target is not None:
                yield k, model.index[target], node


def graph_json_obj(model: CrystalModel) -> dict:
    return {
        "spec": model.spec.describe(),
        "states": [list(s) for s in model.states],
        "edges": [{"from": a, "to": b, "node": i} for a, b, i in _edges(model)],
    }


def graph_json(model: CrystalModel) -> str:
    return json.dumps(graph_json_obj(model), sort_keys=True, indent=2) + "\n"


def graph_dot(model: CrystalModel) -> str:
    lines = ["digraph crystal {", "  node [shape=box];"]
    for k, state in enumerate(model.states):
        h = ",".join(str(x) for x in weight_h(model, state))
        l = ",".join(str(x) for x in state)
        lines.append(f'  s{k} [label="({l}) H=({h})"];')
    for a, b, i in _edges(model):
        lines.append(f'  s{a} -> s{b} [label="{i}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
