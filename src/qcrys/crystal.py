"""Symmetric-representation crystal models: state enumeration, partial
ladder moves, number/Cartan weights, truncation classification, and graph
export in DOT and JSON form."""

from __future__ import annotations

import json
import math
from collections import namedtuple
from fractions import Fraction
from itertools import combinations
from operator import add

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
    "state_count",
    "move_delta",
    "apply_move",
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


class CrystalSpec(namedtuple("CrystalSpec", "algebra_type n lam cap")):
    """Which symmetric state space to build (immutable, compared and hashed
    by value).

    ``lam`` is the single nonzero Dynkin label.  Type A carries sl(n) on
    tuples summing to lam; type C carries sp(2n) on tuples of total
    occupation at most ``cap`` with the parity of lam (the long-node ladder
    has no finite top, so a cap is required to materialize it).
    """

    __slots__ = ()

    def __new__(cls, algebra_type: str, n: int, lam: int, cap: int | None = None):
        if algebra_type not in (TYPE_A, TYPE_C):
            raise ValueError(f"unknown algebra type {algebra_type!r}")
        if lam < 0:
            raise ValueError("highest-weight label must be non-negative")
        if algebra_type == TYPE_A:
            if n < 2:
                raise ValueError("type A needs n >= 2")
            if cap is not None:
                raise ValueError("type A state spaces take no cap")
        else:
            if n < 1:
                raise ValueError("type C needs n >= 1")
            if cap is None:
                raise ValueError("type C state spaces need a cap")
            if cap < lam:
                raise ValueError("cap must be at least the highest-weight label")
        return super().__new__(cls, algebra_type, n, lam, cap)

    @classmethod
    def _make(cls, iterable):
        # namedtuple's own _make (and so _replace) would skip the checks.
        return cls(*iterable)

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
    """Immutable enumerated state space with ordinal lookup, and the one
    table of its ladder moves, which every consumer reads by ordinal."""

    __slots__ = ("spec", "states", "index", "_moves")

    def __init__(self, spec: CrystalSpec, states):
        self.spec = spec
        self.states = tuple(tuple(s) for s in states)
        self.index = {s: k for k, s in enumerate(self.states)}
        if len(self.index) != len(self.states):
            raise ValueError("duplicate states")
        self._moves = {}  # (node, sign) -> column of moves

    def moves(self, node: int, sign: int) -> tuple:
        """The ladder move (node, sign) on every state, by source ordinal:
        (target ordinal, MOVE_OK), or (None, MOVE_DEAD / MOVE_CAPPED) as
        apply_move decides.  Each column is built on first use from only
        the labels move_delta changes (node - 1 and node, or the last on
        the long node) and kept.  A move that succeeds always lands inside
        the model, so word walks never leave the table."""
        column = self._moves.get((node, sign))
        if column is None:
            spec, index, column = self.spec, self.index, []
            long_node = spec.algebra_type == TYPE_C and node == spec.n
            lo, hi = (spec.n - 1, spec.n) if long_node else (node - 1, node + 1)
            shift = move_delta(spec, node, sign)[lo:hi]
            for s in self.states:
                new = tuple(map(add, s[lo:hi], shift))
                if min(new) < 0:
                    column.append((None, MOVE_DEAD))
                elif long_node and sum(s) + shift[0] > spec.cap:  # a short move keeps the total
                    column.append((None, MOVE_CAPPED))
                else:
                    column.append((index[s[:lo] + new + s[hi:]], MOVE_OK))
            column = self._moves[(node, sign)] = tuple(column)
        return column

    @property
    def dim(self) -> int:
        return len(self.states)

    def __contains__(self, state) -> bool:
        return tuple(state) in self.index

    def __repr__(self):
        return f"CrystalModel({self.spec!r}, dim={self.dim})"


def _compositions(total: int, parts: int) -> list:
    """All tuples of ``parts`` non-negative integers summing to ``total``,
    in descending lexicographic order: stars and bars, with ``parts - 1``
    bars among ``total + parts - 1`` slots, whose ascending order is the
    ascending order of the tuples."""
    slots = total + parts - 1
    out = []
    for bars in combinations(range(slots), parts - 1):
        edges = (-1, *bars, slots)
        out.append(tuple(edges[i + 1] - edges[i] - 1 for i in range(parts)))
    out.reverse()
    return out


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


def state_count(spec: CrystalSpec) -> int:
    """The number of states build_model(spec) enumerates, in closed form,
    so a size can be judged before anything is built.

    Type A has C(lam+n-1, n-1) compositions.  Type C sums C(t+n-1, n-1)
    over the totals t <= cap of lam's parity: half the sum over every
    t <= cap, which is C(cap+n, n), plus or minus half the alternating sum
    of the same terms, which is the coefficient of x**cap in
    1/((1-x)(1+x)**n) up to sign; partial fractions in 1+x give it in n
    terms, so the work never grows with lam or cap.
    """
    n, lam, cap = spec.n, spec.lam, spec.cap
    if spec.algebra_type == TYPE_A:
        return math.comb(lam + n - 1, n - 1)
    every = math.comb(cap + n, n)
    # the sum over t <= cap of (-1)**(cap-t) * C(t+n-1, n-1)
    alternating = (
        (-1) ** cap + sum(2 ** (k - 1) * math.comb(cap + k - 1, k - 1) for k in range(1, n + 1))
    ) // 2**n
    if (cap - lam) % 2:
        return (every - alternating) // 2
    return (every + alternating) // 2


def move_delta(spec: CrystalSpec, node: int, sign: int) -> tuple[int, ...]:
    """Label shift of the ladder move: nodes below n exchange one box
    between adjacent labels; the type C long node shifts the last label
    by two."""
    if not 1 <= node <= spec.nodes:
        raise ValueError(f"node {node} out of range 1..{spec.nodes}")
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
    new = tuple(a + b for a, b in zip(state, move_delta(spec, node, sign)))
    if min(new) < 0:
        return None, MOVE_DEAD
    if spec.algebra_type == TYPE_C and sum(new) > spec.cap:
        return None, MOVE_CAPPED
    return new, MOVE_OK


def e_hat(model: CrystalModel, node: int, sign: int, state):
    """Crystal ladder operator on a basis state: the shifted state, or
    None when the operator annihilates (string end or cap)."""
    k = model.index.get(tuple(state))
    if k is None:
        raise ValueError(f"state {tuple(state)} not in model")
    t = model.moves(node, sign)[k][0]
    return None if t is None else model.states[t]


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
    """Directed lowering edges (source ordinal, target ordinal, node), in
    (source, node) order."""
    columns = [model.moves(node, -1) for node in range(1, model.spec.nodes + 1)]
    for k in range(model.dim):
        for node, column in enumerate(columns, 1):
            t = column[k][0]
            if t is not None:
                yield k, t, node


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
        # H = x/2 for each x of 2H, written as str(Fraction) would write it
        h = ",".join(str(x // 2) if x % 2 == 0 else f"{x}/2" for x in weight_h2(model, state))
        l = ",".join(str(x) for x in state)
        lines.append(f'  s{k} [label="({l}) H=({h})"];')
    for a, b, i in _edges(model):
        lines.append(f'  s{a} -> s{b} [label="{i}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
