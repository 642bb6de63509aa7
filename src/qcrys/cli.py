"""Batch command-line front end: symbolic identity checks, crystal graph
export, generator matrix export, the relation-verification suite, and the
boson realization checks.  All rationals are entered as p/s strings so the
exactness guarantee survives end to end."""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from fractions import Fraction
from itertools import islice

from .boson import FockSpace, check_so3, check_so3_towers, standard_so3, vdj_so3
from .crystal import (
    CrystalSpec,
    build_model,
    graph_dot,
    graph_json_obj,
    resolve_cap,
    state_count,
)
from .rep import (
    matrix_csv,
    matrix_json_entries,
    op_e_classical,
    op_e_deformed,
    op_hat,
)
from .scalar import serre_identity_verdict
from .verify import KNOWN_FAMILIES, ConfigError, VerificationError, load_config, run_suite

__all__ = ["main", "build_parser"]


def _rational(text: str) -> Fraction:
    try:
        value = Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"not a rational p/s value: {text!r}")
    if value <= 0:
        raise argparse.ArgumentTypeError(f"rational must be positive: {text!r}")
    return value


def _write_output(path: str | None, chunks) -> None:
    """Write the text chunks atomically (write-then-rename) so no partial
    file survives an error; without a path, write them to stdout.  The
    file gets the mode a plain open() would give it (0666 less the umask)."""
    it = iter(chunks)  # joined 4096 per write; join returns a lone chunk uncopied
    chunks = map("".join, iter(lambda: list(islice(it, 4096)), []))
    if path is None:
        sys.stdout.writelines(chunks)
        return
    directory = os.path.dirname(os.path.abspath(path))
    # O_EXCL never opens an existing file, and 64 random bits make a clash
    # with another writer's name practically impossible.
    tmp = os.path.join(directory, f".qcrys-{os.urandom(8).hex()}")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.writelines(chunks)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _json_chunks(obj):
    """The text of json.dumps(obj, sort_keys=True, indent=2) + "\\n", chunk
    by chunk, so a large export is never held whole."""
    yield from json.JSONEncoder(sort_keys=True, indent=2).iterencode(obj)
    yield "\n"


# The crystal, rep and verify commands build the whole state space, and
# verify walks every relation word from every state where it can take a
# step: C(3,3,31), 3128 states, verifies in about 1 s, and C(3,3,59), 19,375
# states, in about 8 s and 112 MB at the default four q.  A larger space is
# refused before anything is built, and so is a larger Fock space for boson.
# Above rank 4 a state counts (nodes / 4)**2, as the model's move columns
# (CrystalModel.moves) and verify._model_data's h2 and brackets grow as
# nodes * states.  A(69,1), the largest admitted rank-one type A, takes
# 0.12 s from launch to exit and 17 MB; in-process A(140,1) takes 0.06 s
# and 20 MB.
_MAX_STATES = 20_000


def _preflight(spec: CrystalSpec) -> CrystalSpec:
    """``spec``, unless its state space (counted in closed form) has more
    than _MAX_STATES states, plain or weighted by rank.  Every spec has a
    state, so the rank alone is checked first: the type C count costs
    about nodes**2 bit operations."""
    scale = max(spec.nodes, 4) ** 2
    if -(-scale // 16) > _MAX_STATES:
        raise ValueError(
            f"one state on {spec.nodes} nodes, which count as {-(-scale // 16)} at rank 4, "
            f"is already more than the {_MAX_STATES} states qcrys builds"
        )
    count = state_count(spec)
    if count > _MAX_STATES:
        raise ValueError(f"the state space has {count} states; qcrys builds at most {_MAX_STATES}")
    weighted = -(-count * scale // 16)  # rounded up
    if weighted > _MAX_STATES:
        raise ValueError(
            f"the state space has {count} states on {spec.nodes} nodes, which count as "
            f"{weighted} at rank 4; qcrys builds at most {_MAX_STATES}"
        )
    return spec


def _spec_from_args(args) -> CrystalSpec:
    spec = CrystalSpec(args.type, args.n, args.lam, resolve_cap(args.type, args.lam, args.cap))
    return _preflight(spec)


def _add_spec_flags(parser, require_type=True):
    parser.add_argument("--type", choices=["A", "C"], required=require_type)
    parser.add_argument("--n", type=int, required=True)
    parser.add_argument("--lambda", dest="lam", type=int, required=True)
    parser.add_argument("--cap", type=int, default=None, help="type C box ceiling (default lambda+10)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qcrys",
        description=(
            "Exact workbench for crystal-basis realizations of symmetric "
            "representations, their q-deformations, and the relations between them."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_id = sub.add_parser("identity", help="check the alternating bracket identity")
    p_id.add_argument("--a", type=int, required=True)
    p_id.add_argument("--z", type=int, required=True)
    p_id.add_argument("--json", action="store_true")
    p_id.add_argument("--output", default=None)

    p_cr = sub.add_parser("crystal", help="export a crystal graph")
    _add_spec_flags(p_cr)
    p_cr.add_argument("--format", choices=["dot", "json"], default="json")
    p_cr.add_argument("--output", default=None)

    p_rep = sub.add_parser("rep", help="export a generator matrix")
    _add_spec_flags(p_rep)
    p_rep.add_argument("--which", choices=["hat", "classical", "deformed"], required=True)
    p_rep.add_argument("--node", type=int, required=True)
    p_rep.add_argument("--q", type=_rational, default=Fraction(1))
    p_rep.add_argument("--format", choices=["json", "csv"], default="json")
    p_rep.add_argument("--output", default=None)

    p_ver = sub.add_parser("verify", help="run the relation-verification suite")
    p_ver.add_argument(
        "--config",
        default=None,
        help="JSON config file, in place of --type/--n/--lambda/--cap/--margin/--q/--families",
    )
    p_ver.add_argument("--type", choices=["A", "C"])
    p_ver.add_argument("--n", type=int)
    p_ver.add_argument("--lambda", type=int)
    p_ver.add_argument("--cap", type=int, default=None)
    p_ver.add_argument("--margin", type=int, default=None)
    p_ver.add_argument("--q", default=None, help="comma list of rationals, e.g. 1,2,1/2,3/5")
    p_ver.add_argument(
        "--families",
        default=None,
        help=f"comma list from {','.join(KNOWN_FAMILIES)}",
    )
    p_ver.add_argument(
        "--cz",
        action="store_true",
        help="ensure the dressing-map family (which carries the rank-one "
        "weight-diagonal equivalence) is included",
    )
    p_ver.add_argument("--output", default=None)

    p_bos = sub.add_parser("boson", help="check an so_q(3) oscillator realization")
    p_bos.add_argument("--realization", choices=["vdj", "paper"], required=True)
    p_bos.add_argument("--q", type=_rational, required=True)
    p_bos.add_argument("--cutoff", type=int, default=8)
    p_bos.add_argument("--towers", action="store_true", help="also check irreducible lowering towers")
    p_bos.add_argument("--output", default=None)

    return parser


# The symbolic sum's cost grows steeply with a (a = 40 takes seconds, a = 80
# about a minute), so a larger a is refused up front instead of running for
# hours.
_MAX_IDENTITY_A = 100


def _cmd_identity(args) -> int:
    if args.a < 1:
        print("identity: --a must be >= 1", file=sys.stderr)
        return 2
    if args.a > _MAX_IDENTITY_A:
        print(f"identity: --a must be <= {_MAX_IDENTITY_A}", file=sys.stderr)
        return 2
    verdict = serre_identity_verdict(args.a, args.z)
    if verdict.symbolic:
        mode = "holds for all q and all N"
    elif verdict.at_q1:
        mode = "holds for all N at q=1 only"
    else:
        mode = "fails"
    status = "PASS" if verdict.holds else "FAIL"
    if args.json:
        text = (
            json.dumps(
                {
                    "a": args.a,
                    "z": args.z,
                    "symbolic": verdict.symbolic,
                    "at_q1": verdict.at_q1,
                    "holds": verdict.holds,
                },
                sort_keys=True,
            )
            + "\n"
        )
    else:
        text = f"identity a={args.a} z={args.z}: {status} ({mode})\n"
    _write_output(args.output, [text])
    return 0 if verdict.holds else 1


def _cmd_crystal(args) -> int:
    model = build_model(_spec_from_args(args))
    chunks = [graph_dot(model)] if args.format == "dot" else _json_chunks(graph_json_obj(model))
    _write_output(args.output, chunks)
    return 0


def _cmd_rep(args) -> int:
    model = build_model(_spec_from_args(args))
    if not 1 <= args.node <= model.spec.nodes:
        print(
            f"rep: node {args.node} out of range 1..{model.spec.nodes}",
            file=sys.stderr,
        )
        return 2
    builders = {
        "hat": lambda sign: op_hat(model, args.node, sign),
        "classical": lambda sign: op_e_classical(model, args.node, sign),
        "deformed": lambda sign: op_e_deformed(model, args.node, sign, args.q),
    }
    build = builders[args.which]
    ops = {"plus": build(1), "minus": build(-1)}
    if args.format == "csv":
        chunks = [matrix_csv(ops)]
    else:
        obj = {
            "spec": model.spec.describe(),
            "which": args.which,
            "node": args.node,
            "q": str(args.q),
            "plus": matrix_json_entries(ops["plus"]),
            "minus": matrix_json_entries(ops["minus"]),
        }
        chunks = _json_chunks(obj)
    _write_output(args.output, chunks)
    return 0


# The verify flags that spell out a suite: each is named after its config key.
_SUITE_KEYS = ("type", "n", "lambda", "cap", "margin", "q", "families")


def _cmd_verify(args) -> int:
    data = {key: getattr(args, key) for key in _SUITE_KEYS if getattr(args, key) is not None}
    if args.config is not None:
        if data:
            flags = ", ".join(f"--{key}" for key in data)
            raise ConfigError(f"--config cannot be combined with {flags}")
        config = load_config(args.config)
    elif not {"type", "n", "lambda"} <= data.keys():
        raise ConfigError("verify needs --config or --type/--n/--lambda")
    else:
        config = load_config(data)
    if args.cz and "map" not in config.families:
        config = config._replace(families=config.families + ("map",))
    _preflight(config.spec())
    result = run_suite(config)
    for report in result.reports:
        print(report.one_line())
    totals = result.totals
    print(
        f"TOTAL: pass={totals['pass']} fail={totals['fail']} "
        f"boundary={totals['boundary']}"
    )
    if args.output is not None:
        _write_output(args.output, [result.to_json()])
    return result.exit_code


def _cmd_boson(args) -> int:
    if args.cutoff < 0:
        print("boson: --cutoff must be non-negative", file=sys.stderr)
        return 2
    count = math.comb(args.cutoff + 3, 3)  # three modes, total occupation <= cutoff
    if count > _MAX_STATES:
        raise ValueError(f"the Fock space has {count} states; qcrys builds at most {_MAX_STATES}")
    space = FockSpace(args.cutoff)
    build = vdj_so3 if args.realization == "vdj" else standard_so3
    gens = build(space, args.q)
    report = check_so3(gens, args.q, space, realization=args.realization)
    print(report.one_line())
    reports = [report]
    if args.towers:
        tower_report = check_so3_towers(
            gens, args.q, space, realization=args.realization
        )
        print(tower_report.one_line())
        reports.append(tower_report)
    if args.output is not None:
        text = (
            json.dumps(
                [r.to_json_dict() for r in reports], sort_keys=True, indent=2
            )
            + "\n"
        )
        _write_output(args.output, [text])
    return 0 if all(r.all_clear for r in reports) else 1


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "identity": _cmd_identity,
        "crystal": _cmd_crystal,
        "rep": _cmd_rep,
        "verify": _cmd_verify,
        "boson": _cmd_boson,
    }
    try:
        return handlers[args.command](args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except VerificationError as exc:  # a self-check of the engine, not a relation
        print(f"engine error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        # Writing the output is the only file access left to the handlers
        # (load_config turns its own read errors into ConfigError).
        target = args.output if args.output is not None else "standard output"
        print(f"error: cannot write {target}: {exc.strerror or exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
