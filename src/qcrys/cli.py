"""Batch command-line front end: symbolic identity checks, crystal graph
export, generator matrix export, the relation-verification suite, and the
boson realization checks.  All rationals are entered as p/s strings so the
exactness guarantee survives end to end."""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
import tempfile
from fractions import Fraction

from .boson import FockSpace, check_so3, check_so3_towers, standard_so3, vdj_so3
from .crystal import CrystalSpec, build_model, graph_dot, graph_json, resolve_cap
from .rep import (
    matrix_csv,
    matrix_json_entries,
    op_e_classical,
    op_e_deformed,
    op_hat,
)
from .scalar import serre_identity_verdict
from .verify import ConfigError, load_config, run_suite

__all__ = ["main", "build_parser"]


def _rational(text: str) -> Fraction:
    try:
        value = Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"not a rational p/s value: {text!r}")
    if value <= 0:
        raise argparse.ArgumentTypeError(f"rational must be positive: {text!r}")
    return value


def _write_output(path: str | None, text: str) -> None:
    """Write atomically (write-then-rename) so no partial file survives an
    error; without a path, print to stdout."""
    if path is None:
        sys.stdout.write(text)
        return
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".qcrys-")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _spec_from_args(args) -> CrystalSpec:
    return CrystalSpec(args.type, args.n, args.lam, resolve_cap(args.type, args.lam, args.cap))


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
    p_ver.add_argument("--config", default=None, help="JSON config file (overrides flags)")
    p_ver.add_argument("--type", choices=["A", "C"])
    p_ver.add_argument("--n", type=int)
    p_ver.add_argument("--lambda", dest="lam", type=int)
    p_ver.add_argument("--cap", type=int, default=None)
    p_ver.add_argument("--margin", type=int, default=None)
    p_ver.add_argument("--q", default=None, help="comma list of rationals, e.g. 1,2,1/2,3/5")
    p_ver.add_argument(
        "--families",
        default=None,
        help="comma list from cartan,ladder,serre,serre-classical,map",
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


def _cmd_identity(args) -> int:
    if args.a < 1:
        print("identity: --a must be >= 1", file=sys.stderr)
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
    _write_output(args.output, text)
    return 0 if verdict.holds else 1


def _cmd_crystal(args) -> int:
    model = build_model(_spec_from_args(args))
    text = graph_dot(model) if args.format == "dot" else graph_json(model)
    _write_output(args.output, text)
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
        text = matrix_csv(ops)
    else:
        obj = {
            "spec": model.spec.describe(),
            "which": args.which,
            "node": args.node,
            "q": str(args.q),
            "plus": matrix_json_entries(ops["plus"]),
            "minus": matrix_json_entries(ops["minus"]),
        }
        text = json.dumps(obj, sort_keys=True, indent=2) + "\n"
    _write_output(args.output, text)
    return 0


def _cmd_verify(args) -> int:
    if args.config is not None:
        config = load_config(args.config)
    else:
        if args.type is None or args.n is None or args.lam is None:
            raise ConfigError("verify needs --config or --type/--n/--lambda")
        data = {"type": args.type, "n": args.n, "lambda": args.lam}
        if args.cap is not None:
            data["cap"] = args.cap
        if args.margin is not None:
            data["margin"] = args.margin
        if args.q is not None:
            data["q"] = args.q
        if args.families is not None:
            data["families"] = args.families
        config = load_config(data)
    if args.cz and "map" not in config.families:
        config = dataclasses.replace(config, families=config.families + ("map",))
    result = run_suite(config)
    for report in result.reports:
        print(report.one_line())
    totals = result.totals
    print(
        f"TOTAL: pass={totals['pass']} fail={totals['fail']} "
        f"boundary={totals['boundary']}"
    )
    if args.output is not None:
        _write_output(args.output, result.to_json())
    return result.exit_code


def _cmd_boson(args) -> int:
    if args.cutoff < 0:
        print("boson: --cutoff must be non-negative", file=sys.stderr)
        return 2
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
        _write_output(args.output, text)
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
