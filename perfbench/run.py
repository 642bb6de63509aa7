#!/usr/bin/env python3
"""Benchmark of the qcrys command line, as a user of the exact workbench
meets it: one fresh interpreter per operation, waiting for a verdict.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout that holds ``src/qcrys``.  A closed loop
with one client launches one child (``perfbench/child.py``) at a time, so
the process-wide ``lru_cache``s of ``qcrys.scalar`` start cold for every
operation, as they do for every CLI user.  Each verdict is checked
against closed forms that do not come from the code under test.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates
untraced and traced operations on the same argv and prints the
per-layer metrics.  The last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics; the line before it
carries provenance and the per-operation records.  See README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import math
import os
import platform
import random
import re
import select
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".bench_build" / "perfbench"

REPORT_LINE = re.compile(r"^(\S+) q=(\S+): pass=(\d+) fail=(\d+) boundary=(\d+)$")
TOTAL_LINE = re.compile(r"^TOTAL: pass=(\d+) fail=(\d+) boundary=(\d+)$")
VERIFY_FAMILIES = ("cartan", "ladder", "serre-deformed", "map")


# -- closed-form oracles --------------------------------------------------------


def type_c_dim(n: int, lam: int, cap: int) -> int:
    """Type C states: compositions into n parts of every total t <= cap
    with the parity of lambda."""
    return sum(math.comb(t + n - 1, n - 1) for t in range(lam % 2, cap + 1, 2))


def type_a_dim(n: int, lam: int) -> int:
    return math.comb(lam + n - 1, n - 1)


def parse_reports(stdout: str) -> tuple[list[tuple], tuple | None]:
    """(relation_id, q, pass, fail, boundary) per report line, and the
    TOTAL line of ``verify`` if present."""
    reports, total = [], None
    for line in stdout.splitlines():
        m = REPORT_LINE.match(line)
        if m:
            reports.append((m[1], m[2], int(m[3]), int(m[4]), int(m[5])))
        m = TOTAL_LINE.match(line)
        if m:
            total = (int(m[1]), int(m[2]), int(m[3]))
    return reports, total


def _json_summaries(report: bytes, problems: list[str]) -> list[tuple] | None:
    try:
        obj = json.loads(report)
        items = obj["reports"] if isinstance(obj, dict) else obj
        return [
            (r["relation_id"], r["q"], r["summary"]["pass"], r["summary"]["fail"], r["summary"]["boundary"])
            for r in items
        ]
    except (ValueError, KeyError, TypeError) as exc:
        problems.append(f"report file unreadable: {exc!r}")
        return None


def check_verify(expect: dict, qs: list[str], rc: int, stdout: str, report: bytes | None) -> list[str]:
    """Every (q, family) report in order, each covering ``dim`` states with
    no FAIL; type A additionally has no BOUNDARY; exit code 0."""
    problems = []
    if rc != 0:
        problems.append(f"exit code {rc}, expected 0")
    reports, total = parse_reports(stdout)
    want = [(fam, q) for q in qs for fam in VERIFY_FAMILIES]
    if [r[:2] for r in reports] != want:
        problems.append(f"reports {[r[:2] for r in reports]}, expected {want}")
    for rid, q, p, f, b in reports:
        if p + f + b != expect["dim"]:
            problems.append(f"{rid} q={q}: {p + f + b} states, expected {expect['dim']}")
        if f:
            problems.append(f"{rid} q={q}: {f} FAIL states")
        if "boundary" in expect and b != expect["boundary"]:
            problems.append(f"{rid} q={q}: {b} BOUNDARY states, expected {expect['boundary']}")
    sums = tuple(sum(r[k] for r in reports) for k in (2, 3, 4))
    if total != sums:
        problems.append(f"TOTAL line {total} disagrees with the reports {sums}")
    if report is not None and _json_summaries(report, problems) not in (None, reports):
        problems.append("report file disagrees with the printed summaries")
    return problems


def check_boson(expect: dict, qs: list[str], rc: int, stdout: str, report: bytes | None) -> list[str]:
    """so3 report over C(cutoff+3, 3) states; tower report with (cutoff+1)^2
    PASS and nothing else; exit code 1 exactly when so3 has FAIL states."""
    problems = []
    reports, _ = parse_reports(stdout)
    want = [("so3[paper]", qs[0]), ("so3-towers[paper]", qs[0])]
    if [r[:2] for r in reports] != want:
        return [f"reports {[r[:2] for r in reports]}, expected {want}"]
    (_, _, p, f, b), (_, _, tp, tf, tb) = reports
    if p + f + b != expect["so3_states"]:
        problems.append(f"so3: {p + f + b} states, expected {expect['so3_states']}")
    if (tp, tf, tb) != (expect["tower_states"], 0, 0):
        problems.append(f"towers: pass/fail/boundary {(tp, tf, tb)}, expected ({expect['tower_states']}, 0, 0)")
    if rc != (1 if f else 0):
        problems.append(f"exit code {rc} with {f} so3 FAIL states")
    if report is not None and _json_summaries(report, problems) not in (None, reports):
        problems.append("report file disagrees with the printed summaries")
    return problems


# -- workloads ----------------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    name: str
    pool: tuple[str, ...]  # q values the seed draws from (canonical Fraction text)
    per_op: int  # q values drawn per operation, without replacement
    limit_s: float  # per-operation time limit; an operation over it fails
    size: dict
    tiny: dict  # self-test and untimed bytecode warm-up input
    argv: Callable[[list[str], dict, str], list[str]]
    expect: Callable[[dict], dict]
    check: Callable[..., list[str]]


REPORT_PATH = ".bench_build/perfbench/report.json"

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="sp2n_suite",
            pool=("1", "2", "1/2", "3/5", "5/3", "3/2", "2/3"),
            per_op=4,
            limit_s=60,
            size={"n": 3, "lam": 3, "cap": 13},
            tiny={"n": 2, "lam": 2, "cap": 6},
            argv=lambda qs, s, out: [
                "verify", "--type", "C", "--n", str(s["n"]), "--lambda", str(s["lam"]),
                "--cap", str(s["cap"]), "--q", ",".join(qs), "--output", out,
            ],
            expect=lambda s: {"dim": type_c_dim(s["n"], s["lam"], s["cap"])},
            check=check_verify,
        ),
        Workload(
            name="sl2_deep_q",
            pool=("3/4", "4/3"),
            per_op=1,
            limit_s=30,
            size={"lam": 40},
            tiny={"lam": 4},
            argv=lambda qs, s, out: [
                "verify", "--type", "A", "--n", "2", "--lambda", str(s["lam"]), "--q", qs[0],
            ],
            expect=lambda s: {"dim": type_a_dim(2, s["lam"]), "boundary": 0},
            check=check_verify,
        ),
        Workload(
            name="boson_paper_towers",
            pool=("2", "1/2", "3/2", "2/3", "3", "1/3"),
            per_op=1,
            limit_s=45,
            size={"cutoff": 20},
            tiny={"cutoff": 4},
            argv=lambda qs, s, out: [
                "boson", "--realization", "paper", "--q", qs[0], "--cutoff", str(s["cutoff"]),
                "--towers", "--output", out,
            ],
            expect=lambda s: {
                "so3_states": math.comb(s["cutoff"] + 3, 3),
                "tower_states": (s["cutoff"] + 1) ** 2,
            },
            check=check_boson,
        ),
    )
}


# -- one operation ------------------------------------------------------------------


def child_env() -> dict:
    """The caller's environment without QCRYS_THREADS (so the default
    single-thread path is measured) and without any PYTHON* setting, such
    as PYTHONDONTWRITEBYTECODE or PYTHONOPTIMIZE, that would change what
    the interpreter does; then the settings below."""
    env = {k: v for k, v in os.environ.items() if k != "QCRYS_THREADS" and not k.startswith("PYTHON")}
    env.update(
        PYTHONPATH=str(ROOT / "src"),
        # Bytecode of every module, sympy and the standard library included,
        # is cached inside the checkout, so nothing is written elsewhere.
        PYTHONPYCACHEPREFIX=str(ROOT / ".bench_build" / "pycache"),
        PYTHONHASHSEED="0",
    )
    return env


@dataclass
class Op:
    argv: list[str]
    traced: bool
    wall_s: float = 0.0
    cpu_s: float = 0.0
    setup_s: float | None = None
    rss_mb: float = 0.0
    exit_code: int | None = None
    timed_out: bool = False
    verdicts: int = 0
    boundary: int = 0
    report_bytes: int = 0
    digest: str = ""
    problems: list[str] = field(default_factory=list)
    trace: dict | None = None
    stdout: str = ""
    report: bytes | None = None

    @property
    def failed(self) -> bool:
        return self.timed_out or bool(self.problems)

    def record(self) -> dict:
        keys = ("argv", "traced", "wall_s", "cpu_s", "setup_s", "rss_mb", "exit_code", "timed_out",
                "verdicts", "boundary", "report_bytes", "digest", "problems")
        return {k: getattr(self, k) for k in keys}


def run_child(argv: list[str], traced: bool, limit_s: float) -> Op:
    """Launch one child, wait for it (at most ``limit_s``) and read its
    result.  Peak RSS comes from this child's own rusage (``wait4``)."""
    WORK.mkdir(parents=True, exist_ok=True)
    result_path = WORK / "result.json"
    report_path = ROOT / REPORT_PATH
    for stale in (result_path, report_path):
        stale.unlink(missing_ok=True)
    cmd = [sys.executable, str(HERE / "child.py"), str(result_path), "1" if traced else "0", *argv]
    op = Op(argv=argv, traced=traced)
    with open(WORK / "stdout.txt", "wb+") as out, open(WORK / "stderr.txt", "wb+") as err:
        t0 = time.monotonic()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdout=out, stderr=err)
        try:
            pidfd = os.pidfd_open(proc.pid)
            try:
                op.timed_out = not select.select([pidfd], [], [], limit_s)[0]
            finally:
                os.close(pidfd)
            if op.timed_out:
                proc.kill()
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        op.wall_s = time.monotonic() - t0
        proc.returncode = op.exit_code = os.waitstatus_to_exitcode(status)
        op.rss_mb = usage.ru_maxrss / 1024
        op.cpu_s = usage.ru_utime + usage.ru_stime
        out.seek(0)
        stdout = out.read()
        err.seek(0)
        stderr = err.read().decode("utf-8", "replace")
    if op.timed_out:
        op.problems.append(f"timed out after {limit_s} s")
        return op
    try:
        result = json.loads(result_path.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        op.problems.append(f"child left no result (exit {op.exit_code}): {stderr[-400:]!r}")
        return op
    op.setup_s = result["import_done"] - t0
    op.trace = result["trace"]
    op.report_bytes = len(stdout)
    op.digest = hashlib.sha256(stdout).hexdigest()
    op.stdout = stdout.decode("utf-8", "replace")
    if REPORT_PATH in argv:
        try:
            op.report = report_path.read_bytes()
        except OSError:
            op.problems.append("report file missing")
            return op
        op.report_bytes = len(op.report)
        op.digest = hashlib.sha256(op.report).hexdigest()
    return op


def run_op(work: Workload, size: dict, qs: list[str], traced: bool, expect: dict | None = None) -> Op:
    """One checked operation.  ``expect`` defaults to the closed forms for
    ``size``; the self-test passes a wrong one to see the oracle fail."""
    op = run_child(work.argv(qs, size, REPORT_PATH), traced, work.limit_s)
    if op.problems:
        return op
    op.problems = work.check(expect or work.expect(size), qs, op.exit_code, op.stdout, op.report)
    reports, _ = parse_reports(op.stdout)
    op.verdicts = sum(r[2] + r[3] + r[4] for r in reports)
    op.boundary = sum(r[4] for r in reports)
    return op


# -- metrics ------------------------------------------------------------------------


def tail(values: list[float]) -> tuple[float, float] | None:
    """(percentile, value) of the highest percentile with at least ten
    samples above it, or None when there are fewer than eleven samples."""
    n = len(values)
    if n < 11:
        return None
    return 100 * (n - 10) / n, sorted(values)[n - 11]


def span_stats(trace: dict) -> dict[str, tuple[int, float, float]]:
    """name -> (calls, inclusive s, self s).  Inclusive time counts only
    spans not nested in a span of the same name; self time is a span's
    duration minus the time its children cover."""
    spans = trace["spans"]
    stats = {name: tuple(v) for name, v in trace["timed"].items()}
    acc: dict[str, list] = {}
    for name, start, end, parent, child_s in spans:
        a = acc.setdefault(name, [0, 0.0, 0.0])
        a[0] += 1
        a[2] += end - start - child_s
        while parent >= 0 and spans[parent][0] != name:
            parent = spans[parent][3]
        if parent < 0:
            a[1] += end - start
    stats.update({name: tuple(v) for name, v in acc.items()})
    return stats


LAYER_NAMES = ("scalar", "crystal", "rep", "boson", "verify", "cli")


def layer_metrics(op: Op) -> dict[str, float]:
    """Per-layer numbers of one traced operation (0 where a layer is not
    reached by the workload)."""
    trace = op.trace
    st = span_stats(trace)

    def calls(name):
        return st.get(name, (0, 0.0, 0.0))[0]

    def incl(name):
        return st.get(name, (0, 0.0, 0.0))[1]

    def self_s(name):
        return st.get(name, (0, 0.0, 0.0))[2]

    extra = trace["extra"]
    out = {
        "scalar.sqrt_rat.calls": calls("scalar.sqrt_rat"),
        "scalar.sqrt_rat.distinct": trace["cache_misses"]["scalar.sqrt_rat.distinct"],
        "scalar.sqrt_rat.s": incl("scalar.sqrt_rat"),
        "scalar.sqrt_rat.max_bits": extra.get("scalar.sqrt_rat.max_bits", 0),
        "scalar.radical_mul.calls": calls("scalar.radical_mul"),
        "scalar.radical_mul.s": incl("scalar.radical_mul"),
        "scalar.radical_add.calls": calls("scalar.radical_add"),
        "scalar.qint_at.calls": calls("scalar.qint_at"),
        "crystal.build_model.s": incl("crystal.build_model"),
        "crystal.dim": extra.get("crystal.dim", 0),
        "crystal.apply_move.calls": trace["counts"].get("crystal.apply_move", 0),
        "rep.generators.s": incl("rep.generators"),
        "rep.generators.nnz": extra.get("rep.generators.nnz", 0),
        "rep.matmul.calls": calls("rep.matmul"),
        "rep.matmul.s": incl("rep.matmul"),
        "rep.linop_add.s": incl("rep.linop_add"),
        "rep.column.calls": calls("rep.column"),
        "rep.column.s": incl("rep.column"),
        "rep.apply_vec.calls": calls("rep.apply_vec"),
        "rep.apply_vec.s": incl("rep.apply_vec"),
        "boson.build.s": incl("boson.build"),
        "boson.check_so3.self_s": self_s("boson.check_so3"),
        "boson.check_so3_towers.self_s": self_s("boson.check_so3_towers"),
        "verify.cartan.self_s": self_s("verify.cartan"),
        "verify.ladder.self_s": self_s("verify.ladder"),
        "verify.serre.self_s": self_s("verify.serre"),
        "verify.map.self_s": self_s("verify.map"),
        "verify.states_decided": op.verdicts,
        "verify.boundary_share": op.boundary / op.verdicts if op.verdicts else 0.0,
        "cli.render.s": incl("cli.render"),
        "cli.report_bytes": op.report_bytes,
        "cli.main.s": incl("cli.main"),
    }
    for layer in LAYER_NAMES:
        out[f"{layer}.self_s"] = sum(v[2] for k, v in st.items() if k.startswith(layer + "."))
    return out


# -- the run ------------------------------------------------------------------------


def provenance(args, work: Workload) -> dict:
    try:
        sympy_version = importlib.metadata.version("sympy")
    except importlib.metadata.PackageNotFoundError:
        sympy_version = None
    git_rev = None
    if (ROOT / ".git").exists():
        try:
            proc = subprocess.run(
                ["git", "--git-dir", str(ROOT / ".git"), "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=30,
            )
            git_rev = proc.stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    src = hashlib.sha256()
    for path in sorted((ROOT / "src" / "qcrys").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": work.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "sympy": sympy_version,
        "git_rev": git_rev,
        "src_sha256": src.hexdigest(),
        "child_env": {"PYTHONHASHSEED": "0", "QCRYS_THREADS": None, "other PYTHON*": None},
        "q_pool": list(work.pool),
        "size": work.size,
        "limit_s": work.limit_s,
    }


def warm_up(work: Workload) -> None:
    """Untimed: compile and cache the bytecode of everything an operation
    imports, by running one tiny operation of the same subcommand."""
    op = run_op(work, work.tiny, list(work.pool[: work.per_op]), traced=False)
    if op.setup_s is None:
        raise RuntimeError(f"warm-up operation failed: {op.problems}")


def measure(work: Workload, seed: int, seconds: float, traced: bool) -> list[Op]:
    """Closed loop, one client.  A new operation (with --trace 1: a pair of
    untraced and traced operations on the same argv) starts only while the
    median duration so far still fits into ``seconds``."""
    rng = random.Random(f"{work.name}:{seed}")
    ops: list[Op] = []
    rounds: list[float] = []
    start = time.monotonic()
    while not rounds or time.monotonic() - start + statistics.median(rounds) <= seconds:
        t0 = time.monotonic()
        qs = rng.sample(work.pool, work.per_op)
        ops.append(run_op(work, work.size, qs, traced=False))
        if traced:
            ops.append(run_op(work, work.size, qs, traced=True))
        rounds.append(time.monotonic() - t0)
    return ops


def end_to_end(ops: list[Op]) -> dict[str, float]:
    """Every operation is a fresh interpreter, so each one is also a
    set-up sample; ``setup_s`` is their median."""
    setups = [op.setup_s for op in ops if op.setup_s is not None]
    if not setups:
        raise RuntimeError("no operation completed")
    walls = [op.wall_s for op in ops]
    return {
        "setup_s": statistics.median(setups),
        "verdict_s_p50": statistics.median(walls),
        "states_per_s": sum(op.verdicts for op in ops) / sum(walls),
        "peak_rss_mb": statistics.median(op.rss_mb for op in ops),
    }


def per_layer(ops: list[Op]) -> dict[str, float]:
    plain = [op.wall_s for op in ops if not op.traced]
    traced = [op for op in ops if op.traced and op.trace is not None]
    if not traced:
        raise RuntimeError("no traced operation completed")
    rows = [layer_metrics(op) for op in traced]
    out = {k: statistics.median(r[k] for r in rows) for k in rows[0]}
    out["trace.overhead"] = statistics.median(op.wall_s for op in traced) / statistics.median(plain) - 1
    return out


def load_units() -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "qcrys" / "cli.py").is_file():
        print(f"perfbench: no qcrys sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    work = WORKLOADS[args.workload]
    units = load_units()
    try:
        warm_up(work)
        ops = measure(work, args.seed, args.seconds, bool(args.trace))
        values = per_layer(ops) if args.trace else end_to_end(ops)
    except RuntimeError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    failed = sum(op.failed for op in ops)
    for name, value in values.items():
        print(f"{name:34s} {value:14.6g} {units[name]}")
    plain = [op.wall_s for op in ops if not op.traced]
    high = tail(plain)
    if high:
        print(f"{'verdict_s_tail':34s} {high[1]:14.6g} s (p{high[0]:.1f} of {len(plain)} ops)")
    else:
        print(f"{'verdict_s_tail':34s} {'omitted':>14s} (needs 11 ops, run had {len(plain)})")
    print(f"{'failed_share':34s} {failed / len(ops):14.6g} ratio ({failed} of {len(ops)} ops)")
    print(json.dumps({"provenance": provenance(args, work), "ops": [op.record() for op in ops]}))
    print(
        json.dumps(
            {
                "correct": not any(op.problems and not op.timed_out for op in ops),
                "attempted": len(ops),
                "failed": failed,
                "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
