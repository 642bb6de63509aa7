#!/usr/bin/env python3
"""Self-test of the benchmark, on tiny inputs (a few seconds):

    python3 perfbench/selftest.py

For every workload it runs one untraced and one traced operation on the
workload's tiny input and requires the oracle to pass them, requires the
oracle to fail an operation whose expected count is off by one, checks
that the metric names match BENCHMARK.json and that BENCHMARK.json states
each q pool.  Exits 0 when everything holds.
"""

from __future__ import annotations

import json
import sys

import run


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    whys = {w["name"]: w["why"] for w in spec["workloads"]}
    e2e_names = {m["name"] for m in spec["end_to_end"]}
    layer_names = {m["name"] for m in spec["per_layer"]}
    problems = []

    def expect(cond: bool, what: str) -> None:
        if not cond:
            problems.append(what)

    expect(set(whys) == set(run.WORKLOADS), "BENCHMARK.json workloads differ from run.WORKLOADS")
    for name, work in run.WORKLOADS.items():
        expect("{" + ",".join(work.pool) + "}" in whys.get(name, ""), f"{name}: q pool not stated in BENCHMARK.json")
        qs = list(work.pool[: work.per_op])
        plain = run.run_op(work, work.tiny, qs, traced=False)
        traced = run.run_op(work, work.tiny, qs, traced=True)
        for op in (plain, traced):
            expect(not op.failed and op.verdicts > 0, f"{name} tiny {op.argv}: {op.problems}")
        if traced.trace is not None:
            got = set(run.layer_metrics(traced)) | {"trace.overhead"}
            expect(got == layer_names, f"{name}: per-layer names differ: {sorted(got ^ layer_names)}")
        got = set(run.end_to_end([plain]))
        expect(got == e2e_names, f"{name}: end-to-end names differ: {sorted(got ^ e2e_names)}")
        wrong = dict(work.expect(work.tiny))
        key = next(iter(wrong))
        wrong[key] += 1
        op = run.run_op(work, work.tiny, qs, traced=False, expect=wrong)
        expect(op.failed, f"{name}: oracle accepted a wrong expected {key}")
        print(f"{name}: tiny op {plain.wall_s:.2f} s, {plain.verdicts} verdicts; wrong {key} -> {op.problems[:1]}")

    expect(run.tail([1.0] * 10) is None, "tail defined for ten samples")
    expect(run.tail([float(v) for v in range(20)]) == (50.0, 9.0), "tail of 0..19 is not p50 = 9")
    expect(run.type_c_dim(3, 3, 13) == 308, "type C dim for (3, 3, 13) is not 308")
    for p in problems:
        print("FAIL:", p)
    print("selftest:", "FAILED" if problems else "OK")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
