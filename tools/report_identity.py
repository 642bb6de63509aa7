#!/usr/bin/env python3
"""Byte-identity fingerprints of the qcrys command line.

    python3 tools/report_identity.py [--root CHECKOUT] > fingerprints.txt

Runs a fixed list of CLI configurations, each in a fresh interpreter
against ``CHECKOUT/src`` (default: the checkout holding this script),
and prints one line per configuration: its name, the exit code and the
sha256 of standard output, standard error and the file written by
``--output`` ("-" where the configuration writes none).  Every run
happens in an empty temporary directory and writes to the relative path
``out``, so no line depends on where it ran.

A change that must keep the reports byte-identical is checked by running
this script once against the old checkout and once against the new one
and comparing the two outputs with ``diff``.  The list covers every
README command; the Baseline rows of ROADMAP.md for A(5,6), C(3,3,31),
A(2,1000) (at a reciprocal q pair), the C(4,2,28) crystal graph and the
boson checks, with near variants of the ``sp2n_suite`` shape, A(68,1),
A(69,1) and ``identity --a 40``, but not C(3,3,59) or A(2,2000), which
would add about a minute of CI time; the benchmark's ``sl2_deep_q`` suite
at both of its q, and its ``boson_paper_towers`` check at q = 2, 3, 1/3
and 2/3 (not 1/2 or 3/2); the margin-0 type C configurations that
carry FAIL records, suites with reciprocal q pairs,
mixes of all relation families including ``serre-classical``, high
ranks with many non-adjacent node pairs, up to the highest rank the
preflight admits, generator exports
whose entries are roots of deep q-integers, crystal graphs (one of them
megabytes long, on standard output) and bare/classical ladder matrices
of type C models, and ``identity`` verdicts that hold for all q, hold
only at q = 1, or are refused, up to the largest accepted ``--a``,
A(2,19999) at 3/5, which the preflight refuses for its deep q,
C(2,0,280) at 13/17, which it refuses for the residual products over its
19,881 states, and A(2,2000) at 3/5 with only the Cartan family, which
reads no q-integer root and is admitted.  The
whole list takes a few minutes; the boson cutoff-40 tower check alone
takes about a minute.

``tools/report_identity.expected`` holds the output for the last
accepted report bytes, and CI compares a fresh run against it:

    python3 tools/report_identity.py | diff tools/report_identity.expected -

A change that alters report bytes on purpose regenerates that file in
its own diff.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ALL_FAMILIES = "cartan,ladder,serre,serre-classical,map"

# (name, argv); "--output out" is part of the argv where a file is written.
CONFIGS = [
    # README commands
    ("readme-identity", "identity --a 1 --z 1"),
    ("readme-crystal-dot", "crystal --type A --n 3 --lambda 2 --format dot"),
    ("readme-rep-csv",
     "rep --type C --n 1 --lambda 0 --cap 8 --which classical --node 1 --format csv"),
    ("readme-verify-A3-3", "verify --type A --n 3 --lambda 3 --q 2"),
    ("readme-verify-C2-2-12", "verify --type C --n 2 --lambda 2 --cap 12 --q 3/5 --output out"),
    ("readme-verify-cz", "verify --type A --n 2 --lambda 8 --q 2,1/2 --cz"),
    ("readme-boson-vdj", "boson --realization vdj --q 3/2 --cutoff 6"),
    ("readme-boson-towers", "boson --realization paper --q 2 --cutoff 8 --towers"),
    # ROADMAP Baseline rows, with their reports
    ("base-A3-3", "verify --type A --n 3 --lambda 3 --output out"),
    ("base-A4-5", "verify --type A --n 4 --lambda 5 --output out"),
    ("base-A5-6", "verify --type A --n 5 --lambda 6 --output out"),
    ("base-C2-2-12", "verify --type C --n 2 --lambda 2 --cap 12 --output out"),
    ("base-C3-3-13", "verify --type C --n 3 --lambda 3 --cap 13 --output out"),
    ("base-C3-3-21", "verify --type C --n 3 --lambda 3 --cap 21 --output out"),
    ("base-C4-2-12", "verify --type C --n 4 --lambda 2 --cap 12 --output out"),
    ("base-A2-80", "verify --type A --n 2 --lambda 80 --q 3/5 --output out"),
    ("base-A2-200", "verify --type A --n 2 --lambda 200 --q 3/5 --output out"),
    # many monomials per residual, and radicands thousands of digits long
    ("base-C3-3-31", "verify --type C --n 3 --lambda 3 --cap 31 --output out"),
    ("base-A2-1000-recip", "verify --type A --n 2 --lambda 1000 --q 3/5,5/3 --output out"),
    ("base-boson-vdj-20", "boson --realization vdj --q 3/2 --cutoff 20 --output out"),
    ("base-boson-vdj-28", "boson --realization vdj --q 3/2 --cutoff 28 --output out"),
    ("base-boson-paper-20", "boson --realization paper --q 2 --cutoff 20 --towers --output out"),
    ("base-boson-paper-40", "boson --realization paper --q 2 --cutoff 40 --towers --output out"),
    # margin 0: truncation artifacts surface as FAIL records
    ("fail-C3-2-18", "verify --type C --n 3 --lambda 2 --cap 18 --margin 0 --output out"),
    ("fail-C2-2-12", "verify --type C --n 2 --lambda 2 --cap 12 --margin 0 --output out"),
    ("fail-C1-0-8", "verify --type C --n 1 --lambda 0 --cap 8 --margin 0 --output out"),
    ("fail-C3-2-18-recip",
     "verify --type C --n 3 --lambda 2 --cap 18 --margin 0 --q 2,1/2,3/5,5/3 --output out"),
    ("fail-C3-3-13-recip",
     "verify --type C --n 3 --lambda 3 --cap 13 --margin 0 --q 3/2,5/3,2/3,3/5 --output out"),
    ("fail-C1-0-8-recip",
     "verify --type C --n 1 --lambda 0 --cap 8 --margin 0 --q 1/2,1,2 --output out"),
    # every family, and serre-classical on its own or mixed
    ("fam-A4-5-all", f"verify --type A --n 4 --lambda 5 --families {ALL_FAMILIES} --output out"),
    ("fam-C2-2-12-all",
     f"verify --type C --n 2 --lambda 2 --cap 12 --margin 0 --q 1,2,3 --families {ALL_FAMILIES}"
     " --output out"),
    ("fam-C3-2-18-all-recip",
     f"verify --type C --n 3 --lambda 2 --cap 18 --q 2,1/2,3 --families {ALL_FAMILIES}"
     " --output out"),
    ("fam-A3-3-serre-classical",
     "verify --type A --n 3 --lambda 3 --q 2,1/2,3 --families serre-classical --output out"),
    ("fam-C2-2-12-classical-mix",
     "verify --type C --n 2 --lambda 2 --cap 12 --margin 0 --q 3/5,5/3"
     " --families serre-classical,ladder,serre --output out"),
    ("fam-C4-2-12-all-recip",
     f"verify --type C --n 4 --lambda 2 --cap 12 --margin 0 --q 3/5,5/3 --families {ALL_FAMILIES}"
     " --output out"),
    ("fam-A5-4-all-recip",
     f"verify --type A --n 5 --lambda 4 --q 3/5,5/3 --families {ALL_FAMILIES} --output out"),
    # the benchmark's suite shape: four q of the sp2n_suite pool
    ("bench-C3-3-13-a", "verify --type C --n 3 --lambda 3 --cap 13 --q 1,2,1/2,3/5 --output out"),
    ("bench-C3-3-13-b",
     "verify --type C --n 3 --lambda 3 --cap 13 --q 5/3,3/2,2/3,3/5 --output out"),
    ("bench-C3-3-13-c", "verify --type C --n 3 --lambda 3 --cap 13 --q 2/3,1,5/3,2 --output out"),
    # many non-adjacent node pairs, and the order of many FAIL records
    ("sparse-A40-1", "verify --type A --n 40 --lambda 1 --q 2,3/5 --output out"),
    ("sparse-fail-C5-1-7",
     "verify --type C --n 5 --lambda 1 --cap 7 --margin 0 --q 2,3/5 --output out"),
    # the highest rank the preflight admits: 68 nodes
    ("sparse-A69-1", "verify --type A --n 69 --lambda 1 --q 2,3/5 --output out"),
    # exports
    ("rep-C2-2-6-deformed-json",
     "rep --type C --n 2 --lambda 2 --cap 6 --which deformed --node 2 --q 3/5 --format json"
     " --output out"),
    # generator entries of deep q-integers, with radicands of up to 53 digits
    # (negative ones on the type C long node)
    ("rep-A2-40-deformed-q3/4",
     "rep --type A --n 2 --lambda 40 --which deformed --node 1 --q 3/4 --output out"),
    ("rep-C2-2-20-deformed-node2-q3/5",
     "rep --type C --n 2 --lambda 2 --cap 20 --which deformed --node 2 --q 3/5 --output out"),
    # crystal graphs and bare/classical ladder matrices read off type C models
    ("crystal-C3-3-21-json",
     "crystal --type C --n 3 --lambda 3 --cap 21 --format json --output out"),
    ("crystal-C2-2-8-dot", "crystal --type C --n 2 --lambda 2 --cap 8 --format dot --output out"),
    # a 5.35 MB graph streamed to standard output
    ("crystal-C4-2-28-json-stdout", "crystal --type C --n 4 --lambda 2 --cap 28 --format json"),
    ("crystal-A4-8-dot", "crystal --type A --n 4 --lambda 8 --format dot --output out"),
    ("rep-C2-2-10-hat-node1",
     "rep --type C --n 2 --lambda 2 --cap 10 --which hat --node 1 --output out"),
    ("rep-C2-2-10-hat-node2",
     "rep --type C --n 2 --lambda 2 --cap 10 --which hat --node 2 --output out"),
    ("rep-C3-1-9-classical-node1",
     "rep --type C --n 3 --lambda 1 --cap 9 --which classical --node 1 --output out"),
    ("rep-C3-1-9-classical-node3",
     "rep --type C --n 3 --lambda 1 --cap 9 --which classical --node 3 --output out"),
    # move columns that are mostly dead: the lowering edges of A(69,1), where
    # 98.6% of the moves are dead, and a dressed ladder of an 11-node model
    ("crystal-A69-1-json", "crystal --type A --n 69 --lambda 1 --format json --output out"),
    ("rep-A12-4-deformed-node6-q3/5",
     "rep --type A --n 12 --lambda 4 --which deformed --node 6 --q 3/5 --format csv"),
    # the alternating bracket identity: symbolic, q = 1 only, JSON, refused a
    ("identity-2-m2", "identity --a 2 --z -2"),
    ("identity-4-2", "identity --a 4 --z 2"),
    ("identity-3-m2", "identity --a 3 --z -2"),
    ("identity-2-1", "identity --a 2 --z 1"),
    ("identity-60-m2", "identity --a 60 --z -2"),
    ("identity-4-2-json", "identity --a 4 --z 2 --json"),
    ("identity-3-m2-json", "identity --a 3 --z -2 --json --output out"),
    ("identity-refused-a0", "identity --a 0 --z 1"),
    ("identity-100-1-json", "identity --a 100 --z 1 --json"),
    ("identity-refused-a101", "identity --a 101 --z 1"),
    # trivial carriers and refused input
    ("trivial-A2-0", "verify --type A --n 2 --lambda 0 --output out"),
    ("trivial-C1-1-1", "verify --type C --n 1 --lambda 1 --cap 1 --margin 0 --output out"),
    ("refused-repeated-q", "verify --type A --n 2 --lambda 2 --q 2,4/2"),
    # 20,000 states, but q-integer roots of about 90,000 bits: refused by the
    # deep-q rule before any model is built (taken at that rule; without it
    # either run would take hours)
    ("refused-deep-q-A2-19999", "verify --type A --n 2 --lambda 19999 --q 3/5"),
    ("refused-deep-q-A2-19999-rep",
     "rep --type A --n 2 --lambda 19999 --which deformed --node 1 --q 3/5"),
    # small roots but 19,881 states of deep residual products: refused by the
    # second deep-q check (taken at that check; without it the run takes 42 s)
    ("refused-deep-q-C2-0-280", "verify --type C --n 2 --lambda 0 --cap 280 --q 13/17"),
    # the Cartan family reads no q-integer root, so the deep-q rule admits
    # A(2,2000) at 3/5 there (taken at that change; the rule refused it before)
    ("deep-q-A2-2000-cartan",
     "verify --type A --n 2 --lambda 2000 --q 3/5 --families cartan --output out"),
    # tower reports of the vdj realization, and of a boson run at q < 1
    ("boson-vdj-20-towers", "boson --realization vdj --q 3/2 --cutoff 20 --towers --output out"),
    ("boson-paper-20-towers-q2/3",
     "boson --realization paper --q 2/3 --cutoff 20 --towers --output out"),
    # benchmark inputs: the sl2_deep_q suite, and boson_paper_towers pool values
    ("bench-A2-40-q3/4", "verify --type A --n 2 --lambda 40 --q 3/4 --output out"),
    ("bench-A2-40-q4/3", "verify --type A --n 2 --lambda 40 --q 4/3 --output out"),
    ("bench-boson-paper-20-towers-q3",
     "boson --realization paper --q 3 --cutoff 20 --towers --output out"),
    ("bench-boson-paper-20-towers-q1/3",
     "boson --realization paper --q 1/3 --cutoff 20 --towers --output out"),
]


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def fingerprint(src: Path, argv: list[str]) -> str:
    env = dict(os.environ, PYTHONPATH=str(src))
    with tempfile.TemporaryDirectory(prefix="qcrys-identity-") as work:
        proc = subprocess.run(
            [sys.executable, "-m", "qcrys.cli", *argv],
            cwd=work,
            env=env,
            capture_output=True,
            check=False,
        )
        out = Path(work) / "out"
        written = _sha(out.read_bytes()) if out.exists() else "-"
    return (
        f"exit={proc.returncode} stdout={_sha(proc.stdout)} "
        f"stderr={_sha(proc.stderr)} output={written}"
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--root",
        type=Path,
        default=Path(__file__).resolve().parent.parent,
        help="checkout whose src/qcrys is run (default: this one)",
    )
    args = parser.parse_args(argv)
    src = args.root.resolve() / "src"
    if not (src / "qcrys" / "cli.py").is_file():
        print(f"report_identity: no qcrys sources under {src}", file=sys.stderr)
        return 2
    for name, line in CONFIGS:
        print(f"{name} {fingerprint(src, line.split())}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
