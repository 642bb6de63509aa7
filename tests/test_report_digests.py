"""Golden digests of suite reports, boson reports and generator exports.

Each suite configuration pins the sha256 of ``run_suite(cfg).to_json()``
and of the per-state records (state, residual_zero, klass) of every
report, so any change to the relation engine must keep both the report
bytes and the per-state verdicts exactly as they were.  The margin-0 type
C rows carry FAIL records, which pins the word traces and residual maps
too.  The CLI rows pin the bytes of the files written by ``--output``:
boson reports (the paper realization with its criterion-7 failures and
their residual maps) and ``rep`` exports of the type C long node, whose
entries carry negative radicands, so the way radicals are written to
files is pinned as well, down to radicands of about fifty digits that
come from deep q-integers."""

import hashlib
import json
from fractions import Fraction as F

import pytest

from qcrys.cli import main
from qcrys.verify import KNOWN_FAMILIES, SuiteConfig, run_suite

GOLDEN = [
    (
        "C3-3-13-q3/5",
        SuiteConfig("C", 3, 3, cap=13, q_list=(F(3, 5),)),
        "0280bb36a9d7ac4d3e4b4a20485e226fda26dad5d07298f7c979b3670186a905",
        "519ca7361414a008babcf0a73389330323050569b2dd7d82b6e79662974f6964",
    ),
    (
        "C3-3-13-q3/5-margin0",
        SuiteConfig("C", 3, 3, cap=13, margin=0, q_list=(F(3, 5),)),
        "bc44c3874d1f713bbb05f8a44c90f42c2f566c7edddbf636f11934f86a371688",
        "1507269f1f93d865045dccec29f04c68de4d68226b489603766209cb83ba6fb4",
    ),
    (
        # the benchmark's suite shape: four q in one run, with FAIL records
        "C3-3-13-4q-margin0",
        SuiteConfig("C", 3, 3, cap=13, margin=0, q_list=(F(2), F(1, 2), F(5, 3), F(2, 3))),
        "96a10999403ee852ed7ef7fb67e7c8096d63c51e69c15360e5b6b11936ddbd0a",
        "1d14f730be42bba0400ae7897409686e37ebb7899f478f550996844aae221f35",
    ),
    (
        # FAIL records at two reciprocal pairs of q
        "C3-2-18-reciprocal-q-margin0",
        SuiteConfig("C", 3, 2, cap=18, margin=0, q_list=(F(2), F(1, 2), F(3, 5), F(5, 3))),
        "e88a93c1610fa6434274e0f626d5c5b1e488db971798af8beffc4a0533e1a73f",
        "a3b744f1d2c3d22e1082083af2fc0b731506816eae70fde6e373529806c6f1b4",
    ),
    (
        # serre-classical binds no q: one evaluation serves all three
        "C2-2-12-3q-all-families-margin0",
        SuiteConfig(
            "C", 2, 2, cap=12, margin=0, q_list=(F(1), F(2), F(3)), families=KNOWN_FAMILIES
        ),
        "bcbe00d07007cfa807e41e671a3de19831a9786ea95e1555a4d8762ad0db8084",
        "b4e2f13f24361d61d9ab644a40423014148dd165e00319c005e51524697422f9",
    ),
    (
        "C2-2-12-margin0",
        SuiteConfig("C", 2, 2, cap=12, margin=0),
        "843f57fdf2a5094ac3c17d8fb1e57a2d98bb4372d1a78bbb76f6a90a5c7a8077",
        "d0475d992750d237c568a20253f883046f7c21582b653006e525dd3381064da8",
    ),
    (
        "C1-0-8-q2-margin0",
        SuiteConfig("C", 1, 0, cap=8, margin=0, q_list=(F(2),)),
        "6d7e386e8b69bdcbacd141586d4b3bffd05d108f5fe0729690e53e53204d8c95",
        "b82161ed5c0348aa52b01f046c778b8681340cf054ff1d5dd1ab157621a7691f",
    ),
    (
        "A4-5-all-families",
        SuiteConfig("A", 4, 5, families=KNOWN_FAMILIES),
        "4b97ce323cec520d29e3f704dcd27280189c7dc874fdbaa21b748a4e3e313cf4",
        "2e8a056bdf6c41124ce429510466049e9c254c1e65524fb2e7114803ab187407",
    ),
    (
        "A2-40-q3/5",
        SuiteConfig("A", 2, 40, q_list=(F(3, 5),)),
        "31128033264e02ad03d1bacd364328ed5139f40c88463bf107859a21feb2af9b",
        "b7d7fd25f3e522230ea1e01bd248e080e3a6f535444ec881d25e89f53e080589",
    ),
]


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _per_state_text(result) -> str:
    return json.dumps(
        [
            [[list(r.state), r.residual_zero, r.klass] for r in report.per_state]
            for report in result.reports
        ]
    )


@pytest.mark.parametrize(
    "cfg, report_sha, per_state_sha",
    [g[1:] for g in GOLDEN],
    ids=[g[0] for g in GOLDEN],
)
def test_report_digest(cfg, report_sha, per_state_sha):
    result = run_suite(cfg)
    assert _sha(result.to_json()) == report_sha
    assert _sha(_per_state_text(result)) == per_state_sha


GOLDEN_CLI = [
    (
        "boson-vdj-q3/2-cutoff8",
        ["boson", "--realization", "vdj", "--q", "3/2", "--cutoff", "8"],
        0,
        "dc293f068c16939ba9b05ddb037d4f1ec23320cb8b805c435cc86aa42e7097fa",
    ),
    (
        "boson-paper-q2-cutoff8-towers",
        ["boson", "--realization", "paper", "--q", "2", "--cutoff", "8", "--towers"],
        1,
        "287363240d084d3bc23cb082972646810a6f850483d15893631e0c944aa0145d",
    ),
    (
        "rep-C2-2-6-deformed-node2-q3/5-json",
        ["rep", "--type", "C", "--n", "2", "--lambda", "2", "--cap", "6",
         "--which", "deformed", "--node", "2", "--q", "3/5", "--format", "json"],
        0,
        "c445ff6ed8b6ac9f0ed9d6af91512428bbc4198e1496949ecbcc47bf5bb871ba",
    ),
    (
        "rep-C2-2-6-deformed-node2-q3/5-csv",
        ["rep", "--type", "C", "--n", "2", "--lambda", "2", "--cap", "6",
         "--which", "deformed", "--node", "2", "--q", "3/5", "--format", "csv"],
        0,
        "94f050d19dfbf45315a904eca67e5fc98038b2857f9fd50186b95891decbcac4",
    ),
    (
        # roots of q-integers up to [41]_q: radicands of up to 47 digits
        "rep-A2-40-deformed-node1-q3/4-json",
        ["rep", "--type", "A", "--n", "2", "--lambda", "40",
         "--which", "deformed", "--node", "1", "--q", "3/4"],
        0,
        "db266b664c7ae524cfb1ef4c815ed96713f74cc571f875cc6fd6f315e9381bb0",
    ),
    (
        # the long node up to [-22]_q: negative radicands of up to 53 digits
        "rep-C2-2-20-deformed-node2-q3/5-json",
        ["rep", "--type", "C", "--n", "2", "--lambda", "2", "--cap", "20",
         "--which", "deformed", "--node", "2", "--q", "3/5"],
        0,
        "6ff22bc81c445c5ac1429217c04b040bcbb964741bdb5750325dd41ee335b812",
    ),
]


@pytest.mark.parametrize(
    "argv, exit_code, file_sha",
    [g[1:] for g in GOLDEN_CLI],
    ids=[g[0] for g in GOLDEN_CLI],
)
def test_cli_output_digest(argv, exit_code, file_sha, tmp_path, capsys):
    out = tmp_path / "out"
    assert main(argv + ["--output", str(out)]) == exit_code
    assert hashlib.sha256(out.read_bytes()).hexdigest() == file_sha
