import json
import math
import os
import stat
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

import qcrys
import qcrys.cli as cli
import qcrys.verify
from qcrys.cli import main
from qcrys.crystal import CrystalSpec, build_model, graph_json
from qcrys.verify import load_config


class TestIdentityCommand:
    def test_symbolic_pass(self, capsys):
        assert main(["identity", "--a", "1", "--z", "1"]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out and "all q and all N" in out

    def test_classical_usage_pass(self, capsys):
        assert main(["identity", "--a", "2", "--z", "-2"]) == 0
        assert main(["identity", "--a", "3", "--z", "-2"]) == 0
        out = capsys.readouterr().out
        assert "q=1 only" in out

    def test_q1_only_instance(self, capsys):
        assert main(["identity", "--a", "1", "--z", "0"]) == 0
        out = capsys.readouterr().out
        assert "q=1 only" in out

    def test_json_verdict(self, capsys):
        assert main(["identity", "--a", "3", "--z", "-2", "--json"]) == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj == {
            "a": 3,
            "z": -2,
            "symbolic": False,
            "at_q1": True,
            "holds": True,
        }

    def test_usage_error_exit_2(self, capsys):
        assert main(["identity", "--a", "0", "--z", "1"]) == 2
        with pytest.raises(SystemExit) as exc:
            main(["identity", "--a", "x", "--z", "1"])
        assert exc.value.code == 2

    def test_refuses_large_a_up_front(self, capsys):
        for a in ("600", "101"):
            assert main(["identity", "--a", a, "--z", "1"]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == "identity: --a must be <= 100\n"


class TestCrystalCommand:
    def test_dot_export(self, capsys):
        assert main(["crystal", "--type", "A", "--n", "3", "--lambda", "2", "--format", "dot"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("digraph crystal")
        assert out.count("[label=") >= 6

    def test_json_node_count(self, capsys):
        assert main(["crystal", "--type", "C", "--n", "1", "--lambda", "0", "--cap", "4"]) == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj["states"] == [[0], [2], [4]]
        assert len(obj["edges"]) == 2

    def test_trivial_rep(self, capsys):
        assert main(["crystal", "--type", "A", "--n", "2", "--lambda", "0"]) == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj["states"] == [[0, 0]]
        assert obj["edges"] == []

    def test_output_file_atomic(self, tmp_path, capsys):
        target = tmp_path / "graph.json"
        assert (
            main(
                [
                    "crystal", "--type", "A", "--n", "2", "--lambda", "1",
                    "--output", str(target),
                ]
            )
            == 0
        )
        assert json.loads(target.read_text())["spec"]["n"] == 2
        leftovers = [p for p in tmp_path.iterdir() if p.name.startswith(".qcrys-")]
        assert leftovers == []

    def test_json_stream_writes_the_rendered_bytes(self, tmp_path, capsys):
        # The export is written chunk by chunk, to stdout or to the file;
        # either way its bytes are those of the whole rendered text.
        args = ["crystal", "--type", "C", "--n", "2", "--lambda", "1", "--cap", "7"]
        want = graph_json(build_model(CrystalSpec("C", 2, 1, 7)))
        assert main(args) == 0
        assert capsys.readouterr().out == want
        assert main(args + ["--output", str(tmp_path / "graph.json")]) == 0
        assert (tmp_path / "graph.json").read_text() == want

    def test_failed_stream_leaves_no_file(self, tmp_path):
        def chunks():
            yield "{"
            raise RuntimeError("the encoder failed")

        target = tmp_path / "graph.json"
        with pytest.raises(RuntimeError, match="the encoder failed"):
            cli._write_output(str(target), chunks())
        assert list(tmp_path.iterdir()) == []

    def test_stream_writes_joined_batches(self, monkeypatch):
        # One write per 4096 chunks, and a lone text is written as is.
        writes = []
        monkeypatch.setattr(sys, "stdout", SimpleNamespace(writelines=writes.extend))
        text = "x" * 100
        cli._write_output(None, [text])
        assert len(writes) == 1 and writes[0] is text
        writes.clear()
        cli._write_output(None, (str(i % 10) for i in range(10_000)))
        assert [len(w) for w in writes] == [4096, 4096, 1808]
        assert "".join(writes) == "".join(str(i % 10) for i in range(10_000))

    def test_output_mode_follows_umask(self, tmp_path, capsys):
        target = tmp_path / "verdict.txt"
        old = os.umask(0o022)
        try:
            for mask in (0o022, 0o077):
                os.umask(mask)
                assert main(["identity", "--a", "1", "--z", "1", "--output", str(target)]) == 0
                assert stat.S_IMODE(target.stat().st_mode) == 0o666 & ~mask
        finally:
            os.umask(old)

    def test_invalid_spec_exit_2(self, capsys):
        assert main(["crystal", "--type", "C", "--n", "1", "--lambda", "5", "--cap", "3"]) == 2

    def test_unwritable_output_exit_2(self, tmp_path, capsys):
        target = tmp_path / "missing" / "x.json"
        args = ["crystal", "--type", "A", "--n", "2", "--lambda", "1"]
        assert main(args + ["--output", str(target)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot write {target}: ")
        assert len(err.splitlines()) == 1
        assert not target.parent.exists()


class TestRepCommand:
    def test_classical_pair(self, capsys):
        assert (
            main(
                [
                    "rep", "--type", "A", "--n", "2", "--lambda", "1",
                    "--which", "classical", "--node", "1",
                ]
            )
            == 0
        )
        obj = json.loads(capsys.readouterr().out)
        assert obj["plus"] == [{"from": 1, "to": 0, "coeff": {"1": "1"}}]
        assert obj["minus"] == [{"from": 0, "to": 1, "coeff": {"1": "1"}}]

    def test_deformed_q1_equals_classical(self, capsys):
        args = ["rep", "--type", "A", "--n", "3", "--lambda", "2", "--node", "2"]
        assert main(args + ["--which", "classical"]) == 0
        classical = capsys.readouterr().out
        assert main(args + ["--which", "deformed", "--q", "1"]) == 0
        deformed = capsys.readouterr().out
        assert json.loads(classical)["plus"] == json.loads(deformed)["plus"]
        assert json.loads(classical)["minus"] == json.loads(deformed)["minus"]

    def test_json_stream_writes_the_rendered_bytes(self, tmp_path, capsys):
        args = ["rep", "--type", "C", "--n", "2", "--lambda", "1", "--cap", "7"]
        args += ["--which", "deformed", "--node", "2", "--q", "3/5"]
        assert main(args) == 0
        out = capsys.readouterr().out
        assert out == json.dumps(json.loads(out), sort_keys=True, indent=2) + "\n"
        assert main(args + ["--output", str(tmp_path / "rep.json")]) == 0
        assert (tmp_path / "rep.json").read_text() == out

    def test_long_node_csv_has_imaginary_radical(self, capsys):
        assert (
            main(
                [
                    "rep", "--type", "C", "--n", "1", "--lambda", "0", "--cap", "8",
                    "--which", "classical", "--node", "1", "--format", "csv",
                ]
            )
            == 0
        )
        assert "sqrt(-2)" in capsys.readouterr().out

    def test_node_out_of_range(self, capsys):
        assert (
            main(
                [
                    "rep", "--type", "A", "--n", "2", "--lambda", "1",
                    "--which", "hat", "--node", "2",
                ]
            )
            == 2
        )


class TestVerifyCommand:
    def test_type_a_exit_zero(self, capsys):
        assert main(["verify", "--type", "A", "--n", "3", "--lambda", "3", "--q", "2"]) == 0
        out = capsys.readouterr().out
        assert "TOTAL:" in out and "fail=0" in out

    def test_type_c_boundary_reported(self, capsys, tmp_path):
        target = tmp_path / "report.json"
        code = main(
            [
                "verify", "--type", "C", "--n", "2", "--lambda", "2",
                "--cap", "12", "--q", "3/5", "--output", str(target),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        totals = [line for line in out.splitlines() if line.startswith("TOTAL")][0]
        assert "fail=0" in totals
        assert "boundary=0" not in totals
        obj = json.loads(target.read_text())
        assert obj["totals"]["boundary"] > 0

    def test_cz_flag(self, capsys):
        assert (
            main(
                [
                    "verify", "--type", "A", "--n", "2", "--lambda", "8",
                    "--q", "2,1/2", "--families", "map", "--cz",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "map" in out and "fail=0" in out

    def test_cz_flag_adds_map_family(self, capsys, tmp_path):
        target = tmp_path / "report.json"
        argv = ["verify", "--type", "A", "--n", "2", "--lambda", "3", "--q", "2,1/2"]
        assert main(argv + ["--families", "cartan", "--cz", "--output", str(target)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert [line.split()[0] for line in lines[:-1]] == ["cartan", "map"] * 2
        obj = json.loads(target.read_text())
        assert obj["config"]["families"] == ["cartan", "map"]
        assert obj["config"]["q_list"] == ["2", "1/2"]

    def test_engine_error_exit_3(self, capsys, monkeypatch):
        # A failed self-check of the engine is neither a relation failure
        # (exit 1) nor a traceback: one line on stderr and exit 3.
        def refuse(model):
            raise qcrys.verify.VerificationError("measured Cartan matrix differs")

        monkeypatch.setattr(qcrys.verify, "_model_data", refuse)
        assert main(["verify", "--type", "A", "--n", "3", "--lambda", "2", "--q", "2"]) == 3
        captured = capsys.readouterr()
        assert captured.err == "engine error: measured Cartan matrix differs\n"
        assert captured.out == ""

    def test_type_c_default_cap(self, capsys, tmp_path):
        # lambda + 10, as the --cap help says, from every entry point
        target = tmp_path / "report.json"
        argv = ["verify", "--type", "C", "--n", "1", "--lambda", "2", "--q", "2"]
        assert main(argv + ["--families", "cartan", "--output", str(target)]) == 0
        assert json.loads(target.read_text())["config"]["cap"] == 12
        capsys.readouterr()
        assert main(["crystal", "--type", "C", "--n", "1", "--lambda", "2"]) == 0
        graph = json.loads(capsys.readouterr().out)
        assert graph["spec"]["cap"] == 12
        assert load_config({"type": "C", "n": 1, "lambda": 2}).cap == 12

    def test_config_file(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(
            json.dumps({"type": "A", "n": 2, "lambda": 2, "q": ["2"]}),
            encoding="utf-8",
        )
        assert main(["verify", "--config", str(cfg)]) == 0

    @pytest.mark.parametrize(
        "flag, value",
        [
            ("--type", "C"),
            ("--n", "3"),
            ("--lambda", "3"),
            ("--cap", "21"),
            ("--margin", "0"),
            ("--q", "5"),
            ("--families", "map"),
        ],
    )
    def test_config_refuses_suite_flags(self, tmp_path, capsys, flag, value):
        # The file alone decides the suite, so a flag beside it would be
        # silently ignored; it is refused instead, before anything runs.
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"type": "A", "n": 2, "lambda": 2}), encoding="utf-8")
        target = tmp_path / "report.json"
        argv = ["verify", "--config", str(cfg), flag, value, "--output", str(target)]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"config error: --config cannot be combined with {flag}\n"
        assert not target.exists()

    def test_config_combines_with_cz_and_output(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(
            json.dumps({"type": "A", "n": 2, "lambda": 2, "q": ["2"], "families": ["cartan"]}),
            encoding="utf-8",
        )
        target = tmp_path / "report.json"
        assert main(["verify", "--config", str(cfg), "--cz", "--output", str(target)]) == 0
        assert json.loads(target.read_text())["config"]["families"] == ["cartan", "map"]

    def test_config_error_exit_2(self, tmp_path, capsys):
        cfg = tmp_path / "bad.json"
        cfg.write_text("{not json", encoding="utf-8")
        assert main(["verify", "--config", str(cfg)]) == 2
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "extra", [["--q", "1,1"], ["--q", "2,4/2"], ["--families", "cartan,cartan"]], ids=repr
    )
    def test_repeated_q_or_family_exit_2(self, extra, capsys):
        assert main(["verify", "--type", "A", "--n", "3", "--lambda", "2"] + extra) == 2
        captured = capsys.readouterr()
        assert "repeats" in captured.err
        assert "TOTAL" not in captured.out

    def test_config_non_integer_exit_2(self, tmp_path, capsys):
        cfg = tmp_path / "float.json"
        cfg.write_text(json.dumps({"type": "A", "n": 3.7, "lambda": 2}), encoding="utf-8")
        assert main(["verify", "--config", str(cfg)]) == 2
        assert "must be an integer" in capsys.readouterr().err

    def test_missing_flags_exit_2(self, capsys):
        assert main(["verify"]) == 2

    def test_sl2_lambda_80_at_q_3_5(self, capsys):
        # The radicands here are q-integers with dozens of digits; this row
        # never finished while radicands were made squarefree by factoring.
        args = ["verify", "--type", "A", "--n", "2", "--lambda", "80", "--q", "3/5"]
        assert main(args) == 0
        out = capsys.readouterr().out
        assert "TOTAL: pass=324 fail=0 boundary=0" in out.splitlines()

    def test_unwritable_output_exit_2(self, tmp_path, capsys):
        # Exit 1 means a relation failed, so a write error must not use it.
        target = tmp_path / "missing" / "x.json"
        args = ["verify", "--type", "A", "--n", "2", "--lambda", "2", "--q", "2"]
        assert main(args + ["--output", str(target)]) == 2
        captured = capsys.readouterr()
        assert "TOTAL: pass=" in captured.out
        assert captured.err.startswith(f"error: cannot write {target}: ")
        assert len(captured.err.splitlines()) == 1
        assert not target.parent.exists()

    def test_deterministic_output_file(self, tmp_path):
        args = [
            "verify", "--type", "C", "--n", "1", "--lambda", "1",
            "--cap", "9", "--q", "2",
        ]
        t1, t2 = tmp_path / "a.json", tmp_path / "b.json"
        assert main(args + ["--output", str(t1)]) == 0
        assert main(args + ["--output", str(t2)]) == 0
        assert t1.read_bytes() == t2.read_bytes()


def _refuse_build(*args):
    raise AssertionError("build_model ran on a refused spec")


def _refuse_fock(*args):
    raise AssertionError("FockSpace was built for a refused cutoff")


class TestPreflight:
    # C(59, 29), about 5.9e16 states: never built, the patched build_model
    # would raise.
    HUGE = ["--type", "A", "--n", "30", "--lambda", "30"]

    @pytest.mark.parametrize(
        "argv",
        [
            ["crystal", *HUGE],
            ["rep", *HUGE, "--which", "hat", "--node", "1"],
            ["verify", *HUGE],
            ["verify", "--type", "C", "--n", "1", "--lambda", "0", "--cap", str(10**12)],
        ],
        ids=["crystal", "rep", "verify", "verify-huge-cap"],
    )
    def test_huge_space_refused_before_building(self, argv, monkeypatch, capsys):
        monkeypatch.setattr(cli, "build_model", _refuse_build)
        monkeypatch.setattr(qcrys.verify, "build_model", _refuse_build)
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1
        if argv[1:] == self.HUGE:
            assert f"has {math.comb(59, 29)} states" in captured.err

    def test_limit_is_inclusive(self, monkeypatch, capsys):
        monkeypatch.setattr(cli, "_MAX_STATES", 3)
        assert main(["crystal", "--type", "A", "--n", "2", "--lambda", "2"]) == 0
        assert len(json.loads(capsys.readouterr().out)["states"]) == 3
        assert main(["crystal", "--type", "A", "--n", "2", "--lambda", "3"]) == 2
        err = capsys.readouterr().err
        assert err == "error: the state space has 4 states; qcrys builds at most 3\n"

    # Few states on many nodes: each state counts (nodes / 4)**2 times.
    @pytest.mark.parametrize(
        "argv",
        [
            ["crystal", "--type", "A", "--n", "1200", "--lambda", "1"],
            ["verify", "--type", "C", "--n", "1500", "--lambda", "0", "--cap", "0"],
            ["crystal", "--type", "A", "--n", "900", "--lambda", "1"],
            ["verify", "--type", "A", "--n", "120", "--lambda", "1", "--q", "2"],
            ["crystal", "--type", "A", "--n", "70", "--lambda", "1"],
        ],
        ids=["crystal-A1200", "verify-C1500", "crystal-A900", "verify-A120", "crystal-A70"],
    )
    def test_high_rank_refused_before_building(self, argv, monkeypatch, capsys):
        monkeypatch.setattr(cli, "build_model", _refuse_build)
        monkeypatch.setattr(qcrys.verify, "build_model", _refuse_build)
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1
        assert "nodes, which count as" in captured.err

    # Past about 565 nodes one state is already over the limit, so the rank
    # is refused before the states are counted (the type C count costs
    # about nodes**2 bit operations: minutes at this rank).
    @pytest.mark.parametrize(
        "argv",
        [
            ["verify", "--type", "C", "--n", "100000", "--lambda", "0", "--cap", "0"],
            ["verify", "--type", "A", "--n", "1000000", "--lambda", "1"],
        ],
        ids=["C100000", "A1000000"],
    )
    def test_high_rank_refused_before_counting(self, argv, monkeypatch, capsys):
        def refuse_count(spec):
            raise AssertionError("state_count ran on a refused rank")

        monkeypatch.setattr(cli, "state_count", refuse_count)
        monkeypatch.setattr(cli, "build_model", _refuse_build)
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1
        assert "nodes, which count as" in captured.err

    def test_rank_rule_is_inclusive(self, monkeypatch, capsys):
        # A(6,1): 6 states on 5 nodes count as ceil(6 * 25 / 16) = 10.
        argv = ["crystal", "--type", "A", "--n", "6", "--lambda", "1"]
        monkeypatch.setattr(cli, "_MAX_STATES", 10)
        assert main(argv) == 0
        assert len(json.loads(capsys.readouterr().out)["states"]) == 6
        monkeypatch.setattr(cli, "_MAX_STATES", 9)
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err == (
            "error: the state space has 6 states on 5 nodes, which count as 10 at rank 4; "
            "qcrys builds at most 9\n"
        )

    def test_rank_five_and_above_allowed(self, capsys):
        # A(69,1) counts as ceil(69 * 68**2 / 16) = 19,941, just inside.
        assert main(["crystal", "--type", "A", "--n", "69", "--lambda", "1"]) == 0
        assert len(json.loads(capsys.readouterr().out)["states"]) == 69
        assert main(["verify", "--type", "A", "--n", "7", "--lambda", "2", "--q", "2"]) == 0
        assert "fail=0" in capsys.readouterr().out


class TestBosonCommand:
    def test_fock_space_limit_is_inclusive(self, monkeypatch, capsys):
        # cutoff 2: C(5, 3) = 10 states
        argv = ["boson", "--realization", "vdj", "--q", "3/2", "--cutoff", "2"]
        monkeypatch.setattr(cli, "_MAX_STATES", 10)
        assert main(argv) == 0
        capsys.readouterr()
        monkeypatch.setattr(cli, "_MAX_STATES", 9)
        monkeypatch.setattr(cli, "FockSpace", _refuse_fock)
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: the Fock space has 10 states; qcrys builds at most 9\n"

    def test_large_cutoff_refused_before_building(self, monkeypatch, capsys):
        # C(51, 3) = 20,825 states; cutoff 47 has C(50, 3) = 19,600.
        monkeypatch.setattr(cli, "FockSpace", _refuse_fock)
        assert main(["boson", "--realization", "paper", "--q", "2", "--cutoff", "48"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1

    def test_vdj_pass(self, capsys):
        assert main(["boson", "--realization", "vdj", "--q", "3/2", "--cutoff", "6"]) == 0
        assert "fail=0" in capsys.readouterr().out

    def test_standard_realization_q1_pass(self, capsys):
        assert main(["boson", "--realization", "paper", "--q", "1", "--cutoff", "6"]) == 0

    def test_standard_realization_towers_pass(self, capsys):
        assert (
            main(
                [
                    "boson", "--realization", "paper", "--q", "2",
                    "--cutoff", "5", "--towers",
                ]
            )
            == 1
        )  # per-state check fails on mixed states, towers pass
        out = capsys.readouterr().out
        lines = out.splitlines()
        assert any("so3-towers[paper]" in line and "fail=0" in line for line in lines)

    def test_report_file(self, tmp_path, capsys):
        target = tmp_path / "so3.json"
        assert (
            main(
                [
                    "boson", "--realization", "vdj", "--q", "2",
                    "--cutoff", "4", "--output", str(target),
                ]
            )
            == 0
        )
        obj = json.loads(target.read_text())
        assert obj[0]["relation_id"] == "so3[vdj]"

    def test_bad_q_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["boson", "--realization", "vdj", "--q", "-1"])
        assert exc.value.code == 2


def test_cli_import_does_not_load_sympy():
    env = dict(os.environ, PYTHONPATH=str(Path(qcrys.__file__).parents[1]))
    probe = "import sys, qcrys.cli; print('sympy' in sys.modules)"
    done = subprocess.run(
        [sys.executable, "-c", probe],
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    )
    assert done.stdout.strip() == "False"


def test_cli_import_path_stays_light():
    # -S keeps site's own imports out, so only the qcrys import path counts.
    src = str(Path(qcrys.__file__).parents[1])
    heavy = ("dataclasses", "inspect", "typing", "tempfile")
    probe = (
        f"import sys; sys.path.insert(0, {src!r}); import qcrys.cli; "
        f"print([m for m in {heavy!r} if m in sys.modules])"
    )
    done = subprocess.run(
        [sys.executable, "-S", "-c", probe],
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    )
    assert done.stdout.strip() == "[]"
