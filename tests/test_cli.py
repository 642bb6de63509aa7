import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import qcrys
from qcrys.cli import main
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


class TestBosonCommand:
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
