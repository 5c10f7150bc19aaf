import json
import subprocess
import sys
from importlib import resources
from pathlib import Path

import pytest

from idamp.cli import main


def scenario_path(name):
    return Path(str(resources.files("idamp") / "scenarios" / f"{name}.json"))


def run_cli(*args, env=None):
    return subprocess.run(
        [sys.executable, "-m", "idamp", *args],
        capture_output=True,
        text=True,
        env=env,
    )


def test_run_csv(capsys):
    code = main(["run", str(scenario_path("hom-beamsplitter"))])
    out = capsys.readouterr().out
    assert code == 0
    assert out.startswith("final,class,amp_re,amp_im,probability\n")
    assert "out0:1;out1:1,fermion" in out


def test_run_json_and_class_filter(capsys):
    code = main(
        ["run", str(scenario_path("hom-beamsplitter")), "--output", "json", "--classes", "boson"]
    )
    out = capsys.readouterr().out
    assert code == 0
    payload = json.loads(out)
    assert {row["class"] for row in payload} == {"boson"}


def test_run_class_alias_dist(capsys):
    code = main(["run", str(scenario_path("hom-beamsplitter")), "--classes", "dist"])
    out = capsys.readouterr().out
    assert code == 0
    assert "distinguishable" in out


def test_run_invalid_file(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"name": "x"}')
    code = main(["run", str(bad)])
    captured = capsys.readouterr()
    assert code == 2
    assert "error:" in captured.err


def test_run_directory(tmp_path, capsys):
    code = main(["run", str(tmp_path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("error:")
    assert len(captured.err.splitlines()) == 1


def test_verify_small(capsys, tmp_path):
    report_path = tmp_path / "report.json"
    code = main(["verify", "--seed", "7", "--samples", "200", "--json", str(report_path)])
    out = capsys.readouterr().out
    assert code == 0
    assert "overall: PASS" in out
    assert "three-particle sign survivors by filter" in out
    payload = json.loads(report_path.read_text())
    assert all(entry["pass"] for entry in payload)
    assert {"check_name", "samples", "max_deviation", "tolerance", "pass"} <= set(payload[0])


def test_verify_env_seed(monkeypatch, capsys):
    monkeypatch.setenv("IDAMP_SEED", "9")
    code = main(["verify", "--samples", "100"])
    assert code == 0
    capsys.readouterr()


def test_verify_zero_samples(capsys):
    code = main(["verify", "--samples", "0"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("error:")
    assert len(captured.err.splitlines()) == 1


def test_verify_one_and_two_samples(capsys):
    for samples in ("1", "2"):
        assert main(["verify", "--samples", samples]) == 0
        assert "overall: PASS (15/15)" in capsys.readouterr().out


def test_verify_bad_tolerance(capsys):
    for tol in ("-1", "nan"):
        code = main(["verify", "--tol", tol, "--samples", "10"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("error:")
        assert len(captured.err.splitlines()) == 1


def _assert_one_line_error(code, captured):
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error:")
    assert len(captured.err.splitlines()) == 1


def test_verify_negative_seed(capsys):
    code = main(["verify", "--seed", "-1", "--samples", "10"])
    _assert_one_line_error(code, capsys.readouterr())


@pytest.mark.parametrize("value", ["-4", "abc"])
def test_verify_bad_env_seed(monkeypatch, capsys, value):
    monkeypatch.setenv("IDAMP_SEED", value)
    code = main(["verify", "--samples", "10"])
    _assert_one_line_error(code, capsys.readouterr())


def test_verify_seed_zero(capsys):
    assert main(["verify", "--seed", "0", "--samples", "10"]) == 0
    assert "overall: PASS (15/15)" in capsys.readouterr().out


def test_sample_negative_seed(capsys):
    path = str(scenario_path("hom-beamsplitter"))
    code = main(["sample", path, "--draws", "10", "--seed", "-1", "--class", "boson"])
    _assert_one_line_error(code, capsys.readouterr())


def test_sample_csv(capsys):
    code = main(
        [
            "sample",
            str(scenario_path("hom-beamsplitter")),
            "--draws",
            "100",
            "--seed",
            "5",
            "--class",
            "fermion",
        ]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert out.splitlines()[0] == "final,count"
    assert "out0:1;out1:1,100" in out


def test_sample_directory(tmp_path, capsys):
    code = main(["sample", str(tmp_path), "--draws", "10", "--seed", "1"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("error:")
    assert len(captured.err.splitlines()) == 1


def test_bench_smoke(capsys):
    code = main(["bench", "--max-n", "6", "--reps", "1"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.startswith("n,median_ns,oracle_checked\n")
    assert len(out.splitlines()) == 6  # header + n in 2..6


def test_bench_zero_reps(capsys):
    code = main(["bench", "--max-n", "6", "--reps", "0"])
    out = capsys.readouterr().out
    assert code == 0
    assert out == "n,median_ns,oracle_checked\n"


def test_bench_negative_reps(capsys):
    code = main(["bench", "--max-n", "6", "--reps", "-1"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error:")
    assert len(captured.err.splitlines()) == 1


@pytest.mark.parametrize("max_n", ["1", "-3"])
def test_bench_max_n_below_two(capsys, max_n):
    code = main(["bench", "--max-n", max_n, "--reps", "1"])
    _assert_one_line_error(code, capsys.readouterr())


def test_subprocess_run_byte_identical():
    path = str(scenario_path("three-particle-tritter"))
    first = run_cli("run", path)
    second = run_cli("run", path)
    assert first.returncode == second.returncode == 0
    assert first.stdout == second.stdout
