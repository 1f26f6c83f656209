"""End-to-end command-line checks, run in process via main(argv)."""

import json
import subprocess
import sys

import pytest

from mixednorm.cli import main

SPEC_21 = json.dumps({"columns": [{"p": 2, "axis": "x1"}, {"p": 1, "axis": "x2"}]})
SPACE_2x2 = {
    "axes": [
        {"id": "x1", "weights": [1.0, 1.0]},
        {"id": "x2", "weights": [1.0, 1.0]},
    ]
}
TENSOR_2x2 = json.dumps(
    {"shape": [2, 2], "values": [1.0, 2.0, 3.0, 4.0], "space": SPACE_2x2}
)


def run(capsys, *argv):
    rc = main(list(argv))
    out = capsys.readouterr()
    return rc, out.out, out.err


def run_json(capsys, *argv):
    rc, out, err = run(capsys, *argv)
    return rc, json.loads(out), err


def test_eval_known_value(capsys):
    rc, doc, _ = run_json(capsys, "eval", "--tensor", TENSOR_2x2, "--spec", SPEC_21)
    assert rc == 0
    assert doc["norm"] == pytest.approx(10**0.5 + 20**0.5, rel=1e-12)
    assert doc["method"] == "log"
    rc, direct, _ = run_json(
        capsys, "eval", "--tensor", TENSOR_2x2, "--spec", SPEC_21, "--method", "direct"
    )
    assert direct["norm"] == pytest.approx(doc["norm"], rel=1e-12)


def test_eval_space_from_file(capsys, tmp_path):
    space_path = tmp_path / "space.json"
    space_path.write_text(json.dumps(SPACE_2x2))
    tensor_path = tmp_path / "tensor.csv"
    tensor_path.write_text("# shape: 2,2\n1,2\n3,4\n")
    rc, doc, _ = run_json(
        capsys,
        "eval",
        "--tensor",
        str(tensor_path),
        "--space",
        str(space_path),
        "--spec",
        SPEC_21,
    )
    assert rc == 0
    assert doc["norm"] == pytest.approx(10**0.5 + 20**0.5, rel=1e-12)


def test_orbit_reports_harmonic_mean(capsys):
    rc, doc, _ = run_json(capsys, "orbit", "--spec", SPEC_21)
    assert rc == 0
    assert doc["m"] == 2
    assert doc["pbar"] == "4/3"
    assert doc["pbar_float"] == pytest.approx(4 / 3)
    assert len(doc["orbit"]) == 2


def test_decompose_identity_is_empty(capsys):
    rc, doc, _ = run_json(
        capsys, "decompose", "--spec", SPEC_21, "--perm", "[1, 2]"
    )
    assert rc == 0
    assert doc == []


def test_decompose_single_swap(capsys):
    # (2,1) -> raising needs ascending order, so swap via direction "raise"
    rc, doc, _ = run_json(
        capsys, "decompose", "--spec", SPEC_21, "--perm", "[2, 1]", "--direction", "lower"
    )
    assert rc == 0
    assert len(doc) == 1
    assert doc[0]["swap_at"] == 1
    assert doc[0]["state"]["columns"][0]["axis"] == "x2"


def test_plan_verify_round_trip(capsys):
    rc, plan, _ = run_json(capsys, "plan", "--kind", "Littlewood43")
    assert rc == 0
    rc, report, _ = run_json(
        capsys,
        "verify",
        "--instance",
        json.dumps(plan),
        "--random",
        "8",
        "--seed",
        "11",
    )
    assert rc == 0
    assert report["pass"] is True
    assert report["trials"] == 8
    assert report["kind"] == "Littlewood43"
    assert len(report["reports"]) == 8


def test_verify_explicit_tensors(capsys):
    rc, plan, _ = run_json(
        capsys,
        "plan",
        "--kind",
        "SymmetricGM1",
        "--params",
        json.dumps({"spec": {"columns": [{"p": 2, "axis": "x1"}, {"p": 1, "axis": "x2"}]}}),
    )
    assert rc == 0
    rc, report, _ = run_json(
        capsys,
        "verify",
        "--instance",
        json.dumps(plan),
        "--tensors",
        TENSOR_2x2,
    )
    assert rc == 0
    assert report["pass"] is True
    assert report["max_ratio"] <= 1 + 1e-8


def test_verify_kind_is_case_insensitive(capsys):
    rc, report, _ = run_json(
        capsys, "verify", "--kind", "quad6", "--random", "3", "--seed", "7"
    )
    assert rc == 0
    assert report["kind"] == "Quad6"


def test_verify_rejects_tampered_instance(capsys):
    rc, plan, _ = run_json(capsys, "plan", "--kind", "Littlewood43")
    plan["derived"]["pbar"] = "7/5"  # stale derived value
    rc, out, err = run(capsys, "verify", "--instance", json.dumps(plan), "--tensors", TENSOR_2x2)
    assert rc == 2
    assert "error:" in err


def test_coeffs_uniform(capsys):
    rc, doc, _ = run_json(capsys, "coeffs", "--n", "4", "--k", "2")
    assert rc == 0
    assert doc["n"] == 4 and doc["k"] == 2
    assert all(c == "1/3" for c in doc["c"])
    assert len(doc["subsets"]) == 6


def test_coeffs_random_requires_seed(capsys):
    rc, out, err = run(capsys, "coeffs", "--n", "4", "--k", "2", "--strategy", "random")
    assert rc == 2
    assert "--seed" in err
    rc, doc, _ = run_json(
        capsys, "coeffs", "--n", "4", "--k", "2", "--strategy", "random", "--seed", "3"
    )
    assert rc == 0
    assert doc["seed"] == 3


def test_probe_json_and_csv(capsys):
    rc, doc, _ = run_json(capsys, "probe", "--spec", SPEC_21, "--p", "2")
    assert rc == 0
    assert doc["max_rel_err"] < 1e-9
    rc, out, _ = run(
        capsys, "probe", "--spec", SPEC_21, "--p", "2", "--t-grid", "1,4,16", "--format", "csv"
    )
    assert rc == 0
    lines = out.strip().splitlines()
    assert lines[0] == "t,empirical,analytic,rel_err"
    assert len(lines) == 4
    row = dict(zip(lines[0].split(","), lines[2].split(",")))
    assert float(row["analytic"]) == pytest.approx(0.5)


def test_search_reports_violation(capsys):
    params = {
        "spec": {"columns": [{"p": 2, "axis": "x1"}, {"p": 1, "axis": "x2"}]},
        "lhs_exponent": "8/5",
    }
    space = {
        "axes": [
            {"id": "x1", "weights": [1e-6, 1.0, 1e6]},
            {"id": "x2", "weights": [1e-6, 1.0, 1e6]},
        ]
    }
    rc, doc, _ = run_json(
        capsys,
        "search",
        "--kind",
        "SymmetricGM1",
        "--params",
        json.dumps(params),
        "--space",
        json.dumps(space),
        "--seed",
        "5",
    )
    assert rc == 1
    assert doc["violation"] is True
    assert doc["best_ratio"] > 1


def test_search_sound_instance_exits_zero(capsys):
    params = {"spec": {"columns": [{"p": 2, "axis": "x1"}, {"p": 1, "axis": "x2"}]}}
    space = {
        "axes": [
            {"id": "x1", "weights": [0.5, 2.0]},
            {"id": "x2", "weights": [0.5, 2.0]},
        ]
    }
    rc, doc, _ = run_json(
        capsys,
        "search",
        "--kind",
        "SymmetricGM1",
        "--params",
        json.dumps(params),
        "--space",
        json.dumps(space),
        "--seed",
        "5",
        "--max-evals",
        "600",
    )
    assert rc == 0
    assert doc["violation"] is False


def test_sweep_requires_seed(capsys):
    rc, out, err = run(capsys, "sweep", "--trials", "2")
    assert rc == 2
    assert "--seed" in err


def test_sweep_rejects_bad_threads(capsys):
    rc, out, err = run(capsys, "sweep", "--seed", "1", "--trials", "2", "--threads", "0")
    assert rc == 2
    assert "threads" in err


def test_sweep_kind_filter_runs(capsys):
    rc, doc, _ = run_json(
        capsys, "sweep", "--seed", "4", "--trials", "3", "--kinds", "quad6,blei21"
    )
    assert rc == 0
    assert sorted(doc["kinds"]) == ["Blei21", "Quad6"]


def test_unknown_kind_is_a_usage_error(capsys):
    rc, out, err = run(capsys, "plan", "--kind", "NoSuchKind")
    assert rc == 2
    assert "unknown kind" in err


def test_tolerance_env_var(capsys, monkeypatch):
    monkeypatch.setenv("MIXEDNORM_TOL", "0.5")
    rc, report, _ = run_json(
        capsys, "verify", "--kind", "Littlewood43", "--random", "2", "--seed", "1"
    )
    assert rc == 0
    assert report["reports"][0]["tolerance"] == 0.5
    monkeypatch.setenv("MIXEDNORM_TOL", "not-a-number")
    rc, out, err = run(capsys, "verify", "--kind", "Littlewood43", "--random", "2", "--seed", "1")
    assert rc == 2
    assert "MIXEDNORM_TOL" in err


@pytest.mark.parametrize("bad", ["nan", "-5", "inf"])
def test_tol_flag_is_validated_like_the_env_var(capsys, bad):
    rc, out, err = run(capsys, "sweep", "--seed", "1", "--trials", "1", "--tol", bad)
    assert rc == 2 and out == ""
    assert "--tol must be a finite nonnegative number" in err


def test_holder_mixed_with_two_column_orders_is_a_validation_error(capsys):
    params = {
        "specs": [
            {"columns": [{"p": "3/2", "axis": "x1"}, {"p": 3, "axis": "x2"}]},
            {"columns": [{"p": "3/2", "axis": "x2"}, {"p": 3, "axis": "x1"}]},
        ]
    }
    rc, out, err = run(capsys, "plan", "--kind", "HolderMixed", "--params", json.dumps(params))
    assert rc == 2 and out == ""
    assert "order" in err


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "mixednorm", "orbit", "--spec", SPEC_21],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["pbar"] == "4/3"
