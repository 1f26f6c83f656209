"""End-to-end command-line checks, run in process via main(argv)."""

import json
import math
import subprocess
import sys
import warnings

import pytest

from mixednorm import spaces
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


def test_eval_runs_one_log_domain_pass_per_method(capsys, monkeypatch):
    # --method log derives its norm from the log norm it prints, so each
    # method makes one log-domain pass; --method direct adds its power sums
    runs = []
    run_pass = spaces.Pass.run

    def counted(self, *args, **kwargs):
        runs.append(self)
        return run_pass(self, *args, **kwargs)

    monkeypatch.setattr(spaces.Pass, "run", counted)
    for method in ("log", "direct"):
        runs.clear()
        rc, doc, _ = run_json(capsys, "eval", "--tensor", TENSOR_2x2, "--spec", SPEC_21, "--method", method)
        assert rc == 0
        assert doc["norm"] == pytest.approx(math.exp(doc["log_norm"]), rel=1e-12)
        assert len(runs) == 1, method


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


def test_probe_overflow_raises_only_the_validation_error(capsys):
    # the log norms overflow to inf, which the kernel expects: numpy must not
    # warn about it on the way to the error line
    tiny = json.dumps(
        {"columns": [{"p": "5e-324", "axis": "x1"}, {"p": "5e-324", "axis": "x2"}]}
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc, out, err = run(capsys, "probe", "--spec", tiny, "--p", "5e-324", "--t-grid", "2")
    assert rc == 2 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1


def test_direct_eval_past_the_float_range_prints_no_warning(capsys):
    tensor = json.dumps(
        {"shape": [2], "values": [1e300, 1e300], "space": {"axes": [{"id": "x1", "weights": [1e300, 1e300]}]}}
    )
    spec = json.dumps({"columns": [{"p": 1, "axis": "x1"}]})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc, doc, err = run_json(capsys, "eval", "--method", "direct", "--tensor", tensor, "--spec", spec)
    assert rc == 0 and err == ""
    assert doc["norm"] == "inf" and doc["log_norm"] == 1382.2442029769873


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


def test_cold_cli_import_skips_the_thread_pool_module():
    # concurrent.futures costs about 6 ms of a cold start; only a streamed
    # loop of two or more blocks imports it
    code = "import sys, mixednorm.cli; print('concurrent.futures' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


# ---------------------------------------------------------------------------
# malformed and extreme inputs, every subcommand

def _spec(*ps):
    return json.dumps({"columns": [{"p": p, "axis": f"x{i}"} for i, p in enumerate(ps, 1)]})


def _tensor(values, weights):
    space = {"axes": [{"id": "x1", "weights": weights}]}
    return json.dumps({"shape": [len(values)], "values": values, "space": space})


T_13 = _tensor([1.0, 3.0], [1.0, 2.0])
SPACE_2x1 = json.dumps(
    {"axes": [{"id": "x1", "weights": [1.0, 2.0]}, {"id": "x2", "weights": [1.0]}]}
)
INF_GM1 = '{"spec": %s}' % _spec("inf", "inf")
WIDE_HOLDER = '{"spec": %s}' % _spec("1.5e308", "inf")  # derived pbar is 3e308
POPA_INF = '{"q": [1, "inf"]}'
BLEI_PS_3 = '{"n": 3, "k": 1, "q": [4, 4, 4], %s}'
RANDOM_1 = ["--random", "1", "--seed", "1"]
USER_COEFFS = ["coeffs", "--n", "3", "--k", "1", "--strategy", "user", "--coefficients"]

# name: (expected exit code, argv)
HOSTILE_INPUTS = {
    "eval-invalid-json": (2, ["eval", "--tensor", T_13, "--spec", '{"columns": [']),
    "eval-wrong-type": (2, ["eval", "--tensor", T_13, "--spec", "[1, 2]"]),
    "eval-empty-columns": (2, ["eval", "--tensor", T_13, "--spec", '{"columns": []}']),
    "eval-negative-weight": (
        2, ["eval", "--tensor", _tensor([1.0, 3.0], [-1.0, 2.0]), "--spec", _spec(2)]
    ),
    "eval-exponent-1e400": (2, ["eval", "--tensor", T_13, "--spec", _spec("1e400")]),
    "eval-exponent-1e5000": (2, ["eval", "--tensor", T_13, "--spec", _spec("1e5000")]),
    "eval-exponent-1e-400": (
        2, ["eval", "--tensor", _tensor([0.0, 3.0], [0.25, 0.5]), "--spec", _spec("1e-400")]
    ),
    "eval-all-inf": (0, ["eval", "--tensor", T_13, "--spec", _spec("inf")]),
    "orbit-all-inf": (0, ["orbit", "--spec", _spec("inf", "inf")]),
    "orbit-exponent-1e400": (2, ["orbit", "--spec", _spec("1e400", 1)]),
    "orbit-beyond-column-limit": (2, ["orbit", "--spec", _spec(*range(1, 13))]),
    "decompose-exponent-1e5000": (
        2, ["decompose", "--spec", _spec("1e5000", 1), "--perm", "[2, 1]"]
    ),
    "decompose-wrong-type": (2, ["decompose", "--spec", SPEC_21, "--perm", '{"a": 1}']),
    "decompose-float-image": (2, ["decompose", "--spec", SPEC_21, "--perm", "[1.9, 2]"]),
    "decompose-bool-image": (2, ["decompose", "--spec", SPEC_21, "--perm", "[true, 2]"]),
    "decompose-string-image": (2, ["decompose", "--spec", SPEC_21, "--perm", '["a", 2]']),
    "plan-gm1-exponent-1e400": (
        2, ["plan", "--kind", "SymmetricGM1", "--params", '{"spec": %s}' % _spec("1e400")]
    ),
    "plan-holder-pbar-beyond-float": (
        2, ["plan", "--kind", "SymmetricHolder", "--params", WIDE_HOLDER]
    ),
    "plan-gm1-all-inf": (0, ["plan", "--kind", "SymmetricGM1", "--params", INF_GM1]),
    "plan-popa-sinnamon-inf": (0, ["plan", "--kind", "PopaSinnamonFirst", "--params", POPA_INF]),
    "plan-wrong-type": (2, ["plan", "--kind", "Littlewood43", "--params", "[1]"]),
    "plan-blei21-beyond-column-limit": (
        2, ["plan", "--kind", "Blei21", "--params", '{"J": 26, "K": 13}']
    ),
    "plan-blei-ps-beyond-column-limit": (
        2, ["plan", "--kind", "BleiPS", "--params", '{"n": 40, "k": 20, "q": [2]}']
    ),
    "plan-symmetric-holder-beyond-column-limit": (
        2, ["plan", "--kind", "SymmetricHolder", "--params", '{"spec": %s}' % _spec(*range(1, 13))]
    ),
    "plan-axes-not-a-list": (
        2, ["plan", "--kind", "Blei21", "--params", '{"J": 3, "K": 1, "axes": 5}']
    ),
    "plan-bad-coefficient": (
        2, ["plan", "--kind", "BleiPS", "--params", BLEI_PS_3 % '"c": ["x", 1, 1]']
    ),
    "plan-strategy-not-a-string": (
        2, ["plan", "--kind", "BleiPS", "--params", BLEI_PS_3 % '"strategy": []']
    ),
    "plan-negative-coefficient-seed": (
        2,
        ["plan", "--kind", "BleiPS", "--params",
         '{"n": 4, "k": 2, "q": [12, 12, 12, 12, 12, 12], "strategy": "random", "seed": -1}'],
    ),
    "verify-gm1-all-inf": (
        0, ["verify", "--kind", "SymmetricGM1", "--params", INF_GM1, *RANDOM_1]
    ),
    "verify-popa-sinnamon-inf": (
        0, ["verify", "--kind", "PopaSinnamonFirst", "--params", POPA_INF, *RANDOM_1]
    ),
    "verify-holder-pbar-beyond-float": (
        2, ["verify", "--kind", "SymmetricHolder", "--params", WIDE_HOLDER, *RANDOM_1]
    ),
    "verify-kind-not-a-string": (2, ["verify", "--instance", '{"kind": []}']),
    "verify-params-wrong-type": (
        2, ["verify", "--instance", '{"kind": "Littlewood43", "params": 5}']
    ),
    "verify-derived-wrong-type": (
        2, ["verify", "--instance", '{"kind": "Littlewood43", "derived": 5}', *RANDOM_1]
    ),
    "verify-negative-seed": (
        2, ["verify", "--kind", "Littlewood43", "--random", "1", "--seed", "-1"]
    ),
    "verify-wrong-shape": (2, ["verify", "--kind", "Littlewood43", "--tensors", T_13]),
    "coeffs-k-too-large": (2, ["coeffs", "--n", "3", "--k", "5"]),
    "coeffs-wrong-type": (2, [*USER_COEFFS, '{"a": 1}']),
    "coeffs-nan": (2, [*USER_COEFFS, "[NaN, 1, 1]"]),
    "coeffs-nested": (2, [*USER_COEFFS, "[[1], 1, 1]"]),
    "coeffs-not-an-int": (2, ["coeffs", "--n", "x", "--k", "1"]),
    "coeffs-beyond-column-limit": (2, ["coeffs", "--n", "26", "--k", "13"]),
    "coeffs-k-near-n-beyond-column-limit": (2, ["coeffs", "--n", "100000", "--k", "99999"]),
    "coeffs-random-beyond-column-limit": (
        2, ["coeffs", "--n", "16", "--k", "8", "--strategy", "random", "--seed", "1"]
    ),
    "probe-inf-exponent": (2, ["probe", "--spec", SPEC_21, "--p", "inf"]),
    "probe-exponent-1e400": (2, ["probe", "--spec", SPEC_21, "--p", "1e400"]),
    "probe-t-grid-not-numbers": (
        2, ["probe", "--spec", SPEC_21, "--p", "4/3", "--t-grid", "abc"]
    ),
    "probe-t-grid-nan": (2, ["probe", "--spec", SPEC_21, "--p", "4/3", "--t-grid", "nan"]),
    "probe-t-grid-beyond-cell-limit": (2, ["probe", "--spec", _spec(3, 2, 1), "--p", "2"]),
    "probe-t-grid-1e300": (2, ["probe", "--spec", _spec(2), "--p", "2", "--t-grid", "1e300"]),
    "probe-ratio-overflow": (
        2, ["probe", "--spec", _spec("1/3"), "--p", "1000", "--t-grid", "1e-300"]
    ),
    "probe-log-ratio-overflow": (2, ["probe", "--spec", SPEC_21, "--p", "1e-300", "--t-grid", "2"]),
    "probe-ratio-underflow": (
        2, ["probe", "--spec", _spec(1000), "--p", "1/3", "--t-grid", "1e-300"]
    ),
    "probe-power-law-exponent-overflow": (
        2, ["probe", "--spec", SPEC_21, "--p", "5e-324", "--t-grid", "2"]
    ),
    "search-wrong-type": (
        2, ["search", "--kind", "Littlewood43", "--space", "[1]", "--seed", "1"]
    ),
    "search-negative-seed": (
        2, ["search", "--kind", "Littlewood43", "--space", SPACE_2x1, "--seed", "-1"]
    ),
    "search-all-inf": (
        0,
        ["search", "--kind", "SymmetricGM1", "--params", INF_GM1, "--space", SPACE_2x1,
         "--seed", "1", "--max-evals", "20"],
    ),
    "search-negative-restarts": (
        2,
        ["search", "--kind", "Littlewood43", "--space", SPACE_2x1, "--seed", "1",
         "--restarts", "-1"],
    ),
    "sweep-no-trials": (2, ["sweep", "--seed", "1", "--trials", "0"]),
    "sweep-negative-seed": (
        2, ["sweep", "--seed", "-1", "--trials", "1", "--kinds", "Quad6"]
    ),
}


def _reject_constant(name):
    raise ValueError(f"stdout is not strict JSON: {name}")


@pytest.mark.parametrize("expected, argv", HOSTILE_INPUTS.values(), ids=HOSTILE_INPUTS.keys())
def test_hostile_inputs_exit_cleanly_with_strict_json(capsys, expected, argv):
    # main() turns a ValidationError into exit 2; any other exception escapes
    # it and fails the test.  argparse exits 2 on its own.
    try:
        rc = main(argv)
    except SystemExit as exc:
        rc = exc.code
    out = capsys.readouterr()
    assert rc in (0, 1, 2)
    assert rc == expected, out.err
    if rc == 2:
        assert "error:" in out.err and out.out == ""
    if out.out:
        json.loads(out.out, parse_constant=_reject_constant)
