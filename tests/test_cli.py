"""End-to-end command-line checks, run in process via main(argv)."""

import contextlib
import io
import json
import math
import subprocess
import sys
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    assert doc["c_float"] == [1 / 3] * 6
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
    # loop of two or more blocks imports it.  numpy is most of a cold start,
    # and only the numeric subcommands import it.
    for module in ("mixednorm", "mixednorm.cli"):
        code = f"import sys, {module}; print(sorted({{'concurrent.futures', 'numpy'}} & set(sys.modules)))"
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]", module


# `python -m mixednorm ARGS` that reports on stderr whether numpy was loaded
_COLD_RUN = """
import runpy, sys
sys.argv = ["mixednorm", *sys.argv[1:]]
try:
    runpy.run_module("mixednorm", run_name="__main__", alter_sys=True)
finally:
    print("numpy loaded:", "numpy" in sys.modules, file=sys.stderr)
"""


@pytest.mark.parametrize(
    "argv, numpy_loaded",
    [
        (["plan", "--kind", "Quad6"], False),
        (["orbit", "--spec", SPEC_21], False),
        (["decompose", "--spec", SPEC_21, "--perm", "[2, 1]", "--direction", "lower"], False),
        (["coeffs", "--n", "4", "--k", "2"], False),
        (["eval", "--tensor", TENSOR_2x2, "--spec", SPEC_21], True),
        (["verify", "--kind", "Littlewood43", "--random", "1", "--seed", "1"], True),
    ],
    ids=lambda v: v[0] if isinstance(v, list) else None,
)
def test_exact_subcommands_start_without_numpy(argv, numpy_loaded):
    proc = subprocess.run([sys.executable, "-c", _COLD_RUN, *argv], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    json.loads(proc.stdout)
    assert proc.stderr.splitlines()[-1] == f"numpy loaded: {numpy_loaded}"


@pytest.mark.parametrize(
    "argv, search_loaded",
    [
        (["verify", "--kind", "Littlewood43", "--tensors", TENSOR_2x2], False),
        (["verify", "--kind", "Littlewood43", "--random", "1", "--seed", "1"], True),
    ],
    ids=("tensors", "random"),
)
def test_verify_imports_the_search_module_only_for_random_inputs(argv, search_loaded):
    cold_run = _COLD_RUN.replace("numpy", "mixednorm.search")
    proc = subprocess.run([sys.executable, "-c", cold_run, *argv], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["trials"] == 1
    assert proc.stderr.splitlines()[-1] == f"mixednorm.search loaded: {search_loaded}"


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
USER_PAIR_COEFFS = ["coeffs", "--n", "3", "--k", "2", "--strategy", "user", "--coefficients"]
RANDOM_2 = ["--random", "2", "--seed", "1"]


def _unit_space(n):
    return {"axes": [{"id": f"x{i}", "weights": [1.0]} for i in range(1, n + 1)]}


def _unit_tensor(n):
    return json.dumps({"shape": [1] * n, "values": [1.0], "space": _unit_space(n)})


def _nan_ratio(kind, p):
    """verify of a kind on the spec [2, p]; at p = 1e308 or 1e-320 both log
    sides come out inf, and their ratio NaN."""
    return ["verify", "--kind", kind, "--params", '{"spec": %s}' % _spec(2, p), *RANDOM_2]

# name: (expected exit code, argv)
HOSTILE_INPUTS = {
    "eval-invalid-json": (2, ["eval", "--tensor", T_13, "--spec", '{"columns": [']),
    "eval-wrong-type": (2, ["eval", "--tensor", T_13, "--spec", "[1, 2]"]),
    "eval-empty-columns": (2, ["eval", "--tensor", T_13, "--spec", '{"columns": []}']),
    "eval-negative-weight": (
        2, ["eval", "--tensor", _tensor([1.0, 3.0], [-1.0, 2.0]), "--spec", _spec(2)]
    ),
    "eval-text-weights": (2, ["eval", "--tensor", _tensor([1.0, 3.0], ["1", "2"]), "--spec", _spec(2)]),
    "eval-bool-weights": (2, ["eval", "--tensor", _tensor([1.0, 3.0], [True, 2.0]), "--spec", _spec(2)]),
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
    # a JSON boolean is not a count, a coefficient or a seed
    "plan-blei-ps-bool-k": (
        2, ["plan", "--kind", "BleiPS", "--params", '{"n": 3, "k": true, "q": [3, 3, 3]}']
    ),
    "plan-blei21-bool-K": (2, ["plan", "--kind", "Blei21", "--params", '{"J": 3, "K": true}']),
    "plan-blei-qp-bool-K": (
        2, ["plan", "--kind", "BleiQP", "--params", '{"J": 3, "K": true, "q": "inf", "p": "2"}']
    ),
    "plan-bool-random-seed": (
        2, ["plan", "--kind", "BleiPS", "--params", BLEI_PS_3 % '"strategy": "random", "seed": true']
    ),
    "plan-bool-coefficient": (
        2, ["plan", "--kind", "BleiPS", "--params", BLEI_PS_3 % '"c": [true, 1, 1]']
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
    "coeffs-bool": (2, [*USER_COEFFS, "[true, 1, 1]"]),
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
    "sweep-empty-kind-list": (2, ["sweep", "--seed", "1", "--kinds", ","]),
    "sweep-negative-seed": (
        2, ["sweep", "--seed", "-1", "--trials", "1", "--kinds", "Quad6"]
    ),
    # a family size is rejected without being computed (C(2000000, 1000000)
    # took 37 s, then a ValueError formatting its 600,000 digits)
    "coeffs-huge-family": (2, ["coeffs", "--n", "2000000", "--k", "1000000"]),
    "coeffs-large-family": (2, ["coeffs", "--n", "200000", "--k", "100000"]),
    "plan-blei21-huge-family": (
        2, ["plan", "--kind", "Blei21", "--params", '{"J": 1000000, "K": 500000}']
    ),
    "plan-blei-ps-huge-family": (
        2, ["plan", "--kind", "BleiPS", "--params", '{"n": 200000, "k": 100000, "q": [3]}']
    ),
    # a coefficient string goes through the exponents' parser
    "coeffs-coefficient-1e999999999": (2, [*USER_COEFFS, '["1e999999999", 1, 1]']),
    "coeffs-coefficient-1e99999": (2, [*USER_COEFFS, '["1e99999", 1, 1]']),
    "plan-coefficient-1e9999999": (
        2, ["plan", "--kind", "BleiPS", "--params", BLEI_PS_3 % '"c": ["1e9999999", 1, 1]']
    ),
    # a shape entry is an integer; a value or a weight past the float range is rejected
    "eval-text-shape": (2, ["eval", "--tensor", T_13.replace('"shape": [2]', '"shape": ["2"]'), "--spec", _spec(2)]),
    "eval-float-shape": (2, ["eval", "--tensor", T_13.replace('"shape": [2]', '"shape": [2.7]'), "--spec", _spec(2)]),
    "eval-value-10e400": (2, ["eval", "--tensor", _tensor([10**400, 3.0], [1.0, 2.0]), "--spec", _spec(2)]),
    "eval-weight-10e400": (2, ["eval", "--tensor", _tensor([1.0, 3.0], [10**400, 2.0]), "--spec", _spec(2)]),
    "search-weight-10e400": (
        2,
        ["search", "--kind", "Littlewood43", "--space", SPACE_2x1.replace("2.0", "1" + "0" * 400),
         "--seed", "1"],
    ),
    # an axis id is a nonempty string, never converted
    "plan-axis-ids-not-strings": (
        2, ["plan", "--kind", "Littlewood43", "--params", '{"axes": [1, 1.0]}']
    ),
    "orbit-axis-id-object": (2, ["orbit", "--spec", '{"columns": [{"p": 2, "axis": {"a": 1}}]}']),
    "orbit-empty-axis-id": (2, ["orbit", "--spec", '{"columns": [{"p": 2, "axis": ""}]}']),
    # a JSON integer literal too long to convert is invalid JSON
    "plan-5000-digit-count": (
        2, ["plan", "--kind", "BleiPS", "--params", '{"n": %s, "k": 1, "q": [3]}' % ("1" * 5000)]
    ),
    "orbit-5000-digit-exponent": (
        2, ["orbit", "--spec", '{"columns": [{"p": %s, "axis": "x1"}]}' % ("1" * 5000)]
    ),
    "eval-5000-digit-shape": (
        2, ["eval", "--tensor", T_13.replace('"shape": [2]', '"shape": [%s]' % ("1" * 5000)), "--spec", _spec(2)]
    ),
    # BleiPS checks a seed it echoes, and takes either 'c' or a strategy and seed
    "plan-blei-ps-text-seed": (
        2, ["plan", "--kind", "BleiPS", "--params", '{"n": 3, "k": 1, "q": [3, 3, 3], "seed": "abc"}']
    ),
    "plan-coefficients-and-strategy": (
        2, ["plan", "--kind", "BleiPS", "--params", BLEI_PS_3 % '"c": [1, 1, 1], "strategy": "random", "seed": 5']
    ),
    "plan-coefficients-and-seed": (
        2, ["plan", "--kind", "BleiPS", "--params", BLEI_PS_3 % '"c": [1, 1, 1], "seed": 5']
    ),
    # a space has at most 62 axes: numpy's 64 dimensions less the kernel's set and row axes
    "eval-62-axes": (0, ["eval", "--tensor", _unit_tensor(62), "--spec", _spec(*[2] * 62)]),
    "eval-63-axes": (2, ["eval", "--tensor", _unit_tensor(63), "--spec", _spec(*[2] * 63)]),
    "eval-65-axes": (2, ["eval", "--tensor", _unit_tensor(65), "--spec", _spec(*[2] * 65)]),
    "search-63-axes": (
        2,
        ["search", "--kind", "SymmetricHolder", "--params", '{"spec": %s}' % _spec(*[2] * 63),
         "--space", json.dumps(_unit_space(63)), "--seed", "1", "--max-evals", "20"],
    ),
    "verify-blei-qp-100-axes": (
        2, ["verify", "--kind", "BleiQP", "--params", '{"J": 100, "K": 1, "q": 3, "p": 0.5}', *RANDOM_2]
    ),
    # a drawn space over search._MAX_CELLS cells: this one is 6.7e9 cells, 54 GB a tensor
    "verify-blei21-random-space-over-the-cell-limit": (
        2, ["verify", "--kind", "Blei21", "--params", '{"J": 24, "K": 1}', "--random", "1", "--seed", "1"]
    ),
    # the climb's starts over search._MAX_CELLS cells: 1999 boxes of 10^6 cells, 16 GB
    "search-starts-over-the-cell-limit": (
        2,
        ["search", "--kind", "Littlewood43",
         "--space", json.dumps({"axes": [{"id": f"x{i}", "weights": [1.0] * 1000} for i in (1, 2)]}),
         "--seed", "1", "--max-evals", "20"],
    ),
    # a coefficient outside [0, 1] is rejected before any sum is formed or printed
    "coeffs-4300-digit-coefficients": (2, [*USER_PAIR_COEFFS, "[%s, %s, 1]" % ("9" * 4300, "9" * 4300)]),
    "coeffs-400-digit-and-float": (2, [*USER_PAIR_COEFFS, "[%s, 0.5, 1]" % ("9" * 400)]),
    "coeffs-sum-denominator-over-4300-digits": (
        2, [*USER_PAIR_COEFFS, '["1/%s", "2/%s1", "1/3"]' % ("7" * 4290, "7" * 4290)]
    ),
    # both sides beyond the float range: a NaN ratio is no verdict
    "verify-sandwich-nan-ratio-1e308": (2, _nan_ratio("SortedSandwich", 1e308)),
    "verify-sandwich-nan-ratio-1e-320": (2, _nan_ratio("SortedSandwich", 1e-320)),
    "verify-holder-nan-ratio-1e-320": (2, _nan_ratio("SymmetricHolder", 1e-320)),
    "verify-gm-nan-ratio-1e-320": (2, _nan_ratio("SymmetricGM", 1e-320)),
    # one row per builder check
    "plan-holder-mixed-no-specs": (2, ["plan", "--kind", "HolderMixed", "--params", "{}"]),
    "plan-holder-mixed-empty-specs": (2, ["plan", "--kind", "HolderMixed", "--params", '{"specs": []}']),
    "plan-holder-mixed-not-a-holder-system": (
        2, ["plan", "--kind", "HolderMixed", "--params", '{"specs": [%s, %s]}' % (_spec(2, 2), _spec(3, 3))]
    ),
    "plan-symmetric-holder-no-spec": (2, ["plan", "--kind", "SymmetricHolder"]),
    "plan-symmetric-gm-unsorted": (2, ["plan", "--kind", "SymmetricGM", "--params", '{"spec": %s}' % _spec(1, 2)]),
    "plan-blei-qp-infinite-p": (
        2, ["plan", "--kind", "BleiQP", "--params", '{"J": 3, "K": 1, "q": "inf", "p": "inf"}']
    ),
    "plan-minkowski-direction-up": (
        2, ["plan", "--kind", "MinkowskiRaise", "--params", '{"spec": %s, "perm": [2, 1], "direction": "up"}' % SPEC_21]
    ),
    "plan-popa-sinnamon-no-q": (2, ["plan", "--kind", "PopaSinnamonFirst"]),
    "plan-popa-sinnamon-one-exponent": (2, ["plan", "--kind", "PopaSinnamonFirst", "--params", '{"q": [2]}']),
    "plan-blei21-axes-wrong-length": (
        2, ["plan", "--kind", "Blei21", "--params", '{"J": 3, "K": 1, "axes": ["a", "b"]}']
    ),
    "plan-blei21-repeated-axis": (
        2, ["plan", "--kind", "Blei21", "--params", '{"J": 3, "K": 1, "axes": ["a", "a", "b"]}']
    ),
    "plan-blei-ps-unknown-strategy": (2, ["plan", "--kind", "BleiPS", "--params", BLEI_PS_3 % '"strategy": "bogus"']),
    # a float coefficient may pass 1 by 1e-12, and then its p_i falls below 1
    "plan-blei-ps-derived-exponent-below-1": (
        2,
        ["plan", "--kind", "BleiPS", "--params",
         '{"n": 3, "k": 1, "q": [2, "inf", "inf"], "c": [1.0000000000001, 1, 1]}'],
    ),
    "plan-blei-ps-second-coefficient-over-1": (
        2, ["plan", "--kind", "BleiPS", "--params", '{"n": 2, "k": 1, "q": ["inf", 2], "c": [1, 1.0000000000005]}'],
    ),
    "coeffs-float-coefficients-miss-an-axis": (2, [*USER_PAIR_COEFFS, "[0.5, 0.5, 0.6]"]),
    # one row per command-line check
    "verify-instance-and-kind": (2, ["verify", "--instance", '{"kind": "Quad6"}', "--kind", "Quad6", *RANDOM_1]),
    "verify-instance-not-an-object": (2, ["verify", "--instance", "[1]", *RANDOM_1]),
    "verify-instance-without-kind": (2, ["verify", "--instance", "{}", *RANDOM_1]),
    "verify-no-instance": (2, ["verify", *RANDOM_1]),
    "verify-tensors-and-random": (2, ["verify", "--kind", "Littlewood43", "--tensors", T_13, *RANDOM_1]),
    "verify-no-inputs": (2, ["verify", "--kind", "Littlewood43"]),
    "verify-random-without-seed": (2, ["verify", "--kind", "Littlewood43", "--random", "1"]),
    "search-without-seed": (2, ["search", "--kind", "Littlewood43", "--space", SPACE_2x1]),
    "probe-t-grid-only-commas": (2, ["probe", "--spec", SPEC_21, "--p", "2", "--t-grid", ","]),
    "eval-unreadable-document": (2, ["eval", "--tensor", T_13, "--spec", "no/such/spec.json"]),
    "eval-tensor-a-list": (2, ["eval", "--tensor", "[1, 2]", "--spec", _spec(2)]),
    "eval-tensor-without-shape": (2, ["eval", "--tensor", T_13.replace('"shape": [2], ', ""), "--spec", _spec(2)]),
    "eval-tensor-shape-not-a-list": (
        2, ["eval", "--tensor", T_13.replace('"shape": [2]', '"shape": 2'), "--spec", _spec(2)]
    ),
    "orbit-columns-not-a-list": (2, ["orbit", "--spec", '{"columns": 3}']),
    "decompose-perm-size-mismatch": (2, ["decompose", "--spec", SPEC_21, "--perm", "[1, 2, 3]"]),
}


@pytest.mark.parametrize(
    "row, text",
    [
        ("plan-blei-ps-derived-exponent-below-1", "c_1 = 1.0000000000001 gives p_1 = 0.99999999999995, outside 1 <= p_1 <= q_1 = 2"),
        ("plan-blei-ps-second-coefficient-over-1", "c_2 = 1.0000000000005 gives p_2 = 0.99999999999975, outside 1 <= p_2 <= q_2 = 2"),
    ],
)
def test_blei_ps_names_the_coefficient_that_breaks_an_exponent(capsys, row, text):
    rc, out, err = run(capsys, *HOSTILE_INPUTS[row][1])
    assert (rc, out) == (2, "")
    assert err == f"error: coefficient {text}\n"


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


# ---------------------------------------------------------------------------
# generated inputs


def _columns(*ps):
    return {"columns": [{"p": p, "axis": f"x{j}"} for j, p in enumerate(ps, 1)]}


def _axes(n, weights=(0.5, 2.0)):
    return {"axes": [{"id": f"x{j}", "weights": list(weights)} for j in range(1, n + 1)]}


# valid `search` inputs as (kind, params, space); the gate mutates their paths
SEARCH_INPUTS = [
    ("SymmetricGM1", {"spec": _columns(2, 1), "lhs_exponent": "8/5"}, _axes(2, (1e-6, 1.0, 1e6))),
    ("HolderMixed", {"specs": [_columns(2, 4), _columns(2, "4/3")]}, _axes(2)),
    ("Quad6", {}, _axes(4)),
    ("BleiPS", {"n": 3, "k": 1, "q": [3, 3, "inf"]}, _axes(3)),
]
MUTATIONS = [0, -1, 1e308, 1e-320, "nan", True, None, [], {}, "1/0", 10**30, "1e400"]


def _paths(doc, prefix=()):
    """The path of every value below doc's root, children before parents."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield from _paths(value, prefix + (key,))
        yield prefix + (key,)


def _mutated(draw, docs):
    """A deep copy of docs, a dict of documents, with 1-3 paths below its
    documents replaced by values of MUTATIONS."""
    docs = json.loads(json.dumps(docs))
    for _ in range(draw(st.integers(1, 3))):
        path = draw(st.sampled_from([p for p in _paths(docs) if len(p) > 1]))  # the roots stay objects
        parent = docs
        for key in path[:-1]:
            parent = parent[key]
        parent[path[-1]] = draw(st.sampled_from(MUTATIONS))
    return docs


@st.composite
def mutated_search(draw):
    kind, params, space = draw(st.sampled_from(SEARCH_INPUTS))
    docs = _mutated(draw, {"params": params, "space": space})
    return [
        "search", "--kind", kind, "--params", json.dumps(docs["params"]), "--space", json.dumps(docs["space"]),
        "--seed", "3", "--max-evals", draw(st.sampled_from(["1", "3", "40"])),
        "--restarts", draw(st.sampled_from(["0", "2", "6"])),
    ]


# valid `plan` and `verify --random` params as (kind, params), whose specs,
# permutations, subset families and orbits the builders derive without
# parsing them again; the gate mutates their paths
BUILD_INPUTS = [
    ("SymmetricGM", {"spec": _columns(3, 2, 2), "lhs_exponent": "5/2"}),
    ("MinkowskiRaise", {"spec": _columns(1, "inf", 2), "perm": [2, 1, 3], "direction": "raise"}),
    ("SortedSandwich", {"spec": _columns(2, "inf", "1/2")}),
    ("BleiPS", {"n": 3, "k": 1, "q": [3, 3, "inf"], "strategy": "random", "seed": 5}),
    ("BleiPS", {"n": 3, "k": 2, "q": [4, 4, "inf"], "c": ["1/2", "1/2", "1/2"]}),
    ("PopaSinnamonSecond", {"q": [3, 3, "inf"], "axes": ["a", "b", "c"]}),
]


@st.composite
def mutated_build(draw):
    kind, params = draw(st.sampled_from(BUILD_INPUTS))
    args = ["--kind", kind, "--params", json.dumps(_mutated(draw, {"params": params})["params"])]
    if draw(st.booleans()):
        return ["plan", *args]
    return ["verify", *args, "--random", "2", "--seed", "1"]


@settings(max_examples=400, deadline=None, derandomize=True)
@given(argv=mutated_search())
def test_mutated_search_inputs_exit_cleanly(argv):
    _assert_exits_cleanly(argv)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(argv=mutated_build())
def test_mutated_plan_and_verify_inputs_exit_cleanly(argv):
    _assert_exits_cleanly(argv)


def _assert_exits_cleanly(argv):
    # 1-3 paths of a valid document replaced by a hostile value: the command
    # exits 0, 1 or 2 and raises nothing; exit 2 prints no stdout
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = main(argv)
        except SystemExit as exc:
            rc = exc.code
    assert rc in (0, 1, 2), err.getvalue()
    if rc == 2:
        assert out.getvalue() == "" and "error:" in err.getvalue()
    else:
        json.loads(out.getvalue(), parse_constant=_reject_constant)


# ---------------------------------------------------------------------------
# the environment and the output pipe

@pytest.mark.parametrize("argv", [["plan", "--kind", "Quad6"], ["orbit", "--spec", SPEC_21]], ids=lambda v: v[0])
def test_commands_without_tol_ignore_the_env_var(capsys, monkeypatch, argv):
    monkeypatch.delenv("MIXEDNORM_TOL", raising=False)
    expected = run(capsys, *argv)
    assert expected[0] == 0
    monkeypatch.setenv("MIXEDNORM_TOL", "abc")
    assert run(capsys, *argv) == expected


@pytest.mark.parametrize(
    "argv",
    [
        ["search", "--kind", "Littlewood43", "--space", SPACE_2x1, "--seed", "1", "--max-evals", "20"],
        ["sweep", "--seed", "1", "--trials", "1", "--kinds", "Quad6"],
    ],
    ids=lambda v: v[0],
)
def test_commands_with_tol_check_the_env_var(capsys, monkeypatch, argv):
    monkeypatch.setenv("MIXEDNORM_TOL", "abc")
    rc, out, err = run(capsys, *argv)
    assert (rc, out) == (2, "")
    assert "MIXEDNORM_TOL is not a number" in err
    monkeypatch.setenv("MIXEDNORM_TOL", "-1")
    rc, out, err = run(capsys, *argv)
    assert (rc, out) == (2, "")
    assert "MIXEDNORM_TOL must be a finite nonnegative number" in err


@pytest.mark.parametrize(
    "argv, code",
    [
        (["plan", "--kind", "Blei21", "--params", '{"J": 12, "K": 6}'], 0),
        (["probe", "--spec", SPEC_21, "--p", "2", "--t-grid", "1,4,16", "--format", "csv"], 0),
        (["verify", "--kind", "SymmetricGM1", "--params", '{"spec": %s, "lhs_exponent": "1/2"}' % SPEC_21,
          "--random", "2", "--seed", "1"], 1),
    ],
    ids=lambda v: v[0] if isinstance(v, list) else None,
)
def test_a_closed_stdout_keeps_the_exit_code_and_prints_no_traceback(argv, code):
    # the reader is gone before the command writes its first byte
    proc = subprocess.Popen(
        [sys.executable, "-m", "mixednorm", *argv], stdout=subprocess.PIPE, stderr=subprocess.PIPE
    )
    proc.stdout.close()
    _, err = proc.communicate(timeout=60)
    assert (proc.returncode, err) == (code, b"")
