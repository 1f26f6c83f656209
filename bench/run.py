"""Benchmark for mixednorm: four closed-loop workloads, their end-to-end
metrics, and a traced run that splits the time by layer.

Run from the root of a checkout (see bench/README.md):

    python3 bench/run.py --workload sweep --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 20 --trace 0

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  With ``--trace 0`` the metrics are
the end-to-end metrics of BENCHMARK.json; with ``--trace 1`` they are the
per-layer metrics.  Lines before it give the run record (machine facts,
grid sizes) and every metric under the name the workload documents.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import gc
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path

import numpy as np

import tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

sys.path.insert(0, str(SRC))
try:
    import mixednorm as mn
    import mixednorm.cli
except ImportError:  # not a checkout of the repository: main() refuses to run
    mn = None

WORKLOADS = ("sweep", "search", "grid", "cli")
TOL = 1e-8
SUBPROCESS_TIMEOUT_S = 60
SETUP_REPEATS = 5

# ``python -m mixednorm ARGS`` that prints its own peak resident set (VmHWM)
RSS_PROBE = """
import runpy, sys
sys.argv = ["mixednorm", *sys.argv[1:]]
try:
    runpy.run_module("mixednorm", run_name="__main__", alter_sys=True)
finally:
    for line in open("/proc/self/status"):
        if line.startswith("VmHWM:"):
            sys.stderr.write(f"\\nbench-vmhwm-kb {line.split()[1]}\\n")
"""

IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import mixednorm; "
    "print(time.perf_counter() - t)"
)


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    return env


def run_python(args):
    """This interpreter on `args` with ``src`` importable; waits for it."""
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        text=True,
        env=child_env(),
        cwd=ROOT,
        timeout=SUBPROCESS_TIMEOUT_S,
    )


def sub_seed(*key) -> int:
    """A 32-bit seed derived from the workload seed and a position."""
    return int(np.random.SeedSequence([int(k) for k in key]).generate_state(1)[0])


def tail(samples):
    """The highest percentile with at least ten samples beyond it, but no
    higher than the 99th: beyond that the figure is set by the handful of
    largest inputs a seed happens to draw.

    Returns (value, percentile, sample count); with ten or fewer samples no
    percentile qualifies and the maximum is returned as the 100th.
    """
    xs = sorted(samples)
    n = len(xs)
    if n <= 10:
        return xs[-1], 100.0, n
    k = min(n - 11, math.ceil(0.99 * n) - 1)
    return xs[k], 100.0 * (k + 1) / n, n


# The speed probes: fixed work that calls no package code, so that a change
# to the package never changes them. Their reference durations are their
# typical times on a 2-vCPU Xeon virtual machine; a scaled second is a
# second on a machine where the probe takes exactly that long.
_PROBE_ARRAY = np.linspace(1.0, 2.0, 27)
_PROBE_DOC = {"columns": [{"p": "3/2", "axis": f"x{j}"} for j in range(6)], "weights": [0.5, 1.25, 3.0]}
CPU_REFERENCE_S = 0.005
VECTOR_REFERENCE_S = 0.008
SPAWN_REFERENCE_S = 0.170


def cpu_probe():
    """The kinds of work the package does in-process: an interpreted loop,
    Fraction arithmetic, small numpy calls and JSON round trips."""
    s = 0
    for i in range(5000):
        s += i * i % 7
    a = Fraction(1, 3)
    for i in range(1, 300):
        a = a * Fraction(i + 1, i) + Fraction(1, i)
    for _ in range(100):
        np.log(_PROBE_ARRAY).sum()
    for _ in range(100):
        json.loads(json.dumps(_PROBE_DOC))


@functools.cache
def _vector_probe_arrays():
    x = np.linspace(0.5, 2.0, 1 << 20)
    return x, np.empty_like(x)


def vector_probe():
    """What the reduction kernel does: log, exp and a sum over an 8 MiB
    array, twice."""
    x, out = _vector_probe_arrays()
    for _ in range(2):
        np.log(x, out=out)
        np.exp(out, out=out)
        out.sum()


def spawn_probe():
    """A cold interpreter that imports numpy, as a cold ``mixednorm`` does."""
    proc = run_python(["-c", "import numpy"])
    if proc.returncode != 0:
        raise SystemExit(f"bench: spawn probe failed:\n{proc.stderr}")


class Speed:
    """How fast the machine runs right now, measured by a probe.

    On a shared virtual machine the CPU changes speed by up to 2x, staying
    in a state for a fraction of a second to tens of seconds, and a whole
    run can fall in a slow stretch. So calls are grouped in slices of at
    least `every_s` seconds of wall time; the probe runs before the first
    slice and after each one, and every call's seconds are scaled by
    `reference_s` over the mean of the two probe times around its slice.
    A change to the package changes its calls, never the probe. Without a
    probe the scale is 1.
    """

    def __init__(self, probe=None, reference_s=1.0, every_s=0.1):
        self.probe, self.reference_s, self.every_s = probe, reference_s, every_s
        self.pending = []
        self.last = self.sample()
        self.last_at = time.perf_counter()

    def sample(self):
        if self.probe is None:
            return self.reference_s
        start = time.perf_counter()
        self.probe()
        return time.perf_counter() - start

    def add(self, meter, call):
        self.pending.append((meter, call))
        if time.perf_counter() - self.last_at >= self.every_s:
            self.flush()

    def flush(self):
        """Close the open slice: probe, then scale its calls into their meters."""
        if not self.pending:
            return
        now = self.sample()
        scale = 2 * self.reference_s / (self.last + now)
        self.last, self.last_at = now, time.perf_counter()
        for meter, (label, work, seconds, latency) in self.pending:
            meter.calls.append((label, work, seconds * scale, latency * scale, seconds))
        self.pending = []


class Meter:
    """The calls of one kind of operation, each with a label (the instance,
    kind or command it ran), its work and its scaled seconds."""

    def __init__(self, speed):
        self.speed = speed
        self.calls = []  # (label, work, scaled seconds, scaled latency, seconds)

    def add(self, label, work, seconds, latency=None):
        self.speed.add(self, (label, work, seconds, seconds if latency is None else latency))

    @property
    def work(self):
        return sum(c[1] for c in self.calls)

    def rate(self):
        """Work per scaled second of one round that runs every label once,
        with its mean work, at its median rate. A run that ends part way
        through a round, or runs one label more often, gives the same
        figure."""
        by_label = {}
        for label, work, seconds, _, _ in self.calls:
            by_label.setdefault(label, []).append((work, seconds))
        total_work = total_s = 0.0
        for calls in by_label.values():
            work = statistics.mean(w for w, _ in calls)
            total_work += work
            total_s += work / statistics.median(w / s for w, s in calls)
        return total_work / total_s

    def raw_rate(self):
        """Work per unscaled second over all calls, for the record."""
        return self.work / sum(c[4] for c in self.calls)

    def label_s(self, label):
        return statistics.median(c[2] for c in self.calls if c[0] == label)

    def p50_ms(self):
        return 1e3 * statistics.median(c[3] for c in self.calls)

    def tail_ms(self):
        value, pct, n = tail([c[3] for c in self.calls])
        return 1e3 * value, pct, n

    def summary(self, rate_name, rate_unit, p50_name, tail_name, work_note):
        """(end-to-end metrics, named rows) for a meter that carries both."""
        tail_ms, pct, n = self.tail_ms()
        rate_note = f"{self.work:g} {work_note} in {len(self.calls)} calls, unscaled {self.raw_rate():.6g}"
        return {"op_ms_p50": self.p50_ms(), "op_ms_tail": tail_ms}, [
            (rate_name, self.rate(), rate_unit, rate_note),
            (p50_name, self.p50_ms(), "ms", f"{n} calls"),
            (tail_name, tail_ms, "ms", f"p{pct:.1f} of {n} calls"),
        ]


def spec_doc(exponents):
    return {"columns": [{"p": e, "axis": f"x{j + 1}"} for j, e in enumerate(exponents)]}


def conjugate(p: str) -> str:
    """Holder conjugate of a finite exponent p >= 1, exactly."""
    f = Fraction(p)
    return "inf" if f == 1 else str(f / (f - 1))


def log_uniform(rng, lo, hi, shape):
    out = rng.uniform(math.log(lo), math.log(hi), shape)
    return np.exp(out, out=out)


def random_space(rng, shape, lo=0.5, hi=2.0):
    return mn.ProductSpace(
        tuple(
            mn.Axis(f"x{j + 1}", tuple(float(w) for w in log_uniform(rng, lo, hi, size)))
            for j, size in enumerate(shape)
        )
    )


def rel_err(a, b):
    return abs(a - b) / max(abs(b), 1e-300)


# ---------------------------------------------------------------------------
# workloads


class Workload:
    """One closed loop: ``setup`` builds every input from the seed, ``step(i)``
    runs operation group i and records its timings, ``check`` runs the
    correctness checks that do not fit inside a step."""

    # the probe that scales the workload's in-process calls, or None
    PROBE = (cpu_probe, CPU_REFERENCE_S)

    def __init__(self, seed):
        self.seed = seed
        self.tracer = None
        self.attempted = 0
        self.failed = 0
        self.reset(probes=True)

    def reset(self, probes):
        """Fresh meters, with or without speed probes (the traced run has
        none); failure counts are kept."""
        self.speeds = []

    def speed(self, probes, probe=None, **kwargs):
        probe = probe or self.PROBE
        speed = Speed(*probe, **kwargs) if probes and probe else Speed()
        self.speeds.append(speed)
        return speed

    def flush(self):
        for speed in self.speeds:
            speed.flush()

    def call(self, span, fn, *args, **kwargs):
        if self.tracer is None:
            return fn(*args, **kwargs)
        return self.tracer.call(span, fn, args, kwargs)

    def timed(self, span, fn, *args, **kwargs):
        """(result, seconds) of one call into the package."""
        start = time.perf_counter()
        result = self.call(span, fn, *args, **kwargs)
        return result, time.perf_counter() - start

    def fail(self, what):
        self.failed += 1
        print(f"bench: {self.name}: failed: {what}", file=sys.stderr)

    def attempt(self, what, fn, *args):
        """Run one operation; an exception counts as a failure, not a crash."""
        self.attempted += 1
        try:
            return fn(*args)
        except Exception:
            self.fail(f"{what} raised\n{traceback.format_exc()}")
            return None

    def check(self):
        pass

    def peak_rss_mb(self):
        """Peak resident set of this process."""
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux

    def layer_probes(self):
        return {}

    def work_dir(self):
        return None


class Sweep(Workload):
    """Step i runs ``sweep`` on one kind, 100 trials, once with one thread
    and once with min(2, nproc); the two reports must be the same bytes.
    ``sweep`` starts its thread pool per kind, so a one-kind call does what
    a full sweep does for that kind; 100 trials per kind is the ROADMAP's
    re-anchor size."""

    name = "sweep"
    TRIALS = 100

    def reset(self, probes):
        super().reset(probes)
        speed = self.speed(probes)
        self.st, self.mt = Meter(speed), Meter(speed)

    def setup(self):
        self.threads = min(2, os.cpu_count() or 1)

    def step(self, i):
        kind = mn.KINDS[i % len(mn.KINDS)]
        cfg = mn.TrialConfig(seed=sub_seed(self.seed, 1, i // len(mn.KINDS)), trials=self.TRIALS, kinds=(kind,))
        modes = [(self.st, 1), (self.mt, self.threads)]
        if i % 2:
            modes.reverse()
        reports = []
        for meter, threads in modes:
            out = self.attempt(f"sweep {kind} seed={cfg.seed} threads={threads}", self._one, cfg, threads)
            if out is None:
                continue
            report, seconds = out
            meter.add(kind, self.TRIALS, seconds)
            if report["pass"] is not True:
                self.fail(f"sweep {kind} seed={cfg.seed} threads={threads}: fails")
            reports.append(json.dumps(report, sort_keys=True))
        if len(reports) == 2 and reports[0] != reports[1]:
            self.fail(f"sweep {kind} seed={cfg.seed}: reports differ between 1 and {self.threads} threads")

    def _one(self, cfg, threads):
        return self.timed("search.sweep", mn.sweep, cfg, threads=threads)

    def end_to_end(self):
        metrics, named = self.st.summary(
            "sweep_trials_per_s", "trials/s", "sweep_call_ms_p50", "sweep_call_ms_tail", "trials"
        )
        metrics.update(ops_per_s=self.st.rate(), alt_ops_per_s=self.mt.rate())
        named.insert(1, ("sweep_mt_trials_per_s", self.mt.rate(), "trials/s",
                         f"threads={self.threads}, unscaled {self.mt.raw_rate():.6g}"))
        return metrics, named

    def layer_probes(self):
        probes = {"search.mt_speedup": self.mt.rate() / self.st.rate()}
        for kind in {c[0] for c in self.st.calls}:
            probes[f"search.sweep.kind.{kind}.ms_per_trial"] = 1e3 * self.st.label_s(kind) / self.TRIALS
        return probes


class Search(Workload):
    """Each step hill-climbs on three prebuilt instances, then runs a verify
    phase that mirrors ``verify --random`` on a SymmetricHolder with n=4."""

    name = "search"
    MAX_EVALS = 10_000
    VERIFY_TRIALS = 200
    POOL = ("1/2", "2/3", "1", "4/3", "3/2", "2", "3", "4")

    def reset(self, probes):
        super().reset(probes)
        speed = self.speed(probes)
        self.climb, self.verify = Meter(speed), Meter(speed)
        self.budget = 0

    def setup(self):
        rng = np.random.default_rng([self.seed, 2])
        perturbed = mn.build_instance(
            "SymmetricGM1", {"spec": spec_doc([2, 1]), "lhs_exponent": "8/5"}
        )
        wide = mn.ProductSpace(
            (mn.Axis("x1", (1e-6, 1.0, 1e6)), mn.Axis("x2", (1e-6, 1.0, 1e6)))
        )
        desc = sorted(rng.choice(self.POOL, 3, replace=False), key=Fraction, reverse=True)
        sound = mn.build_instance("SymmetricGM1", {"spec": spec_doc(desc)})
        self.targets = [
            ("perturbed SymmetricGM1", perturbed, wide, True),
            ("SymmetricGM1 n=3", sound, random_space(rng, (3, 3, 3), 1e-3, 1e3), False),
            ("Quad6", mn.build_instance("Quad6"), random_space(rng, (5, 5, 5, 5), 1e-3, 1e3), False),
        ]
        a, b, c = rng.choice(self.POOL, 3, replace=False)
        self.holder = mn.build_instance("SymmetricHolder", {"spec": spec_doc([a, a, b, c])})
        self.holder_arity = mn.instance_to_doc(self.holder)["derived"]["m"]

    def step(self, i):
        for k, target in enumerate(self.targets):
            self.attempt(f"maximize_ratio on {target[0]}", self._climb, sub_seed(self.seed, 1, i, k), *target)
        cfg = mn.TrialConfig(seed=sub_seed(self.seed, 3, i), trials=self.VERIFY_TRIALS, tolerance=TOL)
        for t in range(self.VERIFY_TRIALS):
            self.attempt(f"verify seed={cfg.seed} trial={t}", self._verify, cfg, t)

    def _climb(self, seed, label, inst, space, perturbed):
        res, seconds = self.timed(
            "search.maximize", mn.maximize_ratio, inst, space, seed=seed, max_evals=self.MAX_EVALS
        )
        self.climb.add(label, res.evaluations, seconds)
        self.budget += self.MAX_EVALS
        if res.evaluations > self.MAX_EVALS:
            self.fail(f"{label} seed={seed}: {res.evaluations} evaluations > {self.MAX_EVALS}")
        if perturbed != (res.best_ratio > 1 + TOL):
            self.fail(f"{label} seed={seed}: best ratio {res.best_ratio!r}")
        again = mn.evaluate_instance(inst, list(res.witnesses), tolerance=TOL).ratio
        if rel_err(again, res.best_ratio) > 1e-12:
            self.fail(f"{label} seed={seed}: witness ratio {again!r} != {res.best_ratio!r}")

    def _verify(self, cfg, t):
        (space, tensors), draw_s = self.timed(
            "search.random_inputs",
            mn.random_inputs,
            cfg,
            self.holder_arity,
            4,
            trial_index=t,
            axis_ids=("x1", "x2", "x3", "x4"),
        )
        report, eval_s = self.timed(
            "catalog.evaluate",
            mn.evaluate_instance,
            self.holder,
            tensors,
            tolerance=TOL,
            seed=cfg.seed,
            trial={"index": t},
        )
        self.verify.add("verify", 1, draw_s + eval_s, eval_s)
        if not report.passed:
            self.fail(f"verify seed={cfg.seed} trial={t}: ratio {report.ratio!r}")

    def end_to_end(self):
        metrics, named = self.verify.summary(
            "verify_trials_per_s", "trials/s", "verify_ms_p50", "verify_ms_tail", "trials"
        )
        metrics.update(ops_per_s=self.climb.rate(), alt_ops_per_s=self.verify.rate())
        named.insert(0, ("search_evals_per_s", self.climb.rate(), "evals/s",
                         f"{self.climb.work} evaluations, unscaled {self.climb.raw_rate():.6g}"))
        return metrics, named

    def layer_probes(self):
        return {
            "search.evals": self.climb.work,
            "search.budget_used_frac": self.climb.work / self.budget if self.budget else 0.0,
        }


class Grid(Workload):
    """``evaluate_instance`` on one grid that fits in L3 and one at least four
    times the L3 size; the kernel in ``spaces`` does nearly all the work.

    Step i evaluates instance i mod 3 once on the large grid, then runs
    rounds of all three instances on the small grid, three rounds per
    reduction of the large call, which take about a third of its time.
    """

    name = "grid"
    PROBE = (vector_probe, VECTOR_REFERENCE_S)
    L3_SHAPE = (32, 32, 32, 32)
    L3_ROUNDS_PER_REDUCTION = 3

    def __init__(self, seed, l3_bytes):
        self.big_shape = (96, 96, 96, max(64, math.ceil(4 * (l3_bytes or 0) / 8 / 96**3)))
        self.first = {}  # (grid, instance) -> first report, kept across set-ups and passes
        super().__init__(seed)

    def reset(self, probes):
        super().reset(probes)
        speed = self.speed(probes)
        self.meters = {"big": Meter(speed), "l3": Meter(speed)}

    def grids(self):
        return [
            {"name": name, "shape": list(shape), "cells": math.prod(shape), "bytes": 8 * math.prod(shape)}
            for name, shape in (("l3", self.L3_SHAPE), ("big", self.big_shape))
        ]

    def setup(self):
        rng = np.random.default_rng([self.seed, 3])
        finite = ("4/3", "3/2", "2", "3", "4")
        norm = mn.NormSpec.from_doc
        holder_p = [str(p) for p in rng.choice(finite, 4)]
        holder_docs = [spec_doc(holder_p), spec_doc([conjugate(p) for p in holder_p])]
        holder_a, holder_b = (norm(d) for d in holder_docs)
        rising = spec_doc(sorted(rng.choice(finite, 4, replace=False), key=Fraction))
        low = norm(rising)
        high = norm({"columns": rising["columns"][::-1]})
        gm = mn.build_instance("SymmetricGM1", {"spec": spec_doc([2, 2, 1, 1])})
        derived = mn.instance_to_doc(gm)["derived"]
        orbit = [norm(d) for d in derived["orbit"]]
        pbar = derived["pbar"]
        # (label, instance, reductions per call, direct (lhs, rhs) from the benchmark's own specs)
        self.instances = [
            (
                "HolderMixed",
                mn.build_instance("HolderMixed", {"specs": holder_docs}),
                3,
                lambda f: (
                    mn.integrate_product([f, f], method="direct"),
                    direct(f, holder_a) * direct(f, holder_b),
                ),
            ),
            (
                "MinkowskiRaise",
                mn.build_instance(
                    "MinkowskiRaise", {"spec": rising, "perm": [4, 3, 2, 1], "direction": "raise"}
                ),
                2,
                lambda f: (direct(f, low), direct(f, high)),
            ),
            (
                "SymmetricGM1(2,2,1,1)",
                gm,
                len(orbit) + 1,
                lambda f: (
                    direct(f, mn.NormSpec.uniform(pbar, f.space.ids)),
                    math.prod(direct(f, s) ** (1 / len(orbit)) for s in orbit),
                ),
            ),
        ]
        self.tensors = {}
        gc.collect()  # release the previous set-up's large grid before drawing another
        for name, shape in (("l3", self.L3_SHAPE), ("big", self.big_shape)):
            space = random_space(rng, shape)
            self.tensors[name] = mn.Tensor(space, log_uniform(rng, 0.5, 2.0, shape))

    def step(self, i):
        k = i % len(self.instances)
        label, _, reductions, _ = self.instances[k]
        self.attempt(f"{label} on big", self._evaluate, "big", k)
        for _ in range(self.L3_ROUNDS_PER_REDUCTION * reductions):
            for j, (label_j, *_) in enumerate(self.instances):
                self.attempt(f"{label_j} on l3", self._evaluate, "l3", j)

    def _evaluate(self, grid, k):
        label, inst, reductions, _ = self.instances[k]
        f = self.tensors[grid]
        report, seconds = self.timed("catalog.evaluate", mn.evaluate_instance, inst, [f], tolerance=TOL)
        self.meters[grid].add(label, f.values.size * reductions / 1e6, seconds)
        if not report.passed:
            self.fail(f"{label} on {grid}: ratio {report.ratio!r}")
        first = self.first.setdefault((grid, k), report)
        if (report.lhs, report.rhs) != (first.lhs, first.rhs):
            self.fail(f"{label} on {grid}: repeated call gave a different result")

    def check(self):
        """Both sides of every evaluated (instance, grid) against the direct path."""
        for (grid, k), report in sorted(self.first.items()):
            label, _, _, expected = self.instances[k]
            lhs, rhs = expected(self.tensors[grid])
            for side, got, want in (("lhs", report.lhs, lhs), ("rhs", report.rhs, rhs)):
                if rel_err(got, want) > 1e-9:
                    self.fail(f"{label} on {grid}: {side} {got!r} vs direct {want!r}")

    def end_to_end(self):
        big, l3 = self.meters["big"], self.meters["l3"]
        metrics, named = l3.summary(
            "grid_l3_mcells_per_s", "Mcells/s", "grid_l3_ms_p50", "grid_l3_ms_tail", "Mcell-reductions"
        )
        metrics.update(ops_per_s=big.rate(), alt_ops_per_s=l3.rate())
        named.insert(0, ("grid_mcells_per_s", big.rate(), "Mcells/s",
                         f"{len(big.calls)} calls on {list(self.big_shape)}"))
        return metrics, named


def direct(f, spec):
    return mn.eval_mixed_norm(f, spec, method="direct")


class Cli(Workload):
    """Step i runs command i mod 17 as a cold ``python -m mixednorm``
    process, then three times in-process through ``cli.main``. The cold
    processes are scaled by the spawn probe, the in-process calls by the
    CPU probe."""

    name = "cli"
    IN_PROCESS_PASSES = 3
    PROBE_REPEATS = 5

    def reset(self, probes):
        super().reset(probes)
        spawn = self.speed(probes, (spawn_probe, SPAWN_REFERENCE_S), every_s=0.2)
        self.cold, self.main = Meter(spawn), Meter(self.speed(probes))

    def work_dir(self):
        return OUT / f"cli-{os.getpid()}"

    def setup(self):
        rng = np.random.default_rng([self.seed, 4])
        pick = lambda pool, k: [str(e) for e in rng.choice(pool, k, replace=False)]
        finite = ("1/2", "2/3", "1", "4/3", "3/2", "2", "3", "4")
        p3 = pick(("3/2", "2", "3", "4"), 3)
        holder = {"specs": [spec_doc(p3), spec_doc([conjugate(p) for p in p3])]}
        rising = sorted(pick(finite, 3), key=Fraction)
        q, p = sorted(pick(finite, 2), key=Fraction, reverse=True)
        params = {
            "HolderMixed": holder,
            "MinkowskiRaise": {"spec": spec_doc(rising), "perm": [3, 2, 1], "direction": "raise"},
            "SortedSandwich": {"spec": spec_doc(pick(finite, 3))},
            "SymmetricHolder": {"spec": spec_doc(pick(finite, 3))},
            "SymmetricGM": {"spec": spec_doc(sorted(pick(finite, 3), key=Fraction, reverse=True))},
            "SymmetricGM1": {"spec": spec_doc(sorted(pick(finite, 3), key=Fraction, reverse=True))},
            "Littlewood43": {},
            "Blei21": {"J": 4, "K": 2},
            "BleiQP": {"J": 4, "K": 2, "q": q, "p": p},
            "PopaSinnamonFirst": {"q": pick(("3", "4", "6", "inf"), 3)},
            "PopaSinnamonSecond": {"q": pick(("3", "4", "6", "inf"), 3)},
            "BleiPS": {"n": 4, "k": 2, "q": [str(e) for e in rng.choice(("6", "12", "inf"), 6)]},
            "Quad6": {},
        }
        work = self.work_dir()
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        files = {
            "instance.json": mn.instance_to_doc(mn.build_instance("HolderMixed", holder)),
            "tensor.json": mn.tensor_to_doc(
                mn.Tensor(random_space(rng, (3, 3, 3)), log_uniform(rng, 0.1, 10.0, (3, 3, 3)))
            ),
        }
        space = random_space(rng, (4, 4, 4))
        files["space.json"] = mn.space_to_doc(space)
        for name, doc in files.items():
            (work / name).write_text(json.dumps(doc))
        values = log_uniform(rng, 0.1, 10.0, 64)
        (work / "tensor.csv").write_text("# shape: 4,4,4\n" + "\n".join(repr(float(v)) for v in values) + "\n")
        spec4 = json.dumps(spec_doc(pick(finite, 4)))
        self.commands = [["plan", "--kind", kind, "--params", json.dumps(params[kind])] for kind in mn.KINDS]
        self.commands += [
            ["verify", "--instance", str(work / "instance.json"), "--tensors", str(work / "tensor.json")],
            ["eval", "--tensor", str(work / "tensor.csv"), "--space", str(work / "space.json"),
             "--spec", json.dumps(spec_doc(pick(finite, 3)))],
            ["orbit", "--spec", spec4, "--mode", "exponents"],
            ["decompose", "--spec", json.dumps(spec_doc(sorted(pick(finite, 4), key=Fraction))),
             "--perm", "[4, 3, 2, 1]", "--direction", "raise"],
        ]

    def step(self, i):
        k = i % len(self.commands)
        argv = self.commands[k]
        self.attempt(f"cold {argv[0]}", self._cold, i, k, argv)
        for _ in range(self.IN_PROCESS_PASSES):
            self.attempt(f"in-process {argv[0]}", self._in_process, k, argv)

    def _cold(self, i, k, argv):
        if self.tracer is None:
            cmd = ["-m", "mixednorm", *argv]
        else:
            spans = self.work_dir() / f"spans-{i}.json.gz"
            cmd = [str(BENCH / "cli_child.py"), str(spans), *argv]
        start = time.perf_counter()
        proc = run_python(cmd)
        self.cold.add(k, 1, time.perf_counter() - start)
        self._check(argv, proc.returncode, proc.stdout, proc.stderr)
        if self.tracer is not None:
            self.tracer.merge_dump(spans)
            spans.unlink()

    def _in_process(self, k, argv):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code, seconds = self.timed("cli.main", mn.cli.main, argv)
        self.main.add(k, 1, seconds)
        self._check(argv, code, out.getvalue(), "")

    def _check(self, argv, code, stdout, stderr):
        try:
            doc = json.loads(stdout)
        except json.JSONDecodeError:
            self.fail(f"{' '.join(argv[:3])}: stdout is not JSON: {stdout[:200]!r}")
            return
        if code != 0 or "Traceback" in stderr:
            self.fail(f"{' '.join(argv[:3])}: exit {code}, stderr {stderr[-500:]!r}")
        elif argv[0] == "verify" and doc.get("pass") is not True:
            self.fail("verify: instance did not pass")

    def end_to_end(self):
        metrics, named = self.cold.summary(
            "cli_processes_per_s", "1/s", "cli_ms_p50", "cli_ms_tail", "processes"
        )
        metrics.update(ops_per_s=self.cold.rate(), alt_ops_per_s=self.main.rate())
        named.append(("cli_in_process_per_s", self.main.rate(), "calls/s", "cli.main"))
        return metrics, named

    def peak_rss_mb(self):
        """The largest peak resident set of a cold process, each command run
        once more for it. The child reads its own high-water mark: the
        rusage of a child also counts the parent's pages it was spawned
        from."""
        peak_kb = 0
        for argv in self.commands:
            self.attempted += 1
            proc = run_python(["-c", RSS_PROBE, *argv])
            marks = [line.split()[1] for line in proc.stderr.splitlines() if line.startswith("bench-vmhwm-kb ")]
            if proc.returncode != 0 or not marks:
                self.fail(f"{argv[0]} for peak memory: exit {proc.returncode}, stderr {proc.stderr[-500:]!r}")
                continue
            peak_kb = max(peak_kb, int(marks[-1]))
        return peak_kb / 1024

    def layer_probes(self):
        def median_s(args):
            times = []
            for _ in range(self.PROBE_REPEATS):
                start = time.perf_counter()
                proc = run_python(args)
                times.append(time.perf_counter() - start)
                if proc.returncode != 0:
                    self.fail(f"probe {args}: exit {proc.returncode}")
            return statistics.median(times)

        interpreter = median_s(["-c", "pass"])
        imported = median_s(["-c", "import mixednorm.cli"])
        return {
            "cli.interpreter_ms": 1e3 * interpreter,
            "cli.import_ms": 1e3 * (imported - interpreter),
            "cli.main_ms": self.main.p50_ms(),
        }


# ---------------------------------------------------------------------------
# run record and metrics


def l3_bytes():
    """L3 size of cpu0 as the kernel reports it (what lscpu shows), or None."""
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            if (index / "level").read_text().strip() == "3":
                text = (index / "size").read_text().strip()
                units = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}
                return int(text[:-1]) * units[text[-1]] if text[-1] in units else int(text)
        except (OSError, ValueError):
            continue
    return None


def cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit():
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    proc = subprocess.run(
        ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, timeout=30
    )
    return proc.stdout.strip() or "unknown"


def run_record(args, workload):
    l3 = l3_bytes()
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "l3_bytes": l3,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "commit": git_commit(),
    }
    if isinstance(workload, Grid):
        record["grids"] = [dict(g, x_l3=g["bytes"] / l3 if l3 else None) for g in workload.grids()]
    return record


E2E_UNITS = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ops_per_s": "ops/s",
    "alt_ops_per_s": "ops/s",
    "op_ms_p50": "ms",
    "op_ms_tail": "ms",
}

PER_LAYER = {
    "exponents.calls": "count",
    "exponents.self_s": "s",
    "perms.orbit.calls": "count",
    "perms.orbit.specs": "count",
    "perms.orbit.self_s": "s",
    "catalog.build.calls": "count",
    "catalog.build.self_s": "s",
    "catalog.from_doc.calls": "count",
    "catalog.from_doc.self_s": "s",
    "catalog.evaluate.calls": "count",
    "catalog.evaluate.self_s": "s",
    "catalog.evaluate.reductions": "count",
    "spaces.norm.calls": "count",
    "spaces.norm.self_s": "s",
    "spaces.norm.us_per_call": "us",
    "spaces.cells": "count",
    "spaces.mcells_per_s": "Mcells/s",
    "spaces.bytes_computed": "bytes",
    "spaces.log_values.self_s": "s",
    "spaces.integrate.self_s": "s",
    "spaces.tensor.calls": "count",
    "spaces.tensor.self_s": "s",
    "search.sweep.self_s": "s",
    "search.maximize.self_s": "s",
    "search.evals": "count",
    "search.budget_used_frac": "ratio",
    "search.random_inputs.self_s": "s",
    **{f"search.sweep.kind.{kind}.ms_per_trial": "ms" for kind in (
        "HolderMixed", "MinkowskiRaise", "SortedSandwich", "SymmetricHolder", "SymmetricGM",
        "SymmetricGM1", "Littlewood43", "Blei21", "BleiQP", "PopaSinnamonFirst",
        "PopaSinnamonSecond", "BleiPS", "Quad6",
    )},
    "search.mt_speedup": "ratio",
    "documents.from_doc.self_s": "s",
    "documents.to_doc.self_s": "s",
    "cli.interpreter_ms": "ms",
    "cli.import_ms": "ms",
    "cli.main_ms": "ms",
    "trace.overhead_s": "s",
    "trace.overhead_frac": "ratio",
    "trace.coverage_frac": "ratio",
}


def layer_metrics(tr, traced_s, untraced_s, probes):
    """Per-layer metrics from the spans; 0 where the workload never reaches
    the layer."""
    summary = tracer.summarize(tr.spans)
    calls, self_s = summary["calls"], summary["self_s"]
    spaces_s = sum(v for k, v in self_s.items() if k.startswith("spaces."))
    values = {name: 0 for name in PER_LAYER}
    for name in PER_LAYER:
        if name.endswith(".calls"):
            values[name] = calls.get(name[: -len(".calls")], 0)
        elif name.endswith(".self_s"):
            values[name] = self_s.get(name[: -len(".self_s")], 0.0)
    values["perms.orbit.specs"] = tr.counts.get("perms.orbit.specs", 0)
    values["catalog.evaluate.reductions"] = summary["reductions_under"].get("catalog.evaluate", 0)
    if calls.get("spaces.norm"):
        values["spaces.norm.us_per_call"] = 1e6 * self_s["spaces.norm"] / calls["spaces.norm"]
    values["spaces.cells"] = tr.counts.get("spaces.cells", 0)
    values["spaces.bytes_computed"] = tr.counts.get("spaces.bytes_computed", 0)
    if spaces_s:
        values["spaces.mcells_per_s"] = values["spaces.cells"] / spaces_s / 1e6
    values["trace.overhead_s"] = traced_s - untraced_s
    values["trace.overhead_frac"] = (traced_s - untraced_s) / untraced_s
    values["trace.coverage_frac"] = summary["root_s"] / traced_s
    values.update(probes)
    return values


# ---------------------------------------------------------------------------
# running a workload


def make_workload(name, seed):
    if name == "grid":
        return Grid(seed, l3_bytes())
    return {"sweep": Sweep, "search": Search, "cli": Cli}[name](seed)


def run_until(workload, seconds):
    """Steps 0, 1, ... until `seconds` have passed (at least one); returns
    the number of steps."""
    start = time.perf_counter()
    steps = 0
    while steps == 0 or time.perf_counter() - start < seconds:
        workload.step(steps)
        steps += 1
    workload.flush()
    return steps


def cold_import_s():
    """``import mixednorm`` in a fresh interpreter, timed inside it."""
    proc = run_python(["-c", IMPORT_PROBE])
    if proc.returncode != 0:
        raise SystemExit(f"bench: cannot import mixednorm:\n{proc.stderr}")
    return float(proc.stdout)


def timed_build(workload):
    """Seconds of one input build; it replaces the inputs with identical ones."""
    start = time.perf_counter()
    workload.setup()
    return time.perf_counter() - start


def setup_s(workload):
    """The median of SETUP_REPEATS cold imports, scaled by the spawn probe,
    plus the median of as many input builds, scaled as the workload's calls
    are; the first build makes the inputs of the run."""
    imports = Meter(Speed(spawn_probe, SPAWN_REFERENCE_S, every_s=0))
    builds = Meter(workload.speed(True, every_s=0))
    for _ in range(SETUP_REPEATS):
        imports.add("import", 1, cold_import_s())
        builds.add("build", 1, timed_build(workload))
    workload.flush()
    return (imports.p50_ms() + builds.p50_ms()) / 1e3


def traced_run(workload, args):
    """Steps for half the time untraced, then the same steps traced; the
    difference in wall time is the tracing overhead. Neither pass runs
    the speed probes."""
    workload.setup()
    workload.reset(probes=False)
    start = time.perf_counter()
    steps = run_until(workload, args.seconds / 2)
    untraced_s = time.perf_counter() - start
    probes = workload.layer_probes()
    workload.reset(probes=False)
    tr = tracer.Tracer()
    bound = tr.install()
    workload.tracer = tr
    start = time.perf_counter()
    try:
        for i in range(steps):
            workload.step(i)
    finally:
        traced_s = time.perf_counter() - start
        workload.tracer = None
        tr.uninstall()
    workload.check()
    metrics = layer_metrics(tr, traced_s, untraced_s, probes)
    OUT.mkdir(exist_ok=True)
    path = OUT / f"trace-{args.workload}-seed{args.seed}.json.gz"
    tr.dump(path)
    print(f"trace: {len(tr.spans)} spans, {steps} steps, {len(bound)} boundaries, written to {path}")
    for name, unit in PER_LAYER.items():
        print(f"{name:48s} {metrics[name]:14.6g} {unit}")
    return metrics


def timed_run(workload, args):
    setup = setup_s(workload)
    steps = run_until(workload, args.seconds)
    workload.check()
    metrics, named = workload.end_to_end()
    metrics["setup_s"] = setup
    metrics["peak_rss_mb"] = workload.peak_rss_mb()
    named = [
        ("setup_s", setup, "s", f"medians of {SETUP_REPEATS} imports and builds"),
        ("peak_rss_mb", metrics["peak_rss_mb"], "MB", ""),
        ("failed_frac", workload.failed / max(1, workload.attempted), "ratio",
         f"of {workload.attempted} operations in {steps} steps"),
        *named,
    ]
    for name, value, unit, note in named:
        print(f"{name:26s} {value:14.6g} {unit:9s} {note}")
    print("named " + json.dumps({n: {"value": v, "unit": u} for n, v, u, _ in named}))
    return metrics


def run_workload(args):
    workload = make_workload(args.workload, args.seed)
    print("record " + json.dumps(run_record(args, workload), sort_keys=True))
    try:
        if args.trace:
            metrics, units = traced_run(workload, args), PER_LAYER
        else:
            metrics, units = timed_run(workload, args), E2E_UNITS
    finally:
        if workload.work_dir() is not None:
            shutil.rmtree(workload.work_dir(), ignore_errors=True)
    return {
        "correct": workload.failed == 0,
        "attempted": workload.attempted,
        "failed": workload.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }


COMMON = ("setup_s", "peak_rss_mb", "failed_frac")


def run_all(args):
    """Every workload in its own process; prints the named metrics of each."""
    result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        argv = [str(Path(__file__)), "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", "0"]
        proc = subprocess.run([sys.executable, *argv], capture_output=True, text=True, cwd=ROOT)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.splitlines()
        named = [line for line in lines if line.startswith("named ")]
        if proc.returncode != 0 or not named:
            raise SystemExit(f"bench: workload {name} exited {proc.returncode}")
        last = json.loads(lines[-1])
        for key in ("attempted", "failed"):
            result[key] += last[key]
        result["correct"] = result["correct"] and last["correct"]
        for metric, value in json.loads(named[0][len("named "):]).items():
            key = f"{name}.{metric}" if metric in COMMON else metric
            result["metrics"][key] = value
            print(f"{key:32s} {value['value']:14.6g} {value['unit']}")
    return result


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if mn is None or not (SRC / "mixednorm" / "__init__.py").is_file():
        print(f"bench: no package at {SRC / 'mixednorm'}; run from a checkout", file=sys.stderr)
        return 2
    if args.workload == "all":
        if args.trace:
            print("bench: --workload all runs untraced only", file=sys.stderr)
            return 2
        result = run_all(args)
    else:
        result = run_workload(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
