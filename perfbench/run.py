#!/usr/bin/env python3
"""The repository benchmark: runs one workload through the public library
path (`load_config` -> `Runtime` -> `run_scenario` -> `write_report`),
checks every output, and prints the end-to-end metrics, or with
`--trace 1` the per-layer metrics of a traced pass.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload tiling --seed 1 --seconds 28 --trace 0

The load is a closed loop with one client: one process, one thread, and
each scenario starts after the previous report is written. A pass runs
every scenario of the workload once on a fresh `Runtime`; passes repeat
until the next one would end after `--seconds`. The last line of standard
output is one JSON object with `correct`, `attempted`, `failed` and the
metrics named in BENCHMARK.json; the lines before it print every metric
with its unit and sample count. Timings are scaled to a nominal machine
speed read by a probe during the run (see PROBE_NOMINAL_S); the measured
ones are in the result file. Outputs and a result file with the
environment and the digest of every report go to `.bench_out/<workload>/`.
See METRICS.md for the metric definitions and the prediction table.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import mpmath
import mpmath.libmp

import layertrace
import workloads

REPO = workloads.REPO
SRC = REPO / "src"
OUT = REPO / ".bench_out"
SETUPS_PER_PASS = 4  # set-ups timed before each pass; the pass runs on the last
P90_MIN_SAMPLES = 100  # ten samples beyond the 90th percentile

# The shared 2-core host this was tuned on flips between a fast and a 1.6x
# slower state every 30-300 ms, and the share of slow time drifts over
# minutes: the same pass took 7 s in one run and 13 s in a run minutes
# later. After each scenario the runner times a fixed job for PROBE_SHARE
# of the time just measured. Every timing of a run is scaled by
# PROBE_NOMINAL_S over the mean of the run's probe readings, so it reads in
# seconds on a machine that does the job in PROBE_NOMINAL_S, about its
# fast-state time on that host.
PROBE_SHARE = 0.1
PROBE_NOMINAL_S = 0.0013

E2E_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "cpu_s": "s",
    "scenario_p50_s": "s",
    "scenario_p90_s": "s",
    "fail_ratio": "ratio",
    "peak_rss_mb": "MB",
}


class _Cell:
    __slots__ = ("forms",)

    def __init__(self, forms):
        self.forms = forms

    def contains(self, x) -> bool:
        for p in self.forms:
            if p[0] * x[0] + p[1] * x[1] + p[2] * x[2] <= 0:
                return False
        return True


_PROBE_CELLS = [_Cell(((i, 1, -2), (3, -i, 5), (1, 1, i))) for i in range(-20, 20)]


def probe() -> tuple[float, float]:
    """Wall and process CPU seconds of one fixed pure-Python job mixing
    the program's three kinds of work: Fraction sums, membership tests by
    small integer dot products, and big-integer shifts."""
    c0, t0 = time.process_time(), time.perf_counter()
    acc = Fraction(0)
    for i in range(1, 300):
        acc += Fraction(i, i + 7)
    for j in range(60):
        x = (j, 2 * j + 1, 7 - j)
        sum(1 for c in _PROBE_CELLS if c.contains(x))
    v = 1 << 2000
    for k in range(200):
        v = (v * 3 + k) >> 1
    return time.perf_counter() - t0, time.process_time() - c0


@dataclass
class Pass:
    wall: float  # measured seconds of the whole pass, probes included
    latencies: list  # measured seconds per scenario, in pass order
    cpus: list  # process CPU seconds per scenario
    probes: list  # (wall, cpu) probe readings taken after each scenario
    failures: dict  # scenario id -> problems
    digests: dict  # output file name -> sha256

    @property
    def scale(self) -> float:
        """Factor to nominal-speed seconds from this pass's probes alone."""
        return PROBE_NOMINAL_S / statistics.fmean(w for w, _ in self.probes)


class Runner:
    """Runs passes of one workload and keeps their samples."""

    def __init__(self, wl: workloads.Workload, config_path: Path, outdir: Path):
        self.wl = wl
        self.config_path = config_path
        self.outdir = outdir
        self.scenario = importlib.import_module("shintani_forge.scenario")
        self.setup_s: list[float] = []  # measured
        self.setup_scales: list[float] = []
        self.probes: list[tuple[float, float]] = []  # every reading after a scenario
        self.passes: list[Pass] = []

    def read_speed(self, busy: float) -> list[tuple[float, float]]:
        """Probe for PROBE_SHARE of the `busy` seconds just measured, so
        that the readings of a run are spread like its work."""
        readings = [probe()]
        while sum(w for w, _ in readings) < PROBE_SHARE * busy:
            readings.append(probe())
        self.probes += readings
        return readings

    @property
    def scale(self) -> float:
        """Factor from measured wall seconds to seconds at the nominal speed."""
        return PROBE_NOMINAL_S / statistics.fmean(w for w, _ in self.probes)

    @property
    def cpu_scale(self) -> float:
        """The same for CPU seconds. When the host takes the CPU away, wall
        time stretches and CPU time does not."""
        return PROBE_NOMINAL_S / statistics.fmean(c for _, c in self.probes)

    def setup(self):
        """One timed set-up. It is shorter than the machine's fast and slow
        states last, so it is scaled by the probes just before and after it
        rather than by the run's mean."""
        sc = self.scenario
        before, _ = probe()
        t0 = time.perf_counter()
        rt = sc.Runtime(sc.load_config(self.config_path))
        self.setup_s.append(time.perf_counter() - t0)
        self.setup_scales.append(PROBE_NOMINAL_S / ((before + probe()[0]) / 2))
        return rt

    def run_pass(self, setups: int = SETUPS_PER_PASS) -> Pass:
        """One pass on a fresh Runtime, after `setups` timed set-ups;
        outputs are checked after the clock stops."""
        shutil.rmtree(self.outdir, ignore_errors=True)
        self.outdir.mkdir(parents=True)
        sc = self.scenario
        for _ in range(setups):
            rt = self.setup()
        latencies, cpus, probes = [], [], []
        raised = {}
        wall0 = time.perf_counter()
        for sid in self.wl.scenario_ids:
            c0, t0 = time.process_time(), time.perf_counter()
            try:
                report = sc.run_scenario(rt, sid, self.outdir, seed=self.wl.run_seed)
                sc.write_report(report, self.outdir)
            except Exception as exc:  # a raising scenario is one failed operation
                raised[sid] = [f"raised {type(exc).__name__}: {exc}"]
            latencies.append(time.perf_counter() - t0)
            cpus.append(time.process_time() - c0)
            probes += self.read_speed(latencies[-1])
        wall = time.perf_counter() - wall0
        digests = {
            p.name: workloads.sha256(p.read_bytes()) for p in sorted(self.outdir.iterdir())
        }
        failures = {}
        for sid in self.wl.scenario_ids:
            problems = raised.get(sid) or self.wl.check(self.outdir, sid)
            name = f"{sid}.report.json"
            if self.passes and digests.get(name) != self.passes[0].digests.get(name):
                problems = problems + ["report differs from the first pass"]
            if problems:
                failures[sid] = problems
        p = Pass(wall, latencies, cpus, probes, failures, digests)
        self.passes.append(p)
        return p

    @property
    def attempted(self) -> int:
        return len(self.wl.scenario_ids) * len(self.passes)

    @property
    def failed(self) -> int:
        return sum(len(p.failures) for p in self.passes)

    def timed(self, seconds: float) -> dict:
        """Untraced passes for `seconds`; every end-to-end metric."""
        start = time.perf_counter()
        while True:
            self.run_pass()
            walls = [p.wall for p in self.passes]
            if time.perf_counter() - start + statistics.median(walls) > seconds:
                break
        lat = [x * self.scale for p in self.passes for x in p.latencies]
        return {
            "setup_s": statistics.median(
                t * f for t, f in zip(self.setup_s, self.setup_scales)
            ),
            "wall_s": sum(self.scenario_medians("latencies", self.scale)),
            "cpu_s": sum(self.scenario_medians("cpus", self.cpu_scale)),
            "scenario_p50_s": statistics.median(self.scenario_medians("latencies", self.scale)),
            "scenario_p90_s": (
                statistics.quantiles(lat, n=10)[-1] if len(lat) >= P90_MIN_SAMPLES else None
            ),
            "fail_ratio": self.failed / self.attempted,
            "peak_rss_mb": peak_rss_mb(),
        }

    def scenario_medians(self, field: str, scale: float) -> list[float]:
        """Each scenario's median scaled time across the passes. Their sum
        is one pass, which a slow stretch hitting one scenario in one pass
        does not move."""
        per_pass = [getattr(p, field) for p in self.passes]
        return [scale * statistics.median(samples) for samples in zip(*per_pass)]

    def traced(self) -> tuple[dict, layertrace.Tracer]:
        """One untraced pass, then one traced pass whose single set-up is
        traced too; every per-layer metric plus trace_overhead_ratio."""
        plain = self.run_pass()
        tracer = layertrace.Tracer()
        with tracer:
            traced = self.run_pass(setups=1)
        metrics = {
            name: (value * traced.scale if unit == "s" else value, unit)
            for name, (value, unit) in layertrace.layer_metrics(tracer).items()
        }
        overhead = (sum(traced.latencies) * traced.scale) / (sum(plain.latencies) * plain.scale)
        metrics["trace_overhead_ratio"] = (overhead, "ratio")
        return metrics, tracer


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def environment(loadavg: float) -> dict:
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "mpmath": mpmath.__version__,
        "mpmath_backend": mpmath.libmp.BACKEND,
        "loadavg_1m_at_start": loadavg,
        "SHINTANI_MAX_BITS": os.environ.get("SHINTANI_MAX_BITS"),
    }


def contract_line(runner: Runner, metrics: dict, trace: bool) -> dict:
    """The result line: the metrics BENCHMARK.json names for this mode."""
    spec = json.loads((REPO / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]
    return {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {n: {"value": metrics[n][0], "unit": metrics[n][1]} for n in names},
    }


def _fmt(value) -> str:
    return "n/a" if value is None else f"{value:.6g}"


def report_lines(runner: Runner, metrics: dict, trace: bool) -> list[str]:
    """Human-readable lines: every metric with its unit and sample count."""
    if trace:
        return [f"{name:34} {_fmt(v):>12} {unit}" for name, (v, unit) in metrics.items()]
    n_pass = len(runner.passes)
    n_lat = n_pass * len(runner.wl.scenario_ids)
    notes = {
        "setup_s": f"median of {len(runner.setup_s)} set-ups (load_config + Runtime)",
        "wall_s": f"one pass: sum of per-scenario medians over {n_pass} passes",
        "cpu_s": "as wall_s, process CPU time",
        "scenario_p50_s": f"median over {len(runner.wl.scenario_ids)} scenarios of their medians",
        "scenario_p90_s": (
            f"90th percentile of {n_lat} scenario latencies"
            if metrics["scenario_p90_s"][0] is not None
            else f"not reported: {n_lat} samples, {P90_MIN_SAMPLES} needed"
        ),
        "fail_ratio": f"{runner.failed} failed of {runner.attempted} scenarios",
        "peak_rss_mb": "peak resident memory of the process",
    }
    return [
        f"{name:16} {_fmt(v):>12} {unit:6} {notes[name]}" for name, (v, unit) in metrics.items()
    ]


def write_result(runner: Runner, metrics: dict, env: dict, args, trace_detail) -> Path:
    """The run's record: environment, every metric, every pass, failures,
    the digest of every output file and, when traced, every function."""
    wl = runner.wl
    result = {
        "workload": wl.name,
        "seed": wl.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "env": env,
        "metrics": {k: v for k, (v, _) in metrics.items()},
        "scale": runner.scale,
        "cpu_scale": runner.cpu_scale,
        "passes": [
            {"wall_s": p.wall, "latencies_s": p.latencies, "cpus_s": p.cpus, "probes_s": p.probes}
            for p in runner.passes
        ],
        "setups_s": runner.setup_s,
        "setup_scales": runner.setup_scales,
        "failures": {sid: probs for p in runner.passes for sid, probs in p.failures.items()},
        "digests": runner.passes[-1].digests,
    }
    if trace_detail is not None:
        result.update(trace_detail)
    path = OUT / wl.name / f"result-seed{wl.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(result, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return path


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.NAMES)
    p.add_argument("--seed", type=int, default=None, help="default: the bundled config's seed")
    p.add_argument("--seconds", type=float, default=28.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    loadavg = os.getloadavg()[0]
    args = parse_args(argv)
    if not (SRC / "shintani_forge").is_dir() or not workloads.BUNDLED.is_file():
        print(f"run.py: the program source is missing under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    seed = workloads.default_seed() if args.seed is None else args.seed
    wl = workloads.build(args.workload, seed)
    workdir = OUT / wl.name
    workdir.mkdir(parents=True, exist_ok=True)
    config_path = workdir / "config.json"
    config_path.write_text(json.dumps(wl.config, indent=2) + "\n", encoding="utf-8")
    runner = Runner(wl, config_path, workdir / "out")
    env = environment(loadavg)
    trace = bool(args.trace)
    if trace:
        metrics, tracer = runner.traced()
        trace_detail = {"layers": tracer.layers(), "functions": tracer.functions()}
        scale = runner.passes[-1].scale
    else:
        metrics = {k: (v, E2E_UNITS[k]) for k, v in runner.timed(args.seconds).items()}
        trace_detail = None
        scale = runner.scale
    result_path = write_result(runner, metrics, env, args, trace_detail)

    print(" ".join(f"{k}={v}" for k, v in env.items()))
    print(
        f"workload={wl.name} seed={seed} closed loop, 1 client, "
        f"{len(wl.scenario_ids)} scenarios x {len(runner.passes)} passes"
        f"{' (one untraced, one traced)' if trace else ''}; "
        f"result file {result_path.relative_to(REPO)}"
    )
    print(
        f"speed: {len(runner.probes)} probe readings, nominal {PROBE_NOMINAL_S * 1000:g} ms; "
        f"timings below are measured seconds x {scale:.4g}"
        f"{'' if trace else f' (CPU x {runner.cpu_scale:.4g})'}"
    )
    for line in report_lines(runner, metrics, trace):
        print(line)
    for p in runner.passes:
        for sid, problems in p.failures.items():
            print(f"FAILED {sid}: {'; '.join(problems)}", file=sys.stderr)
    print(json.dumps(contract_line(runner, metrics, trace)), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
