"""bohrlab benchmark: one workload per fresh interpreter, one closed-loop caller.

    python3 perfbench/run.py --workload verify-all --seed 42 --seconds 40 --trace 0

bohrlab is imported from ``src/`` of the checkout and driven only through
``bohrlab.cli.run(argv)`` with stdout captured.  A job is one verify call or
one scan round (workloads.py); jobs run back to back until the next one
would end after --seconds, and every output is checked.  ``--trace 0``
reports the end-to-end metrics, ``--trace 1`` the per-layer metrics of
tracer.py from jobs run untraced and then traced on the same inputs.

A shared host runs the same code up to 1.5x slower for seconds to minutes
at a time, so times are scaled by host speed, measured with bohrlab_seed: a
frozen copy of the program as it was when the benchmark was defined, which
slows down with the host as the program does.  After each job bohrlab_seed
runs a yardstick job (the same scan round, or the verify call with a
quarter of the trials), and the job's time is multiplied by YARDSTICK_S
over the mean of the yardstick times just before and after it.  Each
set-up sample is likewise paired with a fresh interpreter that imports
bohrlab_seed.cli.
README.md defines each metric.  The last stdout line is the JSON result,
carrying the metrics BENCHMARK.json declares.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import workloads
from tracer import Tracer

SETUP_SAMPLES = 10
TAIL_SAMPLES = 10
# Median yardstick times on the machine of README.md: job, call and set-up
# times are scaled to read as seconds on that machine at its usual speed.
YARDSTICK_S = {"verify-all": 2.3, "verify-deep": 2.1, "scan": 0.23}
YARDSTICK_SETUP_S = 0.27


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.VERIFY_JOBS, "scan"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _import_seconds(package, path) -> float:
    """Wall time from spawning an interpreter until ``package.cli`` is imported from ``path``."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(path), os.environ.get("PYTHONPATH")) if p
    ))
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", f"import {package}.cli"], env=env, check=True,
                   cwd=workloads.ROOT)
    return time.perf_counter() - start


def setup_sample() -> float:
    """Set-up time of bohrlab.cli, scaled by that of bohrlab_seed.cli just after it."""
    seconds = _import_seconds("bohrlab", workloads.SOURCE)
    return seconds * YARDSTICK_SETUP_S / _import_seconds("bohrlab_seed", Path(__file__).resolve().parent)


def _call(cli, argv):
    """(latency, exit code, stdout) of one CLI call; an uncaught exception
    gives exit code None and its traceback in place of stdout."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        start = time.perf_counter()
        try:
            code, text = cli.run(list(argv)), None
        except Exception:
            code, text = None, traceback.format_exc()
        latency = time.perf_counter() - start
    return latency, code, out.getvalue() if text is None else text


class Run:
    """Counts and timings of one benchmark run."""

    def __init__(self, cli, workload, seed):
        self.cli = cli
        self.workload = workload
        self.seed = seed
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.verify_output = None
        self.reference = None
        self.functions = {}
        if workload in workloads.VERIFY_JOBS:
            self.reference = workloads.load_reference(workload, seed)

    def job(self, index):
        if self.workload == "scan":
            return workloads.scan_round(self.seed, index)
        return [workloads.verify_argv(self.workload, self.seed)]

    def yardstick(self, seed_cli, index):
        """Seconds the frozen seed program takes for the yardstick job of
        ``index``: the same scan round, or the verify call with fewer trials."""
        if self.workload == "scan":
            calls = self.job(index)
        else:
            trials = workloads.VERIFY_JOBS[self.workload]["yardstick_trials"]
            calls = [workloads.verify_argv(self.workload, self.seed, trials)]
        total = 0.0
        for argv in calls:
            latency, code, _ = _call(seed_cli, argv)
            if code != 0:
                raise RuntimeError(f"bohrlab_seed exited {code} on {' '.join(argv)}")
            total += latency
        return total

    def _check(self, argv, code, stdout):
        if argv[0] != "verify":
            return workloads.check_scan_call(argv, code, stdout)
        problems = workloads.check_verify(argv, code, stdout, self.reference)
        if self.verify_output is None:
            self.verify_output = stdout
        elif stdout != self.verify_output:
            problems.append("verify output differs from the first job of this run")
        return problems

    def run_job(self, calls):
        """Run and check one job; returns (call latencies in seconds, output bytes)."""
        latencies, nbytes = [], 0
        for argv in calls:
            latency, code, stdout = _call(self.cli, argv)
            latencies.append(latency)
            nbytes += len(stdout.encode())
            if code is None:
                problems = [f"uncaught exception: {stdout.strip().splitlines()[-1]}"]
            else:
                problems = self._check(argv, code, stdout)
            self.attempted += 1
            if problems:
                self.failed += 1
                self.problems.append((argv, problems))
        return latencies, nbytes


def _loop(seconds, step):
    """Call step(index) until another call would end after `seconds`."""
    start = time.perf_counter()
    durations = []
    while True:
        began = time.perf_counter()
        step(len(durations))
        durations.append(time.perf_counter() - began)
        if time.perf_counter() - start + statistics.median(durations) > seconds:
            return


def _interquartile_mean(samples):
    """Mean of the middle half of the samples; the median of fewer than four.

    Like the median it ignores slow or fast spells of the host that cover
    less than a quarter of the run, and unlike the median it does not jump
    between the two speeds of a host that spends about half the run in each.
    """
    ordered = sorted(samples)
    cut = len(ordered) // 4
    return statistics.fmean(ordered[cut:len(ordered) - cut]) if cut else statistics.median(ordered)


def _windows(samples, q):
    """Consecutive equal windows of samples, each with at least TAIL_SAMPLES
    samples beyond its q-th percentile; none if samples are too few."""
    count = len(samples) // math.ceil(100 / (100 - q) * TAIL_SAMPLES)
    size = len(samples) // count if count else 0
    return [samples[i * size:(i + 1) * size] for i in range(count)]


def _percentile_ms(samples, q):
    """Median over _windows() of the q-th percentile of each window, so that
    a slow spell of the host in one window does not set the tail of the run;
    the median of all samples when they are too few for one window."""
    windows = _windows(samples, q)
    if not windows:
        return statistics.median(samples) * 1e3
    return statistics.median(
        statistics.quantiles(w, n=100, method="inclusive")[q - 1] for w in windows
    ) * 1e3


def end_to_end(run, seconds) -> dict:
    start, setup = time.perf_counter(), []
    jobs, yardstick, peak_rss = [], [], []  # yardstick[i] is timed right after jobs[i]

    def step(index):
        # Set-up samples are spread over the run, one per 1/SETUP_SAMPLES of
        # it, so that they see the same host conditions as the jobs.
        due = int((time.perf_counter() - start) / seconds * SETUP_SAMPLES) + 1
        while len(setup) < min(due, SETUP_SAMPLES):
            setup.append(setup_sample())
        jobs.append(run.run_job(run.job(index))[0])
        if not peak_rss:
            # Read before the seed program is loaded, so that its memory is not counted.
            peak_rss.append(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
        yardstick.append(run.yardstick(importlib.import_module("bohrlab_seed.cli"), index))

    _loop(seconds, step)
    while len(setup) < SETUP_SAMPLES:
        setup.append(setup_sample())
    factors = [
        YARDSTICK_S[run.workload] / statistics.fmean(yardstick[max(i - 1, 0):i + 1])
        for i in range(len(jobs))
    ]
    calls = [t * f for latencies, f in zip(jobs, factors) for t in latencies]
    return {
        "setup_s": statistics.median(setup),
        "job_s": _interquartile_mean(sum(latencies) * f for latencies, f in zip(jobs, factors)),
        "call_p50_ms": statistics.median(calls) * 1e3,
        "call_p99_ms": _percentile_ms(calls, 99),
        "peak_rss_mb": peak_rss[0],
        "jobs": len(jobs),
        "unscaled_job_s": _interquartile_mean(sum(latencies) for latencies in jobs),
        "host_factor": statistics.median(factors),
        "p99_windows": [len(w) for w in _windows(calls, 99)],
    }


def per_layer(run, seconds) -> dict:
    """Pairs of (untraced, traced) runs of job 0; per-layer numbers from the traced ones."""
    calls = run.job(0)
    double = None
    if run.workload in workloads.VERIFY_JOBS:
        double = 2 * workloads.VERIFY_JOBS[run.workload]["order"] + 1
    plain, traced, samples = [], [], []

    def pair(_):
        plain.append(sum(run.run_job(calls)[0]))
        with Tracer(double_order_size=double) as tracer:
            latencies, nbytes = run.run_job(calls)
        traced.append(sum(latencies))
        samples.append(dict(tracer.metrics(), **{"cli.output_bytes": nbytes}))
        run.functions = tracer.functions()

    _loop(seconds, pair)
    # median_low picks a measured sample, so counts stay whole numbers.
    out = {name: statistics.median_low(s[name] for s in samples) for name in samples[0]}
    out["trace_overhead"] = statistics.median(traced) / statistics.median(plain) - 1.0
    out["jobs"] = len(samples)
    return out


def _declared(trace: int) -> list:
    spec = json.loads((workloads.ROOT / "BENCHMARK.json").read_text())
    return spec["per_layer" if trace else "end_to_end"]


def _report(run, values, trace):
    print(f"{run.workload} seed {run.seed} trace {trace}: {values['jobs']} jobs, "
          f"{run.attempted} calls checked, failed {run.failed} "
          f"(failed_share {run.failed / run.attempted:.3g}), "
          f"reference {'checked' if run.reference else 'not stored for this seed'}")
    for argv, problems in run.problems[:5]:
        print(f"  FAILED {' '.join(argv)}: {'; '.join(problems)}")
    if not trace:
        print(f"  unscaled job_s {values['unscaled_job_s']:.6g} s; median host factor "
              f"{values['host_factor']:.4g} (YARDSTICK_S over the yardstick time)")
        windows = values["p99_windows"]
        print(f"  call_p99_ms: median over {len(windows)} windows of {windows[0]} calls"
              if windows else "  call_p99_ms: too few calls for one window, median reported")
    if trace:
        top = sorted(run.functions.items(), key=lambda kv: -kv[1][2])[:8]
        print("  top functions by self time (calls, self s): " + ", ".join(
            f"{name} ({calls}, {self_s:.3f})" for name, (calls, _, self_s) in top))
    metrics = {}
    for spec in _declared(trace):
        metrics[spec["name"]] = {"value": values[spec["name"]], "unit": spec["unit"]}
        print(f"  {spec['name']} = {values[spec['name']]:.6g} {spec['unit']}")
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }))


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not (workloads.SOURCE / "bohrlab" / "cli.py").is_file():
        print(f"perfbench: no bohrlab source under {workloads.SOURCE}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(workloads.SOURCE))
    from bohrlab import cli

    run = Run(cli, args.workload, args.seed)
    values = per_layer(run, args.seconds) if args.trace else end_to_end(run, args.seconds)
    _report(run, values, args.trace)
    return 0


if __name__ == "__main__":
    sys.exit(main())
