"""Tests of the benchmark itself: run with ``python3 -m pytest -q perfbench``."""

from __future__ import annotations

import contextlib
import io
import sys
import types

import pytest

import run
import workloads
from tracer import Tracer

sys.path.insert(0, str(workloads.SOURCE))

from bohrlab import cli, series, verify  # noqa: E402


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def _toy_layers(clock):
    """Two toy layers: outer.outer() calls inner.leaf() once through the
    module and once through a name bound by ``from inner import leaf``."""
    inner = types.ModuleType("toy.inner")
    inner.clock = clock
    exec("def leaf():\n    clock.now += 2.0\n", inner.__dict__)
    outer = types.ModuleType("toy.outer")
    outer.clock, outer.inner, outer.leaf = clock, inner, inner.leaf
    exec(
        "def outer():\n"
        "    clock.now += 1.0\n"
        "    inner.leaf()\n"
        "    clock.now += 3.0\n"
        "    leaf()\n",
        outer.__dict__,
    )
    return {"outer": outer, "inner": inner}


def test_self_time_of_nested_toy_calls():
    clock = FakeClock()
    layers = _toy_layers(clock)
    original = layers["inner"].leaf
    with Tracer(clock=clock, modules=layers) as tracer:
        layers["outer"].outer()
    functions = tracer.functions()
    assert functions["outer.outer"] == (1, 8.0, 4.0)
    assert functions["inner.leaf"] == (2, 4.0, 4.0)
    metrics = tracer.metrics()
    assert metrics["outer.self_s"] == 4.0
    assert metrics["inner.calls"] == 2
    assert metrics["inner.share"] == 0.5
    assert layers["outer"].leaf is original and layers["inner"].leaf is original


def _verify(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.run(argv)
    return code, out.getvalue()


def test_traced_verify_report_is_byte_identical():
    argv = ["verify", "--suite", "all", "--trials", "16", "--order", "16", "--seed", "3"]
    plain = _verify(argv)
    with Tracer(double_order_size=33) as tracer:
        traced = _verify(argv)
    assert traced == plain and plain[0] == 0
    metrics = tracer.metrics()
    # verify.py binds series functions with ``from .series import ...``;
    # those calls must be seen, and the names restored afterwards.
    assert metrics["series.compose.calls"] > 0
    assert metrics["series.TruncatedSeries.validate.calls"] > 0
    assert verify.compose is series.compose
    assert not hasattr(series.TruncatedSeries.__post_init__, "__wrapped__")


def test_coeff_mults_follow_argument_sizes():
    f = series.make_series([1.0, 2.0], 7)
    w = series.make_series([0.0, 1.0, 0.5], 7)
    with Tracer() as tracer:
        series.mul(f, w)
        series.compose(f, w)
        series.majorant_eval(f, 0.5)
        series.evaluate(f, [0.1, 0.2, 0.3])
    # mul 8^2, compose top=1 * 8^2, majorant 8, evaluate 8 * 3 points
    assert tracer.metrics()["series.coeff_mults"] == 64 + 64 + 8 + 24


def test_scan_rounds_depend_only_on_seed():
    assert workloads.scan_round(7, 3) == workloads.scan_round(7, 3)
    assert workloads.scan_round(7, 3) != workloads.scan_round(8, 3)
    assert workloads.scan_round(7, 3) != workloads.scan_round(7, 4)


@pytest.mark.parametrize("argv", workloads.scan_round(11, 0), ids=lambda argv: " ".join(argv[:3]))
def test_scan_outputs_pass_their_checks(argv):
    code, stdout = _verify(argv)
    assert workloads.check_scan_call(argv, code, stdout) == []


def test_checks_reject_wrong_outputs():
    sweep = ["sweep", "--functional", "cor2", "--params", "a=0.5", "--r-min", "0", "--r-max", "0.3", "--steps", "4"]
    code, stdout = _verify(sweep)
    header, first, *rest = stdout.splitlines()
    r, _, tail = first.split(",", 2)
    raised = "\n".join([header, f"{r},1.5,{tail}", *rest])
    assert workloads.check_scan_call(sweep, code, raised)
    assert workloads.check_scan_call(sweep, code, "\n".join([header, first]))

    radius = ["radius", "--theorem", "t6", "--a", "0.6", "--k", "0.5"]
    code, stdout = _verify(radius)
    assert workloads.check_scan_call(radius, code, stdout) == []
    assert workloads.check_scan_call(["radius", "--theorem", "t6", "--a", "0.6", "--k", "0.4"], code, stdout)


def test_verify_check_compares_with_reference():
    argv = ["verify", "--suite", "all", "--trials", "8", "--order", "16", "--seed", "5"]
    code, stdout = _verify(argv)
    reference = workloads.summarize_verify(stdout)
    assert workloads.check_verify(argv, code, stdout, reference) == []
    reference["t3"]["worst"]["trial"] = -1
    assert workloads.check_verify(argv, code, stdout, reference) == [
        f"t3: worst witness trial={workloads.summarize_verify(stdout)['t3']['worst']['trial']!r} != reference -1"
    ]
    assert workloads.check_verify(argv[:4] + ["9"] + argv[5:], code, stdout, None)


def test_interquartile_mean_drops_the_outer_quarters():
    assert run._interquartile_mean([3.0, 1.0, 100.0, 2.0]) == 2.5
    assert run._interquartile_mean([5.0, 1.0]) == 3.0


def test_p99_is_the_median_over_windows_with_ten_samples_beyond():
    # A slow spell in one of three windows does not set the reported tail.
    samples = [0.001] * 2000 + [0.01] * 1000
    assert [len(w) for w in run._windows(samples, 99)] == [1000, 1000, 1000]
    assert run._percentile_ms(samples, 99) == pytest.approx(1.0)
    assert run._percentile_ms([0.002] * 10, 99) == pytest.approx(2.0)


def test_seed_copy_runs_the_scan_yardstick():
    from bohrlab_seed import cli as seed_cli

    assert seed_cli is not cli
    assert run.Run(cli, "scan", 11).yardstick(seed_cli, 0) > 0.0
