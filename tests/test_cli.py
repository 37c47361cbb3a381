"""CLI surface tests: grammars, payload formats, exit codes."""

import hashlib
import importlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import bohrlab
from bohrlab import cli
from bohrlab.radii import ANALYTIC_THRESHOLD_A, theorem6_threshold
from bohrlab.series import TruncatedSeries, mobius_series
from bohrlab.verify import VerificationReport, check_theorem5, check_theorem6, sharpness_certificate


def run_cli(capsys, *argv):
    code = cli.run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def k_param(functional):
    """The dilatation bound k=0.5 for the sweeps that read it (t3, t6)."""
    return ["k=0.5"] if functional in ("t3", "t6") else []


class TestRadiusCommand:
    def test_odd_radius_payload(self, capsys):
        code, out, _ = run_cli(capsys, "radius", "--theorem", "odd")
        assert code == 0
        payload = json.loads(out)
        assert payload["value"] == pytest.approx(0.789991, abs=1e-6)
        assert abs(payload["residual"]) <= 1e-12
        assert list(payload) == sorted(payload)

    def test_t5_at_zero(self, capsys):
        code, out, _ = run_cli(capsys, "radius", "--theorem", "t5", "--a", "0")
        assert code == 0
        assert json.loads(out)["value"] == 0.5

    def test_psym(self, capsys):
        code, out, _ = run_cli(capsys, "radius", "--theorem", "psym", "--p", "2")
        assert code == 0
        assert json.loads(out)["value"] == pytest.approx(1 / math.sqrt(3), abs=1e-15)

    def test_t6_includes_threshold(self, capsys):
        code, out, _ = run_cli(capsys, "radius", "--theorem", "t6", "--a", "0.6", "--k", "0.5")
        assert code == 0
        payload = json.loads(out)
        assert payload["value"] == pytest.approx(2 / 8.4, abs=1e-15)
        assert payload["alpha_k"] == pytest.approx(0.1813345817725101, abs=1e-12)

    def test_missing_parameter_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "radius", "--theorem", "t6", "--a", "0.6")
        assert code == 1
        assert "requires" in err

    def test_unknown_theorem(self, capsys):
        code, _, err = run_cli(capsys, "radius", "--theorem", "t7")
        assert code == 1
        assert "usage" in err

    # Each of these exited 0 and silently ignored the flags named.
    @pytest.mark.parametrize(
        "argv, unread",
        [
            (["classical", "--a", "0.5", "--k", "0.2", "--p", "3"], "--a, --k, --p"),
            (["odd", "--p", "2"], "--p"),
            (["psym", "--p", "2", "--a", "0.5"], "--a"),
            (["t5", "--a", "0.5", "--k", "0.3"], "--k"),
            (["t6", "--a", "0.6", "--k", "0.5", "--p", "1"], "--p"),
        ],
    )
    def test_unread_flag_refused(self, capsys, argv, unread):
        code, out, err = run_cli(capsys, "radius", "--theorem", *argv)
        assert code == 1
        assert out == ""
        assert err == f"bohrlab: error: radius --theorem {argv[0]} does not read {unread}\n"


class TestSweepCommand:
    def test_cor2_identity_rows(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "sweep", "--functional", "cor2", "--params", "a=0.5",
            "--r-min", "0", "--r-max", "0.3333333333", "--steps", "10",
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "r,value,functional,params"
        assert len(lines) == 12
        rs, values = [], []
        for line in lines[1:]:
            r, value, functional, params = line.split(",")
            rs.append(float(r))
            values.append(float(value))
            assert functional == "cor2"
            assert params == "a=0.5;informational=0"
        assert all(abs(v - 1.0) <= 1e-10 for v in values)
        assert all(b > a for a, b in zip(rs, rs[1:]))
        # endpoint snapped to the exact cap
        assert rs[-1] == 1 / 3
        assert "\r" not in out

    def test_beyond_cap_marked_informational(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "sweep", "--functional", "bohr", "--params", "a=0.5",
            "--r-min", "0.3", "--r-max", "0.5", "--steps", "4",
        )
        assert code == 0
        rows = [line.split(",") for line in out.splitlines()[1:]]
        flags = [row[3].split(";")[1] for row in rows]
        assert flags[0] == "informational=0"
        assert flags[-1] == "informational=1"

    def test_seventeen_significant_digits(self, capsys):
        _, out, _ = run_cli(
            capsys,
            "sweep", "--functional", "bohr", "--params", "a=0.5",
            "--r-min", "0", "--r-max", "0.3333333333", "--steps", "3",
        )
        r_cell = out.splitlines()[-1].split(",")[0]
        assert r_cell == format(1 / 3, ".17g")

    def test_missing_required_param(self, capsys):
        code, _, err = run_cli(
            capsys,
            "sweep", "--functional", "t3", "--params", "a=0.5",
            "--r-min", "0", "--r-max", "0.3", "--steps", "2",
        )
        assert code == 1
        assert "k=" in err

    def test_malformed_param_token(self, capsys):
        code, _, err = run_cli(
            capsys,
            "sweep", "--functional", "bohr", "--params", "a:0.5",
            "--r-min", "0", "--r-max", "0.3", "--steps", "2",
        )
        assert code == 1
        assert "key=value" in err

    # A repeated key exited 0 and swept the last value given.
    @pytest.mark.parametrize(
        "functional, params, key",
        [
            ("bohr", ["a=0.5", "a=0.9"], "a"),
            ("bohr", ["a=0.5,a=0.9"], "a"),
            ("bohr", ["a=0.5", " a=0.5"], "a"),
            ("t6", ["a=0.5", "k=0.2", "k=0.3"], "k"),
        ],
    )
    def test_repeated_key_refused(self, capsys, functional, params, key):
        code, out, err = run_cli(
            capsys,
            "sweep", "--functional", functional, "--params", *params,
            "--r-min", "0", "--r-max", "0.3", "--steps", "1",
        )
        assert code == 1
        assert out == ""
        assert err == f"bohrlab: error: parameter {key} is given more than once\n"

    def test_t5_sweep_crosses_one_beyond_radius(self, capsys):
        _, out, _ = run_cli(
            capsys,
            "sweep", "--functional", "t5", "--params", "a=0.6",
            "--r-min", "0.2", "--r-max", "0.4", "--steps", "20",
        )
        rows = [line.split(",") for line in out.splitlines()[1:]]
        below = [float(v) for r, v, *_ in rows if float(r) <= 0.3]
        beyond = [float(v) for r, v, *_ in rows if float(r) >= 0.35]
        assert all(v <= 1 for v in below)
        assert all(v > 1 for v in beyond)

    def test_zero_steps_between_endpoints_that_snap_together(self, capsys):
        # both endpoints lie within 1e-9 of 1/3, so --steps 0 sweeps it once
        code, out, err = run_cli(
            capsys, *"sweep --functional bohr --params a=0.5 --r-min 0.3333333333 --r-max 0.33333333334 --steps 0".split()
        )
        assert (code, err) == (0, "")
        [row] = out.splitlines()[1:]
        assert float(row.split(",")[0]) == 1 / 3

    # Both endpoints used to snap to 1/3, 2.5e-11 and 3.1e-11 above the
    # radius, whose row then read 1.0000000000422649 and 1.0000000000780034
    # with informational=1.
    @pytest.mark.parametrize(
        "functional, params, radius",
        [
            ("t5", ["a=0.4641016152377544"], "0.3333333333082731"),
            ("t6", ["a=0.18133458187251014", "k=0.5"], "0.3333333333021737"),
        ],
    )
    def test_endpoint_at_bound_radius_probes_the_radius(self, capsys, functional, params, radius):
        flags = ["--a", params[0][2:]] + (["--k", params[1][2:]] if functional == "t6" else [])
        code, out, _ = run_cli(capsys, "radius", "--theorem", functional, *flags)
        assert code == 0
        payload = json.loads(out)
        assert payload["cap_binds"] is True and repr(payload["value"]) == radius
        code, out, _ = run_cli(
            capsys,
            "sweep", "--functional", functional, "--params", *params,
            "--r-min", radius, "--r-max", radius, "--steps", "0",
        )
        assert code == 0
        [row] = out.splitlines()[1:]
        r, value, _, cell = row.split(",")
        assert float(r) == float(radius)
        assert "informational=0" in cell.split(";")
        assert float(value) <= 1.0 + 1e-12

    @pytest.mark.parametrize("functional", ["bohr", "cor2", "t3", "t5", "t6"])
    def test_sweep_builds_no_series(self, capsys, monkeypatch, functional):
        # sweeps read the closed form of the sharp witness, so no
        # TruncatedSeries is built, whatever the step count
        real = TruncatedSeries.__post_init__
        built = []

        def counting(self):
            built.append(self)
            real(self)

        monkeypatch.setattr(TruncatedSeries, "__post_init__", counting)
        code, out, _ = run_cli(
            capsys,
            "sweep", "--functional", functional, "--params", "a=0.6", *k_param(functional),
            "--r-min", "0", "--r-max", "0.5", "--steps", "1000",
        )
        assert code == 0
        assert len(out.splitlines()) == 1002
        assert built == []

    # sha256 prefixes of each functional's concatenated stdout over its
    # cases, recorded from the per-r scalar evaluation of an order-8
    # extremal series that sweeps ran before the closed form: steps 1000,
    # 1 and 0, endpoints snapped to 1/3, 1/sqrt(3) and sqrt(5)-2, a = 0,
    # k in {0, 1} and an explicit lambda.  A steps-0 case sweeps its one
    # radius, r-max, so its r-min equals r-max.
    SWEEP_GOLDEN = {
        "bohr": (
            [(["a=0.5"], "0", "0.3333333333", 1000), (["a=0"], "0.2", "0.9", 1),
             (["a=0.95"], "0.5773502692", "0.5773502692", 0)],
            "f31485eaa868a28b",
        ),
        "cor2": (
            [(["a=0.3"], "0", "0.3333333333", 1000), (["a=0"], "0.1", "0.5", 1),
             (["a=0.7"], "0.6", "0.6", 0)],
            "d7d0dcd328420842",
        ),
        "t3": (
            [(["a=0.4", "k=0"], "0", "0.3333333333", 1000), (["a=0", "k=1"], "0", "0.9", 1),
             (["a=0.6", "k=0.5", "lambda=0.25"], "0.3333333333", "0.3333333333", 0)],
            "0c4f5dc37ba0cae9",
        ),
        "t5": (
            [(["a=0.6"], "0", "0.6", 1000), (["a=0"], "0", "0.2360679775", 1),
             (["a=0.4641016151377544"], "0.5", "0.5", 0)],
            "4ae2e8fbcbc1bd06",
        ),
        "t6": (
            [(["a=0.6", "k=1"], "0", "0.9", 1000), (["a=0", "k=0"], "0.1", "0.5773502692", 1),
             (["a=0.8", "k=0.5", "lambda=0.3"], "0.4", "0.4", 0)],
            "369c3277df0157a2",
        ),
    }

    @pytest.mark.parametrize("functional", sorted(SWEEP_GOLDEN))
    def test_stdout_matches_golden_digest(self, capsys, functional):
        cases, expected = self.SWEEP_GOLDEN[functional]
        digest = hashlib.sha256()
        for params, r_min, r_max, steps in cases:
            code, out, err = run_cli(
                capsys,
                "sweep", "--functional", functional, "--params", *params,
                "--r-min", r_min, "--r-max", r_max, "--steps", str(steps),
            )
            assert code == 0 and err == ""
            assert len(out.splitlines()) == steps + 2
            digest.update(out.encode())
        assert digest.hexdigest()[:16] == expected

    @pytest.mark.parametrize("functional", ["bohr", "cor2", "t3", "t5", "t6"])
    @pytest.mark.parametrize("a", ["-0.5", "1", "nan"])
    def test_parameter_a_outside_unit_interval_refused(self, capsys, functional, a):
        # t5 and t6 sweeps used to print rows for a = -0.5, with an
        # informational column judged against the wrong radius
        code, out, err = run_cli(
            capsys,
            "sweep", "--functional", functional, "--params", f"a={a}", *k_param(functional),
            "--r-min", "0", "--r-max", "0.3", "--steps", "2",
        )
        assert code == 1
        assert out == ""
        assert "a must lie in [0, 1)" in err

    @pytest.mark.parametrize("functional", ["t3", "t6"])
    @pytest.mark.parametrize("key", ["a", "k", "lambda"])
    @pytest.mark.parametrize("value", ["-0.5", "1.5", "nan"])
    def test_bad_parameter_refused_by_name(self, capsys, functional, key, value):
        params = {"a": "0.6", "k": "0.5", "lambda": "0.5"}
        params[key] = value
        code, out, err = run_cli(
            capsys,
            "sweep", "--functional", functional, "--params", *(f"{k}={v}" for k, v in params.items()),
            "--r-min", "0", "--r-max", "0.3", "--steps", "2",
        )
        assert code == 1
        assert out == ""
        interval = "[0, 1)" if key == "a" else "[0, 1]"
        assert err == f"bohrlab: error: {key} must lie in {interval}\n"

    @pytest.mark.parametrize("functional", ["t3", "t6"])
    def test_lambda_up_to_k_swept_within_one(self, capsys, functional):
        # lambda = k is the sharp pair itself, which reaches one at the radius
        code, out, _ = run_cli(
            capsys,
            "sweep", "--functional", functional, "--params", "a=0.5", "k=0.3", "lambda=0.3",
            "--r-min", "0.2", "--r-max", "0.2758", "--steps", "2",
        )
        assert code == 0
        rows = [line.split(",") for line in out.splitlines()[1:]]
        assert len(rows) == 3 and all(float(value) <= 1.0 + 1e-12 for _, value, _, _ in rows)

    # `kk=3` exited 0, ran bohr with its default and echoed kk=3 in every row.
    @pytest.mark.parametrize("functional", ["bohr", "cor2", "t3", "t5", "t6"])
    @pytest.mark.parametrize("params, unread", [(["kk=3"], "kk"), (["K=0.5", "lam=0.2"], "K, lam")])
    def test_unknown_key_refused(self, capsys, functional, params, unread):
        code, out, err = run_cli(
            capsys,
            "sweep", "--functional", functional, "--params", "a=0.5", *k_param(functional), *params,
            "--r-min", "0", "--r-max", "0.3", "--steps", "1",
        )
        assert code == 1
        assert out == ""
        assert err == f"bohrlab: error: sweep --functional {functional} does not read {unread}\n"

    # bohr, cor2 and t5 have no dilatation bound: k and lambda exited 0 and
    # were echoed in every row.
    @pytest.mark.parametrize("functional", ["bohr", "cor2", "t5"])
    @pytest.mark.parametrize("params, unread", [(["k=0.3"], "k"), (["lambda=0.2", "k=0"], "lambda, k")])
    def test_dilatation_keys_refused_where_unread(self, capsys, functional, params, unread):
        code, out, err = run_cli(
            capsys,
            "sweep", "--functional", functional, "--params", "a=0.5", *params,
            "--r-min", "0", "--r-max", "0.3", "--steps", "1",
        )
        assert code == 1
        assert out == ""
        assert err == f"bohrlab: error: sweep --functional {functional} does not read {unread}\n"


class TestExtremalCommand:
    def test_cor2_dump_matches_series(self, capsys):
        code, out, _ = run_cli(
            capsys, "extremal", "--theorem", "cor2", "--a", "0.5", "--order", "8"
        )
        assert code == 0
        payload = json.loads(out)
        got = np.array([complex(re, im) for re, im in payload["coefficients"]])
        assert np.allclose(got, mobius_series(0.5, 8).coeffs, atol=1e-15)

    def test_t3_dump_has_both_parts(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "extremal", "--theorem", "t3", "--a", "0.4", "--k", "0.7", "--order", "6",
        )
        assert code == 0
        payload = json.loads(out)
        assert len(payload["h_coefficients"]) == 7
        assert payload["g_coefficients"][0] == [0.0, 0.0]
        assert payload["lambda"] == 0.7

    def test_t3_requires_scale(self, capsys):
        code, _, err = run_cli(capsys, "extremal", "--theorem", "t3", "--a", "0.4")
        assert code == 1
        assert "--k or --lambda" in err

    def test_order_from_environment(self, capsys, monkeypatch):
        monkeypatch.setenv("BOHRLAB_ORDER", "12")
        _, out, _ = run_cli(capsys, "extremal", "--theorem", "t5", "--a", "0.5")
        assert len(json.loads(out)["coefficients"]) == 13

    def test_flag_overrides_environment(self, capsys, monkeypatch):
        monkeypatch.setenv("BOHRLAB_ORDER", "12")
        _, out, _ = run_cli(
            capsys, "extremal", "--theorem", "t5", "--a", "0.5", "--order", "4"
        )
        assert len(json.loads(out)["coefficients"]) == 5

    def test_bad_environment_value(self, capsys, monkeypatch):
        monkeypatch.setenv("BOHRLAB_ORDER", "soon")
        code, _, err = run_cli(capsys, "extremal", "--theorem", "t5", "--a", "0.5")
        assert code == 1
        assert "BOHRLAB_ORDER" in err

    # cor2 and t5 have no co-analytic part, so --k and --lambda were ignored.
    @pytest.mark.parametrize("theorem", ["cor2", "t5"])
    @pytest.mark.parametrize(
        "flags, unread", [(["--k", "0.3"], "--k"), (["--lambda", "0.3", "--k", "0"], "--k, --lambda")]
    )
    def test_unread_flag_refused(self, capsys, theorem, flags, unread):
        code, out, err = run_cli(capsys, "extremal", "--theorem", theorem, "--a", "0.5", *flags, "--order", "4")
        assert code == 1
        assert out == ""
        assert err == f"bohrlab: error: extremal --theorem {theorem} does not read {unread}\n"

    # t6 printed a witness for a = -0.3; nan and 1 were refused with
    # messages about coefficients or |a0| rather than about a.
    @pytest.mark.parametrize("theorem", ["cor2", "t3", "t5", "t6"])
    @pytest.mark.parametrize("a", ["-0.3", "1", "nan"])
    def test_a_outside_unit_interval_refused(self, capsys, theorem, a):
        scale = ["--k", "0.5"] if theorem in ("t3", "t6") else []
        code, out, err = run_cli(capsys, "extremal", "--theorem", theorem, "--a", a, *scale, "--order", "3")
        assert code == 1
        assert out == ""
        assert err == "bohrlab: error: a must lie in [0, 1)\n"

    @pytest.mark.parametrize("theorem", ["t3", "t6"])
    @pytest.mark.parametrize("flag", ["--k", "--lambda"])
    def test_scale_flags_read_by_harmonic_theorems(self, capsys, theorem, flag):
        code, out, _ = run_cli(capsys, "extremal", "--theorem", theorem, "--a", "0.5", flag, "0.3", "--order", "4")
        assert code == 0
        assert json.loads(out)["lambda"] == 0.3


    @pytest.mark.parametrize("theorem", ["t3", "t6"])
    @pytest.mark.parametrize("lam", ["0.3", "0.5"])
    def test_lambda_up_to_k_accepted(self, capsys, theorem, lam):
        code, out, _ = run_cli(
            capsys, "extremal", "--theorem", theorem, "--a", "0.5", "--k", "0.5", "--lambda", lam, "--order", "4"
        )
        assert code == 0
        payload = json.loads(out)
        assert (payload["k"], payload["lambda"]) == (0.5, float(lam))

    # t6 printed a witness for --k 1.5 and t3 refused it as lam, a name
    # neither flag has.
    @pytest.mark.parametrize("theorem", ["t3", "t6"])
    @pytest.mark.parametrize("flag, name", [("--k", "k"), ("--lambda", "lambda")])
    @pytest.mark.parametrize("value", ["1.5", "-0.5", "nan"])
    def test_scale_outside_unit_interval_refused_by_name(self, capsys, theorem, flag, name, value):
        other = ["--lambda", "0.3"] if flag == "--k" else ["--k", "0.3"]
        for extra in ([], other):
            code, out, err = run_cli(
                capsys, "extremal", "--theorem", theorem, "--a", "0.5", flag, value, *extra, "--order", "2"
            )
            assert code == 1
            assert out == ""
            assert err == f"bohrlab: error: {name} must lie in [0, 1]\n"


class TestVerifyCommand:
    def test_single_suite_pass(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--suite", "t3", "--trials", "30", "--seed", "9"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["verdict"] == "pass"
        assert payload["suite"] == "t3"

    def test_byte_identical_reruns(self, capsys):
        _, out1, _ = run_cli(capsys, "verify", "--suite", "t2", "--trials", "25", "--seed", "3")
        _, out2, _ = run_cli(capsys, "verify", "--suite", "t2", "--trials", "25", "--seed", "3")
        assert out1 == out2

    def test_failure_exit_code(self, capsys, monkeypatch):
        import bohrlab.verify as verify_mod

        real = verify_mod.check_theorem3

        def broken(*args, **kwargs):
            report = real(5, 1)
            return type(report)(**{**report.as_dict(), "verdict": "fail"})

        monkeypatch.setattr(cli.verify, "check_theorem3", broken)
        code, out, _ = run_cli(capsys, "verify", "--suite", "t3", "--trials", "5")
        assert code == 2
        assert json.loads(out)["verdict"] == "fail"

    @pytest.mark.parametrize("suite, trials", [("t5", "0"), ("t6", "-5")])
    def test_bad_trial_count_is_usage_error(self, capsys, suite, trials):
        code, out, err = run_cli(capsys, "verify", "--suite", suite, "--trials", trials)
        assert code == 1
        assert out == ""
        assert "trials must be >= 1" in err

    # t3, t5 and t6 run to a verdict at order 1, so the order is checked
    # before any suite runs, whichever source it comes from.
    @pytest.mark.parametrize("suite", ["t3", "t5", "t6"])
    @pytest.mark.parametrize("source", ["flag", "environment"])
    def test_order_below_two_is_usage_error(self, capsys, monkeypatch, suite, source):
        argv = ["verify", "--suite", suite, "--trials", "3"]
        if source == "flag":
            monkeypatch.delenv("BOHRLAB_ORDER", raising=False)
            argv += ["--order", "1"]
        else:
            monkeypatch.setenv("BOHRLAB_ORDER", "1")
        code, out, err = run_cli(capsys, *argv)
        assert code == 1
        assert out == ""
        assert "must be >= 2" in err

    # Before the floor existed, t1 at order 4 exited 0 or 1 depending on
    # whether the seed drew an outer of degree above 4 (seed 3: 0, seed 0: 1).
    @pytest.mark.parametrize("seed", ["0", "3"])
    @pytest.mark.parametrize("suite, order, floor", [("t1", "4", "8"), ("t2", "6", "7")])
    def test_order_below_suite_floor_is_usage_error(self, capsys, monkeypatch, seed, suite, order, floor):
        monkeypatch.delenv("BOHRLAB_ORDER", raising=False)
        code, out, err = run_cli(
            capsys, "verify", "--suite", suite, "--order", order, "--trials", "3", "--seed", seed
        )
        assert code == 1
        assert out == ""
        assert f"needs order >= {floor}" in err

    # sha256 of the stdout of `verify --suite all --trials 100 --seed S` as
    # produced by per-witness, per-radius evaluation (numpy 2.4, x86-64
    # Linux); stacked evaluation must reproduce it byte for byte.  Seed 0
    # was re-recorded when t5 and t6 came to expand their witnesses by
    # series.rational_rows, and again when they came to take |h| from the
    # witness's rational form: each time only t6's max_residual moved, by
    # 2.2e-16 and by 1.1e-16.
    @pytest.mark.parametrize(
        "seed, digest",
        [
            (0, "562741b1f00ecabda83baba27280acb386e158429b55bf3766a6d08b91989824"),
            (42, "d8dfc7b992be21acb62ebcbdddc075d4cb9bbaf7ad0f3c89c1e9d632c9fb1dfd"),
        ],
    )
    def test_golden_report_bytes(self, capsys, monkeypatch, seed, digest):
        monkeypatch.delenv("BOHRLAB_ORDER", raising=False)
        code, out, _ = run_cli(capsys, "verify", "--suite", "all", "--trials", "100", "--seed", str(seed))
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    # Same, for `verify --suite all --order 256 --trials 40 --seed S`, as
    # produced by full-length Horner composition: compose's truncation
    # window must reproduce it byte for byte.  Seed 7 was re-recorded with
    # the t5/t6 rational expansion (t6's max_residual moved by 2.2e-16), and
    # both seeds when t5 and t6 came to take |h| from the witness's rational
    # form: only t6's max_residual moved, by 1.1e-16 and 2.2e-16.
    @pytest.mark.parametrize(
        "seed, digest",
        [
            (0, "b9309eda95fb3e1746e8613dcf7d59255191d4e43dfe7d8e483526d645f8f0b0"),
            (7, "3cded8a21a76f0858ab84ea1e019c00c66a6dd84161b9262eea41457d05c11c1"),
        ],
    )
    def test_golden_deep_report_bytes(self, capsys, seed, digest):
        code, out, _ = run_cli(
            capsys, "verify", "--suite", "all", "--order", "256", "--trials", "40", "--seed", str(seed)
        )
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    # Same, for `verify --suite all --order 65 --trials 300 --seed 5`, as
    # produced by t2 inners built one witness at a time: at an odd order
    # the odd inner z*B(z^2) keeps the last coefficient of its base B.
    def test_golden_odd_order_report_bytes(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--suite", "all", "--order", "65", "--trials", "300", "--seed", "5"
        )
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "a6974b089580744b9b05264bb7821bd55e48076a68b31c6ad1bac0070f93236d"
        )

    # Same, for `verify --suite all --order 16 --trials 300 --seed 2**32`, as
    # produced by a np.random.default_rng call per trial: the seed takes two
    # words of each trial key.  Re-recorded when t5 and t6 came to take |h|
    # from the witness's rational form: only t6's max_residual moved, by
    # 1.2e-12, the part of |h| that truncation at order 16 had dropped.
    def test_golden_multiword_seed_report_bytes(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--suite", "all", "--order", "16", "--trials", "300", "--seed", "4294967296"
        )
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "e67a113ad4f2df5dde9699f2a25fd85f66595cd76ec38070521a58002d522896"
        )

    # Same, for one suite at 1100 trials, recorded before the suites handed
    # the tracker one update per column block: the trials cross the
    # 1024-trial draw chunk, which ends inside the fifth block of t1's 252
    # rows and the thirteenth of t3's 84 trials (252 rows), so the chunk's
    # last block is short.  At order 65 t3's budget of 248 rows is not a
    # multiple of its 3 k values.
    @pytest.mark.parametrize(
        "suite, order, seed, digest",
        [
            ("t1", "64", "0", "1ea452ab692647cf3811120f6a8763190dbca74ba2004fec7e8f401f44dbf024"),
            ("t3", "64", "0", "ecfe6c811ff19549f4a03b6c7780ab8c69913f533bbcc0fd1483c4c4ed5455fb"),
            ("t3", "65", "3", "23523ab73e3b8864c56ae549a7a411ab76f3d3141ab0f32a255ebc83fe17535e"),
        ],
    )
    def test_golden_chunk_crossing_report_bytes(self, capsys, suite, order, seed, digest):
        code, out, _ = run_cli(
            capsys, "verify", "--suite", suite, "--order", order, "--trials", "1100", "--seed", seed
        )
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    @pytest.mark.parametrize("suite", ["t1", "t5", "all"])
    def test_negative_seed_refused(self, capsys, suite):
        code, out, err = run_cli(capsys, "verify", "--suite", suite, "--trials", "3", "--seed", "-1")
        assert code == 1
        assert out == ""
        assert err == "bohrlab: error: expected non-negative integer\n"

    def test_invalid_suite(self, capsys):
        code, _, err = run_cli(capsys, "verify", "--suite", "t4")
        assert code == 1
        assert "invalid choice" in err

    def test_suite_choices_are_the_table(self):
        commands = next(action for action in cli._build_parser()._actions if action.dest == "command")
        suite = next(action for action in commands.choices["verify"]._actions if action.dest == "suite")
        assert suite.choices == [*cli.verify.SUITES, "all"]
        ids, names = zip(*cli.verify.SUITES.values())
        assert len(set(ids)) == len(ids)
        assert all(callable(getattr(cli.verify, name)) for name in names)

    def test_suite_function_looked_up_when_called(self, capsys, monkeypatch):
        calls = []

        def fake(**kwargs):
            calls.append(kwargs)
            return VerificationReport("t1", 3, 5, (0.25,), 0.0, {}, "pass")

        monkeypatch.setattr(cli.verify, "check_theorem1", fake)
        code, out, _ = run_cli(capsys, "verify", "--suite", "t1", "--trials", "3", "--seed", "5", "--order", "16")
        assert code == 0
        assert calls == [{"trials": 3, "seed": 5, "order": 16}]
        assert json.loads(out)["r_grid"] == [0.25]


class TestAdmissibilityAgreement:
    """radius's cap_binds, the sweep's informational flag at the radius, the
    sharpness certificate and the suite agree on whether the sharp radius
    of t5 or t6 binds, at the threshold and 5e-13 below it, where the
    certificate and the suite once accepted a above the 1/3 cap."""

    @pytest.mark.parametrize(
        "theorem, a, k, binds",
        [
            ("t5", ANALYTIC_THRESHOLD_A, None, True),
            ("t5", ANALYTIC_THRESHOLD_A - 5e-13, None, False),
            ("t6", theorem6_threshold(0.5), 0.5, True),
            ("t6", theorem6_threshold(0.5) - 5e-13, 0.5, False),
        ],
    )
    def test_radius_sweep_certificate_and_suite_agree(self, capsys, theorem, a, k, binds):
        k_flags, k_params = ([], []) if k is None else (["--k", repr(k)], [f"k={k!r}"])
        code, out, _ = run_cli(capsys, "radius", "--theorem", theorem, "--a", repr(a), *k_flags)
        assert code == 0
        payload = json.loads(out)
        assert payload["cap_binds"] is binds
        r = repr(payload["value"])
        code, out, _ = run_cli(
            capsys,
            "sweep", "--functional", theorem, "--params", f"a={a!r}", *k_params,
            "--r-min", r, "--r-max", r, "--steps", "0",
        )
        assert code == 0
        [row] = out.splitlines()[1:]
        assert f"informational={0 if binds else 1}" in row.split(",")[3].split(";")
        if theorem == "t5":
            suite = lambda: check_theorem5(a_grid=(a,), trials=2, order=16)  # noqa: E731
        else:
            suite = lambda: check_theorem6(a_grid=(a,), k_grid=(k,), trials=2, order=16)  # noqa: E731
        for run in (lambda: sharpness_certificate(theorem, {"a": a, "k": k}), suite):
            if binds:
                assert run().verdict == "pass"
            else:
                with pytest.raises(ValueError, match="inadmissible"):
                    run()


_SWEEP = ("sweep", "--functional")
_R_SPAN = ("--r-min", "0", "--r-max", "0.3", "--steps", "1")

# (argv, BOHRLAB_ORDER or None, message) of refusals.  The first nine
# printed a bare message; the rest are the refusals the CI workflow checked
# with python -O, where the tier-1 run under -O now makes them.
_REFUSALS = [
    (("extremal", "--theorem", "t5", "--a", "0.5", "--order", "1"), None, "--order must be >= 2"),
    (("extremal", "--theorem", "t5", "--a", "0.5"), "x", "BOHRLAB_ORDER must be an integer, got 'x'"),
    ((*_SWEEP, "bohr", "--params", "a", *_R_SPAN), None, "parameter 'a' is not of the form key=value"),
    ((*_SWEEP, "bohr", "--params", "a=x", *_R_SPAN), None, "parameter 'a=x' has a non-numeric value"),
    ((*_SWEEP, "t3", "--params", "a=0.5", *_R_SPAN), None, "sweep --functional t3 requires --params k=..."),
    (("radius", "--theorem", "t5"), None, "radius --theorem t5 requires --a"),
    (("extremal", "--theorem", "t3", "--a", "0.4"), None, "extremal --theorem t3 requires --k or --lambda"),
    ((*_SWEEP, "bohr", "--params", "a=0.5", "--r-min", "0", "--r-max", "0.3", "--steps", "-1"), None,
     "--steps must be >= 0"),
    ((*_SWEEP, "bohr", "--params", "a=0.5", "--r-min", "0.3", "--r-max", "0.2", "--steps", "1"), None,
     "need 0 <= r-min <= r-max < 1"),
    *(
        ((*_SWEEP, f, "--params", "a=1.5", "--r-min", "0", "--r-max", "0.5", "--steps", "10"), None,
         "a must lie in [0, 1)")
        for f in ("bohr", "cor2", "t5")
    ),
    *(
        ((*_SWEEP, f, "--params", "a=0.6", "k=0.5", "lambda=1.5", "--r-min", "0", "--r-max", "0.5", "--steps", "10"),
         None, "lambda must lie in [0, 1]")
        for f in ("t3", "t6")
    ),
    (("extremal", "--theorem", "t5", "--a", "0.5", "--k", "0.3"), None, "extremal --theorem t5 does not read --k"),
    (("extremal", "--theorem", "cor2", "--a", "-0.5"), None, "a must lie in [0, 1)"),
    (("extremal", "--theorem", "t6", "--a", "0.5", "--lambda", "0.3", "--k", "1.5"), None, "k must lie in [0, 1]"),
    (("verify", "--suite", "t1", "--seed", "-1"), None, "expected non-negative integer"),
    # --steps 0 once swept r-max alone, dropping r-min without a word
    ((*_SWEEP, "bohr", "--params", "a=0.5", "--r-min", "0.1", "--r-max", "0.3", "--steps", "0"), None,
     "--steps must be >= 1 when r-min < r-max"),
    # an empty key was refused as an unread parameter with a blank name
    *(
        ((*_SWEEP, "bohr", "--params", piece, *_R_SPAN), None, f"parameter {piece!r} is not of the form key=value")
        for piece in ("=0.5", " =0.5")
    ),
    # a co-analytic scale above k was evaluated against the radius k sets:
    # t6 printed 1.0645 and 1.1617 with informational=0 inside its sharp
    # radius 0.2791, and extremal dumped a pair of dilatation 0.7 as "k": 0.5
    *(
        ((*_SWEEP, f, "--params", "a=0.5", "k=0.3", "lambda=1", "--r-min", "0.2", "--r-max", "0.2758", "--steps", "2"),
         None, "lambda must not exceed k")
        for f in ("t3", "t6")
    ),
    *(
        (("extremal", "--theorem", t, "--a", "0.5", "--k", "0.5", "--lambda", "0.7"), None, "lambda must not exceed k")
        for t in ("t3", "t6")
    ),
]


class TestRefusals:
    """Every refusal of a command's input is one stderr line naming the
    program, with an exit code of 1 and nothing on stdout."""

    @pytest.mark.parametrize("argv, env, message", _REFUSALS, ids=[" ".join(argv) for argv, _, _ in _REFUSALS])
    def test_refusal_names_the_program(self, capsys, monkeypatch, argv, env, message):
        if env is None:
            monkeypatch.delenv("BOHRLAB_ORDER", raising=False)
        else:
            monkeypatch.setenv("BOHRLAB_ORDER", env)
        code, out, err = run_cli(capsys, *argv)
        assert code == 1
        assert out == ""
        assert err == f"bohrlab: error: {message}\n"


class TestTopLevel:
    def test_parser_built_once_and_reused(self, capsys):
        parser = cli._build_parser()
        argv = ["sweep", "--functional", "t3", "--params", "a=0.5", "k=0.25", "--r-min", "0", "--r-max", "0.4", "--steps", "3"]
        first, second = run_cli(capsys, *argv), run_cli(capsys, *argv)
        assert first == second and first[0] == 0
        assert cli._build_parser() is parser
        assert parser.parse_args(["sweep", "--functional", "bohr", "--r-min", "0", "--r-max", "0.1", "--steps", "1"]).params == ()

    def test_no_subcommand(self, capsys):
        code, _, err = run_cli(capsys)
        assert code == 1
        assert "usage" in err

    def test_unknown_subcommand(self, capsys):
        code, _, err = run_cli(capsys, "frobnicate")
        assert code == 1
        assert "usage" in err

    def test_module_entry_point(self):
        src = str(Path(bohrlab.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
        done = subprocess.run(
            [sys.executable, "-m", "bohrlab.cli", "radius", "--theorem", "classical"],
            capture_output=True, text=True, env=env, check=False,
        )
        assert done.returncode == 0, done.stderr
        assert json.loads(done.stdout)["value"] == pytest.approx(1 / 3)
        assert done.stderr == ""

    def test_console_script_entry_point(self, capsys, monkeypatch):
        tomllib = pytest.importorskip("tomllib")
        pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
        target = tomllib.loads(pyproject.read_text())["project"]["scripts"]["bohrlab"]
        module, _, name = target.partition(":")
        main = getattr(importlib.import_module(module), name)
        monkeypatch.setattr(sys, "argv", ["bohrlab", "radius", "--theorem", "classical"])
        with pytest.raises(SystemExit) as exit_info:
            main()
        assert exit_info.value.code == 0
        out, err = capsys.readouterr()
        assert err == ""
        assert json.loads(out)["value"] == 1 / 3
        assert out == run_cli(capsys, "radius", "--theorem", "classical")[1]

    # -OO strips docstrings, so nothing a command runs may read one.
    @pytest.mark.parametrize(
        "argv",
        [
            ["radius", "--theorem", "classical"],
            ["sweep", "--functional", "t6", "--params", "a=0.6", "k=0.5", "--r-min", "0", "--r-max", "0.4", "--steps", "4"],
            ["extremal", "--theorem", "t5", "--a", "0.5", "--order", "8"],
            ["verify", "--suite", "all", "--trials", "5", "--order", "16"],
        ],
        ids=["radius", "sweep", "extremal", "verify"],
    )
    def test_docstrings_stripped(self, argv):
        src = str(Path(bohrlab.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
        plain, stripped = (
            subprocess.run(
                [sys.executable, *flags, "-m", "bohrlab.cli", *argv],
                capture_output=True, text=True, env=env, check=False,
            )
            for flags in ([], ["-OO"])
        )
        assert plain.returncode == 0, plain.stderr
        assert stripped.returncode == 0, stripped.stderr
        assert stripped.stdout == plain.stdout
