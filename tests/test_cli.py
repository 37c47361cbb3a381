"""CLI surface tests: grammars, payload formats, exit codes."""

import hashlib
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
from bohrlab.series import mobius_series


def run_cli(capsys, *argv):
    code = cli.run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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


    @pytest.mark.parametrize(
        "functional, builder",
        [
            ("bohr", "extremal_corollary2"),
            ("cor2", "extremal_corollary2"),
            ("t3", "extremal_theorem3"),
            ("t5", "extremal_theorem5"),
            ("t6", "extremal_theorem3"),
        ],
    )
    def test_extremal_built_once_per_sweep(self, capsys, monkeypatch, functional, builder):
        real = getattr(cli, builder)
        calls = []

        def counting(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(cli, builder, counting)
        code, out, _ = run_cli(
            capsys,
            "sweep", "--functional", functional, "--params", "a=0.6", "k=0.5",
            "--r-min", "0", "--r-max", "0.5", "--steps", "1000",
        )
        assert code == 0
        assert len(out.splitlines()) == 1002
        assert len(calls) == 1

    @pytest.mark.parametrize("functional", ["bohr", "cor2", "t3", "t5", "t6"])
    @pytest.mark.parametrize("a", ["-0.5", "1", "nan"])
    def test_parameter_a_outside_unit_interval_refused(self, capsys, functional, a):
        # t5 and t6 sweeps used to print rows for a = -0.5, with an
        # informational column judged against the wrong radius
        code, out, err = run_cli(
            capsys,
            "sweep", "--functional", functional, "--params", f"a={a}", "k=0.5",
            "--r-min", "0", "--r-max", "0.3", "--steps", "2",
        )
        assert code == 1
        assert out == ""
        assert "a must lie in [0, 1)" in err


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
    # Linux); stacked evaluation must reproduce it byte for byte.
    @pytest.mark.parametrize(
        "seed, digest",
        [
            (0, "4b531f54974464bb0a056e9c4f262e86fdee5efcd878e19dfc9d18cbdb81c955"),
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
    # window must reproduce it byte for byte.
    @pytest.mark.parametrize(
        "seed, digest",
        [
            (0, "28b74b20daea10558f745a3bb589b98f299854d6bc780379ccdb221211e3c61e"),
            (7, "3cded8a21a76f0858ab84ea1e019c00c66a6dd84161b9262eea41457d05c11c1"),
        ],
    )
    def test_golden_deep_report_bytes(self, capsys, seed, digest):
        code, out, _ = run_cli(
            capsys, "verify", "--suite", "all", "--order", "256", "--trials", "40", "--seed", str(seed)
        )
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_invalid_suite(self, capsys):
        code, _, err = run_cli(capsys, "verify", "--suite", "t4")
        assert code == 1
        assert "invalid choice" in err


class TestTopLevel:
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
