"""Benchmark inputs and output checks.

Each workload is a sequence of jobs; a job is a list of ``bohrlab`` CLI
argument vectors.  Inputs depend only on the workload seed.  Every check
returns a list of problems (empty when the output is correct), so a caller
can count failed operations without stopping the run.
"""

from __future__ import annotations

import json
import math
import random
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SOURCE = ROOT / "src"
REFERENCE_FILE = Path(__file__).resolve().parent / "reference.json"

# verify-deep's trial count is chosen so one job takes about as long as one
# verify-all job on a 2-core box; see README.md for the measurements.  The
# yardstick job (run.py) is the same call with a quarter of the trials.
VERIFY_JOBS = {
    "verify-all": {"order": 64, "trials": 1000, "yardstick_trials": 250},
    "verify-deep": {"order": 256, "trials": 160, "yardstick_trials": 40},
}
SUITES = ("t1", "t2", "t3", "t5", "t6")

# Witness fields that name the worst witness.  Other fields (drawn specs,
# leaks) are derived from these and may be extended by reports over time.
IDENTITY_KEYS = ("trial", "variant", "a", "k", "r", "witness")
RESIDUAL_ATOL = 1e-12

# A scan round sweeps every rung of a geometric ladder of step counts from
# 10 to 1000, each functional taking every fifth rung, rotated by one rung
# per round.  Every round therefore has the same call-size mix, and
# single-call latency forms a smooth distribution whose median is a
# mid-ladder sweep and whose slowest percent are top-rung sweeps.
FUNCTIONALS = ("bohr", "cor2", "t3", "t5", "t6")
SWEEP_STEPS = tuple(round(10 * 100 ** (i / 24)) for i in range(25))
EXTREMAL_ORDER = 256
EXTREMAL_THEOREMS = ("cor2", "t3", "t5", "t6")
ROW_TOL = 1e-12
RADIUS_RTOL = 1e-12


def verify_argv(workload: str, seed: int, trials: int | None = None) -> list:
    job = VERIFY_JOBS[workload]
    return [
        "verify", "--suite", "all",
        "--trials", str(trials or job["trials"]),
        "--order", str(job["order"]),
        "--seed", str(seed),
    ]


def _num(x: float) -> str:
    return format(x, ".6f")


def scan_round(seed: int, index: int) -> list:
    """Argument vectors of round ``index`` of the scan workload, shuffled.

    Sweeps draw a in [0.05, 0.95), k in [0, 1] and r_max in [0.3, 0.9).
    Radius calls reuse the parameters of the round's last t5 and t6 sweeps,
    next to the three parameter-free radii; two order-256 extremal dumps
    complete the round.
    """
    rng = random.Random(f"scan:{seed}:{index}")
    calls, last = [], {}
    for rung, steps in enumerate(SWEEP_STEPS):
        functional = FUNCTIONALS[(rung + index) % len(FUNCTIONALS)]
        a, k = _num(rng.uniform(0.05, 0.95)), _num(rng.uniform(0.0, 1.0))
        last[functional] = (a, k)
        params = [f"a={a}"] + ([f"k={k}"] if functional in ("t3", "t6") else [])
        calls.append([
            "sweep", "--functional", functional, "--params", *params,
            "--r-min", "0", "--r-max", _num(rng.uniform(0.3, 0.9)), "--steps", str(steps),
        ])
    calls.append(["radius", "--theorem", "t5", "--a", last["t5"][0]])
    calls.append(["radius", "--theorem", "t6", "--a", last["t6"][0], "--k", last["t6"][1]])
    calls.append(["radius", "--theorem", "classical"])
    calls.append(["radius", "--theorem", "odd"])
    calls.append(["radius", "--theorem", "psym", "--p", str(rng.randint(1, 6))])
    for theorem in rng.sample(EXTREMAL_THEOREMS, 2):
        a, k = _num(rng.uniform(0.05, 0.95)), _num(rng.uniform(0.0, 1.0))
        extra = ["--k", k] if theorem in ("t3", "t6") else []
        calls.append(["extremal", "--theorem", theorem, "--a", a, *extra, "--order", str(EXTREMAL_ORDER)])
    rng.shuffle(calls)
    return calls


def _option(argv: list, name: str) -> str | None:
    return argv[argv.index(name) + 1] if name in argv else None


# ----------------------------------------------------------------------
# verify


def load_reference(workload: str, seed: int) -> dict | None:
    """Stored per-suite summary for (workload, seed), or None if none is stored."""
    if not REFERENCE_FILE.is_file():
        return None
    stored = json.loads(REFERENCE_FILE.read_text())
    return stored.get(workload, {}).get(str(seed))


def summarize_verify(stdout: str) -> dict:
    """Per-suite verdict, max_residual and worst-witness identity of a report."""
    out = {}
    for rep in json.loads(stdout)["reports"]:
        worst = rep["worst_witness"]
        out[rep["suite"]] = {
            "verdict": rep["verdict"],
            "max_residual": rep["max_residual"],
            "worst": {key: worst[key] for key in IDENTITY_KEYS if key in worst},
        }
    return out


def check_verify(argv: list, code: int, stdout: str, reference: dict | None) -> list:
    if code != 0:
        return [f"exit code {code}"]
    try:
        payload = json.loads(stdout)
        reports = payload["reports"]
    except (ValueError, KeyError, TypeError) as exc:
        return [f"unreadable report: {exc!r}"]
    problems = []
    trials = int(_option(argv, "--trials"))
    if payload.get("verdict") != "pass":
        problems.append(f"overall verdict {payload.get('verdict')!r}")
    if [rep.get("suite") for rep in reports] != list(SUITES):
        problems.append(f"suites {[rep.get('suite') for rep in reports]}")
    for rep in reports:
        suite = rep.get("suite")
        if rep.get("verdict") != "pass":
            problems.append(f"{suite}: verdict {rep.get('verdict')!r}")
        if not rep.get("max_residual", math.inf) <= rep.get("tolerance", -math.inf):
            problems.append(f"{suite}: max_residual {rep.get('max_residual')} above tolerance")
        if rep.get("trials") != trials:
            problems.append(f"{suite}: reported trials {rep.get('trials')} != {trials}")
    if reference is None or problems:
        return problems
    summary = summarize_verify(stdout)
    for suite, ref in reference.items():
        got = summary.get(suite)
        if got is None:
            problems.append(f"{suite}: missing")
            continue
        if got["verdict"] != ref["verdict"]:
            problems.append(f"{suite}: verdict {got['verdict']} != reference {ref['verdict']}")
        if abs(got["max_residual"] - ref["max_residual"]) > RESIDUAL_ATOL:
            problems.append(f"{suite}: max_residual {got['max_residual']} != reference {ref['max_residual']}")
        for key, value in ref["worst"].items():
            if got["worst"].get(key) != value:
                problems.append(f"{suite}: worst witness {key}={got['worst'].get(key)!r} != reference {value!r}")
    return problems


# ----------------------------------------------------------------------
# scan


def _check_sweep(argv: list, stdout: str) -> list:
    lines = stdout.splitlines()
    steps = int(_option(argv, "--steps"))
    if not lines or lines[0] != "r,value,functional,params":
        return ["missing CSV header"]
    rows = lines[1:]
    if len(rows) != steps + 1:
        return [f"{len(rows)} rows for {steps} steps"]
    problems = []
    for row in rows:
        r_text, value_text, functional, cell = row.split(",", 3)
        r, value = float(r_text), float(value_text)
        fields = dict(piece.split("=", 1) for piece in cell.split(";"))
        if not (math.isfinite(r) and math.isfinite(value)):
            problems.append(f"non-finite row {row!r}")
        elif float(fields["informational"]) == 0.0 and value > 1.0 + ROW_TOL:
            problems.append(f"claimed row above one: {row!r}")
        if functional != _option(argv, "--functional"):
            problems.append(f"functional column {functional!r}")
    return problems


def _quadratic_root(quad: float, lin: float) -> float:
    """Positive root of quad r^2 + lin r - 1, in the cancellation-free form."""
    return 2.0 / (lin + math.sqrt(lin * lin + 4.0 * quad))


def expected_radius(argv: list) -> float:
    """The radius a ``radius`` call should print, recomputed from its defining equation."""
    theorem = _option(argv, "--theorem")
    if theorem == "classical":
        return 1.0 / 3.0
    if theorem == "psym":
        return 3.0 ** (-1.0 / int(_option(argv, "--p")))
    if theorem == "odd":
        roots = np.roots([8.0, 0.0, 1.0, -6.0, 1.0])
        return max(float(z.real) for z in roots if abs(z.imag) < 1e-12 and 0.0 < z.real < 1.0)
    a = float(_option(argv, "--a"))
    if theorem == "t5":
        return _quadratic_root(a * a, 2.0 * (a + 1.0))
    k = float(_option(argv, "--k"))
    return _quadratic_root(a * (a + k + k * a), (k + 2.0) * (a + 1.0))


def _check_radius(argv: list, stdout: str) -> list:
    payload = json.loads(stdout)
    problems = []
    if not abs(payload["residual"]) <= 1e-12:
        problems.append(f"residual {payload['residual']}")
    expected = expected_radius(argv)
    if not abs(payload["value"] - expected) <= RADIUS_RTOL * expected:
        problems.append(f"radius {payload['value']!r} != closed form {expected!r}")
    return problems


def _mobius_moduli_ok(coeffs: list, a: float, scale: float, constant: float) -> bool:
    c = np.array(coeffs, dtype=float)
    if c.shape != (EXTREMAL_ORDER + 1, 2) or not np.all(np.isfinite(c)):
        return False
    mags = np.hypot(c[:, 0], c[:, 1])
    expected = scale * (1.0 - a * a) * a ** np.arange(EXTREMAL_ORDER)
    return bool(mags[0] == constant and np.allclose(mags[1:], expected, rtol=1e-12, atol=1e-300))


def _check_extremal(argv: list, stdout: str) -> list:
    payload = json.loads(stdout)
    a = float(_option(argv, "--a"))
    if payload["order"] != EXTREMAL_ORDER:
        return [f"order {payload['order']}"]
    if "coefficients" in payload:
        ok = _mobius_moduli_ok(payload["coefficients"], a, 1.0, a)
    else:
        k = float(_option(argv, "--k"))
        ok = _mobius_moduli_ok(payload["h_coefficients"], a, 1.0, a) and _mobius_moduli_ok(
            payload["g_coefficients"], a, k, 0.0
        )
    return [] if ok else ["coefficients differ from the automorphism closed form"]


_SCAN_CHECKS = {"sweep": _check_sweep, "radius": _check_radius, "extremal": _check_extremal}


def check_scan_call(argv: list, code: int, stdout: str) -> list:
    if code != 0:
        return [f"exit code {code}"]
    try:
        return _SCAN_CHECKS[argv[0]](argv, stdout)
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        return [f"unreadable output: {exc!r}"]
