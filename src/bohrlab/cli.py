"""Command-line surface: radius tables, functional sweeps, extremal dumps,
verification runs.

Output goes to stdout (CSV for sweeps, JSON with sorted keys elsewhere);
logs and usage errors go to stderr, every refusal of a command's input on
one line that begins "bohrlab: error: ".  Exit codes: 0 success, 1 malformed
arguments, 2 verification failure.  Truncation order resolves as
flag > BOHRLAB_ORDER environment variable > 64 and must be >= 2.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

import numpy as np

from . import radii, verify, witnesses
from .functionals import SHARP_PARAMETERS, sharp_lhs
from .series import DEFAULT_ORDER, refuse_unread, unit_interval
from .verify import DEFAULT_SEED, DEFAULT_TRIALS

# The parser's description, held apart from the docstring that -OO strips.
_DESCRIPTION = "Command-line surface: radius tables, functional sweeps, extremal dumps, verification runs."

# Decimal endpoints within 1e-9 of these constants, or of the sharp radius
# a t5 or t6 sweep claims, snap to the nearest exact value, so endpoint rows
# probe the true radius rather than a rounded one.
_SNAP_TARGETS = (radii.CLASSICAL_CAP, radii.ODD_CAP, radii.UNIVERSAL_RADIUS)

# The flags each radius theorem reads, every one of them required, and the
# bohrlab.radii function it passes them to, looked up when called.
_RADIUS_THEOREMS = {
    "classical": ((), "classical_radius"),
    "odd": ((), "odd_bohr_radius"),
    "psym": (("--p",), "p_symmetric_radius"),
    "t5": (("--a",), "theorem5_radius"),
    "t6": (("--a", "--k"), "theorem6_radius"),
}

# The cap a t5 or t6 sweep claims where its sharp radius does not bind
# (RadiusResult.cap_binds): sqrt(5) - 2 for t5, none for t6.
_UNBOUND_CAPS = {"t5": radii.UNIVERSAL_RADIUS, "t6": 0.0}

class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(f"{self.format_usage()}{self.prog}: error: {message}")


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _snap(r: float, targets) -> float:
    nearest = min(targets, key=lambda target: abs(r - target))
    return nearest if abs(r - nearest) <= 1e-9 else r


def _resolve_order(args) -> int:
    order, source = args.order, "--order"
    if order is None:
        env = os.environ.get("BOHRLAB_ORDER")
        if env is None:
            return DEFAULT_ORDER
        try:
            order, source = int(env), "BOHRLAB_ORDER"
        except ValueError:
            raise ValueError(f"BOHRLAB_ORDER must be an integer, got {env!r}")
    if order < 2:
        raise ValueError(f"{source} must be >= 2")
    return order


def _parse_params(tokens) -> dict:
    out = {}
    for token in tokens:
        for piece in token.split(","):
            if not piece:
                continue
            key, eq, value = piece.partition("=")
            key = key.strip()
            if not eq or not key:
                raise ValueError(f"parameter {piece!r} is not of the form key=value")
            if key in out:
                raise ValueError(f"parameter {key} is given more than once")
            try:
                out[key] = float(value)
            except ValueError:
                raise ValueError(f"parameter {piece!r} has a non-numeric value")
    return out


def _print_json(payload):
    sys.stdout.write(json.dumps(payload, sort_keys=True, indent=2) + "\n")


@functools.cache
def _build_parser() -> _Parser:
    """The argument parser, built on the first call and shared by every
    later run() of the process; parsing leaves it as it was."""
    parser = _Parser(prog="bohrlab", description=_DESCRIPTION)
    sub = parser.add_subparsers(dest="command", metavar="command")

    p_rad = sub.add_parser("radius", help="sharp radius as JSON", add_help=True)
    p_rad.add_argument("--theorem", required=True, choices=list(_RADIUS_THEOREMS))
    p_rad.add_argument("--a", type=float)
    p_rad.add_argument("--k", type=float)
    p_rad.add_argument("--p", type=int)

    p_sweep = sub.add_parser("sweep", help="CSV sweep of a functional over r")
    p_sweep.add_argument("--functional", required=True, choices=list(SHARP_PARAMETERS))
    p_sweep.add_argument("--params", nargs="*", default=(), metavar="KEY=VALUE")
    p_sweep.add_argument("--r-min", type=float, required=True)
    p_sweep.add_argument("--r-max", type=float, required=True)
    p_sweep.add_argument("--steps", type=int, required=True)

    p_ext = sub.add_parser("extremal", help="coefficient dump of a sharp witness")
    p_ext.add_argument("--theorem", required=True, choices=["cor2", "t3", "t5", "t6"])
    p_ext.add_argument("--a", type=float, required=True)
    p_ext.add_argument("--k", type=float)
    p_ext.add_argument("--lambda", dest="lam", type=float)
    p_ext.add_argument("--order", type=int)

    p_ver = sub.add_parser("verify", help="run verification suites, JSON report")
    p_ver.add_argument("--suite", required=True, choices=[*verify.SUITES, "all"])
    p_ver.add_argument("--trials", type=int, default=DEFAULT_TRIALS)
    p_ver.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p_ver.add_argument("--order", type=int)

    return parser


def _cmd_radius(args) -> int:
    theorem = args.theorem
    flags, function = _RADIUS_THEOREMS[theorem]
    given = {"--a": args.a, "--k": args.k, "--p": args.p}
    refuse_unread(f"radius --theorem {theorem}", given, flags)
    if any(given[flag] is None for flag in flags):
        raise ValueError(f"radius --theorem {theorem} requires {' and '.join(flags)}")
    payload = getattr(radii, function)(*(given[flag] for flag in flags)).as_dict()
    payload["theorem"] = theorem
    if theorem == "t6":
        payload["alpha_k"] = payload["threshold_a"]
    _print_json(payload)
    return 0


def _claimed_cap(functional: str, params: dict) -> float:
    """The radius up to which a sweep asserts its bound: 1/3, or for t5 and
    t6 their radius command's result where it binds, else _UNBOUND_CAPS."""
    if functional not in _UNBOUND_CAPS:
        return radii.CLASSICAL_CAP
    flags, function = _RADIUS_THEOREMS[functional]
    result = getattr(radii, function)(*(params[flag.removeprefix("--")] for flag in flags))
    return result.value if result.cap_binds else _UNBOUND_CAPS[functional]


def _refuse_lambda_over_k(k, lam) -> None:
    """Refuse a co-analytic scale lambda above the dilatation bound k when
    both are given: the sharp pair with scale lambda has dilatation lambda,
    so it is no witness of the class whose radius k sets."""
    if k is not None and lam is not None and lam > k:
        raise ValueError("lambda must not exceed k")


def _cmd_sweep(args) -> int:
    params = _parse_params(args.params)
    needed = SHARP_PARAMETERS[args.functional]
    # a functional that needs the dilatation bound k also reads its
    # co-analytic scale lambda, which defaults to k
    read = needed + ("lambda",) if "k" in needed else needed
    refuse_unread(f"sweep --functional {args.functional}", params, read)
    for key in needed:
        if key not in params:
            raise ValueError(f"sweep --functional {args.functional} requires --params {key}=...")
    for key in read:
        if key in params:
            unit_interval(key, params[key], closed=key != "a")
    _refuse_lambda_over_k(params.get("k"), params.get("lambda"))
    if args.steps < 0:
        raise ValueError("--steps must be >= 0")
    cap = _claimed_cap(args.functional, params)
    # an endpoint also snaps to the claimed cap; t6's unbound cap 0 is no radius
    targets = (*_SNAP_TARGETS, cap) if cap else _SNAP_TARGETS
    r_min, r_max = _snap(args.r_min, targets), _snap(args.r_max, targets)
    if not 0.0 <= r_min <= r_max < 1.0:
        raise ValueError("need 0 <= r-min <= r-max < 1")
    if args.steps == 0 and r_min != r_max:
        raise ValueError("--steps must be >= 1 when r-min < r-max")
    rs = r_min + (r_max - r_min) * np.arange(args.steps + 1) / max(args.steps, 1)
    rs[-1] = r_max
    values = sharp_lhs(args.functional, params["a"], rs, params.get("lambda", params.get("k", 0.0)))
    cells = [
        ";".join(f"{key}={_fmt(val)}" for key, val in sorted({**params, "informational": flag}.items()))
        for flag in (0.0, 1.0)
    ]
    rows = [
        f"{_fmt(r)},{_fmt(value)},{args.functional},{cells[r > cap + 1e-12]}"
        for r, value in zip(rs.tolist(), values.tolist())
    ]
    sys.stdout.write("r,value,functional,params\n" + "\n".join(rows) + "\n")
    return 0


def _coeff_list(series) -> list:
    return [[float(c.real), float(c.imag)] for c in series.coeffs]


def _cmd_extremal(args) -> int:
    read = ("--k", "--lambda") if "k" in SHARP_PARAMETERS[args.theorem] else ()
    refuse_unread(f"extremal --theorem {args.theorem}", {"--k": args.k, "--lambda": args.lam}, read)
    unit_interval("a", args.a)
    for name, value in (("k", args.k), ("lambda", args.lam)):
        if value is not None:
            unit_interval(name, value, closed=True)
    _refuse_lambda_over_k(args.k, args.lam)
    order = _resolve_order(args)
    a = args.a
    payload = {"theorem": args.theorem, "a": a, "order": order}
    if args.theorem == "cor2":
        payload["coefficients"] = _coeff_list(witnesses.extremal_corollary2(a, order))
    elif args.theorem == "t5":
        payload["coefficients"] = _coeff_list(witnesses.extremal_theorem5(a, order))
    else:
        if args.k is None and args.lam is None:
            raise ValueError(f"extremal --theorem {args.theorem} requires --k or --lambda")
        lam = args.lam if args.lam is not None else args.k
        pair = witnesses.extremal_theorem3(a, lam, order)
        payload["lambda"] = lam
        payload["k"] = args.k if args.k is not None else lam
        payload["h_coefficients"] = _coeff_list(pair.h)
        payload["g_coefficients"] = _coeff_list(pair.g)
    _print_json(payload)
    return 0


def _cmd_verify(args) -> int:
    order = _resolve_order(args)
    suites = list(verify.SUITES) if args.suite == "all" else [args.suite]
    # each suite's check function is looked up in bohrlab.verify when called
    checks = [getattr(verify, verify.SUITES[suite][1]) for suite in suites]
    reports = [check(trials=args.trials, seed=args.seed, order=order).as_dict() for check in checks]
    failed = any(rep["verdict"] != "pass" for rep in reports)
    if args.suite == "all":
        _print_json({"reports": reports, "verdict": "fail" if failed else "pass"})
    else:
        _print_json(reports[0])
    return 2 if failed else 0


def run(argv=None) -> int:
    """Parse argv and execute one subcommand; returns the process exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command is None:
            raise _UsageError(parser.format_usage() + "bohrlab: error: a subcommand is required")
        handler = {
            "radius": _cmd_radius,
            "sweep": _cmd_sweep,
            "extremal": _cmd_extremal,
            "verify": _cmd_verify,
        }[args.command]
        return handler(args)
    except _UsageError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"bohrlab: error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
