"""Command-line surface: radius tables, functional sweeps, extremal dumps,
verification runs.

Output goes to stdout (CSV for sweeps, JSON with sorted keys elsewhere);
logs and usage errors go to stderr.  Exit codes: 0 success, 1 malformed
arguments, 2 verification failure.  Truncation order resolves as
flag > BOHRLAB_ORDER environment variable > 64 and must be >= 2.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import radii, verify
from .functionals import bohr_sum, corollary2_lhs, theorem3_lhs, theorem5_lhs, theorem6_lhs
from .series import DEFAULT_ORDER
from .verify import DEFAULT_SEED, DEFAULT_TRIALS
from .witnesses import extremal_corollary2, extremal_theorem3, extremal_theorem5

# Decimal endpoints within 1e-9 of these constants snap to the exact value,
# so endpoint rows probe the true radius rather than a rounded one.
_SNAP_TARGETS = (radii.CLASSICAL_CAP, radii.ODD_CAP, radii.UNIVERSAL_RADIUS)


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(f"{self.format_usage()}{self.prog}: error: {message}")


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _snap(r: float) -> float:
    for target in _SNAP_TARGETS:
        if abs(r - target) <= 1e-9:
            return target
    return r


def _resolve_order(args) -> int:
    order, source = args.order, "--order"
    if order is None:
        env = os.environ.get("BOHRLAB_ORDER")
        if env is None:
            return DEFAULT_ORDER
        try:
            order, source = int(env), "BOHRLAB_ORDER"
        except ValueError:
            raise _UsageError(f"BOHRLAB_ORDER must be an integer, got {env!r}")
    if order < 2:
        raise _UsageError(f"{source} must be >= 2")
    return order


def _parse_params(tokens) -> dict:
    out = {}
    for token in tokens:
        for piece in token.split(","):
            if not piece:
                continue
            if "=" not in piece:
                raise _UsageError(f"parameter {piece!r} is not of the form key=value")
            key, _, value = piece.partition("=")
            try:
                out[key.strip()] = float(value)
            except ValueError:
                raise _UsageError(f"parameter {piece!r} has a non-numeric value")
    return out


def _print_json(payload):
    sys.stdout.write(json.dumps(payload, sort_keys=True, indent=2) + "\n")


def _build_parser() -> _Parser:
    parser = _Parser(prog="bohrlab", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", metavar="command")

    p_rad = sub.add_parser("radius", help="sharp radius as JSON", add_help=True)
    p_rad.add_argument("--theorem", required=True, choices=["classical", "odd", "psym", "t5", "t6"])
    p_rad.add_argument("--a", type=float)
    p_rad.add_argument("--k", type=float)
    p_rad.add_argument("--p", type=int)

    p_sweep = sub.add_parser("sweep", help="CSV sweep of a functional over r")
    p_sweep.add_argument("--functional", required=True, choices=["bohr", "cor2", "t3", "t5", "t6"])
    p_sweep.add_argument("--params", nargs="*", default=[], metavar="KEY=VALUE")
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
    p_ver.add_argument("--suite", required=True, choices=["t1", "t2", "t3", "t5", "t6", "all"])
    p_ver.add_argument("--trials", type=int, default=DEFAULT_TRIALS)
    p_ver.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p_ver.add_argument("--order", type=int)

    return parser


def _cmd_radius(args) -> int:
    theorem = args.theorem
    if theorem == "classical":
        result = radii.classical_radius()
    elif theorem == "odd":
        result = radii.odd_bohr_radius()
    elif theorem == "psym":
        if args.p is None:
            raise _UsageError("radius --theorem psym requires --p")
        result = radii.p_symmetric_radius(args.p)
    elif theorem == "t5":
        if args.a is None:
            raise _UsageError("radius --theorem t5 requires --a")
        result = radii.theorem5_radius(args.a)
    else:
        if args.a is None or args.k is None:
            raise _UsageError("radius --theorem t6 requires --a and --k")
        result = radii.theorem6_radius(args.a, args.k)
    payload = result.as_dict()
    payload["theorem"] = theorem
    if theorem == "t6":
        payload["alpha_k"] = radii.theorem6_threshold(args.k)
    _print_json(payload)
    return 0


def _swept(functional: str, params: dict):
    """The functional of a sweep as a function of r; its order-8 extremal
    witness is built once, here, since a, k and lambda are fixed."""
    a = params["a"]
    if functional == "t5":
        f = extremal_theorem5(a, 8)
        return lambda r: theorem5_lhs(f, -r)
    if functional == "bohr":
        f = extremal_corollary2(a, 8)
        return lambda r: bohr_sum(f, r)
    if functional == "cor2":
        f = extremal_corollary2(a, 8)
        return lambda r: corollary2_lhs(f, a, r)
    pair = extremal_theorem3(a, params.get("lambda", params["k"]), 8)
    if functional == "t3":
        return lambda r: theorem3_lhs(pair, a, r)
    return lambda r: theorem6_lhs(pair, r)


def _claimed_cap(functional: str, params: dict) -> float:
    if functional in ("bohr", "cor2", "t3"):
        return radii.CLASSICAL_CAP
    if functional == "t5":
        a = params["a"]
        if a >= radii.ANALYTIC_THRESHOLD_A:
            return radii.theorem5_radius(a).value
        return radii.UNIVERSAL_RADIUS
    alpha = radii.theorem6_threshold(params["k"])
    if params["a"] >= alpha:
        return radii.theorem6_radius(params["a"], params["k"]).value
    return 0.0


def _cmd_sweep(args) -> int:
    params = _parse_params(args.params)
    needed = {"bohr": ("a",), "cor2": ("a",), "t3": ("a", "k"), "t5": ("a",), "t6": ("a", "k")}
    for key in needed[args.functional]:
        if key not in params:
            raise _UsageError(f"sweep --functional {args.functional} requires --params {key}=...")
    if not 0.0 <= params["a"] < 1.0:
        raise _UsageError("a must lie in [0, 1)")
    if args.steps < 0:
        raise _UsageError("--steps must be >= 0")
    r_min, r_max = _snap(args.r_min), _snap(args.r_max)
    if not 0.0 <= r_min <= r_max < 1.0:
        raise _UsageError("need 0 <= r-min <= r-max < 1")
    cap = _claimed_cap(args.functional, params)
    value_at = _swept(args.functional, params)
    count = args.steps + 1
    rows = []
    for i in range(count):
        r = r_min + (r_max - r_min) * i / args.steps if args.steps else r_min
        if i == count - 1:
            r = r_max
        value = value_at(r)
        record = dict(params)
        record["informational"] = 0.0 if r <= cap + 1e-12 else 1.0
        cell = ";".join(f"{key}={_fmt(val)}" for key, val in sorted(record.items()))
        rows.append(f"{_fmt(r)},{_fmt(value)},{args.functional},{cell}")
    sys.stdout.write("r,value,functional,params\n")
    sys.stdout.write("\n".join(rows) + ("\n" if rows else ""))
    return 0


def _coeff_list(series) -> list:
    return [[float(c.real), float(c.imag)] for c in series.coeffs]


def _cmd_extremal(args) -> int:
    order = _resolve_order(args)
    a = args.a
    payload = {"theorem": args.theorem, "a": a, "order": order}
    if args.theorem == "cor2":
        payload["coefficients"] = _coeff_list(extremal_corollary2(a, order))
    elif args.theorem == "t5":
        payload["coefficients"] = _coeff_list(extremal_theorem5(a, order))
    else:
        if args.k is None and args.lam is None:
            raise _UsageError(f"extremal --theorem {args.theorem} requires --k or --lambda")
        lam = args.lam if args.lam is not None else args.k
        pair = extremal_theorem3(a, lam, order)
        payload["lambda"] = lam
        payload["k"] = args.k if args.k is not None else lam
        payload["h_coefficients"] = _coeff_list(pair.h)
        payload["g_coefficients"] = _coeff_list(pair.g)
    _print_json(payload)
    return 0


def _cmd_verify(args) -> int:
    order = _resolve_order(args)
    checks = {
        "t1": verify.check_theorem1,
        "t2": verify.check_theorem2_odd,
        "t3": verify.check_theorem3,
        "t5": verify.check_theorem5,
        "t6": verify.check_theorem6,
    }
    names = list(checks) if args.suite == "all" else [args.suite]
    reports = [checks[name](trials=args.trials, seed=args.seed, order=order).as_dict() for name in names]
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
