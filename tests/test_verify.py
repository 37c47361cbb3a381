"""Tests for the verification suites, reports and certificates."""

import dataclasses
import hashlib
import itertools
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import bohrlab.streams as streams_mod
import bohrlab.verify as verify_mod
import bohrlab.witnesses as witnesses_mod
from bohrlab.functionals import SHARP_PARAMETERS, theorem3_rational
from bohrlab.radii import ANALYTIC_THRESHOLD_A, CLASSICAL_CAP, ODD_CAP, UNIVERSAL_RADIUS, theorem5_radius
from bohrlab.series import BlaschkeSpec, _spec_columns, compose, majorant_eval, make_series, mul
from bohrlab.witnesses import (
    bounded_from_spec,
    build_quasi_triple,
    extremal_theorem3,
    harmonic_witness,
    p_symmetric_lift,
    schwarz_from_spec,
)
from bohrlab.verify import (
    TOLERANCE,
    check_theorem1,
    check_theorem2_odd,
    check_theorem3,
    check_theorem5,
    check_theorem6,
    radius_grid,
    sharpness_certificate,
)

from oracles import per_object_polynomial, per_object_spec


def certificate_params(theorem, **changed):
    """a = 0.6, and k = 0.5 where the certificate reads it: exactly the keys
    sharpness_certificate(theorem, ...) accepts, with ``changed`` applied."""
    return {key: changed.get(key, {"a": 0.6, "k": 0.5}[key]) for key in SHARP_PARAMETERS[theorem]}


class TestRadiusGrid:
    def test_endpoint_exact_and_increasing(self):
        grid = radius_grid(1 / 3, 12)
        assert len(grid) == 12
        assert grid[-1] == 1 / 3
        assert all(b > a for a, b in zip(grid, grid[1:]))
        assert grid[0] > 0

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            radius_grid(1.0, 5)
        with pytest.raises(ValueError):
            radius_grid(0.5, 0)

    def test_rejects_non_integer_count(self):
        # 2.5 gave 3 points
        for n in (2.5, 3.0, "3"):
            with pytest.raises(ValueError, match="^n must be an integer"):
                radius_grid(0.5, n)
        assert radius_grid(0.5, np.int64(3)) == radius_grid(0.5, 3)


class TestDeterminism:
    def test_identical_runs_identical_reports(self):
        a = check_theorem1(60, seed=7)
        b = check_theorem1(60, seed=7)
        assert a == b
        assert json.dumps(dataclasses.asdict(a), sort_keys=True) == json.dumps(
            dataclasses.asdict(b), sort_keys=True
        )

    def test_different_seed_changes_worst_witness(self):
        a = check_theorem1(60, seed=7)
        b = check_theorem1(60, seed=8)
        assert a.worst_witness != b.worst_witness

    def test_monotone_escalation(self):
        short = check_theorem2_odd(30, seed=11)
        long = check_theorem2_odd(60, seed=11)
        assert long.max_residual >= short.max_residual

    def test_reports_serialize_to_json(self):
        rep = check_theorem3(10, seed=3)
        payload = json.dumps(rep.as_dict(), sort_keys=True)
        assert json.loads(payload)["suite"] == "t3"


class TestSuitesPass:
    def test_theorem1_small(self):
        rep = check_theorem1(120, seed=42)
        assert rep.verdict == "pass"
        assert rep.max_residual <= TOLERANCE
        assert rep.trials == 120 and rep.seed == 42
        assert rep.r_grid[-1] == 1 / 3

    def test_theorem2_small(self):
        rep = check_theorem2_odd(120, seed=42)
        assert rep.verdict == "pass"
        assert rep.r_grid[-1] == pytest.approx(3 ** -0.5, abs=0)
        assert rep.worst_witness["even_leak"] <= 1e-14

    def test_theorem3_small(self):
        rep = check_theorem3(60, seed=42, k_grid=(0.0, 0.5, 1.0))
        assert rep.verdict == "pass"

    def test_theorem3_rejects_bad_k(self):
        with pytest.raises(ValueError):
            check_theorem3(10, k_grid=(0.0, 1.3))

    def test_theorem5_small(self):
        rep = check_theorem5(trials=40, seed=42)
        assert rep.verdict == "pass"
        assert rep.informational is True
        points = rep.beyond_radius["points"]
        assert all(p["lhs"] > 1.0 for p in points)
        assert points[0]["r"] == pytest.approx(theorem5_radius(points[0]["a"]).value + 1e-3)

    def test_theorem5_rejects_below_threshold(self):
        with pytest.raises(ValueError, match="threshold"):
            check_theorem5(a_grid=(0.3,), trials=5)

    def test_theorem6_small(self):
        rep = check_theorem6(trials=40, seed=42)
        assert rep.verdict == "pass"
        assert all(p["lhs"] > 1.0 for p in rep.beyond_radius["points"])

    def test_theorem6_rejects_inadmissible_pair(self):
        with pytest.raises(ValueError, match="inadmissible"):
            check_theorem6(a_grid=(0.1,), k_grid=(0.0,), trials=5)

    def test_trials_validation(self):
        with pytest.raises(ValueError):
            check_theorem1(0)

    @pytest.mark.parametrize(
        "check", [check_theorem1, check_theorem2_odd, check_theorem3, check_theorem5, check_theorem6]
    )
    def test_every_suite_rejects_zero_trials(self, check):
        with pytest.raises(ValueError, match="trials must be >= 1"):
            check(trials=0)

    # An empty grid runs no random witness: t3 and t6 would report a pass
    # with max_residual -inf, t5 a pass on its universal sweep alone.
    @pytest.mark.parametrize(
        "check, kwargs",
        [
            (check_theorem3, {"k_grid": ()}),
            (check_theorem6, {"k_grid": ()}),
            (check_theorem5, {"a_grid": ()}),
        ],
    )
    def test_empty_grid_rejected(self, check, kwargs):
        with pytest.raises(ValueError, match="empty"):
            check(trials=5, **kwargs)


class TestSuiteArguments:
    """Every suite reads trials, seed and order through series.integer once,
    reports the ints it returns, and refuses trials below 1 and orders below
    2 before any draw: below order 2 every tail term is dropped, so no
    random witness could fail."""

    CHECKS = [check_theorem1, check_theorem2_odd, check_theorem3, check_theorem5, check_theorem6]

    @pytest.mark.parametrize("check", CHECKS)
    @pytest.mark.parametrize(
        "name, value", [("trials", 12.0), ("trials", "3"), ("order", 16.0), ("order", 16.5), ("seed", 1.5)]
    )
    def test_non_integer_refused_by_name(self, check, name, value):
        with pytest.raises(ValueError, match=f"^{name} must be an integer, not {re.escape(repr(value))}$"):
            check(**{"trials": 3, "seed": 0, "order": 16, name: value})

    @pytest.mark.parametrize("check", CHECKS)
    def test_numpy_integers_report_as_ints(self, check):
        rep = check(trials=np.int64(3), seed=np.uint64(5), order=np.int32(16))
        assert type(rep.trials) is int and type(rep.seed) is int
        assert json.dumps(rep.as_dict()) == json.dumps(check(trials=3, seed=5, order=16).as_dict())

    @pytest.mark.parametrize("check", CHECKS)
    @pytest.mark.parametrize("order", [-1, 0, 1])
    def test_order_below_two_refused(self, monkeypatch, check, order):
        monkeypatch.setattr(verify_mod, "_keyed_draws", None)  # any draw would fail differently
        with pytest.raises(ValueError, match="^order must be >= 2$"):
            check(trials=3, seed=0, order=order)


class TestSharpnessCertificates:
    def test_corollary2_certified_on_whole_interval(self):
        rep = sharpness_certificate("cor2", {"a": 0.5})
        assert rep.verdict == "pass"
        assert rep.max_residual <= 1e-8
        assert rep.r_grid[-1] == 1 / 3

    def test_theorem3_certified(self):
        rep = sharpness_certificate("t3", {"a": 0.4, "k": 0.6})
        assert rep.verdict == "pass"

    def test_theorem5_certified(self):
        rep = sharpness_certificate("t5", {"a": 0.6})
        assert rep.verdict == "pass"
        assert rep.beyond_radius["lhs"] > 1.0
        assert rep.worst_witness["attained"] == pytest.approx(1.0, abs=1e-8)

    def test_theorem6_certified(self):
        rep = sharpness_certificate("t6", {"a": 0.6, "k": 0.5})
        assert rep.verdict == "pass"
        assert rep.beyond_radius["lhs"] > 1.0

    def test_odd_radius_refused(self):
        with pytest.raises(ValueError, match="no extremal"):
            sharpness_certificate("odd", {})

    def test_inadmissible_parameters_rejected(self):
        with pytest.raises(ValueError):
            sharpness_certificate("t5", {"a": 0.3})
        with pytest.raises(ValueError):
            sharpness_certificate("t6", {"a": 0.05, "k": 0.25})

    def test_unknown_target(self):
        with pytest.raises(ValueError, match="unknown"):
            sharpness_certificate("t9", {})

    @pytest.mark.parametrize(
        "theorem, key",
        [("cor2", "a"), ("t3", "a"), ("t3", "k"), ("t5", "a"), ("t6", "a"), ("t6", "k")],
    )
    @pytest.mark.parametrize("value", [-0.5, 1.5, float("nan")])
    def test_bad_parameter_refused_by_name(self, theorem, key, value):
        params = certificate_params(theorem, **{key: value})
        interval = r"\[0, 1\)" if key == "a" else r"\[0, 1\]"
        with pytest.raises(ValueError, match=f"^{key} must lie in {interval}$"):
            sharpness_certificate(theorem, params)

    def test_certificate_builds_no_series(self, monkeypatch):
        def refuse(self):
            raise AssertionError("a certificate built a series")

        monkeypatch.setattr(verify_mod.TruncatedSeries, "__post_init__", refuse)
        for theorem in ("cor2", "t3", "t5", "t6"):
            assert sharpness_certificate(theorem, certificate_params(theorem)).verdict == "pass"

    @pytest.mark.parametrize(
        "theorem, params, message",
        [
            ("t3", {"a": 0.5}, "sharpness_certificate t3 requires k"),
            ("t5", {"a": 0.6, "k": 0.3}, "sharpness_certificate t5 does not read k"),
            ("cor2", {"a": 0.5, "lambda": 2}, "sharpness_certificate cor2 does not read lambda"),
        ],
    )
    def test_missing_or_unread_key_refused(self, theorem, params, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            sharpness_certificate(theorem, params)


class TestConservativeness:
    def test_universal_radius_sweep_is_inside(self):
        rep = check_theorem5(trials=8, seed=1)
        # the universal sweep contributes residuals; all must clear tolerance
        assert rep.max_residual <= TOLERANCE

    def test_worst_witness_is_reconstructible_record(self, monkeypatch):
        trackers, suites = [], []
        real_report, real_run = verify_mod._Tracker.report, verify_mod._run_suite

        def report(self, *args, **kwargs):
            trackers.append(self)
            return real_report(self, *args, **kwargs)

        def run(chunks, residuals, record, order):
            suites.append((residuals, order))
            return real_run(chunks, residuals, record, order)

        monkeypatch.setattr(verify_mod._Tracker, "report", report)
        monkeypatch.setattr(verify_mod, "_run_suite", run)
        rep = check_theorem1(30, seed=5)
        w = rep.worst_witness
        assert {"trial", "variant", "r"} <= set(w)
        assert isinstance(w["trial"], int)
        # the one-row block rebuilt from the report's JSON is the tracker's
        # worst row, bit for bit, and records as the report does
        rec = json.loads(json.dumps(rep.as_dict()))["worst_witness"]
        g = np.zeros((1, verify_mod._T1_OUTER_DEGREE + 1), dtype=np.complex128)
        g[0, : len(rec["g"])] = [complex(*c) for c in rec["g"]]
        phi, omega = (_spec_columns([_drawn_spec(rec[name])]) for name in ("phi", "omega"))
        block = (np.array([rec["trial"]]), g, np.array([len(rec["g"]) - 1]), phi, omega)
        [tracker] = trackers
        (worst, where), _ = tracker.worst
        assert [worst[c].tolist() for c in (0, 2)] == [block[c].tolist() for c in (0, 2)]
        assert worst[1].tobytes() == g.tobytes()
        assert _same_spec(worst[3], witnesses_mod._spec_row(phi, 0)) and _same_spec(worst[4], witnesses_mod._spec_row(omega, 0))
        assert {**verify_mod._t1_record(block), **where} == rec
        # and check_theorem1's own residuals, evaluated on that block alone
        # at the report's order, give the report's residual and radius bit
        # for bit
        [(residuals, order)] = suites
        assert order == verify_mod.DEFAULT_ORDER
        [res], at = residuals(block, order)
        assert np.float64(res).tobytes() == np.float64(rep.max_residual).tobytes()
        assert at["r"].tobytes() == np.float64(rec["r"]).tobytes()

    def test_grid_constants(self):
        assert radius_grid(UNIVERSAL_RADIUS, 4)[-1] == UNIVERSAL_RADIUS
        assert ANALYTIC_THRESHOLD_A == pytest.approx(0.4641016, abs=1e-7)


def _on_update(monkeypatch, seen):
    """Call seen(residual, witness) on every entry of every update of any
    _Tracker, in order, the witness of entry j being formed here with the
    functions handed in, record(item(j)), as a report forms its worst one."""
    real_update = verify_mod._Tracker.update

    def recording(self, residuals, item, record):
        for j, residual in enumerate(residuals.tolist()):
            seen(residual, record(item(j)))
        real_update(self, residuals, item, record)

    monkeypatch.setattr(verify_mod._Tracker, "update", recording)


@pytest.fixture
def records(monkeypatch):
    """The record of every item the suites hand a tracker, in order, with
    its residual under "residual"."""
    seen = []
    _on_update(monkeypatch, lambda residual, witness: seen.append({**witness, "residual": residual}))
    return seen


class TestNegativeControls:
    """Every suite can still fail on its own random witnesses (records with
    a ``trial`` key), not only on the closed forms, once its claim is moved
    past the sharp value through the module globals it reads when called.

    At order 16, for 20 seeds of 20 (seeds 0-19): with the sharp radius
    scaled by 1.01 and 100 trials, t5 and t6 failed that way, the smallest
    worst random residual being 5.2e-3 for t5 and 4.0e-3 for t6; with
    CLASSICAL_CAP at 0.4, t1 failed at 1000 trials (smallest worst random
    residual 2.0e-3); with CLASSICAL_CAP at 0.45, t3 failed at 500 trials
    (1.5e-2; at 0.4 it failed for 15 seeds); with ODD_CAP at 0.65, t2
    failed at 1000 trials (2.3e-2)."""

    @pytest.mark.parametrize("check", [check_theorem5, check_theorem6])
    def test_radius_past_the_sharp_one_fails_on_a_random_witness(self, monkeypatch, records, check):
        real = verify_mod._sharp_radius
        monkeypatch.setattr(verify_mod, "_sharp_radius", lambda *args: 1.01 * real(*args))
        rep = check(trials=100, seed=3, order=16)
        assert rep.verdict == "fail"
        assert any("trial" in w and w["residual"] > TOLERANCE for w in records)
        self._worst_as_handed_over(rep, records)

    @pytest.mark.parametrize(
        "check, cap, value, trials",
        [
            (check_theorem1, "CLASSICAL_CAP", 0.4, 1000),
            (check_theorem2_odd, "ODD_CAP", 0.65, 1000),
            (check_theorem3, "CLASSICAL_CAP", 0.45, 500),
        ],
    )
    def test_cap_past_the_sharp_one_fails_on_a_random_witness(self, monkeypatch, records, check, cap, value, trials):
        monkeypatch.setattr(verify_mod, cap, value)
        rep = check(trials=trials, seed=3, order=16)
        assert rep.verdict == "fail"
        assert any("trial" in w and w["residual"] > TOLERANCE for w in records)
        # these suites hand over random witnesses alone
        self._worst_as_handed_over(rep, records)
        assert "trial" in rep.worst_witness

    @staticmethod
    def _worst_as_handed_over(rep, records):
        # a failing report gives the largest residual the tracker was
        # handed, as evaluated at the suite's order, and no other order
        assert "reevaluated_order" not in rep.worst_witness
        assert rep.max_residual == max(w["residual"] for w in records)


class TestRecordOrder:
    """t5 and t6 hand every random witness to the tracker before any of the
    closed-form checks of their groups (sharp_lhs) run.  Blocks hold one row
    here, so the tracker's one update per block sees every witness."""

    @pytest.mark.parametrize("check", [check_theorem5, check_theorem6])
    def test_closed_forms_follow_random_witnesses(self, monkeypatch, check):
        monkeypatch.setattr(verify_mod, "_COEFF_BUDGET", 1)
        events = []
        real_sharp = verify_mod.sharp_lhs

        def update(residual, witness):
            if "trial" in witness:
                events.append("random")

        def sharp(*args, **kwargs):
            events.append("sharp")
            return real_sharp(*args, **kwargs)

        _on_update(monkeypatch, update)
        monkeypatch.setattr(verify_mod, "sharp_lhs", sharp)
        assert check(trials=24, seed=3, order=8).verdict == "pass"
        assert "sharp" in events
        assert events == ["random"] * 24 + ["sharp"] * events.count("sharp")


class TestClosedFormFailures:
    """The closed-form checks of t5 and t6 fail where their claim is moved
    through the module globals they read when called, each with its own
    witness kind; the whole report is pinned by the digest of its JSON
    (json.dumps of as_dict, keys in record order), recorded before the
    closed-form checks were formed as tables."""

    @pytest.mark.parametrize(
        "name, value, check, worst, digest",
        [
            (
                "_BEYOND_STEP",
                -1e-3,
                check_theorem5,
                {"a": 0.4641016151377544, "witness": "extremal-beyond", "lhs": 0.9983138324653102},
                "bd638316632c9839",
            ),
            (
                "_BEYOND_STEP",
                -1e-3,
                check_theorem6,
                {"a": 0.4641016151377544, "k": 0.0, "witness": "extremal-beyond", "lhs": 0.9983138324653102},
                "b3f54f0f6a6bea69",
            ),
            (
                "_LADDER",
                (0.999, 0.99, 0.9),
                check_theorem6,
                {"a": 0.30483493925200483, "k": 0.25, "witness": "ladder-monotonicity"},
                "3f90c1b4e208099d",
            ),
            (
                "CERT_TOLERANCE",
                -1.0,
                check_theorem6,
                {"a": 0.95, "k": 0.5, "witness": "sharp-family-attainment"},
                "b41308342ad1c344",
            ),
        ],
    )
    def test_report_matches_golden_digest(self, monkeypatch, name, value, check, worst, digest):
        monkeypatch.setattr(verify_mod, name, value)
        rep = check(trials=40, seed=3, order=16)
        assert rep.worst_witness == worst
        assert rep.max_residual == (2.220446049250313e-16 if name == "CERT_TOLERANCE" else 1.0)
        assert hashlib.sha256(json.dumps(rep.as_dict()).encode()).hexdigest()[:16] == digest


class TestHandedRecords:
    """Every record the suites hand a tracker, with its residual (the
    ``records`` fixture), is pinned by the digest of json.dumps of the list,
    keys in record order: the random-witness counterpart of
    TestClosedFormFailures, which the CLI digests (sorted keys) do not
    replace, and t5's random records reach no CLI digest.  Recorded while
    each trial was still handed to its record as a draw tuple."""

    @pytest.mark.parametrize(
        "check, count, digest",
        [
            (check_theorem1, 40, "1f40195f8c83d40a"),
            (check_theorem2_odd, 40, "4e6f0ddfa941ab85"),
            (check_theorem3, 120, "a00f8ba5e10fd9b8"),
            (check_theorem5, 204, "028098f96f2277a8"),
            (check_theorem6, 40, "16ae3a436cc0b424"),
        ],
    )
    def test_records_match_golden_digest(self, records, check, count, digest):
        check(trials=40, seed=3, order=16)
        assert len(records) == count
        assert hashlib.sha256(json.dumps(records).encode()).hexdigest()[:16] == digest


class TestClosedFormTables:
    """t5 and t6 hand their closed-form checks to the tracker as tables of
    one sharp_lhs call each, whose entries are kept in row-major order: the
    first of equal maxima, and no entry a mask leaves out."""

    @pytest.mark.parametrize("check, calls", [(check_theorem5, 2), (check_theorem6, 1)])
    def test_one_sharp_lhs_call_per_table(self, monkeypatch, check, calls):
        seen = []
        real = verify_mod.sharp_lhs

        def counting(*args, **kwargs):
            seen.append(args[0])
            return real(*args, **kwargs)

        monkeypatch.setattr(verify_mod, "sharp_lhs", counting)
        assert check(trials=40, seed=3).verdict == "pass"
        assert seen == [check.__name__.replace("check_theorem", "t")] * calls

    def test_first_of_equal_entries_in_row_major_order(self):
        tracker = verify_mod._Tracker()
        table = np.array([[0.0, 1.0, -1.0], [1.0, 1.0, 2.0]])
        mask = np.array([[True, False, True], [True, True, False]])
        verify_mod._update_at(tracker, table, mask, lambda i, c: {"i": i, "c": c})
        rep = tracker.report("t0", 1, 0, (0.5,))
        assert rep.worst_witness == {"i": 1, "c": 0} and rep.max_residual == 1.0

    def test_empty_mask_names_no_entry(self):
        tracker = verify_mod._Tracker()
        verify_mod._update_at(tracker, np.full((3, 4), np.nan), np.zeros((3, 4), dtype=bool), None)
        assert tracker.max_residual == float("-inf")

    def test_non_finite_entry_refused_by_name(self):
        table = np.array([[0.0, 5.0], [np.inf, np.nan]])
        with pytest.raises(ValueError, match=r"^non-finite residual inf at \{'i': 1, 'c': 0\}$"):
            verify_mod._update_at(verify_mod._Tracker(), table, np.ones((2, 2), dtype=bool), lambda i, c: {"i": i, "c": c})


class TestWitnessCounts:
    """Every suite builds exactly the reported number of random witnesses (for
    t3, one h per trial), also when the trial count is not a multiple of the
    number of t5 or t6 parameter groups."""

    @pytest.mark.parametrize("trials", [3, 21])
    @pytest.mark.parametrize(
        "check, witness_fn",
        [
            (check_theorem1, "_t1_witness"),
            (check_theorem2_odd, "_t2_rows"),
            (check_theorem3, "_t3_witness"),
            (check_theorem5, "_t5_witness"),
            (check_theorem6, "_t6_witness"),
        ],
    )
    def test_builds_match_reported_trials(self, monkeypatch, check, witness_fn, trials):
        real = getattr(verify_mod, witness_fn)
        orders = []

        # the builders take a block of draws: one order entry per row built
        def counting(block, order, *rest):
            out = real(block, order, *rest)
            rows = out[0] if isinstance(out, tuple) else out
            orders.extend([rows.shape[1] - 1] * rows.shape[0])
            return out

        monkeypatch.setattr(verify_mod, witness_fn, counting)
        report = check(trials=trials, seed=5, order=8)
        assert orders.count(8) == report.trials == trials


class TestStackedBlocks:
    """Block boundaries never show in a report: a block may span parameter
    groups, and a block of one gives the same bytes."""

    @pytest.mark.parametrize(
        "check", [check_theorem1, check_theorem2_odd, check_theorem3, check_theorem5, check_theorem6]
    )
    def test_report_independent_of_block_size(self, monkeypatch, check):
        wide = check(trials=30, seed=4, order=16).as_dict()
        monkeypatch.setattr(verify_mod, "_COEFF_BUDGET", 1)
        assert check(trials=30, seed=4, order=16).as_dict() == wide

    @pytest.mark.parametrize("suite", ["t5", "t6"])
    def test_block_spanning_groups_has_the_bytes_of_group_calls(self, suite):
        # a block is one call on a radius grid per row; each run of draws
        # from one group, evaluated on that group's shared grid, gives the
        # same residuals and radii bit for bit
        pairs = [(0.5, 0.0), (0.7, 0.25), (0.9, 1.0), (0.95, 0.5)]
        radii = [verify_mod._sharp_radius(suite, a, k) for a, k in pairs]
        groups = verify_mod._groups(suite, 37, 4, radii)
        [block] = verify_mod._pointwise_draws(groups, [a for a, _ in pairs], 1 if suite == "t5" else 2)
        if suite == "t5":
            lhs_rows, witness = verify_mod.theorem5_rows, verify_mod._t5_witness(block, 16)
        else:
            ks = np.array([pairs[g][1] for g in block[0]])
            lhs_rows, witness = verify_mod.theorem6_rows, verify_mod._t6_witness(block, 16, ks)
        grids = np.array([rs for rs, _ in groups])
        got, at = verify_mod._group_worst(block, grids, lhs_rows, *witness)
        expected, radii, start = [], [], 0
        for rs, keys in groups:
            rows = [part[start : start + len(keys)] for part in witness]
            res, where = verify_mod._row_max(lhs_rows(*rows, np.array(rs)) - 1.0, rs)
            expected.append(res)
            radii.append(where["r"])
            start += len(keys)
        assert len(got) == len(block[0]) == 37
        assert got.tobytes() == np.concatenate(expected).tobytes()
        assert at["r"].tobytes() == np.concatenate(radii).tobytes()

    def test_theorem3_expands_each_trial_once_per_order(self, monkeypatch):
        real = verify_mod.bounded_rows
        orders = []

        def counting(columns, order):
            orders.extend([order] * len(columns[1]))
            return real(columns, order)

        monkeypatch.setattr(verify_mod, "bounded_rows", counting)
        check_theorem3(7, seed=2, k_grid=(0.0, 0.5, 1.0), order=16)
        assert orders == [16] * 14  # h and omega_tilde of each of 7 trials

    @pytest.mark.parametrize("ks, sizes", [((0.0, 0.5, 1.0), [8, 8, 5]), (tuple(np.linspace(0, 1, 9)), [8] * 7 + [7])])
    def test_theorem3_expands_one_block_at_a_time(self, monkeypatch, ks, sizes):
        # 7 trials times the k grid, formed 8 rows at a time, cutting trials
        # apart, and no more rows at once however long the k grid
        chunks = _chunks(verify_mod._t3_draws, 3, 7)
        pieces = list(verify_mod._by_k(chunks, ks, 8))
        assert [len(p[0]) for p in pieces] == sizes
        trial, k = (np.concatenate([p[c] for p in pieces]) for c in (0, -1))
        assert trial.tolist() == [t for t in range(7) for _ in ks] and k.tolist() == list(ks) * 7
        for c in (1, 2):  # h and omega_tilde, row by row
            rows = [witnesses_mod._spec_row(p[c], j) for p in pieces for j in range(len(p[0]))]
            assert all(r.zeros.tobytes() == witnesses_mod._spec_row(chunks[0][c], t).zeros.tobytes() for r, t in zip(rows, trial))
        wide = check_theorem3(7, seed=2, k_grid=ks, order=16).as_dict()
        monkeypatch.setattr(verify_mod, "_COEFF_BUDGET", 8 * 17)
        real, blocks = verify_mod._by_k, []

        def counting(chunks, k_grid, rows):
            blocks.append(rows)
            return real(chunks, k_grid, rows)

        monkeypatch.setattr(verify_mod, "_by_k", counting)
        assert check_theorem3(7, seed=2, k_grid=ks, order=16).as_dict() == wide
        assert blocks == [8]


def _t2_residual_one(f, g, grid):
    """Per-witness t2 residual as the suite computed it one pair at a time."""
    leak = float(np.max(np.abs(f[0::2])))
    rs = np.asarray(grid)
    pow_grid = rs[:, None] ** np.arange(1, len(f), 2)
    f_cum = np.cumsum(np.abs(f[1::2])[None, :] * pow_grid, axis=1)
    g_cum = np.cumsum(np.abs(g[1::2])[None, :] * pow_grid, axis=1)
    gaps = f_cum - g_cum
    i, m = np.unravel_index(np.argmax(gaps), gaps.shape)
    where = {"r": float(rs[i]), "partial_sum_length": int(m + 1), "even_leak": leak}
    return max(float(gaps[i, m]), leak), where


def _chunks(draw, suite_id, trials, seed=9):
    """The column chunks of the trial keys (suite_id, seed, t)."""
    return list(streams_mod._keyed_draws([(suite_id, seed, t) for t in range(trials)], draw))


def _rows(block, rows):
    """The rows ``rows`` (a slice) of every column of a block."""
    return verify_mod._columns(lambda a: a[rows], block)


def _one_row_blocks(chunks) -> list:
    """The one-row block of every row of the column ``chunks``, in order,
    as the suite driver names a row."""
    return [_rows(chunk, slice(j, j + 1)) for chunk in chunks for j in range(len(chunk[0]))]


def _spec(d):
    return BlaschkeSpec(zeros=tuple(complex(*z) for z in d["zeros"]), rotation=complex(*d["rotation"]))


def _drawn_spec(d):
    """The DrawnSpec of a record's spec dict."""
    zeros = np.array([complex(*z) for z in d["zeros"]], dtype=np.complex128)
    return witnesses_mod.DrawnSpec(zeros, complex(*d["rotation"]))


class TestZeroFreeSpec:
    """Subordination, majorization and the identity inner are the Blaschke
    product without zeros, to which witnesses._zero_free masks rows of spec
    columns: its bounded row is the constant one and its inner rows z, with
    the bytes of the rows the suites once wrote by hand, and the mask leaves
    the rows of drawn specs in its block as they are."""

    ORDERS = [1, 2, 8, 64, 256]
    BUILDS = {
        "bounded": (witnesses_mod.bounded_rows, 0),
        "schwarz": (witnesses_mod.schwarz_rows, 1),
        "odd schwarz": (lambda columns, order: witnesses_mod.schwarz_rows(columns, order, odd=True), 1),
    }

    @pytest.mark.parametrize("order", ORDERS)
    @pytest.mark.parametrize("build", list(BUILDS))
    def test_rows_are_one_and_z(self, order, build):
        rows, one_at = self.BUILDS[build]
        expected = np.zeros((1, order + 1), dtype=np.complex128)
        expected[0, one_at] = 1.0
        drawn = _spec_columns([witnesses_mod.DrawnSpec(np.array([0.5j, -0.3]), np.exp(0.3j))])
        assert rows(witnesses_mod._zero_free(drawn, np.array([True])), order).tobytes() == expected.tobytes()

    @pytest.mark.parametrize("order", ORDERS)
    @pytest.mark.parametrize("build", list(BUILDS))
    def test_drawn_rows_keep_their_bytes(self, order, build):
        rows, _ = self.BUILDS[build]
        drawn = [witnesses_mod.draw_specs(streams_mod._streams([(order, i)]), i % 5, i % 5) for i in range(10)]
        columns = _spec_columns([witnesses_mod._spec_row(d, 0) for d in drawn for _ in range(2)])
        block = witnesses_mod._zero_free(columns, np.arange(20) % 2 == 0)
        stacked = rows(block, order)
        for i, row in enumerate(stacked):
            assert row.tobytes() == rows(_rows(block, slice(i, i + 1)), order)[0].tobytes()
            if i % 2:
                assert row.tobytes() == rows(_rows(columns, slice(i, i + 1)), order)[0].tobytes()


class TestStackedWitnesses:
    """The stacked t1-t3 builders and evaluators give the bytes of the
    per-witness constructions built from the recorded draws."""

    @pytest.mark.parametrize("order", [8, 64, 256])
    @pytest.mark.parametrize("rows", [1, 13])
    def test_t1_rows_match_build_quasi_triple(self, order, rows):
        [trials] = _chunks(verify_mod._t1_draws, 1, 13)
        blocks = [trials] if rows == 13 else [_rows(trials, slice(i, i + 1)) for i in range(3)]  # each variant
        variants = set()
        for block in blocks:
            f_rows, g_rows = verify_mod._t1_witness(block, order)
            for j, (f, g) in enumerate(zip(f_rows, g_rows)):
                rec = verify_mod._t1_record(_rows(block, slice(j, j + 1)))
                variants.add(rec["variant"])
                outer = make_series([complex(*c) for c in rec["g"]], order)
                phi = make_series([1.0], order)
                if rec["variant"] != "subordination":
                    phi = bounded_from_spec(_spec(rec["phi"]), order)
                omega = make_series([0.0, 1.0], order)
                if rec["variant"] != "majorization":
                    omega = schwarz_from_spec(_spec(rec["omega"]), order=order)
                assert f.tobytes() == build_quasi_triple(outer, phi, omega).f.coeffs.tobytes()
                assert g.tobytes() == outer.coeffs[:9].tobytes() and not np.any(outer.coeffs[9:])
        assert variants == {"general", "subordination", "majorization"}

    @pytest.mark.parametrize("order", [8, 64])
    def test_t3_rows_match_per_series_pairs(self, order):
        [trials] = _chunks(verify_mod._t3_draws, 3, 6)
        [rows] = verify_mod._by_k([trials], (0.0, 0.3, 0.7, 1.0), 24)
        block = _rows(rows, slice(1, -1))  # trials cut at both ends
        grid = verify_mod.radius_grid(CLASSICAL_CAP, 12)
        rs = np.asarray(grid)
        table = verify_mod._t3_residuals(verify_mod._t3_witness(block, order), grid)
        assert len(table) == 22
        for j, row in enumerate(table):
            rec = verify_mod._t3_record(_rows(block, slice(j, j + 1)))
            k = rec["k"]
            h = bounded_from_spec(_spec(rec["h"]), order)
            pair = harmonic_witness(h, k, bounded_from_spec(_spec(rec["omega_tilde"]), order))
            a0 = float(abs(h.coeffs[0]))
            random = np.array(
                [
                    theorem3_rational(a0, k, r)
                    + majorant_eval(pair.h, r, skip_constant=True)
                    + majorant_eval(pair.g, r, skip_constant=True)
                    - 1.0
                    for r in grid
                ]
            )
            a = rec["a_extremal"]
            sharp_pair = extremal_theorem3(a, k, order)
            sharp = np.abs(
                theorem3_rational(a, sharp_pair.k, rs)
                + sharp_pair.h.tag.majorant(rs, skip_constant=True)
                + sharp_pair.g.tag.majorant(rs, skip_constant=True)
                - 1.0
            )
            assert row[:12].tobytes() == random.tobytes()
            assert row[12:].tobytes() == sharp.tobytes()

    @pytest.mark.parametrize("order", [7, 8, 64, 65])
    def test_t2_rows_match_per_witness_construction(self, order):
        # the outer z*q(z^2) and the odd inner z*B(z^2) as t2 built them
        # one witness at a time; at an even order B loses its last coefficient
        [block] = _chunks(verify_mod._t2_draws, 2, 30)
        f_rows, g_rows = verify_mod._t2_rows(block, order)
        z = make_series([0.0, 1.0], order)
        for j, (f, g) in enumerate(zip(f_rows, g_rows)):
            rec = verify_mod._t2_record(_rows(block, slice(j, j + 1)))
            q = make_series([complex(*c) for c in rec["q"]], order // 2)
            outer = mul(z, p_symmetric_lift(q, 2, order=order))
            inner = z if rec["identity_inner"] else schwarz_from_spec(_spec(rec["omega"]), odd=True, order=order)
            assert g.tobytes() == outer.coeffs.tobytes()
            assert f.tobytes() == compose(outer, inner).coeffs.tobytes()

    @pytest.mark.parametrize("order", [7, 64, 256])
    def test_t2_residual_matches_per_witness(self, order):
        [block] = _chunks(verify_mod._t2_draws, 2, 20)
        f_rows, g_rows = verify_mod._t2_rows(block, order)
        # a leak larger than every gap, and a row whose gaps all tie at zero
        f_rows[3, 2] = 0.5
        f_rows[4] = g_rows[4]
        grid = verify_mod.radius_grid(ODD_CAP, 12)
        residuals, at = verify_mod._t2_residual(f_rows, g_rows, grid)
        assert len(residuals) == len(block[0])
        for j, (res, f, g) in enumerate(zip(residuals, f_rows, g_rows)):
            where = verify_mod._row(at, j)
            expected_res, expected_where = _t2_residual_one(f, g, grid)
            assert np.float64(res).tobytes() == np.float64(expected_res).tobytes()
            assert where == expected_where
            assert [type(v) for v in where.values()] == [type(v) for v in expected_where.values()]
        assert residuals[3] == 0.5 and at["partial_sum_length"][4] == 1


class TestNonFiniteResiduals:
    """A NaN residual would never beat the running maximum, so it must stop
    the suite instead of letting it pass."""

    def test_tracker_refuses_nan(self):
        with pytest.raises(ValueError, match=r"non-finite residual nan at \{'trial': 3\}"):
            verify_mod._Tracker().update(np.array([np.nan]), lambda j: {"trial": 3}, dict)

    @pytest.mark.parametrize("check", [check_theorem5, check_theorem6])
    def test_pointwise_suites_refuse_nan(self, monkeypatch, check):
        rows = "theorem5_rows" if check is check_theorem5 else "theorem6_rows"
        real = getattr(verify_mod, rows)

        def poisoned(*args, **kwargs):
            table = real(*args, **kwargs)
            table[-1, 0] = np.nan
            return table

        monkeypatch.setattr(verify_mod, rows, poisoned)
        with pytest.raises(ValueError, match="non-finite residual nan at .*'trial'"):
            check(trials=10, seed=1, order=16)

    def test_theorem2_refuses_nan(self, monkeypatch):
        monkeypatch.setattr(verify_mod, "_t2_residual", lambda f, g, grid: (np.full(len(f), np.nan), {"r": np.full(len(f), 0.5)}))
        with pytest.raises(ValueError, match="non-finite residual"):
            check_theorem2_odd(trials=3, seed=1, order=16)


def _fake_suite(monkeypatch, residual_at, items, rows, order=16):
    """_run_suite over one chunk of the int ``items`` in blocks of ``rows``,
    the residual of an item being residual_at(item), located at
    r = item / 10, and the record of its one-row block {"trial": item};
    also the blocks it evaluated, each at ``order``."""
    monkeypatch.setattr(verify_mod, "_COEFF_BUDGET", rows * (order + 1))
    blocks = []

    def residuals(block, n):
        assert n == order
        [trials] = block
        blocks.append(trials.tolist())
        return np.array([residual_at(item) for item in trials.tolist()], dtype=np.float64), {"r": trials / 10}

    tracker = verify_mod._run_suite([(np.array(list(items)),)], residuals, lambda row: {"trial": row[0][0].item()}, order)
    return tracker, blocks


class TestDriver:
    """The driver hands the tracker one item per block, the one-row block of
    the first row with the block's largest residual, with where that
    residual lies, and forms no record; the report forms the one record of
    the worst."""

    @pytest.mark.parametrize("trials, budget", [(3, None), (300, None), (300, 40 * 17)])
    @pytest.mark.parametrize(
        "check, record, specs",
        [(check_theorem1, "_t1_record", 2), (check_theorem2_odd, "_t2_record", 1), (check_theorem3, "_t3_record", 2)],
    )
    def test_only_the_worst_random_witness_is_recorded(self, monkeypatch, check, record, specs, trials, budget):
        # 40-row blocks at order 16 with the budget set: many blocks, one record
        if budget is not None:
            monkeypatch.setattr(verify_mod, "_COEFF_BUDGET", budget)
        calls = {record: 0, "_spec_dict": 0}
        for name in calls:

            def counting(*args, _real=getattr(verify_mod, name), _name=name):
                calls[_name] += 1
                return _real(*args)

            monkeypatch.setattr(verify_mod, name, counting)
        rep = check(trials=trials, seed=5, order=16)
        assert "trial" in rep.worst_witness
        assert calls == {record: 1, "_spec_dict": specs}

    @pytest.mark.parametrize(
        "check, witness",
        [
            (check_theorem1, "_t1_witness"),
            (check_theorem2_odd, "_t2_rows"),
            (check_theorem3, "_t3_witness"),
            (check_theorem5, "_t5_witness"),
            (check_theorem6, "_t6_witness"),
        ],
    )
    def test_one_row_slice_per_block(self, monkeypatch, check, witness):
        # 40-row blocks at order 16, each built once, at that order, and
        # named in its update by one one-row slice of its columns; of all
        # the records the updates could form, the report forms one
        monkeypatch.setattr(verify_mod, "_COEFF_BUDGET", 40 * 17)
        slices, records, builds = [], [], []
        real_update, real_witness = verify_mod._Tracker.update, getattr(verify_mod, witness)

        def counting_update(self, residuals, item, record):
            def counting_item(j):
                kept = item(j)
                if isinstance(kept, tuple) and isinstance(kept[-1], dict):  # a random row and its location
                    slices.append(kept[0])
                return kept

            def counting_record(kept):
                records.append(kept)
                return record(kept)

            real_update(self, residuals, counting_item, counting_record)

        def counting_witness(block, order, *rest):
            builds.append(order)
            return real_witness(block, order, *rest)

        monkeypatch.setattr(verify_mod._Tracker, "update", counting_update)
        monkeypatch.setattr(verify_mod, witness, counting_witness)
        assert check(trials=300, seed=5, order=16).verdict == "pass"
        assert builds == [16] * len(builds) and len(builds) >= 8
        assert len(slices) == len(builds)
        assert all(len(column) == 1 for row in slices for column in _leaves(row))
        assert len(records) == 1

    @pytest.mark.parametrize("rows", [1, 2, 6])
    def test_nan_after_a_larger_maximum_is_refused_by_name(self, monkeypatch, rows):
        values = [-0.5, 0.0, -0.25, -1.0, float("nan"), -2.0]
        with pytest.raises(ValueError, match=r"^non-finite residual nan at \{'trial': 4, 'r': 0\.4\}$"):
            _fake_suite(monkeypatch, lambda item: values[item], range(6), rows)

    @pytest.mark.parametrize(
        "bad, message",
        [
            (float("nan"), "nan at {'trial': 2, 'r': 0.2}"),
            (float("-inf"), "-inf at {'trial': 2, 'r': 0.2}"),
            (float("inf"), "inf at {'trial': 2, 'r': 0.2}"),
        ],
    )
    def test_first_non_finite_row_refused_in_order(self, monkeypatch, bad, message):
        # in one block, evaluated once: row 2 is refused where it lies,
        # though rows 1 and 3 are over the tolerance and row 4 is non-finite
        values = [-1.0, 2.0, bad, 3.0, float("nan"), -1.0]
        with pytest.raises(ValueError, match=f"^non-finite residual {re.escape(message)}$"):
            _fake_suite(monkeypatch, lambda item: values[item], range(6), 6)

    def test_suite_refuses_nan_that_is_not_the_maximum(self, monkeypatch):
        real = verify_mod.theorem1_rows

        def poisoned(*args, **kwargs):
            table = real(*args, **kwargs)
            table[5, 0] = np.nan
            return table

        monkeypatch.setattr(verify_mod, "theorem1_rows", poisoned)
        with pytest.raises(ValueError, match=r"non-finite residual nan at \{'trial': 5, 'variant': 'majorization'"):
            check_theorem1(trials=9, seed=1, order=16)

    def test_first_of_equal_maxima_across_blocks_is_kept(self, monkeypatch):
        values = [-1.0, 0.0, -1.0, -1.0, 0.0, -0.0, 0.0]
        tracker, blocks = _fake_suite(monkeypatch, lambda item: values[item], range(7), 3)
        assert blocks == [[0, 1, 2], [3, 4, 5], [6]]
        rep = tracker.report("t0", 7, 0, (0.5,))
        assert rep.worst_witness == {"trial": 1, "r": 0.1}
        assert rep.max_residual == 0.0

    def test_first_of_equal_maxima_within_a_block_is_kept(self, monkeypatch):
        values = [-1.0, -0.0, -1.0, 0.0, -0.5, -0.0]
        tracker, blocks = _fake_suite(monkeypatch, lambda item: values[item], range(6), 6)
        assert blocks == [[0, 1, 2, 3, 4, 5]]
        rep = tracker.report("t0", 6, 0, (0.5,))
        assert rep.worst_witness == {"trial": 1, "r": 0.1}
        assert rep.max_residual == 0.0 and np.signbit(rep.max_residual)


class TestOrderFloor:
    """t1 draws outers of degree up to 8 and t2 outers z*q(z^2) with q of
    degree up to 3, so orders that cannot hold them are refused before any
    draw."""

    @pytest.mark.parametrize("check, floor", [(check_theorem1, 8), (check_theorem2_odd, 7)])
    def test_orders_below_the_floor_refused(self, monkeypatch, check, floor):
        monkeypatch.setattr(verify_mod, "draw_polynomials", None)  # any draw would fail differently
        for order in (2, floor - 1):
            with pytest.raises(ValueError, match=f"needs order >= {floor}"):
                check(trials=3, seed=0, order=order)

    @pytest.mark.parametrize("check, floor", [(check_theorem1, 8), (check_theorem2_odd, 7)])
    def test_floor_order_runs(self, check, floor):
        assert check(trials=12, seed=3, order=floor).verdict == "pass"

    def test_t2_floor_outer_keeps_every_recorded_coefficient(self):
        # At order 6 the top term z^7 of z*q(z^2) was cut off, so the suite
        # checked a different outer from the one its report records.
        [draws] = _chunks(verify_mod._t2_draws, 2, 12, seed=0)
        assert max(draws[2]) == verify_mod._T2_BASE_DEGREE
        _, g_rows = verify_mod._t2_rows(draws, 7)
        for j, g in enumerate(g_rows):
            q = [complex(re, im) for re, im in verify_mod._t2_record(_rows(draws, slice(j, j + 1)))["q"]]
            assert list(g[1 : 2 * len(q) : 2]) == q
            assert not np.any(g[0::2]) and not np.any(g[2 * len(q) + 1 :])


def _same_spec(columns, reference) -> bool:
    """Row 0 of the spec ``columns`` holds the zeros and rotation of
    ``reference``, bit for bit."""
    drawn = witnesses_mod._spec_row(columns, 0)
    zeros, rotation = reference
    same_rotation = np.complex128(drawn.rotation).tobytes() == np.complex128(rotation).tobytes()
    return drawn.zeros.tobytes() == zeros.tobytes() and same_rotation


def _leaves(columns) -> list:
    """The arrays of a nested tuple of columns."""
    return [leaf for c in columns for leaf in (_leaves(c) if isinstance(c, tuple) else [c])]


class TestColumnarTrials:
    """Each suite's columnar draws give every trial the bits of the
    per-object draws that each trial's stream made before, in the same
    order, and whatever chunk the trial falls in."""

    TRIALS = 1100  # past one draw chunk

    def test_t1_t2_t3_draws_match_per_object_streams(self):
        draws = (verify_mod._t1_draws, verify_mod._t2_draws, verify_mod._t3_draws)
        t1, t2, t3 = (_one_row_blocks(_chunks(draw, suite_id, self.TRIALS)) for suite_id, draw in enumerate(draws, 1))
        for t, (d1, d2, d3) in enumerate(zip(t1, t2, t3)):
            assert [d[0].tolist() for d in (d1, d2, d3)] == [[t]] * 3
            rng = np.random.default_rng((1, 9, t))
            _, g, [degree], phi, omega = d1
            assert g[0, : degree + 1].tobytes() == per_object_polynomial(rng).tobytes() and not np.any(g[0, degree + 1 :])
            assert _same_spec(phi, per_object_spec(rng)) and _same_spec(omega, per_object_spec(rng))
            rng = np.random.default_rng((2, 9, t))
            _, q, [degree], omega = d2
            assert q[0, : degree + 1].tobytes() == per_object_polynomial(rng, 3).tobytes()
            assert _same_spec(omega, per_object_spec(rng)) and verify_mod._t2_record(d2)["identity_inner"] is (t % 5 == 0)
            rng = np.random.default_rng((3, 9, t))
            _, h, omega_tilde, _ = d3
            assert _same_spec(h, per_object_spec(rng, 1)) and _same_spec(omega_tilde, per_object_spec(rng))
            a_extremal = rng.uniform(0.0, 0.95)
            rec = verify_mod._t3_record((*d3, np.zeros(1)))
            assert np.float64(rec["a_extremal"]).tobytes() == np.float64(a_extremal).tobytes()
        assert {d[2].item() for d in t1} == set(range(9)) and {d[2].item() for d in t2} == set(range(4))

    @pytest.mark.parametrize("specs", [1, 2])
    def test_pointwise_draws_match_per_object_streams(self, specs):
        a_values = (0.4, 0.75, 0.9)
        groups = verify_mod._groups("t5" if specs == 1 else "t6", self.TRIALS, 9, [0.3, 0.3, 0.3])
        draws = _one_row_blocks(verify_mod._pointwise_draws(groups, a_values, specs))
        keys = [key for _, group_keys in groups for key in group_keys]
        assert len(draws) == len(keys) == self.TRIALS
        for (group, trial, phase, a0, *drawn), key in zip(draws, keys):
            rng = np.random.default_rng(key)
            expected_phase = rng.uniform(0.0, 2.0 * np.pi)
            expected_a0 = complex(a_values[key[2]] * np.exp(1j * expected_phase))
            assert (group.item(), trial.item()) == key[2:] and len(drawn) == specs
            assert phase.tobytes() == np.float64(expected_phase).tobytes()
            assert a0.tobytes() == np.complex128(expected_a0).tobytes()
            assert all(_same_spec(spec, per_object_spec(rng)) for spec in drawn)

    @pytest.mark.parametrize(
        "check", [check_theorem1, check_theorem2_odd, check_theorem3, check_theorem5, check_theorem6]
    )
    def test_longer_run_extends_shorter(self, monkeypatch, check):
        """The records of a T-trial run are the first records of each
        parameter group (one group for t1-t3) of a 2T-trial run.  Blocks
        hold one row here, so the tracker's one update per block sees every
        witness."""
        monkeypatch.setattr(verify_mod, "_COEFF_BUDGET", 1)
        seen = []
        _on_update(monkeypatch, lambda residual, witness: seen.append((residual, witness)))

        def random_records(trials):
            seen.clear()
            check(trials=trials, seed=6, order=8)
            groups = {}
            for residual, witness in seen:
                if "trial" in witness:
                    groups.setdefault((witness.get("a"), witness.get("k")), []).append((residual, witness))
            return groups

        short, long = random_records(self.TRIALS // 2), random_records(self.TRIALS)
        assert short.keys() == long.keys()
        for group, records in short.items():
            assert records == long[group][: len(records)]
            assert len(long[group]) >= len(records)


def _draws_as(streams, refs) -> bool:
    """Row i of ``streams`` draws as the Generator refs[i] does: integers,
    also on a held half and over a range of one value, and runs of doubles
    of several lengths, in turn."""
    counts = np.arange(len(refs)) % 7
    for lo, hi in [(0, 8), (3, 3), (1, 4), (0, 2**20)]:
        if streams.integers(lo, hi).tolist() != [int(ref.integers(lo, hi + 1)) for ref in refs]:
            return False
        runs = streams.random(counts)
        if any(run[:n].tobytes() != ref.random(n).tobytes() for run, n, ref in zip(runs, counts.tolist(), refs)):
            return False
    return True


def _default_rngs(keys) -> list:
    return [np.random.default_rng(key) for key in keys]


def _raw_as_default_rng(streams, keys) -> bool:
    """The next 40 raw outputs of each row of ``streams`` are those of
    np.random.default_rng(keys[i]).bit_generator."""
    raw = streams._raw(np.full(len(keys), 40))
    return all(row.tobytes() == ref.bit_generator.random_raw(40).tobytes() for row, ref in zip(raw, _default_rngs(keys)))


def _pcg64_state(streams, row: int) -> dict:
    """Row ``row`` of a chunk of PCG64 streams as numpy's PCG64.state."""
    return {
        "bit_generator": "PCG64",
        "state": {
            "state": int(streams.hi[row]) << 64 | int(streams.lo[row]),
            "inc": int(streams.inc_hi[row]) << 64 | int(streams.inc_lo[row]),
        },
        "has_uint32": int(streams.has_held[row]),
        "uinteger": int(streams.held[row]),
    }


# Trial keys of t1-t3 and t5/t6 at seeds of one, two and three words, and
# keys of five words and more.
_SEEDS = [0, 1, 42, 2**32 - 1, 2**32, 2**40 + 5, 2**64 + 1]
_TRIAL_KEYS = [(suite, seed, t) for suite in (1, 2, 3) for seed in _SEEDS for t in range(13)]
_TRIAL_KEYS += [(suite, seed, g, j) for suite in (5, 6) for seed in _SEEDS for g in range(3) for j in range(5)]
_TRIAL_KEYS += [(1, 2, 3, 4, 5), (0, 0, 0, 0, 0), (7, 2**64 + 1, 0), (2**160 + 9, 3), (0,), ()]

# PCG64's 128-bit LCG multiplier and its inverse mod 2**128.
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_PCG_MULT_INV = pow(_PCG_MULT, -1, 2**128)


def _state_before(output: int, hi: int, inc: int) -> int:
    """The PCG64 state whose next step reaches a state of high half ``hi``
    with XSL-RR output ``output``: the low half is hi ^ rotl(output, hi >> 58),
    and the step is inverted with the multiplier's inverse."""
    turn = hi >> 58
    x = (output << turn | output >> (64 - turn)) & (2**64 - 1)
    return ((hi << 64 | hi ^ x) - inc) * _PCG_MULT_INV % 2**128


class TestKeyedGenerators:
    """The vectorised PCG64 streams of a chunk start every row where
    np.random.default_rng(key) starts, draw as its Generator does, and a
    chunk refuses what default_rng refuses."""

    KEYS = _TRIAL_KEYS

    @pytest.mark.parametrize("size", [1, 255, 256, 257, 1023, 1024, 1025])
    def test_chunk_matches_default_rng(self, size):
        # chunks of keys of one length: t1's (suite, seed, t) and t5's
        # (suite, seed, g, j) take 3 and 4 words at seed 0, 4 and 5 at seed
        # 2**32 and 5 and 6 at seed 2**64 + 1
        for suite, seed in itertools.product(["t1", "t5"], [0, 2**32, 2**64 + 1]):
            keys = _suite_keys(suite, size, seed)
            streams = streams_mod._streams(keys)
            assert type(streams) is streams_mod._PCG64Rows and len(streams) == size
            assert all(_pcg64_state(streams, row) == ref.bit_generator.state for row, ref in enumerate(_default_rngs(keys)))
            assert _raw_as_default_rng(streams, keys)
            assert _draws_as(streams_mod._streams(keys), _default_rngs(keys))

    @pytest.mark.parametrize("seed", [0, 2**32, 2**64 + 1])
    def test_every_suite_chunk_is_vectorised(self, monkeypatch, seed):
        # the chunks the suites form never reach the Generator fallback:
        # 1025 trials make a full chunk and a chunk of one in every suite
        monkeypatch.setattr(streams_mod, "_GeneratorRows", None)  # a fallback would fail
        chunks = []
        real = streams_mod._PCG64Rows

        def counting(words):
            chunks.append(len(words))
            return real(words)

        monkeypatch.setattr(streams_mod, "_PCG64Rows", counting)
        for check in (check_theorem1, check_theorem2_odd, check_theorem3, check_theorem5, check_theorem6):
            assert check(trials=1025, seed=seed, order=8).verdict == "pass"
        assert chunks == [streams_mod._DRAW_ROWS, 1] * 5

    def test_every_key_in_chunks_of_one(self):
        for key in self.KEYS:
            assert _raw_as_default_rng(streams_mod._streams([key]), [key])
            assert _draws_as(streams_mod._streams([key]), _default_rngs([key]))

    def test_keyed_draws_cross_chunks(self):
        keys = [(1, 2**32, t) for t in range(2 * streams_mod._DRAW_ROWS + 1)]
        chunks = []

        def draw(streams, chunk):
            chunks.append(len(chunk))
            return zip(chunk, streams.integers(0, 8).tolist(), streams.random(3))

        seen = [drawn for chunk in streams_mod._keyed_draws(keys, draw) for drawn in chunk]
        assert chunks == [streams_mod._DRAW_ROWS, streams_mod._DRAW_ROWS, 1]
        assert [key for key, _, _ in seen] == keys
        for key, n, run in seen:
            ref = np.random.default_rng(key)
            assert n == ref.integers(0, 9) and run.tobytes() == ref.random(3).tobytes()

    @pytest.mark.parametrize(
        "seed, error, message",
        [(-1, ValueError, "expected non-negative integer"), (1.5, TypeError, "seed must be integer")],
    )
    def test_refused_as_default_rng_refuses(self, seed, error, message):
        with pytest.raises(error) as expected:
            np.random.default_rng((1, seed, 0))
        assert str(expected.value) == message
        with pytest.raises(error, match=f"^{message}$"):
            streams_mod._streams([(1, 0, 0), (1, seed, 0)])
        # the suites read their seed through series.integer, which refuses
        # a non-integer one by name before any stream is formed
        if not isinstance(seed, int):
            error, message = ValueError, f"seed must be an integer, not {seed!r}"
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            check_theorem1(trials=3, seed=seed, order=8)

    def test_numpy_integer_seed_reads_as_default_rng(self):
        keys = [(1, np.uint64(2**63), 0), (1, True, 4)]
        assert _draws_as(streams_mod._streams(keys), _default_rngs(keys))

    def test_lemire_rejection_matches_generator(self):
        # Generator.integers(0, 9) rejects a 32-bit draw u when u * 9 mod
        # 2**32 < 4, which no trial key reaches.  Crafted states make the
        # next output 0 (both halves rejected, then a draw from the step
        # after), make only its low half 0 (the held high half accepted), and
        # give an ordinary output; the last row is not crafted.
        inc = 0x9E3779B97F4A7C15F39CC0605CEDC835
        outputs = [(0, 0x0123456789ABCDEF), (0xABCD000100000000, 0xFC00000000000001), (0x5DEECE66D, 2**63 + 11)]
        keys = [(5,), (5,), (5,), (6,)]
        streams, refs = streams_mod._streams(keys), _default_rngs(keys)
        for row, (output, hi) in enumerate(outputs):
            state = _state_before(output, hi, inc)
            streams.hi[row], streams.lo[row] = state >> 64, state & (2**64 - 1)
            streams.inc_hi[row], streams.inc_lo[row] = inc >> 64, inc & (2**64 - 1)
            refs[row].bit_generator.state = _pcg64_state(streams, row)
            probe = np.random.PCG64()
            probe.state = refs[row].bit_generator.state
            assert int(probe.random_raw()) == output
        start = [ref.bit_generator.state["state"]["state"] for ref in refs]
        assert streams.integers(0, 8).tolist() == [int(ref.integers(0, 9)) for ref in refs]
        assert all(_pcg64_state(streams, row) == ref.bit_generator.state for row, ref in enumerate(refs))
        # the first row took two outputs and holds the high half of the
        # second, the second row one output and nothing held
        advanced = [(_PCG_MULT * state + inc) % 2**128 for state in start[:2]]
        assert refs[0].bit_generator.state["state"]["state"] == (_PCG_MULT * advanced[0] + inc) % 2**128
        assert refs[1].bit_generator.state["state"]["state"] == advanced[1]
        assert streams.has_held.tolist() == [True, False, True, True]
        assert _draws_as(streams, refs)

    def test_empty_range_and_held_half(self):
        keys = [(2, 42, t) for t in range(5)]
        streams, refs = streams_mod._streams(keys), _default_rngs(keys)
        assert streams.integers(0, 3).tolist() == [int(ref.integers(0, 4)) for ref in refs]
        before = [_pcg64_state(streams, row) for row in range(5)]
        # a range of one value consumes nothing, not even the held half
        assert streams.integers(7, 7).tolist() == [int(ref.integers(7, 8)) for ref in refs] == [7] * 5
        assert [_pcg64_state(streams, row) for row in range(5)] == before
        assert all(state["has_uint32"] == 1 for state in before)
        # the next integer is drawn on the held high half
        assert streams.integers(0, 5).tolist() == [int(ref.integers(0, 6)) for ref in refs]
        assert [_pcg64_state(streams, row)["state"] for row in range(5)] == [state["state"] for state in before]
        assert all(_pcg64_state(streams, row) == ref.bit_generator.state for row, ref in enumerate(refs))
        assert _draws_as(streams, refs)

    def test_verify_never_loads_numpy_random(self):
        src = str(Path(verify_mod.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
        code = (
            "import runpy, sys\n"
            "sys.argv = ['bohrlab', 'verify', '--suite', 'all', '--trials', '20', '--order', '16']\n"
            "try:\n"
            "    runpy.run_module('bohrlab.cli', run_name='__main__')\n"
            "finally:\n"
            "    print('numpy.random' in sys.modules, file=sys.stderr)\n"
        )
        done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=False)
        assert done.returncode == 0, done.stderr
        assert {report["verdict"] for report in json.loads(done.stdout)["reports"]} == {"pass"}
        assert done.stderr == "False\n"


def _suite_keys(suite, trials, seed):
    """The trial keys of a suite's run, t5's and t6's over four groups."""
    if suite in ("t5", "t6"):
        return [key for _, keys in verify_mod._groups(suite, trials, seed, [0.3] * 4) for key in keys]
    return [(verify_mod.SUITES[suite][0], seed, t) for t in range(trials)]


class TestEntropyTable:
    """The entropy table of a chunk, formed field by field for the suites'
    keys, holds in each row the words _entropy_words gives its key and
    zeros after them; a chunk it cannot form so goes to default_rng."""

    CHUNKS = {
        "one-word seed": _suite_keys("t1", 300, 42),
        "two-word seed": _suite_keys("t2", 300, 2**32),
        "three-word seed": _suite_keys("t3", 300, 2**64 + 1),
        "t5 groups, one-word seed": _suite_keys("t5", 37, 7),
        "t6 groups, three-word seed": _suite_keys("t6", 37, 2**64 + 1),
        "t6 groups, two-word seed, one group": _suite_keys("t6", 37, 2**40 + 5)[:9],
        "one key": [(1, 2**40 + 5, 7)],
        "zero-field keys": [(), ()],
    }

    @pytest.mark.parametrize("name", list(CHUNKS))
    def test_rows_hold_each_keys_words(self, name):
        chunk = self.CHUNKS[name]
        table = streams_mod._entropy_table(chunk)
        words = [streams_mod._entropy_words(key) for key in chunk]
        assert len({len(w) for w in words}) == 1
        assert table.dtype == np.uint32 and table.shape == (len(chunk), max(4, len(words[0])))
        assert [row[: len(w)].tolist() for row, w in zip(table, words)] == words
        assert not np.any(table[:, len(words[0]) :])

    def test_groups_cross_in_the_t5_and_t6_chunks(self):
        for name in ("t5 groups, one-word seed", "t6 groups, three-word seed"):
            assert len({key[2] for key in self.CHUNKS[name]}) == 4

    # keys that the table would have to form key by key: these chunks are
    # seeded by default_rng, a Generator per key
    @pytest.mark.parametrize(
        "chunk", [[(1, 0, 2**32 - 1), (1, 0, 2**32)], _TRIAL_KEYS], ids=["trial past 2**32", "keys of several lengths"]
    )
    def test_other_chunks_draw_as_default_rng(self, chunk):
        assert streams_mod._entropy_table(chunk) is None
        streams = streams_mod._streams(chunk)
        assert type(streams) is streams_mod._GeneratorRows
        assert _draws_as(streams, _default_rngs(chunk))

    @pytest.mark.parametrize(
        "chunk",
        [
            [(1, -1, 0), (1, -1, 1)],
            [(1, 0, 0), (1, 0, -1)],
            [(1, 0, 0), (1, 1.5, 0)],
            [(1, np.uint64(2**63), 0)],
            [(1, True, 4), (1, True, 5)],
            [[1, 0, 0]],
        ],
    )
    def test_keys_without_words_have_no_table(self, chunk):
        assert streams_mod._entropy_table(chunk) is None


class TestDrawnSpecsChecked:
    """Every spec a suite expands has passed BlaschkeSpec's checks
    (series._check_blaschke), which bound its witness."""

    CHECKS = [check_theorem1, check_theorem2_odd, check_theorem3, check_theorem5, check_theorem6]

    @pytest.mark.parametrize("check", CHECKS)
    def test_every_expanded_spec_passes_the_tripwire(self, monkeypatch, check):
        # the name is kept from the boundary tripwire that once evaluated
        # every spec; the spec checks are the only tripwire now
        # the columns _checked_columns returned after its checks are
        # compared with the ones expanded by the bits of their zeros and
        # rotations; t5 and t6 expand the inner of their automorphism as the
        # polynomials zP and Q (series._schwarz_polynomials)
        checked, expanded = [], []
        real_columns, real_expansion = witnesses_mod._checked_columns, witnesses_mod._blaschke_expansion
        real_polynomials = verify_mod._schwarz_polynomials

        def specs_of(zeros, counts, rotations):
            return [(row[:n].tobytes(), rotation.tobytes()) for row, n, rotation in zip(zeros, counts, rotations)]

        def counting_columns(zeros, counts, rotations):
            columns = real_columns(zeros, counts, rotations)
            checked.extend(specs_of(*columns))
            return columns

        def counting_expansion(zeros, counts, rotations, order, **kwargs):
            expanded.extend(specs_of(zeros, counts, rotations))
            return real_expansion(zeros, counts, rotations, order, **kwargs)

        def counting_polynomials(zeros, counts, rotations):
            expanded.extend(specs_of(zeros, counts, rotations))
            return real_polynomials(zeros, counts, rotations)

        monkeypatch.setattr(witnesses_mod, "_checked_columns", counting_columns)
        monkeypatch.setattr(verify_mod, "_checked_columns", counting_columns)
        monkeypatch.setattr(witnesses_mod, "_blaschke_expansion", counting_expansion)
        monkeypatch.setattr(verify_mod, "_schwarz_polynomials", counting_polynomials)
        check(trials=40, seed=2, order=8)
        assert expanded and checked == expanded

    @pytest.mark.parametrize("check", CHECKS)
    def test_off_circle_rotation_refused(self, monkeypatch, check):
        # 1e-13 off the unit circle, which only BlaschkeSpec's rotation check
        # refuses
        real = verify_mod.draw_specs

        def nudged(*args, **kwargs):
            zeros, counts, rotations = real(*args, **kwargs)
            return zeros, counts, rotations * (1.0 + 1e-13)

        monkeypatch.setattr(verify_mod, "draw_specs", nudged)
        with pytest.raises(ValueError, match="rotation must be unimodular"):
            check(trials=12, seed=2, order=8)
