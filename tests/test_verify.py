"""Tests for the verification suites, reports and certificates."""

import dataclasses
import json

import numpy as np
import pytest

import bohrlab.verify as verify_mod
import bohrlab.witnesses as witnesses_mod
from bohrlab.functionals import SHARP_PARAMETERS, theorem3_rational
from bohrlab.radii import ANALYTIC_THRESHOLD_A, CLASSICAL_CAP, ODD_CAP, UNIVERSAL_RADIUS, theorem5_radius
from bohrlab.series import BlaschkeSpec, compose, majorant_eval, make_series, mul
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

    def test_worst_witness_is_reconstructible_record(self):
        rep = check_theorem1(30, seed=5)
        w = rep.worst_witness
        assert {"trial", "variant", "r"} <= set(w)
        assert isinstance(w["trial"], int)

    def test_grid_constants(self):
        assert radius_grid(UNIVERSAL_RADIUS, 4)[-1] == UNIVERSAL_RADIUS
        assert ANALYTIC_THRESHOLD_A == pytest.approx(0.4641016, abs=1e-7)


@pytest.fixture
def records(monkeypatch):
    """Every record the suites hand a tracker, in order, each a copy of the
    witness dict with its residual under "residual"."""
    seen = []
    real_update = verify_mod._Tracker.update

    def recording(self, residual, witness):
        seen.append({**witness, "residual": residual})
        real_update(self, residual, witness)

    monkeypatch.setattr(verify_mod._Tracker, "update", recording)
    return seen


class TestRetryBookkeeping:
    """A witness over the tolerance is re-evaluated once at doubled order and
    is the only record that carries ``reevaluated_order``."""

    ORDER = 16

    def _spoil_nth(self, monkeypatch, name, n, spoil, order_of=lambda out: out.order):
        """Make the n-th call of verify's ``name`` at the base order return a
        witness far over the tolerance; calls at doubled order stay genuine."""
        real = getattr(verify_mod, name)
        calls = []

        def patched(*args, **kwargs):
            out = real(*args, **kwargs)
            if order_of(out) == self.ORDER:
                calls.append(None)
                if len(calls) == n:
                    return spoil(out)
            return out

        monkeypatch.setattr(verify_mod, name, patched)

    def test_theorem3_flags_only_the_retried_k(self, monkeypatch, records):
        # one harmonic_rows row per (trial, k): row 1 of the first block is (0, 0.5)
        self._spoil_nth(
            monkeypatch, "harmonic_rows", 1, self._bump_row_1, order_of=lambda rows: rows.shape[1] - 1
        )
        rep = check_theorem3(3, seed=1, k_grid=(0.0, 0.5, 1.0), order=self.ORDER)
        assert rep.verdict == "pass"
        flagged = [w for w in records if "reevaluated_order" in w]
        assert len(flagged) == 1
        assert (flagged[0]["trial"], flagged[0]["k"]) == (0, 0.5)
        assert flagged[0]["reevaluated_order"] == 2 * self.ORDER
        assert len(records) == 9

    @staticmethod
    def _bump_row_1(rows):
        rows = rows.copy()
        rows[1, 1] += 10.0
        return rows

    @pytest.mark.parametrize("check", [check_theorem2_odd, check_theorem5, check_theorem6])
    def test_pointwise_suites_record_the_retry(self, monkeypatch, records, check):
        if check is check_theorem2_odd:
            # t2 composes one trial at a time: the second call is trial 1
            bump = make_series([0.0, 10.0], self.ORDER)
            self._spoil_nth(monkeypatch, "compose", 2, lambda f: f + bump)
        else:
            # t5 and t6 expand a block at a time: row 1 of the first block
            # is trial 1 of the first parameter group
            self._spoil_nth(
                monkeypatch, "rational_rows", 1, self._bump_row_1, order_of=lambda rows: rows.shape[1] - 1
            )
        rep = check(trials=40, seed=3, order=self.ORDER)
        assert rep.verdict == "pass"
        flagged = [w for w in records if "reevaluated_order" in w]
        assert len(flagged) == 1
        assert flagged[0]["trial"] == 1 and flagged[0]["reevaluated_order"] == 2 * self.ORDER

    def test_theorem1_records_the_retry(self, monkeypatch, records):
        # A spoiled composition would trip the convolution identity check
        # inside quasi_rows, so spoil the f rows it returns: row 1 of the
        # first block is trial 1.
        self._spoil_nth(monkeypatch, "quasi_rows", 1, self._bump_row_1, order_of=lambda rows: rows.shape[1] - 1)
        rep = check_theorem1(trials=40, seed=3, order=self.ORDER)
        assert rep.verdict == "pass"
        flagged = [w for w in records if "reevaluated_order" in w]
        assert len(flagged) == 1
        assert flagged[0]["trial"] == 1 and flagged[0]["reevaluated_order"] == 2 * self.ORDER
        assert len(records) == 40


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
        assert check(trials=100, seed=3, order=16).verdict == "fail"
        assert any("trial" in w and w["residual"] > TOLERANCE for w in records)

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
        assert check(trials=trials, seed=3, order=16).verdict == "fail"
        assert any("trial" in w and w["residual"] > TOLERANCE for w in records)


class TestRecordOrder:
    """t5 and t6 hand every random witness to the tracker before any of the
    closed-form checks of their groups (sharp_lhs) run."""

    @pytest.mark.parametrize("check", [check_theorem5, check_theorem6])
    def test_closed_forms_follow_random_witnesses(self, monkeypatch, check):
        events = []
        real_update, real_sharp = verify_mod._Tracker.update, verify_mod.sharp_lhs

        def update(self, residual, witness):
            if "trial" in witness:
                events.append("random")
            real_update(self, residual, witness)

        def sharp(*args, **kwargs):
            events.append("sharp")
            return real_sharp(*args, **kwargs)

        monkeypatch.setattr(verify_mod._Tracker, "update", update)
        monkeypatch.setattr(verify_mod, "sharp_lhs", sharp)
        assert check(trials=24, seed=3, order=8).verdict == "pass"
        assert "sharp" in events
        assert events == ["random"] * 24 + ["sharp"] * events.count("sharp")


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
        block = list(verify_mod._pointwise_draws(groups, [a for a, _ in pairs], 1 if suite == "t5" else 2))
        if suite == "t5":
            lhs_rows, witness = verify_mod.theorem5_rows, verify_mod._t5_witness(block, 16)
        else:
            ks = [pairs[d.group][1] for d in block]
            lhs_rows, witness = verify_mod.theorem6_rows, verify_mod._t6_witness(block, 16, ks)
        grids = np.array([rs for rs, _ in groups])
        got = verify_mod._group_worst(block, grids, lhs_rows, *witness)
        expected, start = [], 0
        for rs, keys in groups:
            rows = [part[start : start + len(keys)] for part in witness]
            expected += verify_mod._row_worst(lhs_rows(*rows, np.array(rs)) - 1.0, rs)
            start += len(keys)
        assert len(got) == len(block) == 37
        assert [np.float64(res).tobytes() for res, _ in got] == [np.float64(res).tobytes() for res, _ in expected]
        assert [where for _, where in got] == [where for _, where in expected]

    def test_theorem3_expands_each_trial_once_per_order(self, monkeypatch):
        real = verify_mod.bounded_rows
        orders = []

        def counting(specs, order):
            orders.extend([order] * len(specs))
            return real(specs, order)

        monkeypatch.setattr(verify_mod, "bounded_rows", counting)
        check_theorem3(7, seed=2, k_grid=(0.0, 0.5, 1.0), order=16)
        assert orders == [16] * 14  # h and omega_tilde of each of 7 trials


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


def _draws(draw, suite_id, trials, seed=9):
    keys = [(suite_id, seed, t) for t in range(trials)]
    return draw([np.random.default_rng(key) for key in keys], keys)


def _spec(d):
    return BlaschkeSpec(zeros=tuple(complex(*z) for z in d["zeros"]), rotation=complex(*d["rotation"]))


class TestZeroFreeSpec:
    """Subordination, majorization and the identity inner are the Blaschke
    product without zeros: its bounded row is the constant one and its
    inner rows z, with the bytes of the rows the suites once wrote by hand,
    and it leaves the rows of drawn specs in its block as they are."""

    ORDERS = [1, 2, 8, 64, 256]
    BUILDS = {
        "bounded": (witnesses_mod.bounded_rows, 0),
        "schwarz": (witnesses_mod.schwarz_rows, 1),
        "odd schwarz": (lambda specs, order: witnesses_mod.schwarz_rows(specs, order, odd=True), 1),
    }

    @pytest.mark.parametrize("order", ORDERS)
    @pytest.mark.parametrize("build", list(BUILDS))
    def test_rows_are_one_and_z(self, order, build):
        rows, one_at = self.BUILDS[build]
        expected = np.zeros((1, order + 1), dtype=np.complex128)
        expected[0, one_at] = 1.0
        assert rows([verify_mod._ZERO_FREE], order).tobytes() == expected.tobytes()

    @pytest.mark.parametrize("order", ORDERS)
    @pytest.mark.parametrize("build", list(BUILDS))
    def test_drawn_rows_keep_their_bytes(self, order, build):
        rows, _ = self.BUILDS[build]
        rngs = [np.random.default_rng((order, i)) for i in range(10)]
        drawn = [spec for i, rng in enumerate(rngs) for spec in witnesses_mod.draw_specs([rng], i % 5, i % 5)]
        block = [spec for d in drawn for spec in (verify_mod._ZERO_FREE, d)]
        stacked = rows(block, order)
        for spec, row in zip(block, stacked):
            assert row.tobytes() == rows([spec], order)[0].tobytes()


class TestStackedWitnesses:
    """The stacked t1-t3 builders and evaluators give the bytes of the
    per-witness constructions built from the recorded draws."""

    @pytest.mark.parametrize("order", [8, 64, 256])
    @pytest.mark.parametrize("rows", [1, 13])
    def test_t1_rows_match_build_quasi_triple(self, order, rows):
        trials = _draws(verify_mod._t1_draws, 1, 13)
        blocks = [trials] if rows == 13 else [[t] for t in trials[:3]]  # blocks of one: each variant
        for block in blocks:
            f_rows, g_rows = verify_mod._t1_witness(block, order)
            for trial, f, g in zip(block, f_rows, g_rows):
                rec = verify_mod._t1_record(trial)
                outer = make_series([complex(*c) for c in rec["g"]], order)
                phi = make_series([1.0], order)
                if rec["variant"] != "subordination":
                    phi = bounded_from_spec(_spec(rec["phi"]), order)
                omega = make_series([0.0, 1.0], order)
                if rec["variant"] != "majorization":
                    omega = schwarz_from_spec(_spec(rec["omega"]), order=order)
                assert f.tobytes() == build_quasi_triple(outer, phi, omega).f.coeffs.tobytes()
                assert g.tobytes() == outer.coeffs[:9].tobytes() and not np.any(outer.coeffs[9:])
        assert {t.variant for block in blocks for t in block} == {"general", "subordination", "majorization"}

    @pytest.mark.parametrize("order", [8, 64])
    def test_t3_rows_match_per_series_pairs(self, order):
        trials = _draws(verify_mod._t3_draws, 3, 6)
        block = [(t, k) for t in trials for k in (0.0, 0.3, 0.7, 1.0)][1:-1]  # trials cut at both ends
        grid = verify_mod.radius_grid(CLASSICAL_CAP, 12)
        rs = np.asarray(grid)
        table = verify_mod._t3_residuals(verify_mod._t3_witness(block, order), grid)
        for (trial, k), row in zip(block, table):
            h = bounded_from_spec(_spec(trial.record["h"]), order)
            pair = harmonic_witness(h, k, bounded_from_spec(_spec(trial.record["omega_tilde"]), order))
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
            a = trial.record["a_extremal"]
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
        block = _draws(verify_mod._t2_draws, 2, 30)
        f_rows, g_rows = verify_mod._t2_rows(block, order)
        z = make_series([0.0, 1.0], order)
        for d, f, g in zip(block, f_rows, g_rows):
            rec = verify_mod._t2_record(d)
            q = make_series([complex(*c) for c in rec["q"]], order // 2)
            outer = mul(z, p_symmetric_lift(q, 2, order=order))
            inner = z if d.identity_inner else schwarz_from_spec(_spec(rec["omega"]), odd=True, order=order)
            assert g.tobytes() == outer.coeffs.tobytes()
            assert f.tobytes() == compose(outer, inner).coeffs.tobytes()

    @pytest.mark.parametrize("order", [7, 64, 256])
    def test_t2_residual_matches_per_witness(self, order):
        block = _draws(verify_mod._t2_draws, 2, 20)
        f_rows, g_rows = verify_mod._t2_rows(block, order)
        # a leak larger than every gap, and a row whose gaps all tie at zero
        f_rows[3, 2] = 0.5
        f_rows[4] = g_rows[4]
        grid = verify_mod.radius_grid(ODD_CAP, 12)
        stacked = verify_mod._t2_residual(f_rows, g_rows, grid)
        assert len(stacked) == len(block)
        for (res, where), f, g in zip(stacked, f_rows, g_rows):
            expected_res, expected_where = _t2_residual_one(f, g, grid)
            assert np.float64(res).tobytes() == np.float64(expected_res).tobytes()
            assert where == expected_where
            assert [type(v) for v in where.values()] == [type(v) for v in expected_where.values()]
        assert stacked[3][0] == 0.5 and stacked[4][1]["partial_sum_length"] == 1


class TestNonFiniteResiduals:
    """A NaN residual would never beat the running maximum, so it must stop
    the suite instead of letting it pass."""

    def test_tracker_refuses_nan(self):
        with pytest.raises(ValueError, match=r"non-finite residual nan at \{'trial': 3\}"):
            verify_mod._Tracker().update(float("nan"), {"trial": 3})

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
        monkeypatch.setattr(verify_mod, "_t2_residual", lambda f, g, grid: [(float("nan"), {"r": 0.5})] * len(f))
        with pytest.raises(ValueError, match="non-finite residual"):
            check_theorem2_odd(trials=3, seed=1, order=16)


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
        draws = _draws(verify_mod._t2_draws, 2, 12, seed=0)
        assert max(d.degree for d in draws) == verify_mod._T2_BASE_DEGREE
        _, g_rows = verify_mod._t2_rows(draws, 7)
        for d, g in zip(draws, g_rows):
            q = [complex(re, im) for re, im in verify_mod._t2_record(d)["q"]]
            assert list(g[1 : 2 * len(q) : 2]) == q
            assert not np.any(g[0::2]) and not np.any(g[2 * len(q) + 1 :])


def _same_spec(drawn, reference) -> bool:
    zeros, rotation = reference
    same_rotation = np.complex128(drawn.rotation).tobytes() == np.complex128(rotation).tobytes()
    return drawn.zeros.tobytes() == zeros.tobytes() and same_rotation


class TestColumnarTrials:
    """Each suite's columnar draws give every trial the bits of the
    per-object draws that each trial's stream made before, in the same
    order, and whatever chunk the trial falls in."""

    TRIALS = 300  # past one draw chunk

    def test_t1_t2_t3_draws_match_per_object_streams(self):
        t1 = _draws(verify_mod._t1_draws, 1, self.TRIALS)
        t2 = _draws(verify_mod._t2_draws, 2, self.TRIALS)
        t3 = _draws(verify_mod._t3_draws, 3, self.TRIALS)
        for t, (d1, d2, d3) in enumerate(zip(t1, t2, t3)):
            rng = np.random.default_rng((1, 9, t))
            g = per_object_polynomial(rng)
            assert d1.g[: d1.degree + 1].tobytes() == g.tobytes() and not np.any(d1.g[d1.degree + 1 :])
            assert _same_spec(d1.phi, per_object_spec(rng)) and _same_spec(d1.omega, per_object_spec(rng))
            rng = np.random.default_rng((2, 9, t))
            assert d2.q[: d2.degree + 1].tobytes() == per_object_polynomial(rng, 3).tobytes()
            assert _same_spec(d2.omega, per_object_spec(rng)) and d2.identity_inner == (t % 5 == 0)
            rng = np.random.default_rng((3, 9, t))
            assert _same_spec(d3.h, per_object_spec(rng, 1)) and _same_spec(d3.omega_tilde, per_object_spec(rng))
            a_extremal = rng.uniform(0.0, 0.95)
            assert np.float64(d3.record["a_extremal"]).tobytes() == np.float64(a_extremal).tobytes()
        assert {d.degree for d in t1} == set(range(9)) and {d.degree for d in t2} == set(range(4))

    @pytest.mark.parametrize("specs", [1, 2])
    def test_pointwise_draws_match_per_object_streams(self, specs):
        a_values = (0.4, 0.75, 0.9)
        groups = verify_mod._groups("t5" if specs == 1 else "t6", self.TRIALS, 9, [0.3, 0.3, 0.3])
        draws = list(verify_mod._pointwise_draws(groups, a_values, specs))
        keys = [key for _, group_keys in groups for key in group_keys]
        assert len(draws) == len(keys) == self.TRIALS
        for d, key in zip(draws, keys):
            rng = np.random.default_rng(key)
            phase = rng.uniform(0.0, 2.0 * np.pi)
            a0 = complex(a_values[key[2]] * np.exp(1j * phase))
            assert (d.group, d.trial) == key[2:]
            assert np.float64(d.phase).tobytes() == np.float64(phase).tobytes()
            assert np.complex128(d.a0).tobytes() == np.complex128(a0).tobytes()
            assert all(_same_spec(spec, per_object_spec(rng)) for spec in d.specs)

    @pytest.mark.parametrize(
        "check", [check_theorem1, check_theorem2_odd, check_theorem3, check_theorem5, check_theorem6]
    )
    def test_longer_run_extends_shorter(self, monkeypatch, check):
        """The records of a T-trial run are the first records of each
        parameter group (one group for t1-t3) of a 2T-trial run."""
        seen = []
        real_update = verify_mod._Tracker.update

        def recording(self, residual, witness):
            seen.append((residual, witness))
            real_update(self, residual, witness)

        monkeypatch.setattr(verify_mod._Tracker, "update", recording)

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


def _same_stream(rng, key) -> bool:
    """rng is where np.random.default_rng(key) starts and draws as it does."""
    ref = np.random.default_rng(key)
    if rng.bit_generator.state != ref.bit_generator.state:
        return False
    return rng.random(5).tobytes() == ref.random(5).tobytes() and rng.integers(0, 2**63, 3).tolist() == ref.integers(0, 2**63, 3).tolist()


# Trial keys of t1-t3 and t5/t6 at seeds of one, two and three words, and
# keys of five words and more.
_SEEDS = [0, 1, 42, 2**32 - 1, 2**32, 2**40 + 5, 2**64 + 1]
_TRIAL_KEYS = [(suite, seed, t) for suite in (1, 2, 3) for seed in _SEEDS for t in range(13)]
_TRIAL_KEYS += [(suite, seed, g, j) for suite in (5, 6) for seed in _SEEDS for g in range(3) for j in range(5)]
_TRIAL_KEYS += [(1, 2, 3, 4, 5), (0, 0, 0, 0, 0), (7, 2**64 + 1, 0), (2**160 + 9, 3), (0,), ()]


class TestKeyedGenerators:
    """The chunk-hashed generators start every stream where
    np.random.default_rng(key) starts it, and refuse what it refuses."""

    KEYS = _TRIAL_KEYS

    @pytest.mark.parametrize("size", [1, 255, 256, 257])
    def test_chunk_matches_default_rng(self, size):
        keys = (self.KEYS * 2)[-size:]
        rngs = verify_mod._generators(keys)
        assert len(rngs) == size
        assert all(_same_stream(rng, key) for rng, key in zip(rngs, keys))

    def test_every_key_in_chunks_of_one(self):
        assert all(_same_stream(rng, key) for key in self.KEYS for rng in verify_mod._generators([key]))

    def test_keyed_draws_cross_chunks(self):
        keys = [(1, 2**32, t) for t in range(2 * verify_mod._DRAW_ROWS + 1)]
        seen = list(verify_mod._keyed_draws(keys, lambda rngs, chunk: list(zip(rngs, chunk))))
        assert [key for _, key in seen] == keys
        assert all(_same_stream(rng, key) for rng, key in seen)

    @pytest.mark.parametrize(
        "seed, error, message",
        [(-1, ValueError, "expected non-negative integer"), (1.5, TypeError, "seed must be integer")],
    )
    def test_refused_as_default_rng_refuses(self, seed, error, message):
        with pytest.raises(error) as expected:
            np.random.default_rng((1, seed, 0))
        assert str(expected.value) == message
        with pytest.raises(error, match=f"^{message}$"):
            verify_mod._generators([(1, 0, 0), (1, seed, 0)])
        with pytest.raises(error, match=f"^{message}$"):
            check_theorem1(trials=3, seed=seed, order=8)

    def test_numpy_integer_seed_reads_as_default_rng(self):
        keys = [(1, np.uint64(2**63), 0), (1, True, 4)]
        assert all(_same_stream(rng, key) for rng, key in zip(verify_mod._generators(keys), keys))

    def test_seed_words_serve_pcg64_only(self):
        [words] = verify_mod._seed_states([[1, 2, 3]])
        with pytest.raises(ValueError, match="four uint64 words"):
            verify_mod._SeedWords(words).generate_state(8)


class TestDrawnSpecsChecked:
    """Every spec a suite expands passes BlaschkeSpec's checks and the
    boundary tripwire."""

    CHECKS = [check_theorem1, check_theorem2_odd, check_theorem3, check_theorem5, check_theorem6]

    @pytest.mark.parametrize("check", CHECKS)
    def test_every_expanded_spec_passes_the_tripwire(self, monkeypatch, check):
        # the stacked evaluator and the expansions see spec columns, not spec
        # objects, so the specs are compared by the bits of their zeros and
        # rotations; t5 and t6 expand the inner of their automorphism as the
        # polynomials zP and Q (series._schwarz_polynomials)
        evaluated, expanded = [], []
        real_moduli, real_expansion = witnesses_mod._boundary_moduli, witnesses_mod._blaschke_expansion
        real_polynomials = verify_mod._schwarz_polynomials

        def specs_of(zeros, counts, rotations):
            return [(row[:n].tobytes(), rotation.tobytes()) for row, n, rotation in zip(zeros, counts, rotations)]

        def counting_moduli(zeros, counts, rotations, z):
            evaluated.extend(specs_of(zeros, counts, rotations))
            return real_moduli(zeros, counts, rotations, z)

        def counting_expansion(zeros, counts, rotations, order, **kwargs):
            expanded.extend(specs_of(zeros, counts, rotations))
            return real_expansion(zeros, counts, rotations, order, **kwargs)

        def counting_polynomials(zeros, counts, rotations):
            expanded.extend(specs_of(zeros, counts, rotations))
            return real_polynomials(zeros, counts, rotations)

        monkeypatch.setattr(witnesses_mod, "_boundary_moduli", counting_moduli)
        monkeypatch.setattr(witnesses_mod, "_blaschke_expansion", counting_expansion)
        monkeypatch.setattr(verify_mod, "_schwarz_polynomials", counting_polynomials)
        check(trials=40, seed=2, order=8)
        assert expanded and evaluated == expanded

    @pytest.mark.parametrize("check", CHECKS)
    def test_off_circle_rotation_refused(self, monkeypatch, check):
        # 1e-13 off the unit circle passes the tripwire's 1e-9 slack, so only
        # BlaschkeSpec's rotation check can refuse it
        real = verify_mod.draw_specs

        def nudged(*args, **kwargs):
            return [spec._replace(rotation=spec.rotation * (1.0 + 1e-13)) for spec in real(*args, **kwargs)]

        monkeypatch.setattr(verify_mod, "draw_specs", nudged)
        with pytest.raises(ValueError, match="rotation must be unimodular"):
            check(trials=12, seed=2, order=8)
