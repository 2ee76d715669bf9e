import gc
import math
import multiprocessing
import os

import numpy as np
import pytest

from openbounded import (
    OPEN,
    ConfigurationError,
    DataFormatError,
    InsufficientDataError,
    Model1Params,
    Seed,
    TestKind,
    bounded,
    compare_policies,
    delta_estimate,
    parallel,
    power,
    power_curve,
    simulate_model1,
)
from openbounded.cli import main
from openbounded.metrics import MetricTable, delta_from_samples, metric_table
from openbounded.power import (
    _arm_members,
    _rank_buckets,
    _repetition_buckets,
    _repetition_moments,
    _subsample_tests,
    _sweep,
    _sweep_moments,
)
from conftest import make_table


def _deterministic_dataset(n_per_arm=120, tau=1.0):
    params = Model1Params(p=0.6, tau=tau, sigma=0.0, c=10.0)
    return simulate_model1(params, n_per_arm, Seed(21))


def _noisy_dataset(n_per_arm=400, tau=0.0, sigma=1.0, seed=33):
    params = Model1Params(p=0.5, tau=tau, sigma=sigma, c=0.0)
    return simulate_model1(params, n_per_arm, Seed(seed))


class TestPowerCurve:
    def test_zero_noise_effect_always_detected(self, monday14):
        traces = _deterministic_dataset()
        curve = power_curve(traces, OPEN, monday14, [0.2, 0.5, 1.0], repetitions=50, seed=Seed(1))
        for point in curve.points:
            assert point.power == 1.0
            assert point.degenerate_repetitions == 0

    def test_full_fraction_is_single_deterministic_point(self, monday14):
        traces = _noisy_dataset()
        curve = power_curve(traces, OPEN, monday14, [1.0], repetitions=100, seed=Seed(2))
        point = curve.points[0]
        direct = delta_estimate(traces, OPEN, monday14)
        assert point.est_p05 == point.est_p50 == point.est_p95 == direct.delta
        assert point.n_effective_treatment == direct.n_treatment
        assert point.power in (0.0, 1.0)

    def test_power_se_is_binomial(self, monday14):
        traces = _noisy_dataset(tau=0.1)
        curve = power_curve(traces, OPEN, monday14, [0.5, 1.0], repetitions=80, seed=Seed(8))
        sub, full = curve.points
        assert 0.0 < sub.power < 1.0
        assert sub.power_se == math.sqrt(sub.power * (1.0 - sub.power) / 80)
        assert full.power_se == 0.0

    def test_percentiles_ordered(self, monday14):
        traces = _noisy_dataset()
        curve = power_curve(traces, OPEN, monday14, [0.3, 0.7], repetitions=60, seed=Seed(3))
        for point in curve.points:
            assert point.est_p05 <= point.est_p50 <= point.est_p95

    def test_null_rejection_rate_near_alpha(self, monday14):
        # Small fractions of a large pool act like fresh samples; at large
        # fractions, subsampling without replacement anchors each draw to the
        # pool's own delta and the test becomes conservative. Dataset-level
        # calibration is asserted in the acceptance suite.
        rates = []
        for seed in (33, 101, 202, 404):
            traces = _noisy_dataset(n_per_arm=2000, tau=0.0, seed=seed)
            curve = power_curve(traces, OPEN, monday14, [0.05], repetitions=300, seed=Seed(4))
            rates.append(curve.points[0].power)
        assert sum(rates) / len(rates) == pytest.approx(0.05, abs=0.02)

    def test_degenerate_repetitions_counted(self, monday14):
        traces = make_table([
            ("t1", "T", {1: 1.0}),
            ("t2", "T", {2: 1.5}),
            ("c1", "C", {1: 0.5}),
            ("c2", "C", {3: 0.25}),
        ])
        curve = power_curve(traces, OPEN, monday14, [0.5], repetitions=50, seed=Seed(5))
        point = curve.points[0]
        assert point.degenerate_repetitions > 0
        assert point.power <= 1.0 - point.degenerate_repetitions / 50

    def test_fraction_validation(self, monday14):
        traces = _deterministic_dataset(20)
        with pytest.raises(ConfigurationError):
            power_curve(traces, OPEN, monday14, [0.5, 0.5], repetitions=10)
        with pytest.raises(ConfigurationError):
            power_curve(traces, OPEN, monday14, [0.0, 0.5], repetitions=10)
        with pytest.raises(ConfigurationError):
            power_curve(traces, OPEN, monday14, [1.2], repetitions=10)
        with pytest.raises(ConfigurationError):
            power_curve(traces, OPEN, monday14, [0.5], repetitions=1)

    def test_deterministic_given_seed(self, monday14):
        traces = _noisy_dataset(150)
        a = power_curve(traces, OPEN, monday14, [0.4], repetitions=40, seed=Seed(7))
        b = power_curve(traces, OPEN, monday14, [0.4], repetitions=40, seed=Seed(7))
        assert a == b


class TestComparePolicies:
    def test_shared_subsamples_keep_open_effective_n_larger(self, monday14):
        traces = simulate_model1(Model1Params(p=0.25, tau=0.5, sigma=1.0), 500, Seed(12))
        open_curve, bounded_curve = compare_policies(
            traces, monday14, [0.2, 0.6, 1.0], repetitions=60, seed=Seed(13)
        )
        for op, bp in zip(open_curve.points, bounded_curve.points):
            assert op.fraction == bp.fraction
            assert op.n_effective_treatment >= bp.n_effective_treatment
            assert op.n_effective_control >= bp.n_effective_control

    def test_full_fraction_matches_direct_estimates(self, monday14):
        traces = simulate_model1(Model1Params(p=0.4, tau=0.5, sigma=1.0), 300, Seed(14))
        open_curve, bounded_curve = compare_policies(
            traces, monday14, [1.0], repetitions=10, seed=Seed(15)
        )
        assert open_curve.points[0].est_p50 == delta_estimate(traces, OPEN, monday14).delta
        assert (
            bounded_curve.points[0].est_p50
            == delta_estimate(traces, bounded(7), monday14).delta
        )

    def test_same_policy_twice_gives_identical_curves(self, monday14):
        traces = _noisy_dataset(200)
        curves = compare_policies(
            traces, monday14, [0.5], repetitions=30, seed=Seed(16), policies=(OPEN, OPEN)
        )
        assert curves[0] == curves[1]

    def test_median_estimates_converge_without_weekend_effect(self, monday14):
        # Both policies estimate the same constant effect; medians agree at full sample.
        traces = simulate_model1(Model1Params(p=0.5, tau=1.0, sigma=1.0), 2000, Seed(17))
        open_curve, bounded_curve = compare_policies(
            traces, monday14, [0.25, 1.0], repetitions=80, seed=Seed(18)
        )
        gap_small = abs(open_curve.points[0].est_p50 - bounded_curve.points[0].est_p50)
        gap_full = abs(open_curve.points[1].est_p50 - bounded_curve.points[1].est_p50)
        assert gap_full <= gap_small + 0.02
        assert gap_full < 0.1

    def test_sweep_holds_no_metric_table(self, monday14, monkeypatch):
        # Each policy's table is dropped once its members and its fraction-1.0
        # point are taken, so the sweep's moments never sit beside a table.
        def live_tables():
            gc.collect()
            return sum(isinstance(o, MetricTable) for o in gc.get_objects())

        sweep, during = power._sweep, []

        def watched(*args):
            during.append(live_tables())
            sweep(*args)

        traces = _noisy_dataset(200)
        before = live_tables()
        monkeypatch.setattr(power, "_sweep", watched)
        curves = compare_policies(traces, monday14, [0.5, 1.0], repetitions=4, seed=Seed(19))
        assert during == [before]
        assert [len(curve.points) for curve in curves] == [2, 2]


class TestNestedSubsamples:
    def test_sizes_and_nesting(self):
        fractions = [0.1, 0.25, 0.5, 0.9]
        n = 203
        rank_buckets = _rank_buckets(n, fractions)
        previous = None
        for r in range(5):
            buckets = _repetition_buckets(Seed(3), r, rank_buckets)
            assert not np.array_equal(buckets, previous)
            previous = buckets
            subsets = [set(np.flatnonzero(buckets <= j)) for j in range(len(fractions))]
            for f, subset in zip(fractions, subsets):
                assert len(subset) == math.ceil(f * n)
            for inner, outer in zip(subsets, subsets[1:]):
                assert inner < outer

    def test_stream_differs_from_simulator_stream(self):
        # Seed.generator() drives the simulators; repetition 0 must not replay it.
        ranks = np.arange(1000)
        seed = Seed(11)
        assert not np.array_equal(
            _repetition_buckets(seed, 0, ranks), seed.generator().permutation(ranks)
        )

    @pytest.mark.parametrize("test", [TestKind.Z, TestKind.WELCH])
    @pytest.mark.parametrize("policy", [OPEN, bounded(7)], ids=["open", "bounded"])
    def test_bucket_merge_matches_direct_estimate(self, monday14, policy, test):
        # c=100, sigma=65 as in criterion 7, small enough that the lowest
        # fraction leaves some arms below two users.
        params = Model1Params(p=0.2, tau=5.0, sigma=65.0, c=100.0)
        traces = simulate_model1(params, 150, Seed(31))
        table = metric_table(traces, policy, monday14)
        fractions = [0.01, 0.1, 0.3, 0.6, 0.95]
        rank_buckets = _rank_buckets(len(traces), fractions)
        members, exponent = _arm_members(table)
        draws = [_repetition_buckets(Seed(32), r, rank_buckets) for r in range(6)]
        moments = np.stack([_repetition_moments(members, b, len(fractions)) for b in draws])
        n, deltas, variances, p_values = _subsample_tests(moments, test, exponent)
        degenerate = 0
        for r, buckets in enumerate(draws):
            for j in range(len(fractions)):
                idx = np.flatnonzero(buckets <= j)
                included, variants = table.included[idx], table.variants[idx]
                treatment = table.values[idx][included & (variants == 1)]
                control = table.values[idx][included & (variants == 0)]
                assert (n[r, j, 1], n[r, j, 0]) == (treatment.size, control.size)
                try:
                    direct = delta_from_samples(treatment, control, test)
                except InsufficientDataError:
                    degenerate += 1
                    assert np.isnan([deltas[r, j], variances[r, j], p_values[r, j]]).all()
                    continue
                assert deltas[r, j] == pytest.approx(direct.delta, rel=1e-9)
                assert variances[r, j] == pytest.approx(direct.variance, rel=1e-9)
                assert p_values[r, j] == pytest.approx(direct.p_value, rel=1e-9)
        assert 0 < degenerate < deltas.size


def _force_workers(monkeypatch, workers):
    """Make every sweep run in ``workers`` blocks, the later ones in forked workers."""
    monkeypatch.setattr(power, "PARALLEL_MIN_USER_REPS", 0)
    monkeypatch.setattr(parallel, "usable_cores", lambda: workers)


def _fail_in_workers(monkeypatch, fail):
    """Make ``_repetition_moments`` call ``fail`` in any process but this one."""
    parent = os.getpid()

    def moments(*args):
        if os.getpid() != parent:
            fail()
        return _repetition_moments(*args)

    monkeypatch.setattr(power, "_repetition_moments", moments)


class TestParallelSweep:
    # 11 repetitions: neither 2 nor 3 workers divide them. At fraction 0.01
    # some repetitions leave an arm below two users.
    FRACTIONS = [0.01, 0.1, 0.5, 1.0]
    REPETITIONS = 11

    @staticmethod
    def _sweep_inputs(monday14):
        params = Model1Params(p=0.2, tau=5.0, sigma=65.0, c=100.0)
        traces = simulate_model1(params, 150, Seed(31))
        members = [_arm_members(metric_table(traces, policy, monday14))[0]
                   for policy in (OPEN, bounded(7))]
        rank_buckets = _rank_buckets(len(traces), TestParallelSweep.FRACTIONS[:-1])
        return traces, (Seed(32), rank_buckets, members)

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_moments_bit_identical_to_serial(self, monday14, monkeypatch, workers):
        _, inputs = self._sweep_inputs(monday14)
        shape = (2, self.REPETITIONS, 3, len(self.FRACTIONS) - 1, 2)
        serial, swept = np.empty(shape), np.empty(shape)
        _sweep_moments(serial, *inputs, 0, self.REPETITIONS)
        _force_workers(monkeypatch, workers)
        _sweep(swept, *inputs)
        assert swept.tobytes() == serial.tobytes()
        assert not multiprocessing.active_children()

    @pytest.mark.parametrize("test", [TestKind.Z, TestKind.WELCH])
    def test_curves_identical_for_any_worker_count(self, monday14, monkeypatch, test):
        traces, _ = self._sweep_inputs(monday14)
        curves = []
        for workers in (1, 2, 3):
            _force_workers(monkeypatch, workers)
            curves.append(compare_policies(
                traces, monday14, self.FRACTIONS, self.REPETITIONS, seed=Seed(32), test=test
            ))
            assert not multiprocessing.active_children()
        assert curves[0][0].points[0].degenerate_repetitions > 0
        # repr spells every float exactly and matches NaN with NaN.
        assert repr(curves[1]) == repr(curves[0]) and repr(curves[2]) == repr(curves[0])

    @pytest.mark.parametrize("error", [
        MemoryError("Unable to allocate 7.45 GiB"), DataFormatError("moments past float range"),
    ], ids=["memory", "data"])
    def test_worker_exception_raised_in_parent(self, monday14, monkeypatch, error):
        traces, _ = self._sweep_inputs(monday14)
        _force_workers(monkeypatch, 2)

        def fail():
            raise error

        _fail_in_workers(monkeypatch, fail)
        with pytest.raises(type(error)) as raised:
            compare_policies(traces, monday14, self.FRACTIONS, self.REPETITIONS, seed=Seed(32))
        assert type(raised.value) is type(error) and str(raised.value) == str(error)
        assert not multiprocessing.active_children()

    def test_worker_ending_without_reply_is_refilled(self, monday14, monkeypatch):
        traces, _ = self._sweep_inputs(monday14)
        expected = compare_policies(
            traces, monday14, self.FRACTIONS, self.REPETITIONS, seed=Seed(32)
        )
        _force_workers(monkeypatch, 3)
        _fail_in_workers(monkeypatch, lambda: os._exit(1))
        curves = compare_policies(
            traces, monday14, self.FRACTIONS, self.REPETITIONS, seed=Seed(32)
        )
        assert repr(curves) == repr(expected)
        assert not multiprocessing.active_children()

    @pytest.mark.parametrize("error, code, message", [
        (MemoryError("Unable to allocate 7.45 GiB"), 1,
         "error: out of memory: Unable to allocate 7.45 GiB\n"),
        (DataFormatError("moments past float range"), 2, "error: moments past float range\n"),
    ], ids=["memory", "data"])
    def test_power_command_keeps_its_exit_code(self, tmp_path, capsys, monkeypatch, error, code,
                                               message):
        _force_workers(monkeypatch, 2)

        def fail():
            raise error

        _fail_in_workers(monkeypatch, fail)
        out = tmp_path / "power.json"
        assert main(["power", "--model", "model1", "--n-per-arm", "50", "--reps", "5",
                     "-o", str(out)]) == code
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == message and not out.exists()
        assert not multiprocessing.active_children()
