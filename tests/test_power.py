import pytest

from openbounded import (
    OPEN,
    ConfigurationError,
    Model1Params,
    Seed,
    bounded,
    compare_policies,
    delta_estimate,
    power_curve,
    simulate_model1,
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
