import math

import numpy as np
import pytest
from scipy import stats

from openbounded import (
    OPEN,
    ConfigurationError,
    EffectKind,
    EffectSpec,
    InsufficientDataError,
    Model1Params,
    Model2Params,
    Seed,
    bounded,
    delta_estimate,
    inject_effect,
    model2_bias,
    simulate_model1,
    simulate_model2,
    strip_variants,
    weekend_ratio_gamma,
)
from openbounded import ExperimentCalendar, Weekday, simulate
from openbounded.core import row_blocks
from openbounded.metrics import metric_table
from conftest import dense, from_dense, make_table, traced_peak
import simulate_reference


class TestSeed:
    def test_derivation_is_pure(self):
        def draw(base, *indices):
            return Seed(base).generator(*indices).integers(2**63, size=4).tolist()

        assert draw(42, 3, 7) == draw(42, 3, 7)
        assert draw(42, 3, 7) != draw(42, 3, 8)
        assert draw(42, 3) != draw(43, 3)

    def test_range_checked(self):
        with pytest.raises(ConfigurationError):
            Seed(-1)
        with pytest.raises(ConfigurationError):
            Seed(2**64)


class TestSimulateModel1:
    def test_deterministic_for_fixed_seed(self):
        params = Model1Params(p=0.4, tau=1.0, sigma=1.0)
        a = simulate_model1(params, 50, Seed(9))
        b = simulate_model1(params, 50, Seed(9))
        assert a == b
        assert a != simulate_model1(params, 50, Seed(10))

    def test_certain_activity_deterministic_metric(self, monday14):
        params = Model1Params(p=1.0, tau=2.5, tau_prime=0.0, sigma=0.0, c=10.0)
        traces = simulate_model1(params, 20, Seed(0))
        present, values = dense(traces)
        assert present.all()
        expected = np.where(traces.variants == 1, 12.5, 10.0)
        assert (values == expected[:, None]).all()

    def test_arm_sizes_and_ids_stable(self):
        traces = simulate_model1(Model1Params(p=0.5), 30, Seed(1))
        assert len(traces) == 60
        assert (traces.variants[:30] == 1).all() and (traces.variants[30:] == 0).all()
        assert traces.user_ids[0] == "u0000000" and traces.user_ids[59] == "u0000059"

    def test_admitted_count_near_expectation(self):
        p, n = 0.15, 4000
        traces = simulate_model1(Model1Params(p=p), n, Seed(123))
        q = 1 - (1 - p) ** 14
        admitted = dense(traces)[0][:n].any(axis=1).sum()
        assert abs(admitted - n * q) <= 3 * math.sqrt(n * q * (1 - q))

    def test_first_day_cohorts_geometric(self, monday14):
        p, n = 0.3, 5000
        traces = simulate_model1(Model1Params(p=p), n, Seed(77))
        first_day = metric_table(traces, OPEN, monday14).first_day
        counts = np.bincount(np.where(first_day == 0, 15, first_day) - 1, minlength=15)
        expected = np.array(
            [2 * n * (1 - p) ** (i - 1) * p for i in range(1, 15)] + [2 * n * (1 - p) ** 14]
        )
        _, pvalue = stats.chisquare(counts, expected)
        assert pvalue > 1e-3

    def test_activity_independent_of_assignment(self, monday14):
        # Two-sample test on active days per arm stays quiet for >= 90% of seeds.
        params = Model1Params(p=0.35, tau=5.0, tau_prime=2.0, sigma=1.0)
        significant = 0
        n_runs = 40
        for seed in range(n_runs):
            traces = simulate_model1(params, 150, Seed(seed))
            active_days = dense(traces)[0].sum(axis=1)
            t_days = active_days[traces.variants == 1]
            c_days = active_days[traces.variants == 0]
            _, pvalue = stats.ttest_ind(t_days, c_days, equal_var=False)
            if pvalue < 0.05:
                significant += 1
        assert significant <= 0.1 * n_runs

    def test_per_user_heterogeneity_flag(self):
        params = Model1Params(p=1.0, sigma=0.0, c=100.0)
        flat = simulate_model1(params, 200, Seed(4))
        spread = simulate_model1(params, 200, Seed(4), sigma_user=5.0)
        spread_means = dense(spread)[1][:, 0]
        assert (dense(flat)[1] == 100.0).all()
        assert np.std(spread_means) == pytest.approx(5.0, rel=0.25)

    def test_lognormal_noise_mode(self):
        params = Model1Params(p=0.6, sigma=1.0, c=0.0)
        traces = simulate_model1(params, 300, Seed(5), noise_kind="lognormal")
        present, values = dense(traces)
        values = values[present]
        assert abs(np.mean(values)) < 0.2
        assert stats.skew(values) > 1.0
        assert traces == simulate_model1(params, 300, Seed(5), noise_kind="lognormal")

    def test_n_per_arm_validated(self):
        with pytest.raises(ConfigurationError):
            simulate_model1(Model1Params(p=0.5), 0, Seed(0))


class TestSimulateModel2:
    def test_population_layout(self, monday14):
        params = Model2Params(ns=5)
        traces = simulate_model2(params, Seed(2))
        assert len(traces) == 2 * 14 * 5
        assert (traces.variants == 1).sum() == 14 * 5
        first_day = metric_table(traces, OPEN, monday14).first_day
        assert (first_day >= 1).all()
        days = np.arange(1, 15)
        assert (dense(traces)[0] == (days >= first_day[:, None])).all()

    def test_arrivals_per_day(self, monday14):
        traces = simulate_model2(Model2Params(ns=3), Seed(0))
        first_day = metric_table(traces, OPEN, monday14).first_day
        for code in (1, 0):
            arm = first_day[traces.variants == code]
            assert np.bincount(arm, minlength=15).tolist() == [0] + [3] * 14

    def test_noiseless_open_delta_exact(self, monday14):
        params = Model2Params(ns=4, tau=0.3, tau_prime=1.0, sigma=0.0)
        traces = simulate_model2(params, Seed(6))
        res = delta_estimate(traces, OPEN, monday14)
        expected = 0.3 + (2 / 7 + model2_bias(OPEN, monday14)) * 1.0
        assert res.delta == pytest.approx(expected, abs=1e-12)

    def test_noiseless_bounded_delta_exact(self, monday14):
        params = Model2Params(ns=4, tau=0.3, tau_prime=1.0, sigma=0.0)
        traces = simulate_model2(params, Seed(6))
        res = delta_estimate(traces, bounded(7), monday14)
        assert res.delta == pytest.approx(0.3 + 2 / 7, abs=1e-12)

    def test_gamma_matches_cohort_average(self, monday14):
        traces = simulate_model2(Model2Params(ns=2), Seed(3))
        gamma = weekend_ratio_gamma(traces, OPEN, monday14)
        assert gamma == pytest.approx(6.695535 / 14, abs=1e-6)

    def test_deterministic(self):
        params = Model2Params(ns=3, sigma=1.0)
        assert simulate_model2(params, Seed(8)) == simulate_model2(params, Seed(8))


@pytest.mark.parametrize("params, noise_kind", [
    (Model1Params(p=0.5, c=1e308, sigma=1e308), "normal"),
    (Model1Params(p=0.5, sigma=1e308), "lognormal"),
    (Model1Params(p=0.5, sigma=40.0), "lognormal"),
    (Model2Params(ns=2, c=1e308, sigma=1e308), "normal"),
], ids=["model1", "lognormal-shift", "lognormal-draws", "model2"])
def test_outcomes_past_float_range_refused(params, noise_kind):
    # A RuntimeWarning fails the test too, so the refusal must come without one.
    with pytest.raises(ConfigurationError, match="not finite"):
        if isinstance(params, Model1Params):
            simulate_model1(params, 20, Seed(1), noise_kind=noise_kind)
        else:
            simulate_model2(params, Seed(1), noise_kind=noise_kind)


NOISES = [(0.0, "normal"), (2.5, "normal"), (0.0, "lognormal"), (2.5, "lognormal")]


class TestRowBlocks:
    """The simulators work one block of rows at a time and give the tables of
    the one-shot formulas in ``simulate_reference``, bit for bit. Each size
    spans several blocks and ends in a partial one, and the treatment arm ends
    inside a block."""

    @staticmethod
    def _calendar(k, total):
        step = row_blocks(total, k, simulate.DRAW_CELLS)[0].stop
        assert total > step and total % step
        return ExperimentCalendar(k, Weekday.SATURDAY)

    @pytest.mark.parametrize("k, n_per_arm", [(1, 32_769), (14, 7_500), (300, 700)])
    @pytest.mark.parametrize("sigma_user, noise_kind", NOISES)
    def test_model1_matches_one_shot(self, k, n_per_arm, sigma_user, noise_kind):
        params = Model1Params(p=0.3, tau=1.5, tau_prime=0.5, sigma=2.0, c=10.0,
                              calendar=self._calendar(k, 2 * n_per_arm))
        options = {"sigma_user": sigma_user, "noise_kind": noise_kind}
        assert simulate_model1(params, n_per_arm, Seed(3), **options) == (
            simulate_reference.simulate_model1(params, n_per_arm, Seed(3), **options)
        )

    @pytest.mark.parametrize("k, ns", [(1, 40_000), (14, 400), (300, 2)])
    @pytest.mark.parametrize("sigma_user, noise_kind", NOISES)
    def test_model2_matches_one_shot(self, k, ns, sigma_user, noise_kind):
        params = Model2Params(ns=ns, tau=1.5, tau_prime=0.5, sigma=2.0, c=10.0,
                              calendar=self._calendar(k, 2 * k * ns))
        options = {"sigma_user": sigma_user, "noise_kind": noise_kind}
        assert simulate_model2(params, Seed(4), **options) == (
            simulate_reference.simulate_model2(params, Seed(4), **options)
        )

    def test_extra_memory_does_not_grow(self):
        """Beside the table's own arrays, ``simulate_model1`` holds a few block
        temporaries: its traced peak less the table's bytes at 80,000 users is
        at most twice that at 5,000, where a byte per user would add 80 kB."""
        params = Model1Params(p=0.2, tau=1.0, sigma=65.0, c=100.0)
        extra = []
        for n_per_arm in (2_500, 40_000):
            # The first call formats the cached ids and loads numpy's random module.
            table = simulate_model1(params, n_per_arm, Seed(9))
            held = sum(column.nbytes for column in (table.variants, table.starts, table.days,
                                                    table.values))
            del table
            extra.append(traced_peak(lambda: simulate_model1(params, n_per_arm, Seed(9))) - held)
        assert extra[1] <= 2 * extra[0], extra


class TestUserIds:
    """Simulated ids are formatted once per user count and shared, never copied."""

    def test_one_tuple_per_size(self):
        first = simulate_model1(Model1Params(p=0.5), 25, Seed(1))
        second = simulate_model1(Model1Params(p=0.2), 25, Seed(2))
        assert first.user_ids is second.user_ids
        model2 = simulate_model2(Model2Params(ns=2), Seed(3))
        assert model2.user_ids is simulate_model2(Model2Params(ns=2), Seed(4)).user_ids
        assert first.user_ids is not model2.user_ids

    @pytest.mark.parametrize("total", [0, 1, 56, 12345])
    def test_ids_match_format(self, total):
        assert simulate._user_ids(total) == tuple(f"u{i:07d}" for i in range(total))

    def test_cache_bounded(self):
        for total in range(1, 3 * simulate.USER_ID_CACHE_SIZE):
            simulate._user_ids(total)
            info = simulate._user_ids.cache_info()
            assert info.currsize <= info.maxsize == simulate.USER_ID_CACHE_SIZE

    def test_strip_and_inject_keep_ids(self, monday14):
        traces = simulate_model1(Model1Params(p=0.5), 40, Seed(5))
        raw = strip_variants(traces)
        injected = inject_effect(raw, EffectSpec(EffectKind.ABSOLUTE, 1.0), monday14, Seed(6))
        assert raw.user_ids is traces.user_ids and injected.user_ids is traces.user_ids


class TestInjectEffect:
    def _raw_traces(self, n=200, seed=11, p=0.5, c=100.0, sigma=0.0):
        params = Model1Params(p=p, sigma=sigma, c=c)
        return strip_variants(simulate_model1(params, n, Seed(seed)))

    def test_null_injection_keeps_outcomes(self, monday14):
        raw = self._raw_traces()
        injected = inject_effect(raw, EffectSpec(EffectKind.ABSOLUTE, 0.0), monday14, Seed(1))
        assert (injected.variants >= 0).all()
        assert np.array_equal(dense(injected)[1], dense(raw)[1])
        assert np.array_equal(dense(injected)[0], dense(raw)[0])

    def test_relative_lift_on_constant_outcomes(self, monday14):
        raw = self._raw_traces(c=100.0)
        spec = EffectSpec(EffectKind.RELATIVE_LIFT, 0.01)
        injected = inject_effect(raw, spec, monday14, Seed(1))
        expected = np.where(injected.variants == 1, 101.0, 100.0)[:, None]
        present, values = dense(injected)
        assert (values == np.where(present, expected, 0.0)).all()

    def test_control_outcomes_untouched(self, monday14):
        raw = self._raw_traces(sigma=3.0)
        injected = inject_effect(raw, EffectSpec(EffectKind.ABSOLUTE, 5.0), monday14, Seed(2))
        control = injected.variants == 0
        assert control.any()
        assert np.array_equal(dense(injected)[1][control], dense(raw)[1][control])

    def test_weekend_only_shift_matches_gamma(self, monday14):
        raw = self._raw_traces(n=3000, p=0.3, c=0.0, sigma=0.0)
        x = 2.0
        spec = EffectSpec(EffectKind.ABSOLUTE, 0.0, tau_prime=x)
        injected = inject_effect(raw, spec, monday14, Seed(3))
        shifted = (injected.variants == 1)[:, None] & monday14.weekend_mask() & dense(raw)[0]
        assert np.array_equal(dense(injected)[1], np.where(shifted, x, 0.0))
        gamma = weekend_ratio_gamma(injected, OPEN, monday14)
        res = delta_estimate(injected, OPEN, monday14)
        assert res.delta == pytest.approx(gamma * x, abs=0.05 * x)

    def test_assignment_balanced_and_order_invariant(self, monday14):
        raw = self._raw_traces(n=2000)
        injected = inject_effect(raw, EffectSpec(EffectKind.ABSOLUTE, 1.0), monday14, Seed(5))
        n_treat = (injected.variants == 1).sum()
        assert abs(n_treat - 2000) <= 3 * math.sqrt(4000 * 0.25)
        present, values = dense(raw)
        shuffled = from_dense(
            raw.user_ids[::-1], raw.variants[::-1], present[::-1], values[::-1]
        )
        reinjected = inject_effect(shuffled, EffectSpec(EffectKind.ABSOLUTE, 1.0), monday14, Seed(5))
        by_id = dict(zip(injected.user_ids, injected.variants))
        assert all(by_id[u] == v for u, v in zip(reinjected.user_ids, reinjected.variants))

    def test_relative_lift_makes_no_control_copy(self, monday14):
        """The benchmark's raw log shape (1e5 users, p = 0.2, 280k rows): beside
        the lifted copy of the values, the lift holds under 1 MB, where a copy
        of the control half's 140k values alone is 1.1 MB."""
        raw = self._raw_traces(n=50_000, seed=9001, p=0.2, sigma=65.0)
        spec = EffectSpec(EffectKind.RELATIVE_LIFT, 0.01)
        inject_effect(raw, spec, monday14, Seed(1))  # hashlib loads on the first call
        peak = traced_peak(lambda: inject_effect(raw, spec, monday14, Seed(1)))
        assert peak < raw.values.nbytes + 1_000_000, peak

    def test_rejects_empty_and_preassigned(self, monday14):
        with pytest.raises(InsufficientDataError):
            inject_effect(make_table([]), EffectSpec(EffectKind.ABSOLUTE, 1.0), monday14, Seed(0))
        assigned = make_table([("u", "T", {1: 1.0})])
        with pytest.raises(ConfigurationError):
            inject_effect(assigned, EffectSpec(EffectKind.ABSOLUTE, 1.0), monday14, Seed(0))
