import math
import warnings

import numpy as np
import pytest
from scipy import stats

from bb84eve.pulse_optics import (
    SERIES_CUTOFF,
    OpticalConfig,
    bob_count_pmf_after_splitter,
    bob_count_pmf_series,
    coincidence_prob,
    coincidence_prob_series,
    poisson_pmf,
    scenario_probs,
    scenario_probs_series,
    split_pmf,
)


class TestPoissonPmf:
    def test_empty_pulse(self):
        assert poisson_pmf(1.7, 0) == pytest.approx(math.exp(-1.7), abs=1e-15)
        assert poisson_pmf(0.0, 0) == 1.0
        assert poisson_pmf(0.0, 3) == 0.0

    def test_value(self):
        assert poisson_pmf(1.0, 2) == pytest.approx(0.18393972058572122, abs=1e-15)

    def test_log_space_agrees_with_scipy_far_in_the_tail(self):
        for mu in (0.5, 5.0, 20.0):
            for n in (0, 3, 40, 60):
                assert poisson_pmf(mu, n) == pytest.approx(
                    float(stats.poisson.pmf(n, mu)), rel=1e-12, abs=1e-300
                )

    def test_rejects_negative_inputs(self):
        with pytest.raises(ValueError):
            poisson_pmf(-1.0, 0)
        with pytest.raises(ValueError):
            poisson_pmf(1.0, -1)


class TestSplitPmf:
    def test_perfect_transmission(self):
        for n in (0, 1, 5):
            assert split_pmf(n, 1.0, n) == pytest.approx(1.0, abs=1e-15)

    def test_values(self):
        assert split_pmf(2, 0.5, 1) == pytest.approx(0.5, abs=1e-15)
        assert split_pmf(3, 0.9, 3) == pytest.approx(0.729, abs=1e-12)

    def test_rejects_out_of_range_count(self):
        with pytest.raises(ValueError):
            split_pmf(2, 0.5, 3)


class TestScenarioProbs:
    def test_example_point(self):
        probs = scenario_probs(1.0, 0.5)
        assert probs.both == pytest.approx(0.15481812174617549, abs=1e-12)
        assert probs.eve_only == pytest.approx(0.2386512185411911, abs=1e-12)
        assert probs.bob_only == pytest.approx(0.2386512185411911, abs=1e-12)
        assert probs.empty == pytest.approx(0.36787944117144233, abs=1e-12)
        assert abs(probs.total - 1.0) < 1e-12

    def test_vacuum_source(self):
        assert scenario_probs(0.0, 0.7).as_tuple() == (0.0, 0.0, 0.0, 1.0)

    def test_balanced_splitter_maximizes_both_arms(self):
        grid = np.linspace(0.0, 1.0, 10_001)
        values = [scenario_probs(1.0, float(t)).both for t in grid]
        assert abs(grid[int(np.argmax(values))] - 0.5) <= grid[1] - grid[0]

    def test_partition_on_grid(self):
        for mu in np.linspace(0.02, 5.0, 50):
            for t in np.linspace(0.0, 1.0, 50):
                assert abs(scenario_probs(float(mu), float(t)).total - 1.0) < 1e-12

    def test_matches_series_oracle(self):
        mus = np.linspace(0.02, 5.0, 50)
        ts = np.linspace(0.0, 1.0, 50)
        grid = scenario_probs_series(mus[:, None], ts[None, :])
        assert all(field.shape == (50, 50) for field in grid.as_tuple())
        for i, mu in enumerate(mus):
            for j, t in enumerate(ts):
                closed = scenario_probs(float(mu), float(t)).as_tuple()
                series = scenario_probs_series(float(mu), float(t)).as_tuple()
                assert max(abs(a - b) for a, b in zip(closed, series)) < 1e-12
                assert all(type(value) is float for value in series)
                assert series == tuple(float(field[i, j]) for field in grid.as_tuple())

    @pytest.mark.parametrize("mu", [0.0, 5e-324, 20.0])
    @pytest.mark.parametrize("t", [0.0, 1.0])
    def test_series_edges_match_the_poisson_weights(self, mu, t):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            probs = scenario_probs_series(mu, t)
        live = sum(poisson_pmf(mu, n) for n in range(1, 66))
        whole, none = (probs.bob_only, probs.eve_only) if t == 1.0 else (probs.eve_only, probs.bob_only)
        assert probs.both == 0.0 and none == 0.0
        # numpy's exp and math.exp may round apart: allow a few ulps, and
        # one unit of the smallest subnormal at mu = 5e-324.
        assert whole == pytest.approx(live, rel=1e-15, abs=1e-323)
        assert probs.empty == pytest.approx(poisson_pmf(mu, 0), rel=1e-15, abs=0.0)
        if mu == 0.0:
            assert probs.as_tuple() == (0.0, 0.0, 0.0, 1.0)

    def test_monte_carlo_classification(self):
        rng = np.random.default_rng(4)
        n = 1_000_000
        mu, t = 1.0, 0.5
        photons = rng.poisson(mu, n)
        to_bob = rng.binomial(photons, t)
        to_eve = photons - to_bob
        counts = np.array(
            [
                np.count_nonzero((to_bob >= 1) & (to_eve >= 1)),
                np.count_nonzero((to_bob == 0) & (to_eve >= 1)),
                np.count_nonzero((to_bob >= 1) & (to_eve == 0)),
                np.count_nonzero(photons == 0),
            ]
        )
        for observed, p in zip(counts, scenario_probs(mu, t).as_tuple()):
            sigma = math.sqrt(p * (1 - p) / n)
            assert abs(observed / n - p) < 3 * sigma

    def test_range_errors(self):
        with pytest.raises(ValueError):
            scenario_probs(-1.0, 0.5)
        with pytest.raises(ValueError):
            scenario_probs(1.0, 1.5)
        for mu, t in (([0.5, -1.0], 0.5), (1.0, [0.5, 1.5]), ([1.0, math.nan], 0.5)):
            with pytest.raises(ValueError):
                scenario_probs_series(np.array(mu), np.array(t))


class TestPostSplitterCounts:
    def test_no_splitter_identity(self):
        for i in range(5):
            assert bob_count_pmf_after_splitter(1.3, 1.0, i) == pytest.approx(
                poisson_pmf(1.3, i), abs=1e-15
            )

    def test_example_value(self):
        assert bob_count_pmf_after_splitter(1.0, 0.9, 0) == pytest.approx(
            0.4065696597405991, abs=1e-12
        )

    def test_matches_marginalization_oracle(self):
        for mu in (0.2, 1.0, 3.0, 8.0):
            for t in (0.1, 0.5, 0.9):
                for i in range(8):
                    assert abs(
                        bob_count_pmf_after_splitter(mu, t, i)
                        - bob_count_pmf_series(mu, t, i)
                    ) < 1e-12

    def test_normalization(self):
        for mu, t in ((0.5, 0.3), (2.0, 0.8), (10.0, 0.5)):
            total = sum(bob_count_pmf_after_splitter(mu, t, i) for i in range(61))
            assert abs(total - 1.0) < 1e-9

    def test_matching_splitter_reproduces_lossy_line(self):
        # With t = eta the tap leaves exactly the photon statistics of the
        # original lossy channel.
        eta = 0.62
        for mu in (0.4, 1.0, 2.5):
            for i in range(8):
                assert bob_count_pmf_after_splitter(mu, eta, i) == pytest.approx(
                    poisson_pmf(eta * mu, i), abs=1e-15
                )

    def test_histogram_chi_square(self):
        rng = np.random.default_rng(5)
        n = 1_000_000
        mu, t = 1.0, 0.9
        received = rng.binomial(rng.poisson(mu, n), t)
        k_max = 9
        observed = np.bincount(np.minimum(received, k_max), minlength=k_max + 1)
        expected = np.array(
            [bob_count_pmf_after_splitter(mu, t, i) for i in range(k_max)]
        )
        expected = np.append(expected, 1.0 - expected.sum()) * n
        result = stats.chisquare(observed, expected)
        assert result.pvalue > 0.001


class TestCoincidence:
    def test_vanishes_without_photons(self):
        assert coincidence_prob(0.9, 0.0) == 0.0
        assert coincidence_prob(0.0, 1.0) == 0.0

    def test_example_value(self):
        assert coincidence_prob(0.9, 1.0) == pytest.approx(
            0.06565667824852628, abs=1e-12
        )

    def test_matches_series_oracle(self):
        for eta in (0.3, 0.9, 1.0):
            for mu in np.linspace(0.1, 4.0, 20):
                assert abs(
                    coincidence_prob(eta, float(mu))
                    - coincidence_prob_series(eta, float(mu))
                ) < 1e-12

    def test_series_equals_the_binomial_double_sum(self):
        # The inner sum over routings written out, as the reference; the outer
        # loop adds in the same order as the oracle, so the two agree exactly.
        def double_sum(eta, mu):
            total = 0.0
            for n in range(2, SERIES_CUTOFF + 1):
                routed = sum(math.comb(n, i) for i in range(1, n)) * 2.0 ** (-n)
                total += poisson_pmf(eta * mu, n) * routed
            return 0.5 * total

        for eta in (0.3, 0.9, 1.0):
            for mu in np.linspace(0.1, 20.0, 25):
                assert coincidence_prob_series(eta, float(mu)) == double_sum(eta, float(mu))

    def test_range_errors(self):
        with pytest.raises(ValueError):
            coincidence_prob(1.2, 1.0)
        with pytest.raises(ValueError):
            coincidence_prob(0.9, -1.0)


class TestOpticalConfig:
    def test_accepts_valid(self):
        cfg = OpticalConfig(mu=1.0, eta=0.9)
        assert (cfg.mu, cfg.eta) == (1.0, 0.9)

    def test_rejects_bright_source(self):
        with pytest.raises(ValueError):
            OpticalConfig(mu=25.0)

    def test_rejects_bad_transmission(self):
        with pytest.raises(ValueError):
            OpticalConfig(mu=1.0, eta=1.1)
