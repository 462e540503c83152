import math

import numpy as np
import pytest
from scipy import stats as scistats

from bb84eve.engine import (
    SessionConfig,
    analytic_expectations,
    run_session,
    run_sharded,
    scenario_expectations,
    shard_rng,
)
from bb84eve.pulse_attacks import (
    BsInterceptResend,
    BsOptimal,
    InterceptResend,
    OptimalIncoherent,
    Pns,
    kappa_for_channel,
)
from bb84eve.engine import (
    _inverse_cdf,
    _live_table,
    _one_photon_source,
    _poisson_table,
    _simulate_batch,
)
from bb84eve.pulse_optics import SERIES_CUTOFF, OpticalConfig, coincidence_prob, poisson_pmf
from bb84eve.single_photon import IR_MAX_GUESS_PROB

N_MAX = SERIES_CUTOFF


def split_terms(mu: float, t: float):
    """(weight, k_bob, k_eve) over source photon numbers up to N_MAX."""
    for n in range(N_MAX + 1):
        p_n = poisson_pmf(mu, n)
        for k_bob in range(n + 1):
            yield p_n * scistats.binom.pmf(k_bob, n, t), k_bob, n - k_bob


def series_bs_ir_majority_accuracy(mu: float, t: float, d: float) -> float:
    """Eavesdropper's accuracy on detected pulses, summed over the photon split."""
    right = total = 0.0
    for w, k_bob, k_eve in split_terms(mu, t):
        if k_bob == 0:
            continue
        total += w
        if k_eve == 0:
            right += w * (4 * d * IR_MAX_GUESS_PROB + (1 - 4 * d) * 0.5)
        else:
            votes = scistats.binom(k_eve, IR_MAX_GUESS_PROB)
            half = k_eve / 2
            tie = votes.pmf(half) if k_eve % 2 == 0 else 0.0
            right += w * (votes.sf(math.floor(half)) + 0.5 * tie)
    return right / total


def series_bs_ir_coincidence(mu: float, t: float, d: float) -> float:
    """Wrong-basis double clicks: unattacked pulses of >= 2 receiver photons."""
    total = 0.0
    for w, k_bob, k_eve in split_terms(mu, t):
        if k_bob >= 2:
            kept = 1.0 - 4 * d if k_eve == 0 else 1.0
            total += w * kept * 0.5 * (1.0 - 2.0 ** (1 - k_bob))
    return total


def series_pns_coincidence(mu: float) -> float:
    """An n-photon pulse delivers n - 1 photons to the receiver."""
    return 0.5 * sum(
        poisson_pmf(mu, n) * (1.0 - 2.0 ** (2 - n)) for n in range(3, N_MAX + 1)
    )


def make_config(attack, mu=1.0, eta=1.0, n_pulses=400_000, seed=42, **kwargs):
    return SessionConfig(
        optics=OpticalConfig(mu=mu, eta=eta),
        attack=attack,
        n_pulses=n_pulses,
        seed=seed,
        **kwargs,
    )


def assert_within_3_sigma(value, expected, stderr):
    assert stderr > 0
    assert abs(value - expected) < 3 * stderr, (
        f"{value} vs {expected}: {abs(value - expected) / stderr:.2f} sigma"
    )


#: Uniforms near 0, interior and near 1 - 2^-53, the largest double below 1.
FIXED_UNIFORMS = np.concatenate([
    [5e-324, 1e-300, 2.0**-53, 1e-12, 0.25, 0.5, 0.75, 1 - 1e-12, 1 - 2.0**-52, 1 - 2.0**-53],
    np.random.default_rng(7).random(20_000),
])


class TestPoissonSampler:
    @pytest.mark.parametrize("mean", [1e-3, 0.1, 0.9, 1.0, 5.0, 20.0])
    def test_inverse_cdf_matches_scipy_ppf(self, mean):
        cdf, _ = _poisson_table(mean)
        # A uniform equal to a table entry sits on the boundary of two counts,
        # where rounding of the two tables may differ by an ulp.
        u = FIXED_UNIFORMS[~np.isin(FIXED_UNIFORMS, cdf)]
        assert u.size >= FIXED_UNIFORMS.size - 1
        counts = _inverse_cdf(u, _poisson_table(mean))
        assert np.array_equal(counts, scistats.poisson.ppf(u, mean).astype(np.int64))

    @pytest.mark.parametrize("mean", [0.0, 1e-3, 1.0, 20.0])
    def test_table_runs_to_one_and_is_read_only(self, mean):
        cdf, head = _poisson_table(mean)
        assert cdf[-1] == 1.0 and (cdf.size == 1 or cdf[-2] < 1.0)
        assert np.all(np.diff(cdf) >= 0.0)
        assert 1 <= head <= cdf.size and cdf.size < 128
        assert not cdf.flags.writeable

    def test_one_photon_source_puts_the_photon_in_the_whole_pulse(self):
        p_live, table = _one_photon_source(1.0, 1.0)
        assert p_live == 1.0
        assert np.all(_inverse_cdf(FIXED_UNIFORMS, table) == 1)

    def test_top_of_domain_histogram_is_poissonian(self):
        cfg = make_config(None, mu=20.0, eta=1.0, n_pulses=400_000, seed=11)
        hist = np.array(run_session(cfg).bob_count_hist, dtype=float)
        expected = scistats.poisson.pmf(np.arange(hist.size), 20.0)
        expected[-1] = scistats.poisson.sf(hist.size - 2, 20.0)
        expected *= cfg.n_pulses
        # Pool the sparse bins at both ends so every cell expects at least 5.
        lo, hi = np.flatnonzero(expected >= 5)[[0, -1]]
        observed = np.r_[hist[: lo + 1].sum(), hist[lo + 1 : hi], hist[hi:].sum()]
        pooled = np.r_[expected[: lo + 1].sum(), expected[lo + 1 : hi], expected[hi:].sum()]
        assert scistats.chisquare(observed, pooled).pvalue > 0.001


def live_cdf(mean: float, share: float) -> np.ndarray:
    """P(K <= j | the pulse holds a photon), j = 0..99, from scipy.stats.poisson.

    K counts the photons in ``share`` of a Poisson(``mean``) pulse.  K > j >= 0
    implies that the pulse holds a photon, so the conditional survival is
    P(K > j) / P(N > 0).
    """
    return 1.0 - scistats.poisson.sf(np.arange(100), mean * share) / scistats.poisson.sf(0, mean)


class TestLiveTables:
    @pytest.mark.parametrize("share", [1.0, 0.9, 0.5, 0.1])
    @pytest.mark.parametrize("mean", [1e-3, 0.1, 0.9, 1.0, 5.0, 20.0])
    def test_inverse_cdf_matches_scipy(self, mean, share):
        # share = 1 is the zero-truncated law, the others the given-live laws.
        ref = live_cdf(mean, share)
        # A uniform within rounding of a boundary of the reference may fall
        # either side of it; every other uniform must get the same count.  A
        # boundary at 0 is exact, and the two uniforms next to 1 always sit
        # within rounding of the reference's last boundary, 1.
        near = (ref > 0.0) & (np.abs(FIXED_UNIFORMS[:, None] - ref) <= 1e-14)
        u = FIXED_UNIFORMS[~near.any(axis=1)]
        assert u.size >= FIXED_UNIFORMS.size - 3
        counts = _inverse_cdf(u, _live_table(mean, share))
        assert np.array_equal(counts, np.searchsorted(ref, u, side="right"))

    @pytest.mark.parametrize("mean, share", [(0.0, 0.3), (5e-324, 0.5), (20.0, 0.0), (1.0, 1.0)])
    def test_table_runs_to_one_at_the_edges(self, mean, share):
        cdf, head = _live_table(mean, share)
        assert cdf[-1] == 1.0 and np.all(np.diff(cdf) >= 0.0)
        assert 1 <= head <= cdf.size and not cdf.flags.writeable
        if share == 1.0:
            assert cdf[0] == 0.0  # a live pulse holds a photon
        elif mean * share == 0.0 < share:
            # One photon, in the share with probability share.
            assert np.allclose(cdf, [1.0 - share, 1.0], rtol=1e-15)


class TestDimRegime:
    """mu = 0.1, eta = t = 0.5: 95% of the pulses are dead and never drawn."""

    MU, ETA = 0.1, 0.5
    N, SHARDS = 1 << 20, 128

    def run(self, attack):
        cfg = make_config(attack, mu=self.MU, eta=self.ETA, n_pulses=self.N, seed=20261018)
        return cfg, run_sharded(cfg, self.SHARDS)

    def assert_poissonian(self, hist, mean):
        k_max = 3  # expects about 21 pulses of 3 photons or more
        observed = np.r_[hist[:k_max], sum(hist[k_max:])]
        expected = scistats.poisson.pmf(np.arange(k_max), mean)
        expected = np.r_[expected, scistats.poisson.sf(k_max - 1, mean)] * self.N
        assert scistats.chisquare(observed, expected).pvalue > 0.001

    def test_receiver_histogram_is_poissonian(self):
        _, stats = self.run(None)
        self.assert_poissonian(stats.bob_count_hist, self.MU * self.ETA)

    def test_splitter_scenarios_match_routing_probabilities(self):
        cfg, stats = self.run(BsOptimal(t=self.ETA, d=0.1))
        self.assert_poissonian(stats.bob_count_hist, self.MU * self.ETA)
        expected = scenario_expectations(cfg)
        keys = list(expected)
        observed = [stats.scenario_counts[key] for key in keys]
        assert sum(observed) == self.N
        pvalue = scistats.chisquare(observed, [expected[key] * self.N for key in keys]).pvalue
        assert pvalue > 0.001


class TestQuietLine:
    def test_no_attack_is_error_free(self):
        stats = run_session(make_config(None, mu=0.1, eta=1.0, n_pulses=1_000_000))
        assert stats.qber == 0.0
        assert stats.eve_accuracy == 0.5
        assert_within_3_sigma(
            stats.nonempty_rate, -math.expm1(-0.1), stats.nonempty_stderr
        )

    def test_sift_rate_is_half_of_detections(self):
        stats = run_session(make_config(None, mu=0.5, eta=0.8))
        sigma = math.sqrt(0.25 / stats.nonempty_count)
        assert abs(stats.sifted_count / stats.nonempty_count - 0.5) < 3 * sigma

    def test_lossy_line_statistics(self):
        cfg = make_config(None, mu=1.0, eta=0.9)
        stats = run_session(cfg)
        expected = analytic_expectations(cfg)
        assert_within_3_sigma(
            stats.nonempty_rate, expected["nonempty_rate"], stats.nonempty_stderr
        )
        assert_within_3_sigma(
            stats.coincidence_rate, expected["coincidence_rate"], stats.coincidence_stderr
        )


class TestDeterminism:
    def test_sharded_runs_are_reproducible(self):
        cfg = make_config(BsOptimal(t=0.9, d=0.1), n_pulses=100_000)
        assert run_sharded(cfg, 8) == run_sharded(cfg, 8)

    def test_single_shard_equals_plain_session(self):
        cfg = make_config(Pns(kappa=0.1, d=0.05), n_pulses=100_000)
        assert run_sharded(cfg, 1) == run_session(cfg)

    def test_shard_streams_are_independent(self):
        a = shard_rng(7, 0).random(4)
        b = shard_rng(7, 1).random(4)
        assert not np.allclose(a, b)

    def test_sharded_and_unsharded_agree_statistically(self):
        cfg = make_config(BsOptimal(t=0.9, d=0.1), n_pulses=400_000)
        expected = analytic_expectations(cfg)
        for stats in (run_sharded(cfg, 8), run_session(cfg)):
            assert_within_3_sigma(stats.qber, expected["qber"], stats.qber_stderr)

    def test_pulse_partition_covers_everything(self):
        cfg = make_config(None, n_pulses=100_001)
        stats = run_sharded(cfg, 7)
        assert stats.n_pulses == 100_001

    def test_every_shard_holds_a_pulse(self):
        cfg = make_config(None, n_pulses=4)
        assert run_sharded(cfg, 4).n_pulses == 4
        with pytest.raises(ValueError, match="n_shards must be in"):
            run_sharded(cfg, 5)


class TestInterceptResendSessions:
    def test_full_interception_quarter_errors(self):
        cfg = make_config(InterceptResend(eps=1.0), mu=0.5, eta=1.0)
        stats = run_session(cfg)
        assert_within_3_sigma(stats.qber, 0.25, stats.qber_stderr)
        assert_within_3_sigma(
            stats.eve_accuracy, (2 + math.sqrt(2)) / 4, stats.eve_accuracy_stderr
        )

    def test_partial_interception_on_lossy_line(self):
        cfg = make_config(InterceptResend(eps=0.6), mu=0.8, eta=0.7, n_pulses=600_000)
        stats = run_session(cfg)
        expected = analytic_expectations(cfg)
        assert_within_3_sigma(stats.qber, expected["qber"], stats.qber_stderr)
        assert_within_3_sigma(
            stats.eve_accuracy, expected["eve_accuracy"], stats.eve_accuracy_stderr
        )
        assert_within_3_sigma(
            stats.nonempty_rate, expected["nonempty_rate"], stats.nonempty_stderr
        )
        assert_within_3_sigma(
            stats.coincidence_rate, expected["coincidence_rate"], stats.coincidence_stderr
        )


class TestProbeSessions:
    def test_source_side_probe_attack(self):
        cfg = make_config(OptimalIncoherent(d=0.2), mu=0.6, eta=0.85)
        stats = run_session(cfg)
        expected = analytic_expectations(cfg)
        assert_within_3_sigma(stats.qber, 0.2, stats.qber_stderr)
        assert_within_3_sigma(
            stats.eve_accuracy, expected["eve_accuracy"], stats.eve_accuracy_stderr
        )


class TestSplitterSessions:
    def test_bs_optimal_matches_prediction(self):
        cfg = make_config(BsOptimal(t=0.9, d=0.1), n_pulses=1_000_000)
        stats = run_session(cfg)
        expected = analytic_expectations(cfg)
        assert_within_3_sigma(stats.qber, expected["qber"], stats.qber_stderr)
        assert_within_3_sigma(
            stats.eve_accuracy, expected["eve_accuracy"], stats.eve_accuracy_stderr
        )

    def test_bs_intercept_resend_matches_prediction(self):
        cfg = make_config(BsInterceptResend(t=0.8, d=0.2), mu=1.2, n_pulses=1_000_000)
        stats = run_session(cfg)
        expected = analytic_expectations(cfg)
        assert_within_3_sigma(stats.qber, expected["qber"], stats.qber_stderr)
        assert_within_3_sigma(
            stats.eve_accuracy, expected["eve_accuracy"], stats.eve_accuracy_stderr
        )

    def test_scenario_counts_match_routing_probabilities(self):
        cfg = make_config(BsOptimal(t=0.5, d=0.0), n_pulses=1_000_000)
        stats = run_session(cfg)
        expected = scenario_expectations(cfg)
        assert stats.scenario_counts is not None
        assert sum(stats.scenario_counts.values()) == cfg.n_pulses
        for key, p in expected.items():
            observed = stats.scenario_counts[key] / cfg.n_pulses
            sigma = math.sqrt(p * (1 - p) / cfg.n_pulses)
            assert abs(observed - p) < 3 * sigma

    def test_matched_tap_keeps_poissonian_counts(self):
        # With t = eta, the receiver's photon histogram must stay Poissonian
        # with mean eta mu, for both splitter hybrids.
        for attack in (BsOptimal(t=0.9, d=0.1), BsInterceptResend(t=0.9, d=0.0)):
            cfg = make_config(attack, mu=1.0, eta=0.9, n_pulses=1_000_000)
            stats = run_session(cfg)
            k_max = 9
            observed = np.array(stats.bob_count_hist[: k_max + 1], dtype=float)
            observed[k_max] += sum(stats.bob_count_hist[k_max + 1 :])
            expected = np.array([poisson_pmf(0.9, i) for i in range(k_max)])
            expected = np.append(expected, 1.0 - expected.sum()) * cfg.n_pulses
            assert scistats.chisquare(observed, expected).pvalue > 0.001

    def test_majority_vote_reads_tapped_pulses_better(self):
        base = dict(mu=3.0, n_pulses=400_000, seed=9)
        single = run_session(
            make_config(BsOptimal(t=0.5, d=0.0), **base)
        )
        # Majority only matters for the intercept-resend hybrid's tap readout.
        single_ir = run_session(make_config(BsInterceptResend(t=0.5, d=0.0), **base))
        majority_ir = run_session(
            make_config(
                BsInterceptResend(t=0.5, d=0.0),
                scenario_a_rule="majority",
                **base,
            )
        )
        gap = majority_ir.eve_accuracy - single_ir.eve_accuracy
        assert gap > 3 * majority_ir.eve_accuracy_stderr
        # and the probe hybrid reads the tap perfectly regardless
        assert single.eve_accuracy > majority_ir.eve_accuracy


class TestCompleteExpectations:
    def test_majority_accuracy_matches_series(self):
        for mu, t, d in ((3.0, 0.5, 0.1), (1.0, 0.9, 0.0), (0.4, 0.2, 0.25)):
            cfg = make_config(BsInterceptResend(t=t, d=d), mu=mu, scenario_a_rule="majority")
            assert abs(
                analytic_expectations(cfg)["eve_accuracy"]
                - series_bs_ir_majority_accuracy(mu, t, d)
            ) < 1e-12
        cfg = make_config(BsInterceptResend(t=0.5, d=0.1), mu=3.0, scenario_a_rule="majority")
        assert analytic_expectations(cfg)["eve_accuracy"] == pytest.approx(0.82374, abs=1e-5)

    def test_bs_ir_coincidence_matches_series(self):
        for mu, t, d in ((3.0, 0.5, 0.1), (1.0, 0.9, 0.25), (0.4, 0.2, 0.0)):
            cfg = make_config(BsInterceptResend(t=t, d=d), mu=mu)
            assert abs(
                analytic_expectations(cfg)["coincidence_rate"]
                - series_bs_ir_coincidence(mu, t, d)
            ) < 1e-12

    def test_pns_coincidence_matches_series(self):
        for mu in (0.05, 0.5, 1.0, 3.0, 10.0, 20.0):
            cfg = make_config(Pns(kappa=0.1, d=0.05), mu=mu)
            assert abs(
                analytic_expectations(cfg)["coincidence_rate"] - series_pns_coincidence(mu)
            ) < 1e-14

    def test_every_rate_has_a_value(self):
        for attack in (
            None, InterceptResend(eps=0.5), OptimalIncoherent(d=0.1),
            BsInterceptResend(t=0.9, d=0.1), BsOptimal(t=0.9, d=0.1), Pns(kappa=0.1, d=0.05),
        ):
            for rule in ("single_result", "majority"):
                values = analytic_expectations(make_config(attack, scenario_a_rule=rule))
                assert all(v is not None for v in values.values()), (attack, rule)

    def test_majority_session_matches(self):
        cfg = make_config(
            BsInterceptResend(t=0.5, d=0.1), mu=3.0, scenario_a_rule="majority", seed=9
        )
        stats = run_session(cfg)
        expected = analytic_expectations(cfg)
        assert_within_3_sigma(
            stats.eve_accuracy, expected["eve_accuracy"], stats.eve_accuracy_stderr
        )

    def test_bs_ir_coincidence_session_matches(self):
        cfg = make_config(BsInterceptResend(t=0.8, d=0.25), mu=2.0, n_pulses=1_000_000)
        stats = run_session(cfg)
        expected = analytic_expectations(cfg)
        assert_within_3_sigma(
            stats.coincidence_rate, expected["coincidence_rate"], stats.coincidence_stderr
        )


class _TwoPhotonResend:
    """A generator whose resent photons survive twice: breaks the resend rule."""

    def __init__(self, rng):
        self._rng = rng

    def __getattr__(self, name):
        return getattr(self._rng, name)

    def binomial(self, n, p, size=None):
        if np.isscalar(n) and n == 1:
            return np.full(size, 2)
        return self._rng.binomial(n, p, size)


def test_resend_rule_is_checked_without_assert():
    cfg = make_config(InterceptResend(eps=1.0), n_pulses=1000)
    with pytest.raises(RuntimeError, match="more than one photon"):
        _simulate_batch(cfg, _TwoPhotonResend(shard_rng(1, 0)), 1000)


class TestPnsSessions:
    def test_total_break_is_exact(self):
        cfg = make_config(Pns(kappa=1.0, d=0.3), n_pulses=300_000)
        stats = run_session(cfg)
        assert stats.qber == 0.0
        assert stats.eve_accuracy == 1.0

    def test_calibrated_blocking_mimics_the_lossy_line(self):
        kappa = kappa_for_channel(1.0, 0.9).kappa
        cfg = make_config(Pns(kappa=kappa, d=0.0), n_pulses=1_000_000)
        stats = run_session(cfg)
        expected = analytic_expectations(cfg)
        assert stats.qber == 0.0
        assert_within_3_sigma(
            stats.nonempty_rate, -math.expm1(-0.9), stats.nonempty_stderr
        )
        assert_within_3_sigma(
            stats.eve_accuracy, expected["eve_accuracy"], stats.eve_accuracy_stderr
        )

    def test_coincidence_deficit_signature(self):
        kappa = kappa_for_channel(1.0, 0.9).kappa
        cfg = make_config(Pns(kappa=kappa, d=0.0), n_pulses=1_000_000)
        stats = run_session(cfg)
        expected = analytic_expectations(cfg)
        assert_within_3_sigma(
            stats.coincidence_rate, expected["coincidence_rate"], stats.coincidence_stderr
        )
        no_attack = coincidence_prob(0.9, 1.0)
        assert stats.coincidence_rate < no_attack - 5 * stats.coincidence_stderr

    def test_probed_singles_carry_all_errors(self):
        cfg = make_config(Pns(kappa=0.2, d=0.15), mu=0.8, n_pulses=600_000)
        stats = run_session(cfg)
        expected = analytic_expectations(cfg)
        assert_within_3_sigma(stats.qber, expected["qber"], stats.qber_stderr)
        assert_within_3_sigma(
            stats.eve_accuracy, expected["eve_accuracy"], stats.eve_accuracy_stderr
        )


class TestConfigValidation:
    def test_rejects_bad_values(self):
        optics = OpticalConfig(mu=1.0)
        with pytest.raises(ValueError):
            SessionConfig(optics=optics, attack=None, n_pulses=0, seed=1)
        with pytest.raises(ValueError):
            SessionConfig(optics=optics, attack=None, n_pulses=10, seed=-1)
        with pytest.raises(ValueError):
            SessionConfig(
                optics=optics, attack=None, n_pulses=10, seed=1, scenario_a_rule="best"
            )
        with pytest.raises(ValueError):
            run_sharded(
                SessionConfig(optics=optics, attack=None, n_pulses=10, seed=1), 0
            )

    def test_stats_serialization_is_json_friendly(self):
        import json

        stats = run_session(make_config(None, mu=0.2, n_pulses=1000))
        payload = stats.to_dict()
        text = json.dumps(payload)
        assert json.loads(text)["n_pulses"] == 1000
