import math

import numpy as np
import pytest

from bb84eve.pulse_attacks import (
    ATTACKS,
    BsInterceptResend,
    BsOptimal,
    InterceptResend,
    OptimalIncoherent,
    Pns,
    bs_ir_predict,
    bs_opt_predict,
    full_break_transmission,
    kappa_for_channel,
    pns_predict,
)
from bb84eve.pulse_optics import scenario_probs
from bb84eve.security import THRESHOLD_KINDS, eve_accuracy_at, threshold
from bb84eve.single_photon import (
    ir_guess_given_disturbance,
    opt_guess_prob,
)

SQRT2 = math.sqrt(2.0)


def assembled_bs_ir(mu: float, t: float, d: float) -> float:
    """Independent route: weight the single-photon forms by routing outcomes."""
    probs = scenario_probs(mu, t)
    denom = 1.0 - probs.empty - probs.eve_only
    return (
        probs.both * ir_guess_given_disturbance(0.25)
        + probs.bob_only * ir_guess_given_disturbance(d)
    ) / denom


def assembled_bs_opt(mu: float, t: float, d: float) -> float:
    probs = scenario_probs(mu, t)
    denom = 1.0 - probs.empty - probs.eve_only
    return (probs.both * 1.0 + probs.bob_only * opt_guess_prob(d)) / denom


def assembled_pns(mu: float, kappa: float, d: float) -> float:
    p0 = math.exp(-mu)
    p1 = mu * math.exp(-mu)
    p_multi = 1.0 - math.exp(-mu) * (1.0 + mu)
    denom = 1.0 - p0 - kappa * p1
    return (p_multi + (1.0 - kappa) * p1 * opt_guess_prob(d)) / denom


class TestBsInterceptResend:
    def test_single_photon_limit(self):
        pred = bs_ir_predict(1e-12, 0.37, 0.13)
        assert pred.guess_prob == pytest.approx(ir_guess_given_disturbance(0.13), abs=1e-9)
        assert pred.d_ab == pytest.approx(0.13, abs=1e-9)

    def test_transparent_splitter_matches_assembly(self):
        for d in (0.0, 0.1, 0.25):
            pred = bs_ir_predict(1.0, 1.0, d)
            assert abs(pred.guess_prob - assembled_bs_ir(1.0, 1.0, d)) < 1e-12

    def test_example_point(self):
        pred = bs_ir_predict(1.0, 0.9, 0.25)
        assert pred.guess_prob == pytest.approx(0.8535533905932737, abs=1e-12)
        assert pred.d_ab == pytest.approx(0.2262093545089899, abs=1e-12)

    def test_lossless_line_gives_exactly_one_half(self):
        # No tap and no attack: the eavesdropper can only toss a coin.
        for mu in (0.1, 0.5, 1.0, 3.0, 20.0):
            assert eve_accuracy_at("bs_ir", 0.0, mu, eta=1.0) == 0.5
            assert bs_ir_predict(mu, 1.0, 0.0).guess_prob == 0.5

    def test_range_errors(self):
        with pytest.raises(ValueError):
            bs_ir_predict(1.0, 0.9, 0.3)
        with pytest.raises(ValueError):
            bs_ir_predict(-1.0, 0.9, 0.1)


class TestBsOptimal:
    def test_fully_randomizing_gives_certainty(self):
        for mu, t in ((0.3, 0.2), (1.0, 0.9), (3.0, 0.5)):
            assert bs_opt_predict(mu, t, 0.5).guess_prob == pytest.approx(1.0, abs=1e-12)

    def test_example_point(self):
        pred = bs_opt_predict(1.0, 0.9, 0.0)
        assert pred.guess_prob == pytest.approx(0.5475812909820201, abs=1e-12)
        assert pred.d_ab == 0.0

    def test_single_photon_limit(self):
        pred = bs_opt_predict(1e-12, 0.6, 0.2)
        assert pred.guess_prob == pytest.approx(opt_guess_prob(0.2), abs=1e-9)


class TestAssembledIdentities:
    def test_closed_forms_match_routing_assembly_on_grid(self):
        mus = np.linspace(0.1, 3.0, 20)
        ts = np.linspace(0.05, 1.0, 20)
        ds = np.linspace(0.0, 0.25, 20)
        for mu in mus:
            for t in ts:
                for d in ds:
                    mu_f, t_f, d_f = float(mu), float(t), float(d)
                    assert abs(
                        bs_ir_predict(mu_f, t_f, d_f).guess_prob
                        - assembled_bs_ir(mu_f, t_f, d_f)
                    ) < 1e-12
                    assert abs(
                        bs_opt_predict(mu_f, t_f, 2 * d_f).guess_prob
                        - assembled_bs_opt(mu_f, t_f, 2 * d_f)
                    ) < 1e-12

    def test_monotonicity_in_attack_strength(self):
        for mu, t in ((0.5, 0.3), (1.0, 0.9), (2.0, 0.7)):
            ir_curve = [bs_ir_predict(mu, t, float(d)) for d in np.linspace(0, 0.25, 50)]
            opt_curve = [bs_opt_predict(mu, t, float(d)) for d in np.linspace(0, 0.5, 50)]
            for seq in (ir_curve, opt_curve):
                guesses = [p.guess_prob for p in seq]
                dabs = [p.d_ab for p in seq]
                assert all(b >= a - 1e-15 for a, b in zip(guesses, guesses[1:]))
                assert all(b > a for a, b in zip(dabs, dabs[1:]))

    def test_probe_hybrid_dominates_intercept_hybrid(self):
        # Same (mu, t, d <= 1/4) implies the same observed error rate, so the
        # comparison is at equal footing.
        for mu in np.linspace(0.1, 3.0, 10):
            for t in np.linspace(0.1, 1.0, 10):
                for d in np.linspace(0.0, 0.25, 10):
                    a = bs_ir_predict(float(mu), float(t), float(d))
                    b = bs_opt_predict(float(mu), float(t), float(d))
                    assert abs(a.d_ab - b.d_ab) < 1e-15
                    assert b.guess_prob >= a.guess_prob - 1e-15


class TestPns:
    def test_block_everything_is_a_clean_break(self):
        pred = pns_predict(1.0, 1.0, 0.3)
        assert pred.guess_prob == pytest.approx(1.0, abs=1e-12)
        assert pred.d_ab == 0.0

    def test_single_photon_limit(self):
        pred = pns_predict(1e-6, 0.0, 0.2)
        assert pred.guess_prob == pytest.approx(opt_guess_prob(0.2), abs=1e-6)

    def test_example_point_and_component_form(self):
        kappa = kappa_for_channel(1.0, 0.9).kappa
        pred = pns_predict(1.0, kappa, 0.1)
        assert pred.guess_prob == pytest.approx(0.8890554795501726, abs=1e-12)
        assert pred.d_ab == pytest.approx(0.05547226022491369, abs=1e-12)
        assert abs(pred.guess_prob - assembled_pns(1.0, kappa, 0.1)) < 1e-12

    def test_component_form_on_grid(self):
        for mu in np.linspace(0.1, 3.0, 20):
            for kappa in np.linspace(0.0, 1.0, 20):
                for d in np.linspace(0.0, 0.5, 20):
                    closed = pns_predict(float(mu), float(kappa), float(d)).guess_prob
                    assert abs(closed - assembled_pns(float(mu), float(kappa), float(d))) < 1e-12

    def test_empty_source_rejected(self):
        with pytest.raises(ValueError):
            pns_predict(0.0, 0.5, 0.1)


class TestKappaCalibration:
    def test_lossless_channel_needs_no_blocking(self):
        cal = kappa_for_channel(1.0, 1.0)
        assert cal.kappa == 0.0
        assert not cal.break_possible

    def test_example_value(self):
        cal = kappa_for_channel(1.0, 0.9)
        assert cal.kappa == pytest.approx(math.expm1(0.1), abs=1e-12)
        assert not cal.break_possible

    def test_calibration_identity(self):
        # The kept single-photon pulses plus multi-photon pulses reproduce
        # the non-empty rate of the original lossy line.
        for mu in (0.2, 1.0, 2.0):
            for eta in (0.8, 0.9, 1.0):
                kappa = kappa_for_channel(mu, eta).kappa
                p1 = mu * math.exp(-mu)
                p_multi = 1.0 - math.exp(-mu) * (1.0 + mu)
                assert abs(
                    (1.0 - kappa) * p1 + p_multi - (1.0 - math.exp(-eta * mu))
                ) < 1e-12

    def test_mean_above_the_cap_is_rejected(self):
        for call in (
            lambda: kappa_for_channel(1000.0, 0.1),
            lambda: kappa_for_channel(20.5, 0.9),
            lambda: full_break_transmission(50.0),
            lambda: bs_ir_predict(50.0, 0.9, 0.1),
            lambda: bs_opt_predict(50.0, 0.9, 0.1),
            lambda: pns_predict(50.0, 0.1, 0.1),
        ):
            with pytest.raises(ValueError, match=r"mu must be finite and in .*20\]"):
                call()
        assert kappa_for_channel(20.0, 0.0).break_possible

    def test_raw_value_and_flag_in_break_region(self):
        cal = kappa_for_channel(1.0, 0.2)
        assert cal.kappa > 1.0
        assert cal.break_possible

    def test_range_errors(self):
        with pytest.raises(ValueError):
            kappa_for_channel(0.0, 0.9)
        with pytest.raises(ValueError):
            kappa_for_channel(1.0, 1.2)


class TestFullBreakTransmission:
    def test_value_at_unit_mean(self):
        assert full_break_transmission(1.0) == pytest.approx(
            1.0 - math.log(2.0), abs=1e-12
        )

    def test_small_mean_expansion(self):
        # ln(1+mu) ~ mu - mu^2/2, so the break point approaches mu/2.
        mu = 1e-8
        assert full_break_transmission(mu) == pytest.approx(mu / 2, rel=1e-6)

    def test_definitional_identity(self):
        for mu in (0.1, 0.5, 1.0, 2.0, 5.0):
            eta_star = full_break_transmission(mu)
            assert abs(kappa_for_channel(mu, eta_star).kappa - 1.0) < 1e-9

    def test_break_flag_below_the_curve(self):
        for mu in (0.2, 1.0, 3.0):
            eta_star = full_break_transmission(mu)
            for eta in np.linspace(0.0, eta_star * 0.999, 10):
                assert kappa_for_channel(mu, float(eta)).break_possible

    def test_rejects_empty_source(self):
        with pytest.raises(ValueError):
            full_break_transmission(0.0)


class TestStrategyValidation:
    def test_parameter_ranges(self):
        with pytest.raises(ValueError):
            InterceptResend(eps=1.5)
        with pytest.raises(ValueError):
            OptimalIncoherent(d=0.6)
        with pytest.raises(ValueError):
            BsInterceptResend(t=0.9, d=0.3)
        with pytest.raises(ValueError):
            BsOptimal(t=1.2, d=0.1)
        with pytest.raises(ValueError):
            Pns(kappa=-0.1, d=0.1)

    def test_accepts_boundaries(self):
        BsInterceptResend(t=1.0, d=0.25)
        BsOptimal(t=0.0, d=0.5)
        Pns(kappa=1.0, d=0.0)

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_rejects_non_finite_values(self, bad):
        for build in (
            lambda: InterceptResend(eps=bad),
            lambda: OptimalIncoherent(d=bad),
            lambda: BsInterceptResend(t=bad, d=0.1),
            lambda: BsOptimal(t=0.9, d=bad),
            lambda: Pns(kappa=bad, d=0.1),
            lambda: bs_ir_predict(bad, 0.9, 0.1),
            lambda: bs_opt_predict(bad, 0.9, 0.1),
            lambda: pns_predict(bad, 0.1, 0.1),
            lambda: kappa_for_channel(bad, 0.9),
            lambda: kappa_for_channel(1.0, bad),
            lambda: full_break_transmission(bad),
        ):
            with pytest.raises(ValueError, match="must be finite"):
                build()


class TestAttackTable:
    def test_names_are_listed_once(self):
        assert THRESHOLD_KINDS == tuple(ATTACKS) == ("ir", "opt", "bs_ir", "bs_opt", "pns")
        for name, cls in ATTACKS.items():
            assert cls.name == name

    def test_from_params_fills_only_a_missing_kappa(self):
        pns = ATTACKS["pns"].from_params({"kappa": None, "d": 0.05}, 1.0, 0.9)
        assert pns == Pns(kappa=kappa_for_channel(1.0, 0.9).kappa, d=0.05)
        assert ATTACKS["pns"].from_params({"kappa": None, "d": 0.0}, 1.0, 0.2).kappa == 1.0
        with pytest.raises(ValueError, match="requires t"):
            ATTACKS["bs_ir"].from_params({"t": None, "d": 0.1}, 1.0, 0.9)

    def test_curve_meets_threshold_on_the_linear_criterion(self):
        # d = 1 - p(d) at the closed-form threshold, for every attack.
        for kind, cls in ATTACKS.items():
            for mu, eta in ((0.3, 0.9), (1.0, 0.9), (2.0, 0.7)):
                thr = cls.threshold(mu, eta)
                if thr.break_possible:
                    assert cls.guess_at(0.0, mu, eta) == 1.0
                    continue
                assert thr == threshold(kind, mu, eta)
                p = cls.guess_at(thr.max_d_ab, mu, eta)
                assert abs(thr.max_d_ab - (1.0 - p)) < 1e-12
