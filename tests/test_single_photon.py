import math

import numpy as np
import pytest

from bb84eve.engine import simulate_ir_attack, simulate_opt_attack
from bb84eve.pulse_attacks import InterceptResend
from bb84eve.single_photon import (
    IR_MAX_GUESS_PROB,
    construct_probe_vectors,
    basis_symmetry_deviation,
    helstrom,
    ir_guess_given_disturbance,
    opt_guess_prob,
    probe_model_from_disturbance,
    verify_unitarity,
)

SQRT2 = math.sqrt(2.0)


def ir_forms(eps: float) -> tuple[float, float]:
    """Intercept-resend's guess probability and disturbance on single photons:
    its pulse forms on a lossless line, where every detected pulse is one that
    the eavesdropper measured with probability ``eps``, whatever ``mu``."""
    e = InterceptResend(eps=eps).expectations(1.0, 1.0, "single_result")
    return e["eve_accuracy"], e["qber"]


class TestInterceptResendForms:
    def test_full_strength(self):
        assert ir_forms(1.0) == pytest.approx(((2 + SQRT2) / 4, 0.25), abs=1e-15)

    def test_no_attack(self):
        assert ir_forms(0.0) == (pytest.approx(0.5, abs=1e-15), 0.0)

    def test_intermediate_values(self):
        assert ir_forms(0.5)[0] == pytest.approx(0.6767766952966369, abs=1e-12)
        assert ir_forms(0.8)[1] == pytest.approx(0.2, abs=1e-15)

    def test_guess_given_disturbance(self):
        assert ir_guess_given_disturbance(0.25) == pytest.approx((2 + SQRT2) / 4, abs=1e-15)
        assert ir_guess_given_disturbance(0.0) == pytest.approx(0.5, abs=1e-15)
        assert ir_guess_given_disturbance(0.1) == pytest.approx(0.6414213562373095, abs=1e-12)

    def test_range_errors(self):
        with pytest.raises(ValueError):
            InterceptResend(eps=1.2)
        with pytest.raises(ValueError):
            InterceptResend(eps=-0.1)
        with pytest.raises(ValueError):
            ir_guess_given_disturbance(0.3)

    def test_consistency_of_the_three_forms(self):
        for eps in np.linspace(0.0, 1.0, 21):
            guess, d = ir_forms(eps)
            assert abs(guess - ir_guess_given_disturbance(d)) < 1e-12


class TestHelstrom:
    def test_extremes(self):
        assert helstrom(0.0) == pytest.approx(1.0, abs=1e-15)
        assert helstrom(1.0) == pytest.approx(0.5, abs=1e-15)

    def test_value(self):
        assert helstrom(0.8) == pytest.approx(0.8, abs=1e-15)

    def test_range(self):
        for overlap in (1.1, math.nan):
            with pytest.raises(ValueError):
                helstrom(overlap)


class TestProbeModel:
    def test_extremes(self):
        identity = probe_model_from_disturbance(0.0)
        assert (identity.fidelity, identity.disturbance) == (1.0, 0.0)
        assert identity.fidelity_overlap == pytest.approx(1.0, abs=1e-15)
        assert identity.disturbance_overlap == pytest.approx(0.0, abs=1e-15)

        randomizing = probe_model_from_disturbance(0.5)
        assert randomizing.fidelity == pytest.approx(0.5, abs=1e-15)
        assert randomizing.fidelity_overlap == pytest.approx(0.0, abs=1e-15)
        assert randomizing.disturbance_overlap == pytest.approx(0.0, abs=1e-15)

    def test_example_point(self):
        m = probe_model_from_disturbance(0.1)
        assert m.fidelity == pytest.approx(0.9, abs=1e-12)
        assert m.fidelity_overlap == pytest.approx(0.72, abs=1e-12)
        assert m.disturbance_overlap == pytest.approx(0.08, abs=1e-12)
        assert m.fidelity_overlap / m.fidelity == pytest.approx(0.8, abs=1e-12)
        assert m.disturbance_overlap / m.disturbance == pytest.approx(0.8, abs=1e-12)

    def test_constraints_on_grid(self):
        for d in np.linspace(0.0, 0.5, 201):
            m = probe_model_from_disturbance(float(d))
            assert abs(m.fidelity + m.disturbance - 1.0) < 1e-12
            assert abs(
                (m.fidelity - m.disturbance)
                - (m.fidelity_overlap + m.disturbance_overlap)
            ) < 1e-12
            assert abs(
                m.fidelity_overlap * m.disturbance
                - m.disturbance_overlap * m.fidelity
            ) < 1e-12

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            probe_model_from_disturbance(0.6)


class TestOptimalGuessProb:
    def test_extremes(self):
        assert opt_guess_prob(0.5) == pytest.approx(1.0, abs=1e-15)
        assert opt_guess_prob(0.0) == pytest.approx(0.5, abs=1e-15)

    def test_matches_intercept_resend_maximum(self):
        assert opt_guess_prob((2 - SQRT2) / 4) == pytest.approx(
            IR_MAX_GUESS_PROB, abs=1e-12
        )

    def test_equals_weighted_helstrom_assembly(self):
        for d in np.linspace(1e-6, 0.5, 100):
            m = probe_model_from_disturbance(float(d))
            assembled = m.fidelity * helstrom(m.fidelity_overlap / m.fidelity)
            assembled += m.disturbance * helstrom(
                m.disturbance_overlap / m.disturbance
            )
            assert abs(opt_guess_prob(float(d)) - assembled) < 1e-12

    def test_dominates_intercept_resend(self):
        for d in np.linspace(0.0, 0.5, 1000):
            d = float(d)
            assert opt_guess_prob(d) >= ir_guess_given_disturbance(min(d, 0.25)) - 1e-15

    def test_range(self):
        with pytest.raises(ValueError):
            opt_guess_prob(0.51)


class TestProbeVectors:
    def test_fully_randomizing_probes_are_orthogonal(self):
        vecs = construct_probe_vectors(probe_model_from_disturbance(0.5))
        assert abs(float(vecs.xx @ vecs.yy)) < 1e-12
        assert abs(float(vecs.xy @ vecs.yx)) < 1e-12

    def test_example_overlaps(self):
        vecs = construct_probe_vectors(probe_model_from_disturbance(0.1))
        assert float(vecs.xx @ vecs.yy) == pytest.approx(0.8, abs=1e-12)
        assert float(vecs.xy @ vecs.yx) == pytest.approx(0.8, abs=1e-12)

    def test_gram_matrix_reproduces_all_pairwise_overlaps(self):
        for d in np.linspace(0.01, 0.5, 50):
            m = probe_model_from_disturbance(float(d))
            v = construct_probe_vectors(m)
            keep = m.fidelity_overlap / m.fidelity
            flip = m.disturbance_overlap / m.disturbance
            expected = {
                (0, 0): 1.0, (1, 1): 1.0, (2, 2): 1.0, (3, 3): 1.0,
                (0, 3): keep, (1, 2): flip,
                (0, 1): 0.0, (0, 2): 0.0, (1, 3): 0.0, (2, 3): 0.0,
            }
            ordered = (v.xx, v.xy, v.yx, v.yy)
            for (i, j), target in expected.items():
                assert abs(float(ordered[i] @ ordered[j]) - target) < 1e-12


class TestUnitarity:
    def test_identity_attack(self):
        report = verify_unitarity(probe_model_from_disturbance(0.0))
        assert report.max_deviation < 1e-14

    def test_quarter_disturbance(self):
        assert verify_unitarity(probe_model_from_disturbance(0.25)).max_deviation < 1e-12

    def test_hundred_random_disturbances(self):
        rng = np.random.default_rng(7)
        worst = max(
            verify_unitarity(probe_model_from_disturbance(float(d))).max_deviation
            for d in rng.uniform(0.0, 0.5, 100)
        )
        assert worst < 1e-12

    def test_input_gram_has_conjugate_overlaps(self):
        report = verify_unitarity(probe_model_from_disturbance(0.3))
        g = report.input_gram
        assert g[0, 1] == pytest.approx(0.0, abs=1e-15)          # <x|y>
        assert g[0, 2] == pytest.approx(1 / SQRT2, abs=1e-15)    # <x|u>
        assert g[1, 3] == pytest.approx(-1 / SQRT2, abs=1e-15)   # <y|v>

    def test_basis_change_symmetry(self):
        rng = np.random.default_rng(13)
        for d in rng.uniform(0.0, 0.5, 20):
            assert basis_symmetry_deviation(probe_model_from_disturbance(float(d))) < 1e-12


class TestSimulators:
    def test_ir_full_strength(self):
        rng = np.random.default_rng(101)
        sample = simulate_ir_attack(1.0, 1_000_000, rng)
        assert abs(sample.disturbance - 0.25) < 3 * sample.disturbance_stderr
        assert abs(sample.guess_rate - (2 + SQRT2) / 4) < 3 * sample.guess_stderr

    def test_ir_no_attack_has_zero_disturbance(self):
        rng = np.random.default_rng(102)
        sample = simulate_ir_attack(0.0, 200_000, rng)
        assert sample.disturbance == 0.0

    def test_opt_fully_randomizing(self):
        rng = np.random.default_rng(103)
        sample = simulate_opt_attack(0.5, 1_000_000, rng)
        assert sample.guess_rate == 1.0
        assert abs(sample.disturbance - 0.5) < 3 * sample.disturbance_stderr

    def test_opt_no_disturbance(self):
        rng = np.random.default_rng(104)
        sample = simulate_opt_attack(0.0, 200_000, rng)
        assert sample.disturbance == 0.0
        assert abs(sample.guess_rate - 0.5) < 3 * sample.guess_stderr

    def test_opt_example_point(self):
        rng = np.random.default_rng(105)
        sample = simulate_opt_attack(0.1, 1_000_000, rng)
        assert abs(sample.guess_rate - 0.8) < 3 * sample.guess_stderr

    def test_mc_matches_closed_forms_across_parameters(self):
        # Statistical acceptance: at least 9 of 10 (strategy, parameter)
        # pairs within 3 binomial sigma of the analytic values.
        rng = np.random.default_rng(106)
        cases = []
        for eps in (0.2, 0.4, 0.6, 0.8, 1.0):
            sample = simulate_ir_attack(eps, 1_000_000, rng)
            guess, d = ir_forms(eps)
            cases.append((sample.guess_rate, guess, sample.guess_stderr))
            cases.append((sample.disturbance, d, sample.disturbance_stderr))
        for d in (0.05, 0.15, 0.25, 0.35, 0.45):
            sample = simulate_opt_attack(d, 1_000_000, rng)
            cases.append((sample.guess_rate, opt_guess_prob(d), sample.guess_stderr))
            cases.append((sample.disturbance, d, sample.disturbance_stderr))
        hits = sum(abs(emp - ana) < 3 * se for emp, ana, se in cases)
        assert hits >= len(cases) - 1

    def test_rejects_bad_arguments(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            simulate_ir_attack(1.5, 10, rng)
        with pytest.raises(ValueError):
            simulate_opt_attack(0.1, 0, rng)
