import math

import numpy as np
import pytest

from bb84eve.states import (
    BREIDBART_ANGLE,
    BREIDBART_M0,
    BREIDBART_RESEND_BIT1,
    KET_U,
    KET_V,
    KET_X,
    KET_Y,
    SIGNAL_KETS,
    breidbart_basis,
    breidbart_guess_prob,
)

SQRT2 = math.sqrt(2.0)


def overlap_sq(a: np.ndarray, b: np.ndarray) -> float:
    return float(a @ b) ** 2


class TestEncoding:
    def test_bit_state_table(self):
        xy, uv = 0, 1
        assert np.allclose(SIGNAL_KETS[xy][0], [1.0, 0.0], atol=1e-15)
        assert np.allclose(SIGNAL_KETS[xy][1], [0.0, 1.0], atol=1e-15)
        assert np.allclose(SIGNAL_KETS[uv][1], [1 / SQRT2, 1 / SQRT2], atol=1e-15)
        assert np.allclose(SIGNAL_KETS[uv][0], [1 / SQRT2, -1 / SQRT2], atol=1e-15)

    def test_signals_are_normalized(self):
        for kets in SIGNAL_KETS:
            for state in kets:
                assert abs(float(state @ state) - 1.0) < 1e-12

    def test_receiver_reading_of_an_untouched_signal(self):
        # The engine's premise for untouched pulses: a same-basis reading
        # returns the signal's own bit and a wrong-basis one is a fair coin.
        for basis, kets in enumerate(SIGNAL_KETS):
            for bit, signal in enumerate(kets):
                for read_basis, read_kets in enumerate(SIGNAL_KETS):
                    p_bit1 = overlap_sq(read_kets[1], signal)
                    assert abs(overlap_sq(read_kets[0], signal) + p_bit1 - 1.0) < 1e-12
                    expected = float(bit) if read_basis == basis else 0.5
                    assert abs(p_bit1 - expected) < 1e-12

    def test_hadamard_maps_xy_to_uv(self):
        hadamard = np.array([[1.0, 1.0], [1.0, -1.0]]) / SQRT2
        assert np.max(np.abs(hadamard @ KET_X - KET_U)) < 1e-12
        assert np.max(np.abs(hadamard @ KET_Y - KET_V)) < 1e-12


class TestBreidbart:
    def test_optimal_angle_value(self):
        assert breidbart_guess_prob(math.pi / 8) == pytest.approx(
            (2.0 + SQRT2) / 4.0, abs=1e-15
        )

    def test_zero_angle(self):
        assert breidbart_guess_prob(0.0) == pytest.approx(0.75, abs=1e-15)

    def test_matches_projector_average(self):
        # Independent evaluation: average the four Born terms directly.
        rng = np.random.default_rng(11)
        for theta in rng.uniform(0.0, math.pi, 100):
            bb = breidbart_basis(theta)
            oracle = 0.25 * (
                overlap_sq(KET_X, bb.ket0)
                + overlap_sq(KET_V, bb.ket0)
                + overlap_sq(KET_Y, bb.ket1)
                + overlap_sq(KET_U, bb.ket1)
            )
            assert abs(breidbart_guess_prob(theta) - oracle) < 1e-12

    def test_grid_argmax_is_pi_over_8(self):
        grid = np.linspace(0.0, math.pi / 2, 100_000, endpoint=False)
        values = 0.5 + 0.25 * (np.cos(2 * grid) + np.sin(2 * grid))
        best = grid[np.argmax(values)]
        assert abs(best - math.pi / 8) <= grid[1] - grid[0]

    def test_basis_is_orthonormal(self):
        bb = breidbart_basis(BREIDBART_ANGLE)
        assert abs(float(bb.ket0 @ bb.ket1)) < 1e-12
        assert abs(float(bb.ket0 @ bb.ket0) - 1.0) < 1e-12
        assert abs(float(bb.ket1 @ bb.ket1) - 1.0) < 1e-12

    def test_outcome_tables(self):
        # Every signal gives its own bit's outcome with probability cos^2(pi/8).
        right = math.cos(math.pi / 8) ** 2
        for basis in (0, 1):
            assert BREIDBART_M0[basis, 0] == pytest.approx(right, abs=1e-15)
            assert BREIDBART_M0[basis, 1] == pytest.approx(1.0 - right, abs=1e-15)
        # A resent Breidbart state reads as its own bit in either basis.
        for basis in (0, 1):
            assert BREIDBART_RESEND_BIT1[basis, 1] == pytest.approx(right, abs=1e-15)
            assert BREIDBART_RESEND_BIT1[basis, 0] == pytest.approx(1.0 - right, abs=1e-15)
        assert not BREIDBART_M0.flags.writeable
