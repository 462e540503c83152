import math

import numpy as np
import pytest

from bb84eve import security
from bb84eve.security import (
    THRESHOLD_KINDS,
    crossing_point,
    eve_accuracy_at,
    feasible,
    i_ab,
    i_eve,
    info_curve_point,
    phi,
    threshold,
)

SQRT2 = math.sqrt(2.0)

IR_THRESHOLD = 1.0 / (2.0 * (1.0 + SQRT2))      # 0.20710678118654754
OPT_THRESHOLD = (2.0 - SQRT2) / 4.0             # 0.14644660940672624

CROSSING_GRID = [
    (kind, mu, eta)
    for kind in THRESHOLD_KINDS
    for mu in (0.05, 0.3, 1.0, 3.0, 10.0, 20.0)
    for eta in (0.0, 0.1, 0.5, 0.9, 1.0)
]


def reference_crossing(kind, mu, eta):
    """Bisection of the information gap for a fixed 200 steps, far past convergence."""

    def gap(d):
        return i_ab(d) - i_eve(eve_accuracy_at(kind, d, mu, eta))

    lo, hi = 1e-12, 0.5 - 1e-12
    if gap(lo) <= 0.0:
        return 0.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if gap(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


class TestPhi:
    def test_endpoints(self):
        assert phi(0.0) == 0.0
        assert phi(1.0) == pytest.approx(2.0, abs=1e-15)
        assert phi(-1.0) == pytest.approx(2.0, abs=1e-15)

    def test_value(self):
        assert phi(0.5) == pytest.approx(0.37744375108173434, abs=1e-12)

    def test_even_and_convex(self):
        grid = np.linspace(-1.0, 1.0, 201)
        values = [phi(float(z)) for z in grid]
        for z, v in zip(grid, values):
            assert abs(v - phi(float(-z))) < 1e-12
        # discrete second differences nonnegative on the uniform grid
        for a, b, c in zip(values, values[1:], values[2:]):
            assert a + c - 2 * b > -1e-9

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            phi(1.1)


class TestMutualInformation:
    def test_i_ab_endpoints(self):
        assert i_ab(0.0) == pytest.approx(1.0, abs=1e-15)
        assert i_ab(0.5) == pytest.approx(0.0, abs=1e-15)

    def test_i_ab_value(self):
        assert i_ab(0.25) == pytest.approx(0.18872187554086717, abs=1e-12)

    def test_i_ab_matches_direct_binary_channel_form(self):
        for d in np.linspace(1e-9, 0.5 - 1e-9, 100):
            d = float(d)
            direct = 1.0 + d * math.log2(d) + (1.0 - d) * math.log2(1.0 - d)
            assert abs(i_ab(d) - direct) < 1e-12

    def test_i_ab_plus_binary_entropy_is_one_bit(self):
        for d in np.linspace(1e-9, 0.5, 100):
            d = float(d)
            h2 = 0.0
            for w in (d, 1.0 - d):
                if w > 0:
                    h2 -= w * math.log2(w)
            assert abs(i_ab(d) + h2 - 1.0) < 1e-12

    def test_i_eve_endpoints(self):
        assert i_eve(0.5) == 0.0
        assert i_eve(1.0) == pytest.approx(1.0, abs=1e-15)

    def test_i_eve_value(self):
        assert i_eve((2.0 + SQRT2) / 4.0) == pytest.approx(
            0.3991239633071438, abs=1e-12
        )

    def test_range_errors(self):
        with pytest.raises(ValueError):
            i_ab(0.6)
        with pytest.raises(ValueError):
            i_eve(0.4)


class TestFeasibility:
    def test_error_free_key_is_distillable(self):
        assert feasible(0.0, 0.99)

    def test_single_photon_thresholds(self):
        for thr, kind in ((IR_THRESHOLD, "ir"), (OPT_THRESHOLD, "opt")):
            assert feasible(thr - 1e-9, eve_accuracy_at(kind, thr - 1e-9))
            assert not feasible(thr + 1e-9, eve_accuracy_at(kind, thr + 1e-9))

    def test_range_errors(self):
        with pytest.raises(ValueError):
            feasible(0.6, 0.9)


class TestInfoCurvePoint:
    def test_error_free_point(self):
        point = info_curve_point("opt", 0.0)
        assert point.i_ab_bits == pytest.approx(1.0, abs=1e-15)
        assert point.i_ae_bits == pytest.approx(0.0, abs=1e-15)
        assert point.feasible

    def test_feasibility_flips_at_the_threshold(self):
        thr = threshold("bs_opt", 1.0, 0.9).max_d_ab
        assert info_curve_point("bs_opt", thr - 1e-6, 1.0, 0.9).feasible
        assert not info_curve_point("bs_opt", thr + 1e-6, 1.0, 0.9).feasible

    def test_agrees_with_linear_criterion(self):
        for kind in THRESHOLD_KINDS:
            for d in np.linspace(0.001, 0.4, 25):
                point = info_curve_point(kind, float(d), 1.0, 0.9)
                p = eve_accuracy_at(kind, float(d), 1.0, 0.9)
                if abs(float(d) - (1.0 - p)) > 1e-9:  # away from the boundary
                    assert point.feasible == feasible(float(d), p)


class TestThresholds:
    def test_single_photon_values(self):
        assert threshold("ir").max_d_ab == pytest.approx(0.20710678118654754, abs=1e-12)
        assert threshold("opt").max_d_ab == pytest.approx(0.14644660940672624, abs=1e-12)

    def test_pulsed_values(self):
        assert threshold("bs_ir", 1.0, 0.9).max_d_ab == pytest.approx(
            0.19317054371552414, abs=1e-12
        )
        assert threshold("bs_opt", 1.0, 0.9).max_d_ab == pytest.approx(
            0.13251037193570284, abs=1e-12
        )
        assert threshold("pns", 1.0, 0.9).max_d_ab == pytest.approx(
            0.08123724426066208, abs=1e-12
        )

    def test_pns_break_region(self):
        res = threshold("pns", 1.0, 0.3)
        assert res.max_d_ab == 0.0
        assert res.break_possible

    def test_lossless_limit_recovers_single_photon(self):
        for mu in (0.3, 1.0, 4.0):
            assert abs(threshold("bs_ir", mu, 1.0).max_d_ab - IR_THRESHOLD) < 1e-12
            assert abs(threshold("bs_opt", mu, 1.0).max_d_ab - OPT_THRESHOLD) < 1e-12

    def test_monotone_in_mu_and_eta(self):
        for kind in ("bs_ir", "bs_opt", "pns"):
            for eta in (0.7, 0.9):
                values = [threshold(kind, float(mu), eta).max_d_ab for mu in np.linspace(0.1, 3.0, 15)]
                assert all(b <= a + 1e-15 for a, b in zip(values, values[1:]))
            for mu in (0.5, 1.0):
                values = [threshold(kind, mu, float(e)).max_d_ab for e in np.linspace(0.4, 1.0, 15)]
                assert all(b >= a - 1e-15 for a, b in zip(values, values[1:]))

    def test_mean_above_the_cap_is_rejected(self):
        for call in (
            lambda: threshold("bs_ir", 50.0, 0.9),
            lambda: eve_accuracy_at("pns", 0.1, 20.5, 0.9),
            lambda: crossing_point("bs_opt", 21.0, 0.5),
        ):
            with pytest.raises(ValueError, match=r"mu must be finite and in .*20\]"):
                call()
        assert threshold("pns", 20.0, 0.9).max_d_ab >= 0.0

    @pytest.mark.parametrize("kind", THRESHOLD_KINDS)
    def test_every_kind_checks_the_line_it_is_given(self, kind):
        # ir and opt do not use the line, but a given mu or eta has one domain everywhere.
        for mu, eta, name in ((50.0, 0.9, "mu"), (0.0, 0.9, "mu"), (float("nan"), 0.9, "mu"),
                              (1.0, 7.0, "eta"), (1.0, -0.1, "eta")):
            for call in (lambda: threshold(kind, mu, eta),
                         lambda: info_curve_point(kind, 0.1, mu, eta),
                         lambda: crossing_point(kind, mu, eta)):
                with pytest.raises(ValueError, match=f"{name} must be finite and in"):
                    call()
        if kind in ("ir", "opt"):
            assert threshold(kind, 1.0, 0.9) == threshold(kind)
            assert info_curve_point(kind, 0.1, None, 0.9) == info_curve_point(kind, 0.1)

    def test_requires_parameters_for_pulsed_kinds(self):
        with pytest.raises(ValueError):
            threshold("bs_ir")
        with pytest.raises(ValueError):
            threshold("pns", 0.0, 0.9)
        with pytest.raises(ValueError):
            threshold("nope")


class TestCrossingPoint:
    def test_single_photon_crossings(self):
        assert crossing_point("ir") == pytest.approx(IR_THRESHOLD, abs=1e-9)
        assert crossing_point("opt") == pytest.approx(OPT_THRESHOLD, abs=1e-9)

    def test_pns_consistency(self):
        assert crossing_point("pns", 1.0, 0.9) == pytest.approx(
            threshold("pns", 1.0, 0.9).max_d_ab, abs=1e-9
        )

    def test_crossing_equals_threshold_everywhere(self):
        for kind in THRESHOLD_KINDS:
            for mu in (0.3, 1.0, 2.0):
                for eta in (0.6, 0.9, 1.0):
                    expected = threshold(kind, mu, eta).max_d_ab
                    assert abs(crossing_point(kind, mu, eta) - expected) < 1e-9

    def test_break_region_reports_boundary(self):
        assert crossing_point("pns", 1.0, 0.2) == 0.0

    def test_early_stop_keeps_the_200_step_values(self, monkeypatch):
        expected = [reference_crossing(*point) for point in CROSSING_GRID]
        calls = 0

        def counted_i_ab(d):
            nonlocal calls
            calls += 1
            return i_ab(d)

        monkeypatch.setattr(security, "i_ab", counted_i_ab)
        for point, want in zip(CROSSING_GRID, expected):
            calls = 0
            assert crossing_point(*point) == want, point
            assert calls <= 100, (point, calls)
