"""Property tests over the whole parameter domain: mu in (0, 20], eta in [0, 1].

The examples are derandomized and nothing is stored between runs, so the
suite draws the same cases every time.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bb84eve.domain import D, D_IR, MU, UNIT, Interval
from bb84eve.engine import SCENARIO_A_RULES, SessionConfig, run_session, run_sharded
from bb84eve.pulse_attacks import (
    BsInterceptResend,
    BsOptimal,
    InterceptResend,
    OptimalIncoherent,
    Pns,
    full_break_transmission,
    kappa_for_channel,
)
from bb84eve.pulse_optics import OpticalConfig
from bb84eve.security import THRESHOLD_KINDS, threshold

PROPERTIES = settings(derandomize=True, database=None, deadline=None)


def floats_in(interval: Interval) -> st.SearchStrategy:
    return st.floats(min_value=interval.lo, max_value=interval.hi, exclude_min=interval.open_lo)


mus = floats_in(MU)
etas = unit = floats_in(UNIT)
half = floats_in(D)

attacks = st.one_of(
    st.none(),
    st.builds(InterceptResend, eps=unit),
    st.builds(OptimalIncoherent, d=half),
    st.builds(BsInterceptResend, t=unit, d=floats_in(D_IR)),
    st.builds(BsOptimal, t=unit, d=half),
    st.builds(Pns, kappa=unit, d=half),
)


@PROPERTIES
@given(mu=mus, eta=etas)
def test_every_threshold_is_finite_and_at_most_half(mu, eta):
    for kind in THRESHOLD_KINDS:
        value = threshold(kind, mu, eta).max_d_ab
        assert math.isfinite(value) and 0.0 <= value <= 0.5, (kind, value)


@PROPERTIES
@given(mu=mus, eta_a=etas, eta_b=etas)
def test_pulsed_thresholds_do_not_fall_as_eta_rises(mu, eta_a, eta_b):
    lo, hi = sorted((eta_a, eta_b))
    for kind in ("bs_ir", "bs_opt", "pns"):
        assert threshold(kind, mu, hi).max_d_ab >= threshold(kind, mu, lo).max_d_ab, kind


@PROPERTIES
@given(mu=mus)
def test_calibrated_kappa_is_one_at_the_full_break_transmission(mu):
    assert abs(kappa_for_channel(mu, full_break_transmission(mu)).kappa - 1.0) < 1e-9


@settings(PROPERTIES, max_examples=60)
@given(
    attack=attacks,
    mu=mus,
    eta=etas,
    rule=st.sampled_from(SCENARIO_A_RULES),
    shards=st.integers(min_value=1, max_value=4),
    seed=st.integers(min_value=0, max_value=2**64 - 1),
)
def test_session_tallies_keep_their_invariants(attack, mu, eta, rule, shards, seed):
    config = SessionConfig(
        optics=OpticalConfig(mu=mu, eta=eta),
        attack=attack,
        n_pulses=1 << 12,
        seed=seed,
        scenario_a_rule=rule,
    )
    assert_tallies_keep_their_invariants(config, run_sharded(config, shards))


def assert_tallies_keep_their_invariants(config, stats):
    n = config.n_pulses
    assert stats.n_pulses == n
    assert 0 <= stats.error_count <= stats.sifted_count <= stats.nonempty_count <= n
    if stats.eve_correct_count is not None:
        assert 0 <= stats.eve_correct_count <= stats.sifted_count
    # Coincidences are wrong-basis detections.
    assert 0 <= stats.coincidence_count <= stats.nonempty_count - stats.sifted_count
    assert sum(stats.bob_count_hist) == n
    assert stats.bob_count_hist[0] == n - stats.nonempty_count
    if stats.scenario_counts is not None:
        assert sum(stats.scenario_counts.values()) == n
    assert run_sharded(config, 1) == run_session(config)


def edge_attacks():
    yield None
    yield InterceptResend(eps=1.0)
    yield OptimalIncoherent(d=0.1)
    yield Pns(kappa=0.5, d=0.1)
    for t in (0.0, 1.0):
        yield BsInterceptResend(t=t, d=0.25)
        yield BsOptimal(t=t, d=0.1)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("eta", [0.0, 1.0])
@pytest.mark.parametrize("mu", [0.0, 5e-324, 1.0])
def test_edges_of_the_domain_divide_nothing_by_zero(mu, eta):
    if mu == 0.0:
        # No source to model; zero means still reach the engine's tables
        # through eta = 0 and t in {0, 1}.
        with pytest.raises(ValueError, match=r"mu must be finite and in \(0, 20\], got 0\.0"):
            OpticalConfig(mu=mu, eta=eta)
        return
    # At mu = 5e-324, e^(-mu) rounds to 1: a live pulse is all but impossible,
    # and its tables must still be finite.
    for attack in edge_attacks():
        for rule in SCENARIO_A_RULES:
            config = SessionConfig(
                optics=OpticalConfig(mu=mu, eta=eta),
                attack=attack,
                n_pulses=1 << 12,
                seed=5,
                scenario_a_rule=rule,
            )
            assert_tallies_keep_their_invariants(config, run_sharded(config, 3))
