"""Property tests over the whole parameter domain: mu in (0, 20], eta in [0, 1].

The examples are derandomized and nothing is stored between runs, so the
suite draws the same cases every time.
"""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

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
from bb84eve.pulse_optics import MAX_MEAN_PHOTON_NUMBER, OpticalConfig
from bb84eve.security import THRESHOLD_KINDS, threshold

PROPERTIES = settings(derandomize=True, database=None, deadline=None)

mus = st.floats(min_value=0.0, max_value=MAX_MEAN_PHOTON_NUMBER, exclude_min=True)
etas = st.floats(min_value=0.0, max_value=1.0)
unit = st.floats(min_value=0.0, max_value=1.0)
half = st.floats(min_value=0.0, max_value=0.5)

attacks = st.one_of(
    st.none(),
    st.builds(InterceptResend, eps=unit),
    st.builds(OptimalIncoherent, d=half),
    st.builds(BsInterceptResend, t=unit, d=st.floats(min_value=0.0, max_value=0.25)),
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
    stats = run_sharded(config, shards)
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
