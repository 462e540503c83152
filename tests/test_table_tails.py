"""Sessions of 2^62 - 1 pulses against the benchmark's independent oracle.

A session this long expects about 2^62 times a table's dropped mass in the
photon-count bins past the table's end, so a table cut where ``P(K <= j)``
first rounds to 1 leaves one bin hundreds of pulses short.  Every variant
runs on a log grid of mean photon numbers, on two seeds, and
``perfbench/expect.py``'s ``check_session``, which never calls the package,
checks every tallied count.
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import expect  # noqa: E402
from workloads import Variant  # noqa: E402

import bb84eve as bb  # noqa: E402

N_PULSES = 2**62 - 1
MUS = (1e-8, 1e-5, 1e-2, 1.0, 5.0)
ETAS = (0.1, 0.9)
SEEDS = (5, 6)
NAMES = ("none", "ir", "opt", "bs-ir", "bs-ir-majority", "bs-opt", "pns")


def variant(name: str, mu: float, eta: float) -> Variant:
    """``eta`` is the line's transmission, or the splitter's for bs-*, whose
    line is lossless; PNS blocks as much as the line would lose."""
    if name.startswith("bs-"):
        rule = "majority" if name == "bs-ir-majority" else "single_result"
        return Variant(name, mu, t=eta, d=0.1, rule=rule)
    kappa = min(expect.pns_kappa(mu, eta), 1.0)
    return Variant(name, mu, eta, eps=0.5, d=0.05 if name == "pns" else 0.1, kappa=kappa)


def session(v: Variant, seed: int) -> bb.SessionStats:
    kind = v.kind.replace("-", "_")
    attack = None if kind == "none" else bb.ATTACKS[kind].from_params(vars(v), v.mu, v.eta)
    config = bb.SessionConfig(
        bb.OpticalConfig(mu=v.mu, eta=v.eta), attack, N_PULSES, seed, scenario_a_rule=v.rule
    )
    return bb.run_session(config)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("eta", ETAS)
@pytest.mark.parametrize("mu", MUS)
@pytest.mark.parametrize("name", NAMES)
def test_session_of_2_62_pulses_passes_the_oracle(name, mu, eta, seed):
    v = variant(name, mu, eta)
    stats = session(v, seed)
    bad = expect.check_session(stats.to_dict(), expect.session_expectation(v))
    if name == "pns" and v.kappa == 1.0:
        # Total break: every pulse that reaches the receiver left the source
        # with two photons or more, one of them the eavesdropper's, so she
        # is always right and never disturbs.  The oracle's
        # z-score tests an exact count as round(p * trials) in float64,
        # which cannot hold a count above 2^53, so only these identities
        # are checked here.
        assert stats.eve_correct_count == stats.sifted_count
        assert stats.error_count == 0
        assert all(line.startswith("eve_accuracy:") for line in bad), bad
    else:
        assert bad == []
