"""Photon statistics of attenuated laser pulses, lossy lines and beam-splitters.

An attenuated pulse carries a Poissonian photon number with mean ``mu``; a
channel of transmission ``eta`` thins it photon by photon, leaving a
Poissonian with mean ``eta mu``.  A lossless beam-splitter of transmission
``t`` routes each photon independently, splitting the pulse binomially.  For
an eavesdropper tapping the line with such a splitter there are four
routing outcomes per pulse: photons on both output arms, all photons on the
eavesdropper's arm, all photons on the receiver's arm, or an empty pulse.
All four probabilities have closed forms, as do the receiver's post-splitter
photon distribution and his expected rate of wrong-basis coincidence clicks.

Closed forms come with independent truncated-series evaluations used as
cross-checks.  They sum photon numbers up to ``SERIES_CUTOFF``; the Poisson
mass past it is below 1e-15 for every ``mu <= 20``, the validated range
(4.0e-16 at ``mu = 20``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .domain import check_range

#: Largest photon number the series oracles sum to: the first order at which
#: the Poisson(20) mass past it, 4.0e-16, is below 1e-15.  At 64 it is
#: still 1.3e-15, and at 60 it was 1.4e-13.
SERIES_CUTOFF = 65

#: Largest mean photon number any module accepts: the optics, the attack
#: closed forms, the security bounds and the engine (keeps series tails
#: below 1e-15).
MAX_MEAN_PHOTON_NUMBER = 20.0


@dataclass(frozen=True)
class OpticalConfig:
    """Source and line parameters: mean photon number, channel transmission.

    A beam-splitter attack carries its own transmission ``t``, so that
    matching it to ``eta`` is an explicit choice of the attacker.
    """

    mu: float
    eta: float = 1.0

    def __post_init__(self) -> None:
        check_range("mu", self.mu, 0.0, MAX_MEAN_PHOTON_NUMBER)
        check_range("eta", self.eta, 0.0, 1.0)


def poisson_pmf(mu: float, n: int) -> float:
    """Poisson probability ``exp(-mu) mu^n / n!``, evaluated in log space."""
    if mu < 0.0:
        raise ValueError(f"mu must be >= 0, got {mu!r}")
    if n < 0 or n != int(n):
        raise ValueError(f"n must be a nonnegative integer, got {n!r}")
    n = int(n)
    if mu == 0.0:
        return 1.0 if n == 0 else 0.0
    return math.exp(n * math.log(mu) - mu - math.lgamma(n + 1))


def split_pmf(n: int, t: float, j: int) -> float:
    """Probability that ``j`` of ``n`` photons are transmitted by a splitter.

    Binomial mass ``C(n, j) t^j (1-t)^(n-j)``; photons route independently.
    """
    check_range("t", t, 0.0, 1.0)
    if not 0 <= j <= n:
        raise ValueError(f"j must be in [0, n], got j={j!r}, n={n!r}")
    return float(math.comb(n, j)) * t**j * (1.0 - t) ** (n - j)


@dataclass(frozen=True)
class ScenarioProbs:
    """Distribution of the four routing outcomes at the splitter.

    ``both``: at least one photon on each arm (the tap succeeds silently);
    ``eve_only``: the whole pulse is reflected to the tap; ``bob_only``: the
    whole pulse is transmitted; ``empty``: the source emitted no photon.
    """

    both: float
    eve_only: float
    bob_only: float
    empty: float

    def as_tuple(self) -> tuple[float, float, float, float]:
        return (self.both, self.eve_only, self.bob_only, self.empty)

    @property
    def total(self) -> float:
        return self.both + self.eve_only + self.bob_only + self.empty


def _check_mu_t(mu: float, t: float, t_name: str = "t") -> None:
    check_range("mu", mu, 0.0, MAX_MEAN_PHOTON_NUMBER)
    check_range(t_name, t, 0.0, 1.0)


def scenario_probs(mu: float, t: float) -> ScenarioProbs:
    """Closed-form routing-outcome probabilities for mean ``mu``, transmission ``t``.

    ``P_both = 1 + e^(-mu) - e^(-mu t) - e^(-mu(1-t))``,
    ``P_eve_only = e^(-mu t) - e^(-mu)``,
    ``P_bob_only = e^(-mu(1-t)) - e^(-mu)``, ``P_empty = e^(-mu)``.
    The four sum to one; ``P_both`` peaks at ``t = 1/2``.
    """
    _check_mu_t(mu, t)
    e_mu = math.exp(-mu)
    e_t = math.exp(-mu * t)
    e_r = math.exp(-mu * (1.0 - t))
    return ScenarioProbs(
        both=1.0 + e_mu - e_t - e_r,
        eve_only=e_t - e_mu,
        bob_only=e_r - e_mu,
        empty=e_mu,
    )


def scenario_probs_series(
    mu: float, t: float, n_max: int = SERIES_CUTOFF
) -> ScenarioProbs:
    """Routing-outcome probabilities by direct photon-number enumeration.

    Sums the Poisson weights against exact binomial routing terms up to
    ``n_max`` photons; serves as the independent oracle for
    :func:`scenario_probs`.
    """
    _check_mu_t(mu, t)
    both = 0.0
    eve_only = 0.0
    bob_only = 0.0
    for n in range(1, n_max + 1):
        p_n = poisson_pmf(mu, n)
        all_bob = t**n
        all_eve = (1.0 - t) ** n
        bob_only += p_n * all_bob
        eve_only += p_n * all_eve
        if n >= 2:
            both += p_n * (1.0 - all_bob - all_eve)
    return ScenarioProbs(
        both=both, eve_only=eve_only, bob_only=bob_only, empty=poisson_pmf(mu, 0)
    )


def bob_count_pmf_after_splitter(mu: float, t: float, i: int) -> float:
    """Receiver-side photon distribution behind the splitter.

    Splitting a Poissonian of mean ``mu`` leaves a Poissonian of mean
    ``mu t``: the tap rescales but does not reshape the statistics.
    """
    _check_mu_t(mu, t)
    return poisson_pmf(mu * t, i)


def bob_count_pmf_series(
    mu: float, t: float, i: int, n_max: int = SERIES_CUTOFF
) -> float:
    """Receiver-side photon distribution by exact marginalization over the source."""
    _check_mu_t(mu, t)
    if i < 0:
        raise ValueError(f"i must be >= 0, got {i!r}")
    return sum(
        poisson_pmf(mu, n) * split_pmf(n, t, i) for n in range(i, n_max + 1)
    )


def coincidence_prob(eta: float, mu: float) -> float:
    """Per-pulse probability that both wrong-basis detectors click.

    A wrong-basis measurement acts as a 50/50 splitter on each arriving
    photon, so multi-photon pulses can fire both detectors.  Closed form
    ``(1 + e^(-eta mu) - 2 e^(-eta mu / 2)) / 2``, which already includes the
    1/2 chance of choosing the wrong basis.
    """
    _check_mu_t(mu, eta, "eta")
    em = eta * mu
    return 0.5 * (1.0 + math.exp(-em) - 2.0 * math.exp(-em / 2.0))


def coincidence_prob_series(
    eta: float, mu: float, n_max: int = SERIES_CUTOFF
) -> float:
    """Coincidence probability by summing over arriving photon numbers.

    For ``n`` arriving photons the chance that both detectors fire is
    ``1 - 2^(1-n)`` (the summed binomial routing terms), weighted by the
    Poissonian of mean ``eta mu`` and the 1/2 wrong-basis probability.
    """
    _check_mu_t(mu, eta, "eta")
    em = eta * mu
    total = 0.0
    for n in range(2, n_max + 1):
        split_terms = sum(math.comb(n, i) for i in range(1, n)) * 2.0 ** (-n)
        total += poisson_pmf(em, n) * split_terms
    return 0.5 * total
