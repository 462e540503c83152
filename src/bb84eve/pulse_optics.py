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

import functools
import math
from dataclasses import dataclass

import numpy as np

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
    Each is a float, or an array when :func:`scenario_probs_series` is
    called on arrays.
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


@functools.lru_cache(maxsize=None)
def _photon_numbers(n_max: int) -> tuple[np.ndarray, np.ndarray]:
    """The photon numbers ``1..n_max`` as floats and their ``lgamma(n + 1)`` row."""
    n = np.arange(1, n_max + 1, dtype=float)
    log_factorial = np.array([math.lgamma(k + 1) for k in range(1, n_max + 1)])
    n.flags.writeable = log_factorial.flags.writeable = False
    return n, log_factorial


def scenario_probs_series(mu, t, n_max: int = SERIES_CUTOFF) -> ScenarioProbs:
    """Routing-outcome probabilities by direct photon-number enumeration.

    Sums the Poisson weights ``exp(n log mu - mu - lgamma(n + 1))`` against
    the exact binomial routing terms ``t^n`` (all photons to the receiver)
    and ``(1-t)^n`` (all to the tap) over ``n = 1..n_max``; serves as the
    independent oracle for :func:`scenario_probs`.  ``mu`` and ``t`` may be
    arrays: they broadcast against each other, and each field of the result
    then holds an array of their common shape.  Scalars give floats.
    """
    mu = np.asarray(mu, dtype=float)
    t = np.asarray(t, dtype=float)
    for name, values, hi in (("mu", mu, MAX_MEAN_PHOTON_NUMBER), ("t", t, 1.0)):
        for value in (values.min(), values.max()):
            check_range(name, float(value), 0.0, hi)
    n, log_factorial = _photon_numbers(n_max)
    mu_n = mu[..., None]
    with np.errstate(divide="ignore"):  # mu = 0: log 0 = -inf, every weight 0
        log_mu = np.log(mu_n)
    p_n = np.exp(n * log_mu - mu_n - log_factorial)
    all_bob = t[..., None] ** n
    all_eve = (1.0 - t[..., None]) ** n
    fields = {
        "both": (p_n[..., 1:] * (1.0 - all_bob[..., 1:] - all_eve[..., 1:])).sum(axis=-1),
        "eve_only": (p_n * all_eve).sum(axis=-1),
        "bob_only": (p_n * all_bob).sum(axis=-1),
        "empty": np.exp(-mu) + np.zeros_like(t),
    }
    if fields["empty"].ndim == 0:
        return ScenarioProbs(**{key: float(value) for key, value in fields.items()})
    return ScenarioProbs(**fields)


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
        total += poisson_pmf(em, n) * (1.0 - 2.0 ** (1 - n))
    return 0.5 * total
