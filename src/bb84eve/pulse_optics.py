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

from .domain import MEAN, MU, UNIT

#: Largest photon number the series oracles sum to: the first order at which
#: the Poisson(20) mass past it, 4.0e-16, is below 1e-15.  At 64 it is
#: still 1.3e-15, and at 60 it was 1.4e-13.
SERIES_CUTOFF = 65


@dataclass(frozen=True)
class OpticalConfig:
    """Source and line parameters: mean photon number, channel transmission.

    A beam-splitter attack carries its own transmission ``t``, so that
    matching it to ``eta`` is an explicit choice of the attacker.
    """

    mu: float
    eta: float = 1.0

    def __post_init__(self) -> None:
        MU.check("mu", self.mu)
        UNIT.check("eta", self.eta)


def poisson_pmf(mu: float, n: int) -> float:
    """Poisson probability ``exp(-mu) mu^n / n!``, evaluated in log space."""
    MEAN.check("mu", mu)
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
    UNIT.check("t", t)
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


def scenario_probs(mu: float, t: float) -> ScenarioProbs:
    """Closed-form routing-outcome probabilities for mean ``mu``, transmission ``t``.

    ``P_both = 1 + e^(-mu) - e^(-mu t) - e^(-mu(1-t))``,
    ``P_eve_only = e^(-mu t) - e^(-mu)``,
    ``P_bob_only = e^(-mu(1-t)) - e^(-mu)``, ``P_empty = e^(-mu)``.
    The four sum to one; ``P_both`` peaks at ``t = 1/2``.
    """
    MEAN.check("mu", mu)
    UNIT.check("t", t)
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
def _photon_numbers() -> tuple[np.ndarray, np.ndarray]:
    """The photon numbers ``1..SERIES_CUTOFF`` as floats, and their ``lgamma(n + 1)``."""
    n = np.arange(1, SERIES_CUTOFF + 1, dtype=float)
    log_factorial = np.array([math.lgamma(k + 1) for k in range(1, SERIES_CUTOFF + 1)])
    n.flags.writeable = log_factorial.flags.writeable = False
    return n, log_factorial


def scenario_probs_series(mu, t) -> ScenarioProbs:
    """Routing-outcome probabilities by direct photon-number enumeration.

    Sums the Poisson weights ``exp(n log mu - mu - lgamma(n + 1))`` against
    the exact binomial routing terms ``t^n`` (all photons to the receiver)
    and ``(1-t)^n`` (all to the tap) over ``n = 1..SERIES_CUTOFF``; serves as
    the independent oracle for :func:`scenario_probs`.  ``mu`` and ``t`` may be
    arrays: they broadcast against each other, and each field of the result
    then holds an array of their common shape.  Scalars give floats.
    """
    mu = np.asarray(mu, dtype=float)
    t = np.asarray(t, dtype=float)
    for name, values, domain in (("mu", mu, MEAN), ("t", t, UNIT)):
        for value in (values.min(), values.max()):
            domain.check(name, float(value))
    n, log_factorial = _photon_numbers()
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
    MEAN.check("mu", mu)
    UNIT.check("t", t)
    return poisson_pmf(mu * t, i)


def bob_count_pmf_series(mu: float, t: float, i: int) -> float:
    """Receiver-side photon distribution by exact marginalization over the source."""
    MEAN.check("mu", mu)
    UNIT.check("t", t)
    if i < 0:
        raise ValueError(f"i must be >= 0, got {i!r}")
    return sum(
        poisson_pmf(mu, n) * split_pmf(n, t, i) for n in range(i, SERIES_CUTOFF + 1)
    )


def coincidence_prob(eta: float, mu: float) -> float:
    """Per-pulse probability that both wrong-basis detectors click.

    A wrong-basis measurement acts as a 50/50 splitter on each arriving
    photon, so multi-photon pulses can fire both detectors.  Closed form
    ``(1 + e^(-eta mu) - 2 e^(-eta mu / 2)) / 2``, which already includes the
    1/2 chance of choosing the wrong basis.
    """
    MEAN.check("mu", mu)
    UNIT.check("eta", eta)
    em = eta * mu
    return 0.5 * (1.0 + math.exp(-em) - 2.0 * math.exp(-em / 2.0))


def coincidence_prob_series(eta: float, mu: float) -> float:
    """Coincidence probability by summing over arriving photon numbers.

    For ``n`` arriving photons the chance that both detectors fire is
    ``1 - 2^(1-n)`` (the summed binomial routing terms), weighted by the
    Poissonian of mean ``eta mu`` and the 1/2 wrong-basis probability.
    """
    MEAN.check("mu", mu)
    UNIT.check("eta", eta)
    em = eta * mu
    total = 0.0
    for n in range(2, SERIES_CUTOFF + 1):
        total += poisson_pmf(em, n) * (1.0 - 2.0 ** (1 - n))
    return 0.5 * total
