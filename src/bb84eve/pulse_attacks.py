"""The five attacks, each defined once: parameters, closed forms and session rates.

The two single-photon strategies are intercept-resend in the Breidbart basis
and the optimal probe attack.  Three more adapt them to Poissonian pulses on
a line the eavesdropper has replaced with a lossless one.  With a
beam-splitter of transmission ``t`` she keeps every pulse that puts at least
one photon on each arm (reading it perfectly after the basis announcement,
error-free) and attacks the pulses that reach the receiver intact with a
single-photon strategy of strength ``d``.  With photon-number-splitting she
counts photons nondestructively, steals one photon from every multi-photon
pulse, blocks a fraction ``kappa`` of the single-photon pulses to mimic the
expected line loss, and probes the rest.  Guess probabilities and the error
rate the legitimate parties observe have closed forms in
``(mu, t or kappa, d)``.

Each attack class below is the only place its closed forms live (see
:class:`Attack`), and :data:`ATTACKS` is the only list of attack names.  The
security bounds, the session expectations and the command line all look the
attack up there.  The PNS forms follow Brassard, Lütkenhaus, Mor & Sanders,
PRL 85, 1330 (2000).
"""

from __future__ import annotations

import dataclasses
import functools
import math
from collections.abc import Mapping
from dataclasses import dataclass
from typing import ClassVar

from .domain import D, D_IR, MU, UNIT, Interval
from .pulse_optics import (
    SERIES_CUTOFF,
    coincidence_prob,
    poisson_pmf,
    scenario_probs,
)
from .single_photon import IR_MAX_GUESS_PROB, SQRT2, opt_guess_prob

#: How a tapped multi-photon pulse is read in the intercept-resend hybrid:
#: one Breidbart result, or a majority vote over one result per photon.
SCENARIO_A_RULES = ("single_result", "majority")


@dataclass(frozen=True)
class AttackPrediction:
    """Closed-form per-sifted-bit performance of an attack.

    ``guess_prob`` is the eavesdropper's probability of holding the correct
    bit; ``d_ab`` is the error rate the legitimate parties observe.
    """

    guess_prob: float
    d_ab: float

    def __post_init__(self) -> None:
        # rounding slack: the closed forms can land an ulp outside the range
        if not 0.5 - 1e-12 <= self.guess_prob <= 1.0 + 1e-12:
            raise ValueError(f"guess_prob must be in [1/2, 1], got {self.guess_prob!r}")
        D.check("d_ab", self.d_ab)


@dataclass(frozen=True)
class ThresholdResult:
    """Largest tolerable observed error rate, with the total-break flag.

    ``break_possible`` is set only for photon-number splitting on lines lossy
    enough that the attack causes no errors at all; the threshold is then 0.
    """

    max_d_ab: float
    break_possible: bool = False


def line_expectations(mu: float, eta: float) -> dict[str, float | None]:
    """Per-pulse session rates on an untouched line of transmission ``eta``.

    No errors, a coin-flip guess, and Poissonian arrivals of mean ``eta mu``.
    """
    return {
        "qber": 0.0,
        "eve_accuracy": 0.5,
        "nonempty_rate": -math.expm1(-eta * mu),
        "coincidence_rate": coincidence_prob(eta, mu),
    }


class Attack:
    """What each attack definition provides.

    Subclasses are frozen dataclasses of the attack's parameters, and each is
    the one place its closed forms live:

    - ``name``: the canonical spelling, used in Python and in JSON keys
      (``bs_ir``; the command line writes ``bs-ir``);
    - ``limits``: the interval each parameter must lie in;
    - ``guess_at(d_ab, mu, eta)``: the eavesdropper's guess probability
      against the observed error rate, with the attack strength and any
      tap or blocking matched to a line of transmission ``eta``.  It is the
      analytic continuation past the attack's physical range, capped at 1,
      so that the information crossing and the linear criterion coincide;
    - ``threshold(mu, eta)``: the largest tolerable observed error rate;
    - ``expectations(mu, eta, rule)``: the per-pulse session rates
      ``qber``, ``eve_accuracy``, ``nonempty_rate``, ``coincidence_rate``;
    - ``scenario_fractions(mu)``: the routing-outcome fractions of a tap.

    ``uses_channel`` is false for the single-photon attacks, whose curve and
    threshold do not depend on ``mu`` and ``eta``.
    """

    name: ClassVar[str]
    limits: ClassVar[dict[str, Interval]]
    uses_channel: ClassVar[bool] = True

    def __post_init__(self) -> None:
        for key, domain in self.limits.items():
            domain.check(key, getattr(self, key))

    @classmethod
    def from_params(cls, params: Mapping, mu: float, eta: float) -> Attack:
        """Build the attack from named parameters; ``None`` marks a missing one."""
        missing = [key for key in cls.limits if params.get(key) is None]
        if missing:
            raise ValueError(f"attack {cls.name!r} requires {', '.join(missing)}")
        return cls(**{key: float(params[key]) for key in cls.limits})

    def scenario_fractions(self, mu: float) -> dict[str, float] | None:
        return None


@dataclass(frozen=True)
class InterceptResend(Attack):
    """Breidbart intercept-resend on a fraction ``eps`` of the pulses."""

    eps: float

    name: ClassVar[str] = "ir"
    limits: ClassVar = {"eps": UNIT}
    uses_channel: ClassVar[bool] = False

    @staticmethod
    def guess_at(d_ab: float, mu: float | None, eta: float | None) -> float:
        return min(1.0, SQRT2 * d_ab + 0.5)

    @staticmethod
    def threshold(mu: float | None, eta: float | None) -> ThresholdResult:
        return ThresholdResult(1.0 / (2.0 * (1.0 + SQRT2)))

    def expectations(self, mu: float, eta: float, rule: str) -> dict:
        # Resent pulses carry one photon, which the line then thins.
        p_att = self.eps * -math.expm1(-mu) * eta
        p_un = (1.0 - self.eps) * -math.expm1(-eta * mu)
        detected = p_att + p_un
        return {
            "qber": 0.25 * p_att / detected if detected else None,
            "eve_accuracy": (
                (p_att * IR_MAX_GUESS_PROB + 0.5 * p_un) / detected if detected else None
            ),
            "nonempty_rate": detected,
            "coincidence_rate": (1.0 - self.eps) * coincidence_prob(eta, mu),
        }


@dataclass(frozen=True)
class OptimalIncoherent(Attack):
    """Symmetric probe attack of strength ``d`` on every non-empty pulse."""

    d: float

    name: ClassVar[str] = "opt"
    limits: ClassVar = {"d": D}
    uses_channel: ClassVar[bool] = False

    @staticmethod
    def guess_at(d_ab: float, mu: float | None, eta: float | None) -> float:
        return opt_guess_prob(d_ab)

    @staticmethod
    def threshold(mu: float | None, eta: float | None) -> ThresholdResult:
        return ThresholdResult((2.0 - SQRT2) / 4.0)

    def expectations(self, mu: float, eta: float, rule: str) -> dict:
        # The probe leaves photon counts alone.
        rates = line_expectations(mu, eta)
        rates.update(qber=self.d, eve_accuracy=opt_guess_prob(self.d))
        return rates


@dataclass(frozen=True)
class _SplitterAttack(Attack):
    """Beam-splitter tap of transmission ``t``, strength ``d`` on untapped pulses.

    Only pulses that reach the receiver whole are attacked, so the observed
    error rate is ``d`` diluted by their share ``e^(-mu(1-t))`` of the
    detections.  The matched tap of the security curves has ``t = eta``.
    """

    t: float
    d: float

    def expectations(self, mu: float, eta: float, rule: str) -> dict:
        pred = self.predict(mu)
        return {
            "qber": pred.d_ab,
            "eve_accuracy": pred.guess_prob,
            "nonempty_rate": -math.expm1(-mu * self.t),
            "coincidence_rate": coincidence_prob(self.t, mu),
        }

    def scenario_fractions(self, mu: float) -> dict[str, float]:
        return dataclasses.asdict(scenario_probs(mu, self.t))


@dataclass(frozen=True)
class BsInterceptResend(_SplitterAttack):
    """Beam-splitter tap plus intercept-resend on untapped pulses.

    ``d`` is the per-attacked-pulse disturbance; the intercept fraction on
    fully transmitted pulses is ``eps = 4 d``.
    """

    name: ClassVar[str] = "bs_ir"
    limits: ClassVar = {"t": UNIT, "d": D_IR}

    @staticmethod
    def guess_at(d_ab: float, mu: float, eta: float) -> float:
        # Tapped pulses add (2+sqrt(2))/4 - 1/2 = sqrt(2)/4 over a coin flip,
        # attacked ones sqrt(2) per unit of error; written without dividing
        # by the dilution, so a lossless line gives exactly 1/2 at d_ab = 0.
        return min(1.0, 0.5 + SQRT2 * (0.25 * -math.expm1(-mu * (1.0 - eta)) + d_ab))

    @staticmethod
    def threshold(mu: float, eta: float) -> ThresholdResult:
        dilution = math.exp(-mu * (1.0 - eta))
        return ThresholdResult((2.0 - SQRT2 * (1.0 - dilution)) / (4.0 * (1.0 + SQRT2)))

    def predict(self, mu: float) -> AttackPrediction:
        MU.check("mu", mu)
        d_ab = self.d * math.exp(-mu * (1.0 - self.t))
        return AttackPrediction(guess_prob=self.guess_at(d_ab, mu, self.t), d_ab=d_ab)

    def expectations(self, mu: float, eta: float, rule: str) -> dict:
        rates = super().expectations(mu, eta, rule)
        # An attacked pulse is resent as one photon, so it cannot coincide.
        rates["coincidence_rate"] *= 1.0 - 4.0 * self.d * math.exp(-mu * (1.0 - self.t))
        if rule == "majority":
            rates["eve_accuracy"] = self._majority_accuracy(mu)
        return rates

    def _majority_accuracy(self, mu: float) -> float:
        """Guess probability when tapped pulses are read by a majority vote.

        The tap's photon count ``k`` is Poissonian with mean ``mu(1-t)`` and,
        by Poisson splitting, independent of the receiver's.  Each of the
        ``k`` Breidbart results is right with probability ``(2+sqrt(2))/4``;
        ties are broken by a coin.  ``k = 0`` leaves the untapped pulses,
        attacked with probability ``4 d``.
        """
        p = IR_MAX_GUESS_PROB
        mean = mu * (1.0 - self.t)
        total = math.exp(-mean) * (0.5 + SQRT2 * self.d)
        for k in range(1, SERIES_CUTOFF + 1):
            vote = sum(
                math.comb(k, j) * p**j * (1.0 - p) ** (k - j) * (1.0 if 2 * j > k else 0.5)
                for j in range((k + 1) // 2, k + 1)
            )
            total += poisson_pmf(mean, k) * vote
        return total


@dataclass(frozen=True)
class BsOptimal(_SplitterAttack):
    """Beam-splitter tap plus probe attack of strength ``d`` on untapped pulses."""

    name: ClassVar[str] = "bs_opt"
    limits: ClassVar = {"t": UNIT, "d": D}

    @staticmethod
    def _guess(dilution: float, d: float) -> float:
        return 1.0 - dilution * (0.5 - math.sqrt(d * (1.0 - d)))

    @staticmethod
    def guess_at(d_ab: float, mu: float, eta: float) -> float:
        dilution = math.exp(-mu * (1.0 - eta))
        d = 0.5 if d_ab >= 0.5 * dilution else d_ab / dilution
        return BsOptimal._guess(dilution, d)

    @staticmethod
    def threshold(mu: float, eta: float) -> ThresholdResult:
        return ThresholdResult((2.0 - SQRT2) / 4.0 * math.exp(-mu * (1.0 - eta)))

    def predict(self, mu: float) -> AttackPrediction:
        MU.check("mu", mu)
        dilution = math.exp(-mu * (1.0 - self.t))
        return AttackPrediction(guess_prob=self._guess(dilution, self.d), d_ab=self.d * dilution)


@dataclass(frozen=True)
class Pns(Attack):
    """Photon-number splitting with single-pulse blocking fraction ``kappa``.

    Multi-photon pulses lose one photon to a perfect tap; surviving
    single-photon pulses are probed at strength ``d``.
    """

    kappa: float
    d: float

    name: ClassVar[str] = "pns"
    limits: ClassVar = {"kappa": UNIT, "d": D}

    @classmethod
    def from_params(cls, params: Mapping, mu: float, eta: float) -> Pns:
        """As :meth:`Attack.from_params`; a missing ``kappa`` is matched to the line.

        The calibrated value is capped at 1, where every single-photon pulse
        is blocked.
        """
        if params.get("kappa") is None:
            params = {**params, "kappa": min(kappa_for_channel(mu, eta).kappa, 1.0)}
        return super().from_params(params, mu, eta)

    @staticmethod
    def _shares(mu: float, kappa: float) -> tuple[float, float, float]:
        """Shares of multi-photon, kept single-photon and all non-empty delivered pulses."""
        e_mu = math.exp(-mu)
        return 1.0 - e_mu * (1.0 + mu), (1.0 - kappa) * mu * e_mu, 1.0 - e_mu * (1.0 + mu * kappa)

    @staticmethod
    def guess_at(d_ab: float, mu: float, eta: float) -> float:
        cal = kappa_for_channel(mu, eta)
        if cal.break_possible:
            return 1.0
        p_multi, p_single_kept, denom = Pns._shares(mu, cal.kappa)
        scaled = d_ab * denom
        d = 0.5 if scaled >= 0.5 * p_single_kept else scaled / p_single_kept
        return min(1.0, (p_multi + p_single_kept * opt_guess_prob(d)) / denom)

    @staticmethod
    def threshold(mu: float, eta: float) -> ThresholdResult:
        bracket = (1.0 + mu) * math.exp(-mu) - math.exp(-eta * mu)
        if bracket <= 0.0:
            return ThresholdResult(0.0, break_possible=True)
        return ThresholdResult((2.0 - SQRT2) / 4.0 * bracket / (1.0 - math.exp(-eta * mu)))

    def predict(self, mu: float) -> AttackPrediction:
        """Multi-photon pulses yield the bit without errors; kept singles are probed."""
        MU.check("mu", mu)
        p_multi, p_single_kept, denom = self._shares(mu, self.kappa)
        guess = (p_multi + p_single_kept * opt_guess_prob(self.d)) / denom
        return AttackPrediction(guess_prob=guess, d_ab=p_single_kept * self.d / denom)

    def expectations(self, mu: float, eta: float, rule: str) -> dict:
        pred = self.predict(mu)
        e_mu = math.exp(-mu)
        # Sum over n >= 3 of the Poisson weight times 1 - 2^(2-n): the n - 1
        # delivered photons fire both wrong-basis detectors.
        coincidence = 0.5 * (
            1.0
            - e_mu * (1.0 + mu + mu * mu / 2.0)
            - 4.0 * e_mu * (math.expm1(mu / 2.0) - mu / 2.0 - mu * mu / 8.0)
        )
        return {
            "qber": pred.d_ab,
            "eve_accuracy": pred.guess_prob,
            "nonempty_rate": self._shares(mu, self.kappa)[2],
            "coincidence_rate": coincidence,
        }


#: The attacks by canonical name; the only list of attack names.
ATTACKS: dict[str, type[Attack]] = {
    cls.name: cls for cls in (InterceptResend, OptimalIncoherent, BsInterceptResend, BsOptimal, Pns)
}

def bs_ir_predict(mu: float, t: float, d: float) -> AttackPrediction:
    """Beam-splitter plus intercept-resend performance.

    Guess probability ``(sqrt(2)+2)/4 - e^(-mu(1-t)) sqrt(2) (1/4 - d)`` and
    observed error rate ``d e^(-mu(1-t))``: tapped pulses are read perfectly,
    so the single-photon trade-off is diluted by the tap probability.
    """
    return BsInterceptResend(t=t, d=d).predict(mu)


def bs_opt_predict(mu: float, t: float, d: float) -> AttackPrediction:
    """Beam-splitter plus optimal probe attack performance.

    Guess probability ``1 - e^(-mu(1-t)) (1/2 - sqrt(d(1-d)))``; the observed
    error rate is diluted exactly as for the intercept-resend hybrid.
    """
    return BsOptimal(t=t, d=d).predict(mu)


def pns_predict(mu: float, kappa: float, d: float) -> AttackPrediction:
    """Photon-number-splitting performance at blocking fraction ``kappa``.

    Multi-photon pulses yield the bit deterministically and without errors;
    unblocked single-photon pulses contribute the probe attack's guess
    probability and all of the observed disturbance.
    """
    return Pns(kappa=kappa, d=d).predict(mu)


@dataclass(frozen=True)
class KappaCalibration:
    """Blocking fraction matching the receiver's expected non-empty rate.

    ``kappa`` is reported raw; ``break_possible`` flags ``kappa >= 1``, where
    blocking single-photon pulses alone already over-suppresses the count and
    the eavesdropper can take the whole key without causing any errors.
    """

    kappa: float
    break_possible: bool


# One entry: Pns.guess_at asks on every step of a crossing or sweep at fixed (mu, eta).
@functools.lru_cache(maxsize=1)
def kappa_for_channel(mu: float, eta: float) -> KappaCalibration:
    """Blocking fraction ``(e^(mu(1-eta)) - 1)/mu`` that mimics a loss-``eta`` line."""
    MU.check("mu", mu)
    UNIT.check("eta", eta)
    kappa = math.expm1(mu * (1.0 - eta)) / mu
    return KappaCalibration(kappa=kappa, break_possible=kappa >= 1.0)


def full_break_transmission(mu: float) -> float:
    """Channel transmission ``1 - ln(1+mu)/mu`` below which the break is total.

    At or below this value the calibrated blocking fraction reaches one and
    photon-number splitting yields the entire key with zero induced errors.
    """
    MU.check("mu", mu)
    return 1.0 - math.log1p(mu) / mu
