"""Every parameter's domain, declared once.

Each physical parameter (mean photon number, transmissions, strengths, error
rates, probabilities) is a finite real number in one of the intervals below.
Every module and the command line check through them, so a domain is the same
everywhere.  The bounds are finite, so a check also rejects NaN and infinities.
"""

from __future__ import annotations

from dataclasses import dataclass

#: Largest mean photon number any module accepts: the optics, the attack
#: closed forms, the security bounds and the engine (keeps series tails
#: below 1e-15).
MAX_MEAN_PHOTON_NUMBER = 20.0


@dataclass(frozen=True, slots=True)
class Interval:
    """The closed interval ``[lo, hi]``, or ``(lo, hi]`` when ``open_lo`` is set."""

    lo: float
    hi: float
    open_lo: bool = False

    def check(self, name: str, value: float) -> None:
        """Raise ``ValueError`` unless ``value`` lies in the interval."""
        if (self.lo < value if self.open_lo else self.lo <= value) and value <= self.hi:
            return
        raise ValueError(f"{name} must be finite and in {self}, got {value!r}")

    def __str__(self) -> str:
        return f"{'(' if self.open_lo else '['}{self.lo:g}, {self.hi:g}]"


#: The source's mean photon number, wherever a session or a key is modelled:
#: the PNS blocking fraction and the full-break transmission divide by it,
#: and a session at ``mu = 0`` has nothing to measure.
MU = Interval(0.0, MAX_MEAN_PHOTON_NUMBER, open_lo=True)
#: The mean of a Poisson law, which may be zero: a share of a pulse can be empty.
MEAN = Interval(0.0, MAX_MEAN_PHOTON_NUMBER)
#: Transmissions, fractions and shares: eta, t, eps, kappa.
UNIT = Interval(0.0, 1.0)
#: Error rates and probe disturbances.
D = Interval(0.0, 0.5)
#: The intercept-resend error rate, 1/4 when every signal is measured.
D_IR = Interval(0.0, 0.25)
#: The eavesdropper's probability of guessing a bit.
P_CORRECT = Interval(0.5, 1.0)
#: Overlaps and the argument of the information function.
Z = Interval(-1.0, 1.0)
