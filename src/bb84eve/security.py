"""Mutual-information bounds and tolerable error rates for one-way key distillation.

After sifting, the legitimate parties' data is a binary symmetric channel
with flip rate equal to the observed error rate, so their mutual information
is ``1 - H2(d_ab)`` bits.  The eavesdropper's information is the same
function of her guess probability.  One-way privacy amplification can distill
a secret key while the parties' information exceeds the eavesdropper's, which
for these channels reduces to the linear criterion ``d_ab < 1 - p_correct``.
Each attack therefore has a largest tolerable observed error rate, available
both in closed form and as the numerically located crossing of the two
information curves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .domain import D, MU, P_CORRECT, UNIT, Z
from .pulse_attacks import ATTACKS, Attack, ThresholdResult

THRESHOLD_KINDS = tuple(ATTACKS)

_BISECT_LO = 1e-12
_BISECT_HI = 0.5 - 1e-12


def phi(z: float) -> float:
    """The symmetric information function ``(1-z)log2(1-z) + (1+z)log2(1+z)``.

    Defined on ``[-1, 1]`` with ``0 log 0 = 0`` by continuity; in bits.
    """
    # phi, i_ab, i_eve and eve_accuracy_at run on every point of a sweep or
    # crossing, so they (and feasible) compare inline; check() words the error.
    if not Z.lo <= z <= Z.hi:
        Z.check("z", z)
    total = 0.0
    for w in (1.0 - z, 1.0 + z):
        if w > 0.0:
            total += w * math.log2(w)
    return total


def i_ab(d: float) -> float:
    """Mutual information of the sifted key at observed error rate ``d``.

    Binary-symmetric-channel value ``phi(1 - 2d)/2``, i.e. ``1 - H2(d)`` bits.
    """
    if not D.lo <= d <= D.hi:
        D.check("d", d)
    return 0.5 * phi(1.0 - 2.0 * d)


def i_eve(p_correct: float) -> float:
    """Eavesdropper's information at bit-guessing probability ``p_correct``.

    Her effective flip rate is ``1 - p_correct``, giving ``phi(2 p - 1)/2``.
    """
    if not P_CORRECT.lo <= p_correct <= P_CORRECT.hi:
        P_CORRECT.check("p_correct", p_correct)
    return 0.5 * phi(2.0 * p_correct - 1.0)


def feasible(d_ab: float, p_correct: float) -> bool:
    """Whether one-way privacy amplification can still distill a secret key.

    Evaluates ``d_ab < 1 - p_correct``, which is equivalent to the information
    inequality ``i_ab(d_ab) > i_eve(p_correct)`` by monotonicity of ``phi``.
    """
    if not D.lo <= d_ab <= D.hi:
        D.check("d_ab", d_ab)
    if not P_CORRECT.lo <= p_correct <= P_CORRECT.hi:
        P_CORRECT.check("p_correct", p_correct)
    return d_ab < 1.0 - p_correct


@dataclass(frozen=True)
class InfoCurvePoint:
    """One point of the two information curves at observed error rate ``d_ab``."""

    d_ab: float
    i_ab_bits: float
    i_ae_bits: float

    def __post_init__(self) -> None:
        for value in (self.i_ab_bits, self.i_ae_bits):
            if not -1e-12 <= value <= 1.0 + 1e-12:
                raise ValueError(f"information must lie in [0, 1] bits, got {value!r}")

    @property
    def feasible(self) -> bool:
        """Whether one-way distillation still works at this point."""
        return self.i_ab_bits > self.i_ae_bits


def info_curve_point(
    kind: str, d_ab: float, mu: float | None = None, eta: float | None = None
) -> InfoCurvePoint:
    """Evaluate both information curves for ``kind`` at one error rate."""
    # eve_accuracy_at runs first, so that an error names d_ab
    i_ae_bits = i_eve(eve_accuracy_at(kind, d_ab, mu, eta))
    return InfoCurvePoint(d_ab=d_ab, i_ab_bits=i_ab(d_ab), i_ae_bits=i_ae_bits)


def _attack(kind: str, mu: float | None, eta: float | None) -> type[Attack]:
    """Look ``kind`` up in the attack table and check the line it is given.

    ``mu`` and ``eta`` are checked whenever they are given, so every kind
    shares one domain; the kinds that use the line also require them.
    """
    if kind not in ATTACKS:
        raise ValueError(f"kind must be one of {THRESHOLD_KINDS}, got {kind!r}")
    attack = ATTACKS[kind]
    if attack.uses_channel and (mu is None or eta is None):
        raise ValueError(f"kind {kind!r} requires mu and eta")
    if mu is not None:
        MU.check("mu", mu)
    if eta is not None:
        UNIT.check("eta", eta)
    return attack


def threshold(
    kind: str, mu: float | None = None, eta: float | None = None
) -> ThresholdResult:
    """Closed-form largest tolerable error rate against the given attack.

    Single-photon values: ``1/(2(1+sqrt(2)))`` for intercept-resend and
    ``(2-sqrt(2))/4`` for the optimal probe attack.  The pulsed variants
    shrink these by the tap dilution; photon-number splitting shrinks further
    and collapses to zero once the line is lossy enough for a total break.
    ``mu`` and ``eta`` are ignored for the single-photon kinds.
    """
    return _attack(kind, mu, eta).threshold(mu, eta)


def eve_accuracy_at(
    kind: str, d_ab: float, mu: float | None = None, eta: float | None = None
) -> float:
    """Eavesdropper's guess probability as a function of the observed error rate.

    The attack strength (and the tap or blocking, matched to the line) is the
    one that produces ``d_ab``.  The curve is the analytic continuation beyond
    the attack's physical range (needed so the information crossing and the
    linear criterion coincide); the returned value is capped at 1.
    """
    attack = _attack(kind, mu, eta)
    if not D.lo <= d_ab <= D.hi:
        D.check("d_ab", d_ab)
    return attack.guess_at(d_ab, mu, eta)


def crossing_point(
    kind: str, mu: float | None = None, eta: float | None = None
) -> float:
    """Error rate where the parties' information meets the eavesdropper's.

    Bisects ``i_ab(d) = i_eve(eve_accuracy_at(kind, d))`` on
    ``(1e-12, 1/2 - 1e-12)``; both curves are monotone there.  The bisection
    stops once the midpoint is no longer strictly between the ends: the
    bracket is then two adjacent floats (at most about 90 halvings of this
    one), and any further step would return the same midpoint.  Returns 0
    when the eavesdropper's curve already sits at one bit at the lower end,
    as in the photon-number-splitting total-break region.
    """
    curve = _attack(kind, mu, eta).guess_at

    def gap(d: float) -> float:
        return i_ab(d) - i_eve(curve(d, mu, eta))

    lo, hi = _BISECT_LO, _BISECT_HI
    if gap(lo) <= 0.0:
        return 0.0
    mid = 0.5 * (lo + hi)
    while lo < mid < hi:
        if gap(mid) > 0.0:
            lo = mid
        else:
            hi = mid
        mid = 0.5 * (lo + hi)
    return mid
