"""Polarization states and the Breidbart measurement for four-state QKD.

Everything lives in a real two-dimensional polarization space spanned by
``|x> = (1, 0)`` and ``|y> = (0, 1)``.  The conjugate basis holds the
Hadamard images ``u = (x + y)/sqrt(2)`` and ``v = (x - y)/sqrt(2)``.
Logical bit values use the standard assignment x, v -> 0 and y, u -> 1.
Amplitudes are real throughout; photon number is modelled separately in
:mod:`bb84eve.pulse_optics`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

#: Measurement angle of the intermediate (Breidbart) basis, the maximizer of
#: the bit-guessing probability over all projective measurements.
BREIDBART_ANGLE = math.pi / 8

KET_X = np.array([1.0, 0.0])
KET_Y = np.array([0.0, 1.0])
KET_U = np.array([1.0, 1.0]) / math.sqrt(2.0)
KET_V = np.array([1.0, -1.0]) / math.sqrt(2.0)

#: The four signals, indexed [basis][bit] with bases (XY, UV): the bit-0/bit-1
#: kets are (x, y) and (v, u).
SIGNAL_KETS = ((KET_X, KET_Y), (KET_V, KET_U))


@dataclass(frozen=True)
class BreidbartBasis:
    """Orthonormal measurement basis rotated by ``theta`` from the XY basis.

    ``ket0 = (cos(theta), -sin(theta))`` is the outcome associated with logical
    bit 0 and ``ket1 = (sin(theta), cos(theta))`` with bit 1.
    """

    theta: float
    ket0: np.ndarray
    ket1: np.ndarray


def breidbart_basis(theta: float = BREIDBART_ANGLE) -> BreidbartBasis:
    """Build the rotated measurement basis at angle ``theta``."""
    ket0 = np.array([math.cos(theta), -math.sin(theta)])
    ket1 = np.array([math.sin(theta), math.cos(theta)])
    return BreidbartBasis(theta=theta, ket0=ket0, ket1=ket1)


def breidbart_guess_prob(theta: float) -> float:
    """Probability of guessing the logical bit from one measurement at ``theta``.

    Closed form ``1/2 + (cos(2 theta) + sin(2 theta))/4``, averaged over the
    four equiprobable signals.  Maximized at ``theta = pi/8`` where it equals
    ``(2 + sqrt(2))/4``.
    """
    return 0.5 + 0.25 * (math.cos(2.0 * theta) + math.sin(2.0 * theta))


_BB = breidbart_basis()

#: P(Breidbart outcome M0 | signal), indexed [basis, bit].
BREIDBART_M0 = np.array([[float(_BB.ket0 @ ket) ** 2 for ket in kets] for kets in SIGNAL_KETS])

#: P(receiver reads bit 1 | resent Breidbart state of outcome m), indexed
#: [receiver basis, m]; the bit-1 kets are y and u.
BREIDBART_RESEND_BIT1 = np.array(
    [[float(b1 @ k) ** 2 for k in (_BB.ket0, _BB.ket1)] for b1 in (KET_Y, KET_U)]
)
BREIDBART_M0.setflags(write=False)
BREIDBART_RESEND_BIT1.setflags(write=False)
