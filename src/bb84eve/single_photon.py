"""Single-photon eavesdropping strategies and their closed-form performance.

Two strategies are covered.  Intercept-resend: the eavesdropper measures a
fraction ``eps`` of the signals in the Breidbart basis and forwards the basis
state matching her outcome.  The symmetric probe attack: a two-qubit probe is
entangled with each signal by a unitary chosen so that every state sees the
same fidelity ``F = 1 - D``; the probe is stored and measured only after the
basis announcement, which makes it the strongest attack on one signal at a
time.  Both come with closed-form guess probabilities, and the probe attack
with an explicit probe construction and unitarity verification.  Their
sampling simulators are engine runs on a one-photon source (see
:mod:`bb84eve.engine`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .domain import D, D_IR, Z
from .states import KET_U, KET_V, KET_X, KET_Y

_TOL = 1e-12

SQRT2 = math.sqrt(2.0)

#: Guess probability of a full-strength Breidbart intercept-resend, (2+sqrt(2))/4.
IR_MAX_GUESS_PROB = (2.0 + SQRT2) / 4.0


def ir_guess_given_disturbance(d: float) -> float:
    """Intercept-resend guess probability ``sqrt(2) d + 1/2`` at error rate ``d``.

    ``d`` may not exceed 1/4, the error rate when every signal is measured.
    """
    D_IR.check("d", d)
    return SQRT2 * d + 0.5


def helstrom(overlap: float) -> float:
    """Best probability of discriminating two equiprobable pure states.

    ``1/2 + 1/2 sqrt(1 - overlap^2)`` for states with the given real overlap.
    """
    Z.check("overlap", overlap)
    return 0.5 + 0.5 * math.sqrt(1.0 - overlap * overlap)


def opt_guess_prob(d: float) -> float:
    """Guess probability ``1/2 + sqrt(d(1-d))`` of the optimal probe attack."""
    # checked inline: every point of a probe or PNS sweep lands here
    if not D.lo <= d <= D.hi:
        D.check("d", d)
    return 0.5 + math.sqrt(d * (1.0 - d))


@dataclass(frozen=True)
class ProbeModel:
    """Scalar parameters of the symmetric probe interaction.

    ``fidelity`` and ``disturbance`` are the squared norms of the probe
    components that leave the signal intact or flip it; they sum to one.
    ``fidelity_overlap`` and ``disturbance_overlap`` are the inner products
    between the two keep-type and the two flip-type probe components.  The
    symmetry of the interaction forces
    ``fidelity - disturbance = fidelity_overlap + disturbance_overlap`` and
    the optimal attack additionally equalizes the normalized overlaps.
    """

    fidelity: float
    disturbance: float
    fidelity_overlap: float
    disturbance_overlap: float

    def __post_init__(self) -> None:
        D.check("disturbance", self.disturbance)
        if abs(self.fidelity + self.disturbance - 1.0) > _TOL:
            raise ValueError("fidelity + disturbance must equal 1")
        lhs = self.fidelity - self.disturbance
        rhs = self.fidelity_overlap + self.disturbance_overlap
        if abs(lhs - rhs) > _TOL:
            raise ValueError("overlaps violate the basis-change symmetry constraint")
        if abs(self.fidelity_overlap * self.disturbance
               - self.disturbance_overlap * self.fidelity) > _TOL:
            raise ValueError("normalized overlaps of the two probe sets must be equal")

    @property
    def probe_overlap(self) -> float:
        """Common normalized overlap within each probe set, ``1 - 2 d``."""
        return self.fidelity_overlap / self.fidelity


def probe_model_from_disturbance(d: float) -> ProbeModel:
    """Optimal probe parameters at disturbance ``d``.

    Solving the three constraints gives ``F = 1 - d``,
    ``F1 = F (1 - 2 d)`` and ``D1 = d (1 - 2 d)``.
    """
    D.check("d", d)
    fidelity = 1.0 - d
    ratio = 1.0 - 2.0 * d
    return ProbeModel(
        fidelity=fidelity,
        disturbance=d,
        fidelity_overlap=fidelity * ratio,
        disturbance_overlap=d * ratio,
    )


@dataclass(frozen=True)
class ProbeVectors:
    """Normalized probe states in a real four-dimensional space.

    Named by what they record: ``xx`` is the probe component left behind when
    the sender used ``|x>`` and the receiver gets ``|x>``, ``xy`` when the
    receiver gets ``|y>``, and so on.  The keep set {xx, yy} spans the first
    two axes and the flip set {xy, yx} the last two, so the sets are exactly
    orthogonal; within each set the overlap matches the model.
    """

    xx: np.ndarray
    xy: np.ndarray
    yx: np.ndarray
    yy: np.ndarray


def construct_probe_vectors(model: ProbeModel) -> ProbeVectors:
    """Embed the four probe states canonically in R^4.

    Any embedding that reproduces the pairwise overlaps is physically
    equivalent; this one puts the keep set at angles ``+-alpha`` in the
    (e1, e2) plane with ``cos(2 alpha)`` equal to the normalized keep overlap,
    and the flip set likewise in the (e3, e4) plane.
    """
    keep = model.fidelity_overlap / model.fidelity
    if abs(keep) > 1.0:
        raise ValueError(f"normalized keep overlap {keep!r} outside [-1, 1]")
    if model.disturbance > 0.0:
        flip = model.disturbance_overlap / model.disturbance
        if abs(flip) > 1.0:
            raise ValueError(f"normalized flip overlap {flip!r} outside [-1, 1]")
    else:
        flip = 1.0  # degenerate set, never populated
    alpha = 0.5 * math.acos(max(-1.0, min(1.0, keep)))
    beta = 0.5 * math.acos(max(-1.0, min(1.0, flip)))
    return ProbeVectors(
        xx=np.array([math.cos(alpha), math.sin(alpha), 0.0, 0.0]),
        yy=np.array([math.cos(alpha), -math.sin(alpha), 0.0, 0.0]),
        xy=np.array([0.0, 0.0, math.cos(beta), math.sin(beta)]),
        yx=np.array([0.0, 0.0, math.cos(beta), -math.sin(beta)]),
    )


@dataclass(frozen=True)
class UnitarityReport:
    """Gram matrices of the joint states before and after the interaction."""

    input_gram: np.ndarray
    output_gram: np.ndarray
    max_deviation: float


def _interaction_entries(model: ProbeModel) -> tuple[np.ndarray, ...]:
    """Unnormalized probe entries (xx, xy, yx, yy) of the interaction matrix."""
    vecs = construct_probe_vectors(model)
    sf = math.sqrt(model.fidelity)
    sd = math.sqrt(model.disturbance)
    return sf * vecs.xx, sd * vecs.xy, sd * vecs.yx, sf * vecs.yy


def _conjugate_entries(
    entries: tuple[np.ndarray, ...],
) -> tuple[np.ndarray, ...]:
    """Hadamard-conjugate the 2x2 matrix of probe entries into the UV basis."""
    axx, axy, ayx, ayy = entries
    return (
        0.5 * (axx + axy + ayx + ayy),
        0.5 * (axx - axy + ayx - ayy),
        0.5 * (axx + axy - ayx - ayy),
        0.5 * (axx - axy - ayx + ayy),
    )


def verify_unitarity(model: ProbeModel) -> UnitarityReport:
    """Check that the probe interaction preserves all signal overlaps.

    Builds the four joint probe-plus-signal output vectors in the
    eight-dimensional product space (XY images directly, UV images through the
    Hadamard-conjugated probe matrix) and compares their Gram matrix with the
    Gram matrix of the four input signals.  A deviation at rounding level
    certifies that the interaction extends to a unitary.
    """
    axx, axy, ayx, ayy = _interaction_entries(model)
    bxx, bxy, byx, byy = _conjugate_entries((axx, axy, ayx, ayy))

    # Kronecker products of vectors, as flattened outer products.
    out_x = (np.outer(axx, KET_X) + np.outer(axy, KET_Y)).ravel()
    out_y = (np.outer(ayx, KET_X) + np.outer(ayy, KET_Y)).ravel()
    out_u = (np.outer(bxx, KET_U) + np.outer(bxy, KET_V)).ravel()
    out_v = (np.outer(byx, KET_U) + np.outer(byy, KET_V)).ravel()

    inputs = (KET_X, KET_Y, KET_U, KET_V)
    outputs = (out_x, out_y, out_u, out_v)
    input_gram = np.array([[float(a @ b) for b in inputs] for a in inputs])
    output_gram = np.array([[float(a @ b) for b in outputs] for a in outputs])
    dev = float(np.max(np.abs(output_gram - input_gram)))
    return UnitarityReport(input_gram=input_gram, output_gram=output_gram, max_deviation=dev)


def basis_symmetry_deviation(model: ProbeModel) -> float:
    """Largest mismatch between probe overlaps in the two encoding bases.

    The Hadamard-conjugated entries must reproduce every pairwise overlap of
    the XY entries; returns the max absolute difference over all 16 pairs.
    """
    xy_entries = _interaction_entries(model)
    uv_entries = _conjugate_entries(xy_entries)
    dev = 0.0
    for a_xy, a_uv in zip(xy_entries, uv_entries):
        for b_xy, b_uv in zip(xy_entries, uv_entries):
            dev = max(dev, abs(float(a_uv @ b_uv) - float(a_xy @ b_xy)))
    return dev
