"""Expectations for the benchmark's checks, computed independently of bb84eve.

Every tallied quantity of a session is derived here from the physics by
explicit sums over the source photon number ``n`` (and over the splitter
routing ``j`` of those photons), with the Poisson and binomial weights taken
from ``scipy.stats``.  Nothing here calls the package: not its closed forms,
not ``analytic_expectations`` and not its ``*_series`` oracles.

The per-pulse model (the sender's uniform bit and basis, a Poissonian photon
number, the attack, the receiver's uniform basis, sifting on same-basis
detections, 50/50 routing of wrong-basis photons) is the one stated in the
package's documentation.  Each attack is written out as a list of outcomes
per photon number: probability, photons reaching the receiver, receiver's
error probability and the eavesdropper's probability of holding the right
bit.  Everything else follows from that list.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy import stats

from workloads import Variant

#: Largest photon number tracked.  Each sum stops at mu + 12 sqrt(mu) + 30
#: photons, where the Poisson tail is below 1e-40 for every mu <= 5 the
#: benchmark uses.
N_MAX = 90

#: A binomial or Poisson count more than this many standard errors from its
#: expectation fails a check.  With a few hundred checks per run the chance of
#: a false alarm is below 1e-5.
Z_GATE = 5.5

#: Smallest chi-square p-value that passes.
P_GATE = 1e-7

#: The Breidbart basis sits pi/8 away from both bit-0 states of the two BB84
#: bases, so one Breidbart measurement yields the right bit with
#: cos^2(pi/8) = (2 + sqrt 2)/4, and a state resent from it is read wrongly in
#: the sender's basis with cos^2 sin^2 + sin^2 cos^2 = 1/4.
BREIDBART_CORRECT = math.cos(math.pi / 8) ** 2
RESEND_ERROR = 2.0 * (math.cos(math.pi / 8) * math.sin(math.pi / 8)) ** 2

SQRT2 = math.sqrt(2.0)
IR_THRESHOLD = 1.0 / (2.0 * (1.0 + SQRT2))
OPT_THRESHOLD = (2.0 - SQRT2) / 4.0


def helstrom(d: float) -> float:
    """Probe discrimination success: Helstrom bound at probe overlap 1 - 2d."""
    overlap = 1.0 - 2.0 * d
    return 0.5 * (1.0 + math.sqrt(max(0.0, 1.0 - overlap * overlap)))


def h2(p: float) -> float:
    """Binary entropy in bits, with 0 log 0 = 0."""
    return -sum(q * math.log2(q) for q in (p, 1.0 - p) if q > 0.0)


@functools.lru_cache(maxsize=None)
def _binom(n: int, p: float) -> np.ndarray:
    pmf = stats.binom.pmf(np.arange(n + 1), n, p)
    pmf.flags.writeable = False  # shared by every caller through the cache
    return pmf


@functools.lru_cache(maxsize=None)
def majority_correct(k: int, c: float = BREIDBART_CORRECT) -> float:
    """Chance that a majority vote over ``k`` Breidbart readings is right.

    Each photon is read independently and is right with probability ``c``;
    a tie is broken by a fair coin.
    """
    j = np.arange(k + 1)
    pmf = stats.binom.pmf(j, k, c)
    return float(pmf[2 * j > k].sum() + 0.5 * pmf[2 * j == k].sum())


def _outcomes(v: Variant):
    """Yield (probability, receiver photons, error prob, eve-correct prob, scenario).

    ``eve-correct`` is ``None`` without an eavesdropper; ``scenario`` is the
    splitter routing outcome for the beam-splitter attacks, else ``None``.
    Error and eve-correct probabilities only matter when photons >= 1.
    """
    n_max = min(N_MAX, int(v.mu + 12.0 * math.sqrt(v.mu) + 30.0))
    p_n = stats.poisson.pmf(np.arange(n_max + 1), v.mu)
    kind = v.kind
    for n in range(n_max + 1):
        pn = float(p_n[n])
        if kind in ("none", "opt"):
            eve = None if kind == "none" else helstrom(v.d)
            err = 0.0 if kind == "none" else v.d
            for k, pk in enumerate(_binom(n, v.eta)):
                yield pn * pk, k, err, eve, None
        elif kind == "ir":
            if n == 0:
                yield pn, 0, 0.0, 0.5, None
                continue
            yield pn * v.eps * v.eta, 1, RESEND_ERROR, BREIDBART_CORRECT, None
            yield pn * v.eps * (1.0 - v.eta), 0, 0.0, 0.5, None
            for k, pk in enumerate(_binom(n, v.eta)):
                yield pn * (1.0 - v.eps) * pk, k, 0.0, 0.5, None
        elif kind in ("bs-ir", "bs-opt"):
            if n == 0:
                yield pn, 0, 0.0, 0.5, "empty"
                continue
            for j, pj in enumerate(pn * _binom(n, v.t)):
                k_eve = n - j
                if j == 0:
                    yield pj, 0, 0.0, 0.5, "eve_only"
                elif k_eve >= 1:
                    if kind == "bs-opt":
                        tap = 1.0
                    elif v.rule == "majority":
                        tap = majority_correct(k_eve)
                    else:
                        tap = BREIDBART_CORRECT
                    yield pj, j, 0.0, tap, "both"
                elif kind == "bs-opt":
                    yield pj, j, v.d, helstrom(v.d), "bob_only"
                else:
                    hit = 4.0 * v.d
                    yield pj * hit, 1, RESEND_ERROR, BREIDBART_CORRECT, "bob_only"
                    yield pj * (1.0 - hit), j, 0.0, 0.5, "bob_only"
        elif kind == "pns":
            if n >= 2:
                yield pn, n - 1, 0.0, 1.0, None
            elif n == 1:
                yield pn * (1.0 - v.kappa), 1, v.d, helstrom(v.d), None
                yield pn * v.kappa, 0, 0.0, 0.5, None
            else:
                yield pn, 0, 0.0, 0.5, None
        else:
            raise ValueError(f"unknown variant {v.name!r}")


@dataclass(frozen=True)
class SessionExpectation:
    """Per-pulse probabilities of every tallied event, and the photon law."""

    sifted_rate: float
    nonempty_rate: float
    coincidence_rate: float
    qber: float
    eve_accuracy: float | None
    scenario: dict[str, float] | None
    bob_pmf: np.ndarray


def session_expectation(v: Variant) -> SessionExpectation:
    pmf = np.zeros(N_MAX + 1)
    detected = err = eve = 0.0
    has_eve = v.kind != "none"
    scenario: dict[str, float] | None = None
    if v.kind.startswith("bs-"):
        scenario = dict.fromkeys(("both", "eve_only", "bob_only", "empty"), 0.0)
    for prob, k, e, g, scen in _outcomes(v):
        pmf[k] += prob
        if k >= 1:
            detected += prob
            err += prob * e
            if has_eve:
                eve += prob * g
        if scenario is not None:
            scenario[scen] += prob
    k = np.arange(N_MAX + 1)
    # Wrong basis (1/2) and a 50/50 routing of k photons that fires both
    # detectors: 1 - 2 * 2^-k.
    both_fire = np.where(k >= 1, 1.0 - 2.0 ** (1 - k.astype(float)), 0.0)
    return SessionExpectation(
        sifted_rate=0.5 * detected,
        nonempty_rate=detected,
        coincidence_rate=0.5 * float(pmf @ both_fire),
        qber=err / detected if detected else math.nan,
        eve_accuracy=(eve / detected if detected else math.nan) if has_eve else None,
        scenario=scenario,
        bob_pmf=pmf,
    )


# ------------------------------------------------------------ closed forms


def bs_ir_coincidence(t: float, mu: float, d: float) -> float:
    """Coincidence rate under beam-splitter plus intercept-resend.

    A resent pulse carries one photon, and Poisson splitting makes the two
    arms independent, so the untapped-pulse share ``4 d e^(-mu(1-t))`` of the
    no-attack coincidences is lost.
    """
    em = t * mu
    base = 0.5 * (1.0 + math.exp(-em) - 2.0 * math.exp(-em / 2.0))
    return base * (1.0 - 4.0 * d * math.exp(-mu * (1.0 - t)))


def pns_coincidence(mu: float) -> float:
    """Coincidence rate after one photon is skimmed off each multi-photon pulse."""
    e = math.exp(-mu)
    return 0.5 * (
        1.0 - e * (1.0 + mu + mu * mu / 2.0)
        - 4.0 * e * (math.exp(mu / 2.0) - 1.0 - mu / 2.0 - mu * mu / 8.0)
    )


def eta_star(mu: float) -> float:
    """Transmission at or below which PNS blocking reaches kappa = 1."""
    return 1.0 - math.log1p(mu) / mu


def pns_kappa(mu: float, eta: float) -> float:
    """Blocking fraction that keeps the receiver's non-empty rate at 1 - e^(-eta mu).

    Blocking kappa of the single-photon pulses leaves
    ``1 - e^(-mu) - kappa mu e^(-mu)`` non-empty; solve for kappa.
    """
    return (math.exp(-eta * mu) - math.exp(-mu)) / (mu * math.exp(-mu))


def eve_accuracy_curve(kind: str, d_ab: float, mu: float, eta: float) -> float:
    """Eavesdropper's guess probability at observed error rate ``d_ab``.

    The attack strength is chosen so that the diluted disturbance equals
    ``d_ab``; single-photon Breidbart and probe guesses are mixed with the
    perfectly read multi-photon or tapped share, and the result is capped at 1.
    """
    if kind == "ir":
        eps = 4.0 * d_ab
        return min(1.0, 0.5 + eps * (BREIDBART_CORRECT - 0.5))
    if kind == "opt":
        return helstrom(d_ab)
    untapped = math.exp(-mu * (1.0 - eta))  # share of detections the tap missed
    if kind == "bs_ir":
        hit = 4.0 * d_ab / untapped
        untapped_guess = hit * BREIDBART_CORRECT + (1.0 - hit) * 0.5
        return min(1.0, (1.0 - untapped) * BREIDBART_CORRECT + untapped * untapped_guess)
    if kind == "bs_opt":
        return (1.0 - untapped) + untapped * helstrom(min(d_ab / untapped, 0.5))
    if kind == "pns":
        kappa = pns_kappa(mu, eta)
        if kappa >= 1.0:
            return 1.0
        e = math.exp(-mu)
        multi = 1.0 - e - mu * e
        kept = (1.0 - kappa) * mu * e
        probe_d = min(d_ab * (multi + kept) / kept, 0.5)
        return min(1.0, (multi + kept * helstrom(probe_d)) / (multi + kept))
    raise ValueError(f"unknown kind {kind!r}")


def scenario_sums(mu: float, t: float) -> dict[str, float]:
    """Splitter routing-outcome probabilities by summing over photon numbers."""
    v = Variant("bs-opt", mu=mu, t=t)
    return session_expectation(v).scenario


def coincidence_sum(eta: float, mu: float) -> float:
    """No-attack coincidence rate by summing over photon numbers."""
    return session_expectation(Variant("none", mu=mu, eta=eta)).coincidence_rate


# ----------------------------------------------------------------- tests


def z_score(count: int, trials: int, p: float) -> float:
    """Standard score of a binomial count; inf when an impossible count shows."""
    if p <= 0.0 or p >= 1.0:
        return 0.0 if count == round(p * trials) else math.inf
    return (count - trials * p) / math.sqrt(trials * p * (1.0 - p))


def chi_square_p(observed, expected_probs) -> float:
    """p-value of observed counts against a law, pooling a sparse upper tail.

    A bin whose probability is exactly 0 must be empty (p = 0 otherwise).
    Bins from the top are pooled until the pooled expected count is at least 10.
    """
    obs = np.asarray(observed, dtype=float)
    probs = np.zeros(len(obs))
    n = min(len(obs), len(expected_probs))
    probs[:n] = expected_probs[:n]
    probs[-1] += float(np.sum(expected_probs[n:]))
    if np.any((probs == 0.0) & (obs > 0)):
        return 0.0
    total = obs.sum()
    keep = probs > 0.0
    obs, exp = obs[keep], probs[keep] * total
    while len(exp) > 2 and exp[-1] < 10.0:
        exp = np.append(exp[:-2], exp[-2] + exp[-1])
        obs = np.append(obs[:-2], obs[-2] + obs[-1])
    if len(exp) < 2:
        return 1.0
    stat = float(np.sum((obs - exp) ** 2 / exp))
    return float(stats.chi2.sf(stat, len(exp) - 1))


def check_session(stats_dict: dict, exp: SessionExpectation) -> list[str]:
    """Every tallied quantity of one session against its expectation.

    Returns the list of failed checks (empty when all pass).
    """
    s = stats_dict
    n = s["n_pulses"]
    bad = []
    hist = s["bob_count_hist"]
    if sum(hist) != n:
        bad.append(f"histogram sums to {sum(hist)}, not {n}")
    if hist[0] != n - s["nonempty_count"]:
        bad.append("histogram bin 0 is not the empty-pulse count")
    if not s["error_count"] <= s["sifted_count"] <= s["nonempty_count"]:
        bad.append("errors <= sifted <= nonempty violated")
    if s["coincidence_count"] > s["nonempty_count"] - s["sifted_count"]:
        bad.append("more coincidences than wrong-basis detections")
    if (s["scenario_counts"] is None) != (exp.scenario is None):
        bad.append("scenario counts present/absent unexpectedly")
    elif exp.scenario is not None:
        if sum(s["scenario_counts"].values()) != n:
            bad.append("scenario counts do not sum to the pulse count")
        keys = list(exp.scenario)
        p = chi_square_p([s["scenario_counts"][k] for k in keys], [exp.scenario[k] for k in keys])
        if p < P_GATE:
            bad.append(f"scenario fractions chi-square p={p:.2e}")
    p = chi_square_p(hist, exp.bob_pmf)
    if p < P_GATE:
        bad.append(f"receiver photon histogram chi-square p={p:.2e}")

    sifted = s["sifted_count"]
    for name, count, trials, prob in (
        ("sifted_rate", sifted, n, exp.sifted_rate),
        ("nonempty_rate", s["nonempty_count"], n, exp.nonempty_rate),
        ("coincidence_rate", s["coincidence_count"], n, exp.coincidence_rate),
        ("qber", s["error_count"], sifted, exp.qber),
    ):
        z = z_score(count, trials, prob)
        if abs(z) > Z_GATE:
            bad.append(f"{name}: {count}/{trials} vs {prob:.6g} (z={z:.2f})")
    if exp.eve_accuracy is None:
        if s["eve_correct_count"] is not None or s["eve_accuracy"] != 0.5:
            bad.append("eavesdropper record present without an attack")
    else:
        z = z_score(s["eve_correct_count"], sifted, exp.eve_accuracy)
        if abs(z) > Z_GATE:
            bad.append(f"eve_accuracy: z={z:.2f} vs {exp.eve_accuracy:.6g}")
    return bad


def self_check() -> list[str]:
    """The module's sums against its own closed forms and the quoted values."""
    bad = []
    for mu, t, d in ((1.0, 0.9, 0.1), (0.1, 0.5, 0.1), (3.0, 0.5, 0.1)):
        got = session_expectation(Variant("bs-ir", mu=mu, t=t, d=d)).coincidence_rate
        if abs(got - bs_ir_coincidence(t, mu, d)) > 1e-13:
            bad.append(f"bs-ir coincidence sum vs closed form at mu={mu}")
        got = session_expectation(Variant("pns", mu=mu, kappa=0.3, d=d)).coincidence_rate
        if abs(got - pns_coincidence(mu)) > 1e-13:
            bad.append(f"pns coincidence sum vs closed form at mu={mu}")
    maj = session_expectation(Variant("bs-ir-majority", mu=3.0, t=0.5, d=0.1, rule="majority"))
    if abs(maj.eve_accuracy - 0.82374) > 5e-6:
        bad.append(f"majority accuracy {maj.eve_accuracy} is not 0.82374")
    return bad
