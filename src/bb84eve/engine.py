"""Photon-level Monte Carlo of complete key-distribution sessions under attack.

Per pulse: the sender draws a uniform (bit, basis) pair and a Poissonian
photon count; the configured attack transforms the pulse (photons forwarded,
eavesdropper's record); the receiver picks a uniform basis and measures.
Same-basis pulses with at least one arriving photon enter the sifted key;
their outcome is signal-level, since every photon in a pulse shares one
polarization.  Wrong-basis pulses route each photon 50/50 between the two
detectors and can fire both at once; these coincidences are tallied as the
photon-statistics monitor.  Attacks that insert hardware into the line
(beam-splitter and photon-number-splitting variants) replace the lossy
channel with a lossless one, so the configured ``eta`` applies only to the
no-attack and source-side single-photon strategies.

Intercept-resend forwards a single freshly prepared photon in the measured
Breidbart state; resent pulses therefore never produce same-basis double
clicks, and the engine checks that no resent pulse carries more than one
photon.  Probe attacks leave photon counts untouched and flip the sifted
outcome with the attack's disturbance.

The source law is read in one place: each photon count is drawn by inverse
CDF, from one uniform, out of the cumulative table of the share of the pulse
it counts.  A laser pulse is Poissonian, and Poisson splitting does the
rest: when each photon of a Poisson(m) pulse goes one way with probability
p and the other way otherwise, independently, the two shares are
independent Poissons of means ``m p`` and ``m (1-p)``.  So no pulse is
thinned or split photon by photon, and only the counts some tally reads are
drawn.

Only live pulses are drawn at all.  Pulses are exchangeable and no tally
depends on their order, so a batch first draws how many of its pulses are
live, binomially, and gives only those a signal and photon counts, from
tables conditioned on the pulse being live.  A dead pulse delivers nothing
to anyone: it is tallied as an empty pulse, and as the ``empty`` scenario
under a beam-splitter attack.  What makes a pulse live, and what is drawn
for it, depends on the attack:

- no attack and the probe attack: the receiver's share holds a photon, with
  probability ``1 - e^(-mu eta)``; the receiver's count is then
  zero-truncated Poisson(mu eta).  The probe flips only pulses that left
  the source with a photon, which every sifted pulse did;
- the other attacks: the source emitted a photon, with probability
  ``1 - e^(-mu)``.  The dead pulses all lie inside each share's zero count,
  so a share counting Poisson(mu p) has, given a live pulse,
  P(k <= j) = (P_p(k <= j) - e^(-mu)) / (1 - e^(-mu));
- intercept-resend: the line's share, Poisson(mu eta), given a live pulse.
  Every live pulse is one to intercept; a resent photon arrives with
  probability eta;
- beam-splitter attacks: the receiver's arm, Poisson(mu t), given a live
  pulse; then the tap, independent of the arm, Poisson(mu (1-t)) where the
  arm holds a photon and zero-truncated where it does not;
- photon-number splitting: the source count, zero-truncated Poisson(mu); a
  multi-photon pulse delivers all but the photon taken.

A one-photon pulse on a lossless line is always live, and its count, all
of which reaches the receiver, has the table ``[0, 1]``.  On this source the
``ir`` and ``opt`` kernels are the single-photon attacks:
:func:`simulate_ir_attack` and :func:`simulate_opt_attack` run them, drawing
in the order below from the ``Generator`` their caller passes.

Outcomes are drawn only where a tally reads them: the eavesdropper's and the
receiver's readings only for sifted pulses, and the detector routing only
for wrong-basis pulses of two photons or more.  Outcomes whose probability
does not depend on the signal (probe flips and guesses, coin-flip guesses)
are drawn as binomial counts over the sifted pulses that share them; the
Breidbart measurements, resent states and tap readouts are drawn per pulse.

Randomness contract: all draws come from counter-based Philox streams.  The
stream for shard ``i`` of a session with seed ``s`` is
``Philox(SeedSequence(entropy=s, spawn_key=(i,)))``; an unsharded run uses
shard 0.  A shard runs in batches of at most ``_BATCH`` pulses, and a batch
draws, in this order:

1. the number of live pulses, one ``Generator.binomial`` draw;
2. one byte per live pulse from ``Generator.bytes``: bit 0 is the sender's
   bit, bit 1 her basis and bit 2 the receiver's basis;
3. one uniform per live pulse for each photon count above, in the order
   listed (the tap's two laws read the same uniform);
4. the attack's choices, one uniform per candidate pulse: the live pulses
   intercept-resend takes, the whole pulses the beam-splitter hybrid
   resends, the single-photon pulses PNS blocks; then whether each resent
   photon arrives;
5. the sifted outcomes: tap readouts, Breidbart measurements followed by
   the receiver's readings of the resent states, probe flips followed by
   probe guesses, and coin-flip guesses;
6. the routing of the wrong-basis pulses, in increasing photon count.

Results are reproducible bit for bit for a fixed (seed, n_pulses, n_shards)
regardless of how shards are executed.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from .domain import MEAN, UNIT
from .pulse_attacks import (
    SCENARIO_A_RULES,
    Attack,
    BsInterceptResend,
    BsOptimal,
    InterceptResend,
    OptimalIncoherent,
    Pns,
    line_expectations,
)
from .pulse_optics import OpticalConfig
from .single_photon import opt_guess_prob
from .states import BREIDBART_M0, BREIDBART_RESEND_BIT1

_BATCH = 1 << 20
_HIST_MAX = 63


@dataclass(frozen=True)
class SessionConfig:
    """Everything needed to reproduce one session."""

    optics: OpticalConfig
    attack: Attack | None
    n_pulses: int
    seed: int
    scenario_a_rule: str = "single_result"

    def __post_init__(self) -> None:
        if self.n_pulses < 1:
            raise ValueError(f"n_pulses must be >= 1, got {self.n_pulses!r}")
        if not 0 <= self.seed < 2**64:
            raise ValueError(f"seed must be a 64-bit unsigned integer, got {self.seed!r}")
        if self.scenario_a_rule not in SCENARIO_A_RULES:
            raise ValueError(
                f"scenario_a_rule must be one of {SCENARIO_A_RULES}, "
                f"got {self.scenario_a_rule!r}"
            )


def shard_rng(seed: int, shard_index: int) -> np.random.Generator:
    """Philox stream for one shard; the documented derivation rule."""
    seq = np.random.SeedSequence(entropy=seed, spawn_key=(shard_index,))
    return np.random.Generator(np.random.Philox(seq))


def _stderr(p: float, n: int) -> float:
    return math.sqrt(p * (1.0 - p) / n) if n > 0 else float("nan")


@dataclass(frozen=True)
class SessionStats:
    """Merged counters of a session, with binomial rates and standard errors.

    ``eve_correct_count`` is ``None`` when no eavesdropper was configured; the
    accuracy then reads 0.5 by convention.  ``scenario_counts`` is present
    only for beam-splitter attacks and sums to ``n_pulses``.
    ``bob_count_hist[i]`` counts pulses delivering ``i`` photons (last bin
    collects overflow).
    """

    n_pulses: int
    sifted_count: int
    error_count: int
    eve_correct_count: int | None
    nonempty_count: int
    coincidence_count: int
    scenario_counts: dict[str, int] | None
    bob_count_hist: tuple[int, ...]

    @property
    def qber(self) -> float:
        return self.error_count / self.sifted_count if self.sifted_count else float("nan")

    @property
    def qber_stderr(self) -> float:
        return _stderr(self.qber, self.sifted_count) if self.sifted_count else float("nan")

    @property
    def eve_accuracy(self) -> float:
        if self.eve_correct_count is None:
            return 0.5
        return (
            self.eve_correct_count / self.sifted_count
            if self.sifted_count
            else float("nan")
        )

    @property
    def eve_accuracy_stderr(self) -> float:
        if self.eve_correct_count is None:
            return 0.0
        return _stderr(self.eve_accuracy, self.sifted_count) if self.sifted_count else float("nan")

    @property
    def nonempty_rate(self) -> float:
        return self.nonempty_count / self.n_pulses

    @property
    def nonempty_stderr(self) -> float:
        return _stderr(self.nonempty_rate, self.n_pulses)

    @property
    def coincidence_rate(self) -> float:
        return self.coincidence_count / self.n_pulses

    @property
    def coincidence_stderr(self) -> float:
        return _stderr(self.coincidence_rate, self.n_pulses)

    def to_dict(self) -> dict:
        """JSON-ready representation (NaN rates become null)."""
        def clean(x: float) -> float | None:
            return None if math.isnan(x) else x

        return {
            "n_pulses": self.n_pulses,
            "sifted_count": self.sifted_count,
            "error_count": self.error_count,
            "eve_correct_count": self.eve_correct_count,
            "nonempty_count": self.nonempty_count,
            "coincidence_count": self.coincidence_count,
            "qber": clean(self.qber),
            "qber_stderr": clean(self.qber_stderr),
            "eve_accuracy": clean(self.eve_accuracy),
            "eve_accuracy_stderr": clean(self.eve_accuracy_stderr),
            "nonempty_rate": self.nonempty_rate,
            "nonempty_stderr": self.nonempty_stderr,
            "coincidence_rate": self.coincidence_rate,
            "coincidence_stderr": self.coincidence_stderr,
            "scenario_counts": self.scenario_counts,
            "bob_count_hist": list(self.bob_count_hist),
        }


@dataclass
class _Tally:
    """Mutable accumulator merged associatively across batches and shards."""

    n_pulses: int = 0
    sifted: int = 0
    errors: int = 0
    eve_correct: int | None = None
    nonempty: int = 0
    coincidences: int = 0
    scenario: dict[str, int] | None = None
    hist: np.ndarray = field(default_factory=lambda: np.zeros(_HIST_MAX + 1, dtype=np.int64))

    def add(self, other: "_Tally") -> None:
        self.n_pulses += other.n_pulses
        self.sifted += other.sifted
        self.errors += other.errors
        if other.eve_correct is not None:
            self.eve_correct = (self.eve_correct or 0) + other.eve_correct
        self.nonempty += other.nonempty
        self.coincidences += other.coincidences
        if other.scenario is not None:
            if self.scenario is None:
                self.scenario = dict.fromkeys(other.scenario, 0)
            for key, val in other.scenario.items():
                self.scenario[key] += val
        self.hist += other.hist

    def freeze(self) -> SessionStats:
        return SessionStats(
            n_pulses=self.n_pulses,
            sifted_count=self.sifted,
            error_count=self.errors,
            eve_correct_count=self.eve_correct,
            nonempty_count=self.nonempty,
            coincidence_count=self.coincidences,
            scenario_counts=dict(self.scenario) if self.scenario is not None else None,
            bob_count_hist=tuple(int(c) for c in self.hist),
        )


#: Every uniform is compared directly with the head of a table: its
#: entries up to the first past which less than ``_TAIL_MASS`` of the mass
#: remains, at most ``_MAX_HEAD`` of them.  The rest go to a binary search.
_TAIL_MASS = 1.0 / 64
_MAX_HEAD = 6
#: Terms summed to build a table; for means up to 20 the mass past them is
#: below 1e-50.
_TABLE_TERMS = 128

#: A cumulative table of photon counts and the length of its head.
_Table = tuple[np.ndarray, int]
#: The chance that a pulse is live, and the table of its counted photons
#: given that it is.
_Law = tuple[float, _Table]

#: Bits of a splitter route code: photons on the receiver's arm, photons on
#: the tap; a route code adds 4 when the receiver is in the wrong basis.
_ROUTE_BOB, _ROUTE_EVE = 1, 2
_ROUTE_BOTH = _ROUTE_BOB | _ROUTE_EVE


def _cumulative(pmf: np.ndarray) -> _Table:
    """Cumulative table of ``pmf`` and the length of its head.

    Entries below 1/2 are forward sums of the probabilities and the rest are
    one minus the tail summed from the far end, so each is accurate to about
    an ulp.  The table ends at its first entry that is 1.0 in float64, which
    no uniform in [0, 1) reaches; for the means used here (at most 20) that
    is before entry 70, so a count fits in 7 bits.  The head holds the
    entries up to the first past which less than ``_TAIL_MASS`` of the mass
    remains.
    """
    below = np.cumsum(pmf)
    above = 1.0 - np.append(np.cumsum(pmf[::-1])[-2::-1], 0.0)
    cdf = np.maximum.accumulate(np.where(below < 0.5, below, above))
    cdf = cdf[: int(np.argmax(cdf == 1.0)) + 1].copy()
    head = min(_MAX_HEAD, cdf.size, 1 + int(np.count_nonzero(cdf < 1.0 - _TAIL_MASS)))
    cdf.setflags(write=False)
    return cdf, head


def _series(x: float, first: float, start: int, n: int) -> np.ndarray:
    """The ``n`` running products of ``first``, ``x/start``, ``x/(start+1)``, ..."""
    ratios = np.full(n, float(x))
    ratios[0] = first
    ratios[1:] /= np.arange(start, start + n - 1)
    return np.cumprod(ratios)


def _expm1_ratio(x: float) -> float:
    """``(1 - e^-x) / x``, the chance that a Poisson(x) pulse holds a photon over
    ``x``; it is 1 at ``x = 0``."""
    return -math.expm1(-x) / x if x > 0.0 else 1.0


@functools.lru_cache(maxsize=32)
def _poisson_table(mean: float) -> _Table:
    """Cumulative Poisson(``mean``) table and the length of its head.

    Entry ``n`` is P(N <= n); see :func:`_cumulative`.
    """
    MEAN.check("mean", mean)
    return _cumulative(math.exp(-mean) * _series(mean, 1.0, 1, _TABLE_TERMS))


@functools.lru_cache(maxsize=32)
def _live_table(mean: float, share: float) -> _Table:
    """Table of the photons in ``share`` of a Poisson(``mean``) pulse that holds one.

    The pulse holds a photon with probability ``L = -expm1(-mean)``.  Its
    ``share`` holds Poisson(``x = mean share``) photons and the rest
    independent Poisson(``mean (1-share)``), so given ``L`` the share holds
    ``j >= 1`` photons with probability ``e^-x x^j / j! / L``, and none with
    ``e^-x (1 - e^(-mean (1-share))) / L``.  Both are divided by
    ``L / mean``, which is :func:`_expm1_ratio`, with one factor of ``mean``
    cancelled, so neither is 0/0 where ``mean`` is 0 or underflows: there
    the law tends to one photon, in the share with probability ``share``.
    ``share = 1`` gives the zero-truncated Poisson(``mean``).
    """
    MEAN.check("mean", mean)
    UNIT.check("share", share)
    x = mean * share
    pmf = np.empty(_TABLE_TERMS)
    pmf[0] = (1.0 - share) * _expm1_ratio(mean * (1.0 - share))
    pmf[1:] = _series(x, share, 2, _TABLE_TERMS - 1)
    return _cumulative(pmf * (math.exp(-x) / _expm1_ratio(mean)))


def _poisson_source(mu: float, lit: float, share: float) -> _Law:
    """The live law of a Poisson(``mu``) pulse: the chance that its ``lit``
    share holds a photon, and the table of the photons in ``share`` of that
    part given that it does."""
    return -math.expm1(-mu * lit), _live_table(mu * lit, share)


_ONE_PHOTON_LAWS = {(1.0, 1.0): (1.0, (np.array([0.0, 1.0]), 2))}


def _one_photon_source(lit: float, share: float) -> _Law:
    """The live law of a one-photon pulse on a lossless line: the pulse always
    holds its photon, and all of it reaches the receiver.  No other share is
    drawn on it."""
    return _ONE_PHOTON_LAWS[lit, share]


def _inverse_cdf(u: np.ndarray, table: _Table) -> np.ndarray:
    """Counts by inverse CDF: the number of entries of ``table`` that are ``<= u``.

    Each uniform is compared with the head of the table; only the few past
    the head are placed by binary search.  Returns a writable uint8 array.
    """
    cdf, head = table
    counts = (u >= cdf[0]).view(np.uint8)
    for edge in cdf[1:head]:
        counts += u >= edge
    rest = np.flatnonzero(u >= cdf[head - 1])
    counts[rest] = np.searchsorted(cdf, u[rest], side="right")
    return counts


def _by_count(k: np.ndarray, wrong: np.ndarray) -> np.ndarray:
    """Pulses by receiver photon count: row 0 in the sender's basis, row 1 not.

    ``wrong`` is 128 for a wrong-basis pulse and 0 otherwise; every count is
    below 128 (see :func:`_poisson_table`).
    """
    return np.bincount(k | wrong, minlength=256).reshape(2, 128)


def _sifted(by_count: np.ndarray) -> int:
    return int(by_count[0, 1:].sum())


def _coins(rng: np.random.Generator, n: int) -> int:
    """Right guesses among ``n`` coin flips."""
    return int(rng.binomial(n, 0.5))


def _resend(
    rng: np.random.Generator, k: np.ndarray, attacked: np.ndarray, survival: float
) -> np.ndarray:
    """Replace the attacked pulses by one fresh photon that arrives with ``survival``.

    Writes their receiver counts into ``k`` and returns the attacked pulses
    that arrive.
    """
    arrived = rng.binomial(1, survival, attacked.size)
    # A resent pulse carries one fresh photon at most; this keeps same-basis
    # double clicks structurally impossible.
    if int(arrived.max(initial=0)) > 1:
        raise RuntimeError("a resent pulse carries more than one photon")
    k[attacked] = arrived
    return attacked[arrived != 0]


def _breidbart_resend(rng: np.random.Generator, signal: np.ndarray) -> tuple[int, int]:
    """Breidbart measurement and resend of sifted pulses with these signals.

    Returns the eavesdropper's right guesses and the receiver's errors.  The
    pulses are sifted, so the receiver measures in the sender's basis.
    """
    basis, bit = (signal >> 1) & 1, signal & 1
    outcome = (rng.random(signal.size) >= BREIDBART_M0[basis, bit]).view(np.uint8)
    read = rng.random(signal.size) < BREIDBART_RESEND_BIT1[basis, outcome]
    return int(np.count_nonzero(outcome == bit)), int(np.count_nonzero(read != bit))


def _tap_readout(
    rng: np.random.Generator, signal: np.ndarray, k_eve: np.ndarray, majority: bool
) -> int:
    """Right guesses from the tap on sifted pulses with these signals.

    One Breidbart result per pulse, or a Breidbart result per tapped photon
    and a majority vote with coin-flip ties.
    """
    basis, bit = (signal >> 1) & 1, signal & 1
    p_m0 = BREIDBART_M0[basis, bit]
    if not majority:
        return int(np.count_nonzero((rng.random(signal.size) >= p_m0) == bit))
    k_eve = k_eve.astype(np.int64)
    det0 = rng.binomial(k_eve, p_m0)
    margin = np.where(bit == 1, k_eve - 2 * det0, 2 * det0 - k_eve)
    return int(np.count_nonzero(margin > 0)) + _coins(rng, int(np.count_nonzero(margin == 0)))


def _coincidences(rng: np.random.Generator, wrong_by_count: np.ndarray) -> int:
    """Wrong-basis pulses that fire both detectors, each photon routed 50/50.

    ``wrong_by_count[k]`` wrong-basis pulses carry ``k`` photons.  Only those
    with ``k >= 2`` can fire both, and each of them draws its routing
    binomial(k, 1/2), in order of ``k``.
    """
    total = 0
    for k in np.flatnonzero(wrong_by_count[2:]) + 2:
        routed = rng.binomial(k, 0.5, wrong_by_count[k])
        total += int(np.count_nonzero((routed != 0) & (routed != k)))
    return total


def _scenarios(routes: np.ndarray) -> dict[str, int]:
    by_route = np.bincount(routes, minlength=8)
    c = by_route[:4] + by_route[4:]
    return {"both": int(c[3]), "eve_only": int(c[2]), "bob_only": int(c[1]), "empty": int(c[0])}


def _live_pulses(
    rng: np.random.Generator, size: int, law: _Law
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Draw how many of ``size`` pulses are live, then their signals and counts.

    ``law`` is the chance that a pulse is live and the table of its counted
    photons given that it is.  Returns each live pulse's signal byte, its
    wrong-basis flag (see :func:`_by_count`) and its count.
    """
    p_live, table = law
    m = int(rng.binomial(size, p_live))
    signal = np.frombuffer(rng.bytes(m), dtype=np.uint8)
    # 128 where the receiver's basis (bit 2) is not the sender's (bit 1).
    wrong = ((signal << 6) ^ (signal << 5)) & 128
    return signal, wrong, _inverse_cdf(rng.random(m), table)


def _simulate_batch(
    config: SessionConfig, rng: np.random.Generator, size: int, source: Callable | None = None
) -> _Tally:
    """Tally one batch of ``size`` pulses, drawing only the live ones.

    ``source(lit, share)`` gives the chance that the ``lit`` share of a pulse
    holds a photon and the (table, head) of the photons in ``share`` of that
    part given that it does; by default the laws of a Poisson(``mu``) pulse.
    The dead pulses deliver nothing, and no draw is spent on them.
    """
    mu = config.optics.mu
    eta = config.optics.eta
    attack = config.attack
    source = source or functools.partial(_poisson_source, mu)
    tally = _Tally(n_pulses=size)

    if attack is None or isinstance(attack, OptimalIncoherent):
        # Live: the receiver's share holds a photon.
        signal, wrong, k = _live_pulses(rng, size, source(eta, 1.0))
        by_count = _by_count(k, wrong)
        if attack is not None:
            sifted = _sifted(by_count)
            tally.errors = int(rng.binomial(sifted, attack.d))
            tally.eve_correct = int(rng.binomial(sifted, opt_guess_prob(attack.d)))

    elif isinstance(attack, InterceptResend):
        # Live: the source emitted a photon, so there is a pulse to intercept.
        signal, wrong, k = _live_pulses(rng, size, source(1.0, eta))
        attacked = np.flatnonzero(rng.random(k.size) < attack.eps)
        resent = _resend(rng, k, attacked, eta)
        by_count = _by_count(k, wrong)
        sifted_resent = resent[wrong[resent] == 0]
        right, tally.errors = _breidbart_resend(rng, signal[sifted_resent])
        tally.eve_correct = right + _coins(rng, _sifted(by_count) - sifted_resent.size)

    elif isinstance(attack, (BsInterceptResend, BsOptimal)):
        # Live: the source emitted a photon, on the receiver's arm or the tap.
        signal, wrong, k = _live_pulses(rng, size, source(1.0, attack.t))
        # The tap is independent of the receiver's arm, a Poisson property:
        # Poisson(mu (1-t)) where the arm holds a photon, and zero-truncated
        # where it holds none, since the pulse is live.
        u = rng.random(k.size)
        k_eve = _inverse_cdf(u, _poisson_table(mu * (1.0 - attack.t)))
        dark = np.flatnonzero(k == 0)
        if dark.size:
            k_eve[dark] = _inverse_cdf(u[dark], source(1.0 - attack.t, 1.0)[1])
        routes = (
            (k != 0).view(np.uint8)
            | ((k_eve != 0).view(np.uint8) << 1)
            | (wrong >> 5)
        )
        tally.scenario = _scenarios(routes)
        tally.scenario["empty"] += size - k.size  # the dead pulses
        tapped = routes == _ROUTE_BOTH  # both arms lit, sender's basis
        if isinstance(attack, BsOptimal):
            by_count = _by_count(k, wrong)
            n_tapped = int(np.count_nonzero(tapped))
            probed = _sifted(by_count) - n_tapped
            tally.errors = int(rng.binomial(probed, attack.d))
            tally.eve_correct = n_tapped + int(rng.binomial(probed, opt_guess_prob(attack.d)))
        else:
            whole = np.flatnonzero((routes & _ROUTE_BOTH) == _ROUTE_BOB)
            attacked = whole[rng.random(whole.size) < 4.0 * attack.d]
            resent = _resend(rng, k, attacked, 1.0)  # the tapped line is lossless
            by_count = _by_count(k, wrong)
            tapped_pulses = np.flatnonzero(tapped)
            right = _tap_readout(
                rng,
                signal[tapped_pulses],
                k_eve[tapped_pulses],
                config.scenario_a_rule == "majority",
            )
            sifted_resent = resent[wrong[resent] == 0]
            right_resent, tally.errors = _breidbart_resend(rng, signal[sifted_resent])
            untouched = _sifted(by_count) - tapped_pulses.size - sifted_resent.size
            tally.eve_correct = right + right_resent + _coins(rng, untouched)

    elif isinstance(attack, Pns):
        # Live: the source emitted a photon; the eavesdropper takes one.
        signal, wrong, n = _live_pulses(rng, size, source(1.0, 1.0))
        k = n - 1  # kept singles get theirs back
        singles = np.flatnonzero(n == 1)
        kept = singles[rng.random(singles.size) >= attack.kappa]
        k[kept] = 1
        by_count = _by_count(k, wrong)
        probed = int(np.count_nonzero(wrong[kept] == 0))
        tally.errors = int(rng.binomial(probed, attack.d))
        tally.eve_correct = (
            _sifted(by_count) - probed + int(rng.binomial(probed, opt_guess_prob(attack.d)))
        )

    else:
        raise TypeError(f"unsupported attack {attack!r}")

    counts = by_count.sum(axis=0)
    counts[0] += size - k.size
    tally.hist[:_HIST_MAX] = counts[:_HIST_MAX]
    tally.hist[_HIST_MAX] = counts[_HIST_MAX:].sum()
    tally.sifted = _sifted(by_count)
    tally.nonempty = size - int(counts[0])
    tally.coincidences = _coincidences(rng, by_count[1])
    return tally


def _simulate_shard(
    config: SessionConfig, rng: np.random.Generator, n: int, source: Callable | None = None
) -> _Tally:
    total = _Tally()
    done = 0
    while done < n:
        size = min(_BATCH, n - done)
        total.add(_simulate_batch(config, rng, size, source))
        done += size
    return total


def run_session(config: SessionConfig) -> SessionStats:
    """Simulate the whole session on the shard-0 stream."""
    return _simulate_shard(config, shard_rng(config.seed, 0), config.n_pulses).freeze()


def run_sharded(config: SessionConfig, n_shards: int) -> SessionStats:
    """Partition the session across deterministic independent shard streams.

    Shard ``i`` simulates its slice of pulses on ``shard_rng(seed, i)``;
    tallies merge associatively, so the result depends only on
    (config, n_shards).  ``n_shards=1`` reproduces :func:`run_session` exactly.
    Every shard holds at least one pulse, so ``n_shards`` may not exceed
    ``n_pulses``.
    """
    if not 1 <= n_shards <= config.n_pulses:
        raise ValueError(
            f"n_shards must be in [1, n_pulses={config.n_pulses}], got {n_shards!r}"
        )
    base, rem = divmod(config.n_pulses, n_shards)
    total = _Tally()
    for i in range(n_shards):
        size = base + 1 if i < rem else base
        total.add(_simulate_shard(config, shard_rng(config.seed, i), size))
    return total.freeze()


def analytic_expectations(config: SessionConfig) -> dict[str, float | None]:
    """Expected rates of the configured session, from the attack's closed forms.

    Keys: ``qber``, ``eve_accuracy``, ``nonempty_rate``, ``coincidence_rate``.
    Each attack's values come from its definition in
    :mod:`bb84eve.pulse_attacks`.  A per-detection rate is ``None`` only when
    nothing can be detected.
    """
    mu, eta = config.optics.mu, config.optics.eta
    if config.attack is None:
        return line_expectations(mu, eta)
    return config.attack.expectations(mu, eta, config.scenario_a_rule)


def scenario_expectations(config: SessionConfig) -> dict[str, float] | None:
    """Expected routing-outcome fractions for beam-splitter attacks, else None."""
    if config.attack is None:
        return None
    return config.attack.scenario_fractions(config.optics.mu)


@dataclass(frozen=True)
class AttackSample:
    """Monte Carlo estimates of a single-photon attack's guess rate and disturbance."""

    guess_rate: float
    guess_stderr: float
    disturbance: float
    disturbance_stderr: float
    sifted_count: int


def _one_photon_run(attack: Attack, n_trials: int, rng: np.random.Generator) -> AttackSample:
    """Run ``attack`` on ``n_trials`` one-photon pulses over a lossless line."""
    if n_trials < 1:
        raise ValueError(f"n_trials must be >= 1, got {n_trials!r}")
    config = SessionConfig(OpticalConfig(mu=1.0), attack, n_trials, seed=0)  # unused: rng draws
    s = _simulate_shard(config, rng, n_trials, _one_photon_source).freeze()
    return AttackSample(
        s.eve_accuracy, s.eve_accuracy_stderr, s.qber, s.qber_stderr, s.sifted_count
    )


def simulate_ir_attack(eps: float, n_trials: int, rng: np.random.Generator) -> AttackSample:
    """Single-photon Breidbart intercept-resend on a fraction ``eps`` of the signals."""
    return _one_photon_run(InterceptResend(eps=eps), n_trials, rng)


def simulate_opt_attack(d: float, n_trials: int, rng: np.random.Generator) -> AttackSample:
    """Single-photon optimal probe attack at disturbance ``d``."""
    return _one_photon_run(OptimalIncoherent(d=d), n_trials, rng)
