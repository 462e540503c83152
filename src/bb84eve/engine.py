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

Pulses are drawn as counts, not one by one.  No tally reads which pulse is
which, and an attack acts on a pulse only through its photon count and
whether the receiver's basis is the sender's, a fair coin independent of
the photons.  A Breidbart result is right, and a Breidbart resend read
wrongly, with the same joint law for each of the four signals.  So a batch
is tallied from its live pulses per cell, a cell being one photon count
under one basis flag, and each count is drawn from its exact law: the
photon-number tables, the 50/50 routing or the state tables of
:mod:`bb84eve.states`.  A photon-number table ends where less than 2^-73 of
its mass lies past it, which is below 2^-10 pulses in expectation at any
session size (see :func:`_truncated`).  What a batch costs does not grow
with its number of pulses, and a shard is one batch.

A live pulse holds a photon where the attack needs one: on the receiver's
share for no attack and the probe, at the source for the others.  A dead
pulse delivers nothing to anyone; it is tallied as an empty pulse, and as
the ``empty`` scenario under a beam-splitter attack.  Poisson splitting
gives each cell's law (see :func:`_live_table`): when each photon of a
Poisson(m) pulse goes one way with probability p and the other way
otherwise, the two shares are independent Poissons of means ``m p`` and
``m (1-p)``.  Each kernel below states what its cells count.

A one-photon pulse on a lossless line is always live, and its photon
reaches the receiver.  On this source the ``ir`` and ``opt`` kernels are
the single-photon attacks :func:`simulate_ir_attack` and
:func:`simulate_opt_attack`, which draw from the ``Generator`` passed in.

Randomness contract: all draws come from counter-based Philox streams.  The
stream for shard ``i`` of a session with seed ``s`` is
``Philox(SeedSequence(entropy=s, spawn_key=(i,)))``; an unsharded run uses
shard 0.  A shard is one batch, and it draws, in this order:

1. the number of live pulses, one ``Generator.binomial`` draw;
2. the live pulses per cell, one ``Generator.multinomial`` draw with half
   the live photon-count pmf in each basis flag;
3. the attack's counts, one binomial per non-empty cell, sender's basis
   first, then by photon count: the intercepted pulses and then the resent
   photons that arrive, per basis flag (intercept-resend); the lit taps,
   then for the intercept-resend hybrid the same two (beam-splitter); the
   kept single-photon pulses (photon-number splitting);
4. the sifted outcomes: the tap readout (one binomial, or for a majority
   vote one multinomial of the tap photon counts, then per count, in
   increasing order, one multinomial of the right votes and a binomial of
   coin flips for the ties), the Breidbart resends (one multinomial of the
   four outcomes), probe flips then probe guesses, and coin-flip guesses;
5. the coincidences: one binomial per non-empty wrong-basis cell of two
   photons or more, in increasing photon count.

A binomial of zero trials draws nothing, and a multinomial visits its
cells from the least likely up (see :func:`_spread`).

Results are reproducible bit for bit for a fixed (seed, n_pulses, n_shards)
regardless of how shards are executed.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Callable
from dataclasses import dataclass, fields
from typing import NamedTuple

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
        # A batch's counts are int64, numpy's widest binomial count.
        if not 1 <= self.n_pulses < 2**63:
            raise ValueError(f"n_pulses must be in [1, 2^63 - 1], got {self.n_pulses!r}")
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


#: Terms summed to build a table; for means up to 20 the mass past them is
#: below 1e-50, and a table ends by count 78 (see :func:`_truncated`).
_TABLE_TERMS = 128

#: A pmf laid out for a multinomial draw: its entries from the smallest up,
#: and the entry each of them is (see :func:`_spread`).
_Layout = tuple[np.ndarray, np.ndarray]


def _layout(pmf: np.ndarray) -> _Layout:
    places = np.argsort(pmf, kind="stable")
    return pmf[places], places


class _Law(NamedTuple):
    """The chance that a share of a pulse holds a photon; the pmf of its photons
    then, laid out too; and the cells' law, half that pmf per basis flag."""

    p_live: float
    pmf: np.ndarray
    counts: _Layout
    cells: _Layout


def _law(p_live: float, pmf: np.ndarray) -> _Law:
    return _Law(p_live, pmf, _layout(pmf), _layout(np.concatenate((pmf, pmf)) * 0.5))


def _truncated(pmf: np.ndarray) -> np.ndarray:
    """``pmf`` up to its first count ``j`` past which less than 2^-73 of the mass lies.

    The mass past ``j`` is summed from the far end.  A session holds fewer
    than 2^63 pulses, so the counts dropped are below 2^-10 pulses in
    expectation.  Counts 0 and 1 are always kept; for means up to 20 a
    table ends by count 78.
    """
    past = np.append(np.cumsum(pmf[::-1])[-2::-1], 0.0)
    end = max(2, int(np.argmax(past < 2.0**-73)) + 1)
    table = pmf[:end].copy()
    table.setflags(write=False)
    return table


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


def _live_table(mean: float, share: float) -> np.ndarray:
    """Pmf of the photons in ``share`` of a Poisson(``mean``) pulse that holds one.

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
    return _truncated(pmf * (math.exp(-x) / _expm1_ratio(mean)))


@functools.lru_cache(maxsize=64)
def _poisson_source(mu: float, lit: float, share: float) -> _Law:
    """The live law of a Poisson(``mu``) pulse: the chance that its ``lit``
    share holds a photon, and the pmf of the photons in ``share`` of that
    part given that it does."""
    return _law(-math.expm1(-mu * lit), _live_table(mu * lit, share))


@functools.cache
def _one_photon_source(lit: float, share: float) -> _Law:
    """The live law of a one-photon pulse on a lossless line: the pulse always
    holds its photon, and all of it reaches the receiver.  No other share is
    drawn on it."""
    if (lit, share) != (1.0, 1.0):
        raise ValueError(f"a one-photon pulse has no ({lit}, {share}) share")
    pmf = np.array([0.0, 1.0])
    pmf.setflags(write=False)
    return _law(1.0, pmf)


#: Pulses per cell: row 0 measured in the sender's basis, row 1 not; entry ``k``
#: counting ``k`` photons.  Lists: numpy's per-call cost would dominate here.
_Cells = list[list[int]]


def _spread(rng: np.random.Generator, n: int, layout: _Layout) -> list[int]:
    """How many of ``n`` independent draws from a pmf fall on each entry.

    One multinomial draw, over the entries from the smallest up: it forms
    each entry's share of the mass still to visit and gives the last, the
    largest, what is left, so no share is a ratio of rounding errors.
    """
    probs, places = layout
    drawn = np.empty(places.size, dtype=np.int64)
    drawn[places] = rng.multinomial(n, probs)
    return drawn.tolist()


def _draw_cells(rng: np.random.Generator, size: int, law: _Law) -> _Cells:
    """Live pulses per cell among ``size`` pulses of the live law ``law``."""
    drawn = _spread(rng, int(rng.binomial(size, law.p_live)), law.cells)
    return [drawn[: law.pmf.size], drawn[law.pmf.size :]]


def _sifted(cells: _Cells) -> int:
    """Pulses measured in the sender's basis that deliver a photon."""
    return sum(cells[0][1:])


def _binomials(rng: np.random.Generator, counts: list[int], p: float) -> list[int]:
    """``binomial(n, p)`` for each ``n`` of ``counts``, in order.  Empty counts
    draw nothing, as in numpy's own loop over an array, whose fixed cost
    (about 13 us) would be most of a small batch's time."""
    return [int(rng.binomial(n, p)) if n else 0 for n in counts]


def _coins(rng: np.random.Generator, n: int) -> int:
    """Right guesses among ``n`` coin flips."""
    return int(rng.binomial(n, 0.5))


def _probed(rng: np.random.Generator, n: int, d: float) -> tuple[int, int]:
    """Errors and right guesses among ``n`` sifted pulses probed at strength ``d``."""
    return int(rng.binomial(n, d)), int(rng.binomial(n, opt_guess_prob(d)))


def _breidbart_law(basis: int, bit: int) -> np.ndarray:
    """(eavesdropper right, no error), (right, error), (wrong, no error) and
    (wrong, error) after a Breidbart measure-and-resend of the signal
    (``basis``, ``bit``), read in the sender's basis."""
    law = []
    for outcome in (bit, 1 - bit):
        p_outcome = BREIDBART_M0[basis, bit] if outcome == 0 else 1.0 - BREIDBART_M0[basis, bit]
        p_read1 = BREIDBART_RESEND_BIT1[basis, outcome]
        p_error = p_read1 if bit == 0 else 1.0 - p_read1
        law += [p_outcome * (1.0 - p_error), p_outcome * p_error]
    return np.array(law)


@functools.cache
def _breidbart_outcomes() -> _Layout:
    """:func:`_breidbart_law`, the same for each of the four signals, laid out:
    0.7286, 0.125, 0.0214 and 0.125."""
    return _layout(sum(_breidbart_law(basis, bit) for basis in (0, 1) for bit in (0, 1)) / 4)


@functools.cache
def _breidbart_right() -> float:
    """The chance (2+sqrt(2))/4 that one Breidbart result names the signal's bit."""
    right = [_breidbart_law(basis, bit)[:2].sum() for basis in (0, 1) for bit in (0, 1)]
    return float(np.mean(right))


def _breidbart_resends(rng: np.random.Generator, n: int) -> tuple[int, int]:
    """The eavesdropper's right guesses and the receiver's errors on ``n``
    sifted pulses she measured and resent."""
    right, right_error, _, wrong_error = _spread(rng, n, _breidbart_outcomes())
    return right + right_error, right_error + wrong_error


@functools.lru_cache(maxsize=128)
def _votes(j: int) -> _Layout:
    """The law of the right Breidbart results among ``j`` tapped photons."""
    p = _breidbart_right()
    return _layout(np.array([math.comb(j, v) * p**v * (1.0 - p) ** (j - v) for v in range(j + 1)]))


def _tap_readout(rng: np.random.Generator, tapped: int, tap: _Layout, majority: bool) -> int:
    """Right guesses from the tap on ``tapped`` sifted pulses: one Breidbart
    result per pulse, or one per tapped photon, ``tap`` their law, and a
    majority vote with coin-flip ties."""
    if not majority:
        return int(rng.binomial(tapped, _breidbart_right()))
    right = 0
    for j, pulses in enumerate(_spread(rng, tapped, tap)):
        if pulses:
            votes = _spread(rng, pulses, _votes(j))
            right += sum(votes[j // 2 + 1 :])
            if j % 2 == 0:
                right += _coins(rng, votes[j // 2])
    return right


def _intercept(
    rng: np.random.Generator, cells: _Cells, exposed: _Cells, p: float, survival: float
) -> int:
    """Intercept each pulse of ``exposed``, a part of ``cells``, with
    probability ``p`` and resend it as one photon that arrives with
    ``survival``, into the one-photon cell; returns the sifted arrivals."""
    resent = []
    for row, row_exposed in zip(cells, exposed):
        attacked = _binomials(rng, row_exposed, p)
        row[:] = [n - a for n, a in zip(row, attacked)]
        resent.append(sum(attacked))
    arrived = _binomials(rng, resent, survival)
    for row, sent, got in zip(cells, resent, arrived):
        # A resent pulse carries one fresh photon at most; this keeps
        # same-basis double clicks structurally impossible.
        if got > sent:
            raise RuntimeError("a resent pulse carries more than one photon")
        row[0] += sent - got
        row[1] += got
    return arrived[0]


#: What a kernel returns: the receiver's photons per cell, then the attack's
#: own fields of :class:`SessionStats`, ``error_count``,
#: ``eve_correct_count`` and ``scenario_counts``.
_Drawn = tuple[_Cells, int, int | None, dict[str, int] | None]


def _line(config: SessionConfig, rng, size: int, source: Callable) -> _Drawn:
    # Live: the receiver's share holds a photon, with probability
    # 1 - e^(-mu eta); cells count its zero-truncated Poisson(mu eta) photons.
    return _draw_cells(rng, size, source(config.optics.eta, 1.0)), 0, None, None


def _probe(config: SessionConfig, rng, size: int, source: Callable) -> _Drawn:
    # The probe leaves the counts alone; it flips only pulses that left the
    # source with a photon, which every sifted pulse did.
    cells = _line(config, rng, size, source)[0]
    return cells, *_probed(rng, _sifted(cells), config.attack.d), None


def _intercept_resend(config: SessionConfig, rng, size: int, source: Callable) -> _Drawn:
    # Live: the source emitted a photon, so there is a pulse to intercept;
    # cells count the line's share, Poisson(mu eta).
    eta = config.optics.eta
    cells = _draw_cells(rng, size, source(1.0, eta))
    resent = _intercept(rng, cells, [row[:] for row in cells], config.attack.eps, eta)
    right, errors = _breidbart_resends(rng, resent)
    return cells, errors, right + _coins(rng, _sifted(cells) - resent), None


def _tap(config: SessionConfig, rng, size: int, source: Callable):
    """The cells of the receiver's arm, per cell the pulses whose tap is lit,
    and the scenario counts."""
    t = config.attack.t
    # Live: the source emitted a photon, on the receiver's arm or the tap;
    # cells count the arm's share, Poisson(mu t).
    cells = _draw_cells(rng, size, source(1.0, t))
    # The tap is independent of the arm, a Poisson property: lit with the
    # chance that a Poisson(mu (1-t)) share holds a photon where the arm
    # holds one, and always where it holds none, since the pulse is live.
    p_lit = source(1.0 - t, 1.0).p_live
    lit = [[row[0], *_binomials(rng, row[1:], p_lit)] for row in cells]
    live = sum(map(sum, cells))
    dark = cells[0][0] + cells[1][0]
    both = sum(map(sum, lit)) - dark
    scenario = dict(both=both, eve_only=dark, bob_only=live - dark - both, empty=size - live)
    return cells, lit, scenario


def _bs_opt(config: SessionConfig, rng, size: int, source: Callable) -> _Drawn:
    cells, lit, scenario = _tap(config, rng, size, source)
    tapped = sum(lit[0][1:])  # both arms lit, sender's basis
    errors, right = _probed(rng, _sifted(cells) - tapped, config.attack.d)
    return cells, errors, tapped + right, scenario


def _bs_ir(config: SessionConfig, rng, size: int, source: Callable) -> _Drawn:
    cells, lit, scenario = _tap(config, rng, size, source)
    tapped = sum(lit[0][1:])
    # Only pulses that reach the receiver whole are attacked; the tapped
    # line is lossless.
    whole = [[n - n_lit for n, n_lit in zip(row, row_lit)] for row, row_lit in zip(cells, lit)]
    resent = _intercept(rng, cells, whole, 4.0 * config.attack.d, 1.0)
    right = _tap_readout(
        rng, tapped, source(1.0 - config.attack.t, 1.0).counts, config.scenario_a_rule == "majority"
    )
    right_resent, errors = _breidbart_resends(rng, resent)
    untouched = _sifted(cells) - tapped - resent
    return cells, errors, right + right_resent + _coins(rng, untouched), scenario


def _pns(config: SessionConfig, rng, size: int, source: Callable) -> _Drawn:
    # Live: the source emitted a photon; cells count them, zero-truncated
    # Poisson(mu), and the eavesdropper takes one.
    cells = _draw_cells(rng, size, source(1.0, 1.0))
    kept = _binomials(rng, [row[1] for row in cells], 1.0 - config.attack.kappa)
    # Each pulse loses a photon, and the kept singles get theirs back.
    bob = [[row[1] - n_kept, *row[2:], 0] for row, n_kept in zip(cells, kept)]
    for row, n_kept in zip(bob, kept):
        row[1] += n_kept
    errors, right = _probed(rng, kept[0], config.attack.d)
    return bob, errors, _sifted(bob) - kept[0] + right, None


#: The kernel of each attack class, and of the untouched line under ``None``:
#: it draws a batch's cells and applies the attack (see :data:`_Drawn`).
_KERNELS: dict[type[Attack] | None, Callable[..., _Drawn]] = {
    None: _line,
    InterceptResend: _intercept_resend,
    OptimalIncoherent: _probe,
    BsInterceptResend: _bs_ir,
    BsOptimal: _bs_opt,
    Pns: _pns,
}


def _coincidences(rng: np.random.Generator, wrong: list[int]) -> int:
    """Wrong-basis pulses that fire both detectors: of the ``wrong[k]`` that
    carry ``k`` photons, each routed 50/50, those that do not send all one
    way, with probability ``1 - 2^(1-k)``."""
    return sum(
        int(rng.binomial(n, 1.0 - 2.0 ** (1 - k))) for k, n in enumerate(wrong) if k >= 2 and n
    )


def _simulate_batch(
    config: SessionConfig, rng: np.random.Generator, size: int, source: Callable | None = None
) -> SessionStats:
    """Tally ``size`` pulses, drawn as counts per cell.

    ``source(lit, share)`` gives the :class:`_Law` of the photons in
    ``share`` of the ``lit`` part of a pulse; by default a Poisson(``mu``) one.
    """
    attack = config.attack
    kernel = _KERNELS.get(None if attack is None else type(attack))
    if kernel is None:
        raise TypeError(f"unsupported attack {attack!r}")
    source = source or functools.partial(_poisson_source, config.optics.mu)
    bob, errors, eve_correct, scenario = kernel(config, rng, size, source)
    counts = [a + b for a, b in zip(*bob)]
    counts[0] += size - sum(counts)  # the dead pulses
    hist = counts[:_HIST_MAX] + [0] * (_HIST_MAX - len(counts)) + [sum(counts[_HIST_MAX:])]
    return SessionStats(
        n_pulses=size,
        sifted_count=_sifted(bob),
        error_count=errors,
        eve_correct_count=eve_correct,
        nonempty_count=size - counts[0],
        coincidence_count=_coincidences(rng, bob[1]),
        scenario_counts=scenario,
        bob_count_hist=tuple(hist),
    )


def run_session(config: SessionConfig) -> SessionStats:
    """Simulate the whole session on the shard-0 stream."""
    return _simulate_batch(config, shard_rng(config.seed, 0), config.n_pulses)


def _total(parts: list[SessionStats]) -> SessionStats:
    """The shards' records added field by field.  An attack's own field is
    ``None`` in every shard or in none, and scenario keys keep their order."""

    def add(values: list):
        first = values[0]
        if first is None:
            return None
        if isinstance(first, dict):
            return {key: sum(v[key] for v in values) for key in first}
        if isinstance(first, tuple):
            return tuple(map(sum, zip(*values)))
        return sum(values)

    return SessionStats(*(add([getattr(s, f.name) for s in parts]) for f in fields(SessionStats)))


def run_sharded(config: SessionConfig, n_shards: int) -> SessionStats:
    """Partition the session across deterministic independent shard streams.

    Shard ``i`` simulates its slice of pulses on ``shard_rng(seed, i)``;
    their records add field by field, so the result depends only on
    (config, n_shards).  ``n_shards=1`` reproduces :func:`run_session` exactly.
    Every shard holds at least one pulse, so ``n_shards`` may not exceed
    ``n_pulses``.
    """
    if not 1 <= n_shards <= config.n_pulses:
        raise ValueError(
            f"n_shards must be in [1, n_pulses={config.n_pulses}], got {n_shards!r}"
        )
    base, rem = divmod(config.n_pulses, n_shards)
    return _total([
        _simulate_batch(config, shard_rng(config.seed, i), base + 1 if i < rem else base)
        for i in range(n_shards)
    ])


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
    s = _simulate_batch(config, rng, n_trials, _one_photon_source)
    return AttackSample(
        s.eve_accuracy, s.eve_accuracy_stderr, s.qber, s.qber_stderr, s.sifted_count
    )


def simulate_ir_attack(eps: float, n_trials: int, rng: np.random.Generator) -> AttackSample:
    """Single-photon Breidbart intercept-resend on a fraction ``eps`` of the signals."""
    return _one_photon_run(InterceptResend(eps=eps), n_trials, rng)


def simulate_opt_attack(d: float, n_trials: int, rng: np.random.Generator) -> AttackSample:
    """Single-photon optimal probe attack at disturbance ``d``."""
    return _one_photon_run(OptimalIncoherent(d=d), n_trials, rng)
