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
clicks, and the engine checks that no modified pulse carries more than one
photon.  Probe attacks leave photon counts untouched and flip the sifted
outcome with the attack's disturbance.

Randomness contract: all draws come from counter-based Philox streams.  The
stream for shard ``i`` of a session with seed ``s`` is
``Philox(SeedSequence(entropy=s, spawn_key=(i,)))``; an unsharded run uses
shard 0.  Results are reproducible bit for bit for a fixed
(seed, n_pulses, n_shards) regardless of how shards are executed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .pulse_attacks import (
    SCENARIO_A_RULES,
    AttackStrategy,
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
    attack: AttackStrategy | None
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


def _classify_split(k_bob: np.ndarray, k_eve: np.ndarray) -> dict[str, np.ndarray]:
    return {
        "both": (k_bob >= 1) & (k_eve >= 1),
        "eve_only": (k_bob == 0) & (k_eve >= 1),
        "bob_only": (k_bob >= 1) & (k_eve == 0),
        "empty": (k_bob == 0) & (k_eve == 0),
    }


def _simulate_batch(
    config: SessionConfig, rng: np.random.Generator, size: int
) -> _Tally:
    mu = config.optics.mu
    eta = config.optics.eta
    attack = config.attack

    bits = rng.integers(0, 2, size, dtype=np.int8)
    bases = rng.integers(0, 2, size, dtype=np.int8)
    photons = rng.poisson(mu, size)

    eve_guess: np.ndarray | None = None
    scenario_masks: dict[str, np.ndarray] | None = None
    resent = np.zeros(size, dtype=bool)

    if attack is None:
        bob_photons = rng.binomial(photons, eta)
        bob_bit = bits

    elif isinstance(attack, InterceptResend):
        attacked = (photons >= 1) & (rng.random(size) < attack.eps)
        outcome = (rng.random(size) >= BREIDBART_M0[bases, bits]).astype(np.int8)
        resent_survives = rng.binomial(1, eta, size)
        bob_photons = np.where(attacked, resent_survives, rng.binomial(photons, eta))
        p_bit1 = np.where(attacked, BREIDBART_RESEND_BIT1[bases, outcome], bits)
        bob_bit = (rng.random(size) < p_bit1).astype(np.int8)
        eve_guess = np.where(attacked, outcome, rng.integers(0, 2, size, dtype=np.int8))
        resent = attacked

    elif isinstance(attack, OptimalIncoherent):
        bob_photons = rng.binomial(photons, eta)
        flip = rng.random(size) < attack.d
        bob_bit = bits ^ (flip & (photons >= 1))
        success = rng.random(size) < opt_guess_prob(attack.d)
        eve_guess = np.where(success, bits, 1 - bits)

    elif isinstance(attack, BsInterceptResend):
        k_bob = rng.binomial(photons, attack.t)
        k_eve = photons - k_bob
        scenario_masks = _classify_split(k_bob, k_eve)
        if config.scenario_a_rule == "single_result":
            tap_guess = (rng.random(size) >= BREIDBART_M0[bases, bits]).astype(np.int8)
        else:
            det0 = rng.binomial(k_eve, BREIDBART_M0[bases, bits])
            det1 = k_eve - det0
            tie = rng.integers(0, 2, size, dtype=np.int8)
            tap_guess = np.where(det0 > det1, 0, np.where(det1 > det0, 1, tie)).astype(np.int8)
        attacked_c = scenario_masks["bob_only"] & (rng.random(size) < 4.0 * attack.d)
        outcome = (rng.random(size) >= BREIDBART_M0[bases, bits]).astype(np.int8)
        bob_photons = np.where(attacked_c, 1, k_bob)
        p_bit1 = np.where(attacked_c, BREIDBART_RESEND_BIT1[bases, outcome], bits)
        bob_bit = (rng.random(size) < p_bit1).astype(np.int8)
        coin = rng.integers(0, 2, size, dtype=np.int8)
        eve_guess = np.where(
            scenario_masks["both"], tap_guess, np.where(attacked_c, outcome, coin)
        )
        resent = attacked_c

    elif isinstance(attack, BsOptimal):
        k_bob = rng.binomial(photons, attack.t)
        k_eve = photons - k_bob
        scenario_masks = _classify_split(k_bob, k_eve)
        bob_photons = k_bob
        flip = (rng.random(size) < attack.d) & scenario_masks["bob_only"]
        bob_bit = bits ^ flip
        success = rng.random(size) < opt_guess_prob(attack.d)
        probed_guess = np.where(success, bits, 1 - bits)
        coin = rng.integers(0, 2, size, dtype=np.int8)
        eve_guess = np.where(
            scenario_masks["both"],
            bits,
            np.where(scenario_masks["bob_only"], probed_guess, coin),
        )

    elif isinstance(attack, Pns):
        multi = photons >= 2
        single = photons == 1
        kept_single = single & ~(rng.random(size) < attack.kappa)
        bob_photons = np.where(multi, photons - 1, kept_single.astype(np.int64))
        flip = (rng.random(size) < attack.d) & kept_single
        bob_bit = bits ^ flip
        success = rng.random(size) < opt_guess_prob(attack.d)
        probed_guess = np.where(success, bits, 1 - bits)
        coin = rng.integers(0, 2, size, dtype=np.int8)
        eve_guess = np.where(multi, bits, np.where(kept_single, probed_guess, coin))

    else:
        raise TypeError(f"unsupported attack {attack!r}")

    # A resent pulse carries one fresh photon at most; this keeps same-basis
    # double clicks structurally impossible.
    if int(bob_photons[resent].max(initial=0)) > 1:
        raise RuntimeError("a resent pulse carries more than one photon")

    bob_basis = rng.integers(0, 2, size, dtype=np.int8)
    detected = bob_photons >= 1
    same_basis = bob_basis == bases
    sifted = same_basis & detected
    routed = rng.binomial(bob_photons, 0.5)
    coincident = (~same_basis) & (routed >= 1) & (routed <= bob_photons - 1)

    tally = _Tally(n_pulses=size)
    tally.sifted = int(np.count_nonzero(sifted))
    tally.errors = int(np.count_nonzero(sifted & (bob_bit != bits)))
    if eve_guess is not None:
        tally.eve_correct = int(np.count_nonzero(sifted & (eve_guess == bits)))
    tally.nonempty = int(np.count_nonzero(detected))
    tally.coincidences = int(np.count_nonzero(coincident))
    if scenario_masks is not None:
        tally.scenario = {
            key: int(np.count_nonzero(mask)) for key, mask in scenario_masks.items()
        }
    tally.hist = np.bincount(
        np.minimum(bob_photons, _HIST_MAX), minlength=_HIST_MAX + 1
    ).astype(np.int64)
    return tally


def _simulate_shard(config: SessionConfig, rng: np.random.Generator, n: int) -> _Tally:
    total = _Tally()
    done = 0
    while done < n:
        size = min(_BATCH, n - done)
        total.add(_simulate_batch(config, rng, size))
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
    """
    if n_shards < 1:
        raise ValueError(f"n_shards must be >= 1, got {n_shards!r}")
    base, rem = divmod(config.n_pulses, n_shards)
    sizes = [base + 1 if i < rem else base for i in range(n_shards)]
    total = _Tally()
    for i, size in enumerate(sizes):
        if size == 0:
            continue
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
