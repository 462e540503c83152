"""The benchmark's three workloads: what one round runs and how its outputs are checked.

Every workload runs the same kinds of operation, so that every end-to-end
and per-layer metric exists on each of them; what differs is where the time
goes.  ``sessions`` spends it in large single-stream Monte Carlo sessions at
the baseline point mu=1, eta=0.9; ``dim-sharded`` in the same seven attack
variants split over many small shards at mu=0.1, eta=0.5; ``analysis`` in
closed forms, information curves and crossings over a (mu, eta) grid and in
fresh command-line processes.

An operation is one session, one single-photon run, one closed-form batch,
one sweep, one crossing grid or one command-line call.  Its timed work
returns a result; the checks run afterwards, outside the timed region.
Inputs come from the seed alone, so every round repeats the same work and
must reproduce the first round's outputs bit for bit.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

KINDS = ("ir", "opt", "bs_ir", "bs_opt", "pns")
VARIANTS = ("none", "ir", "opt", "bs-ir", "bs-ir-majority", "bs-opt", "pns")
CLI_COMMANDS = ("thresholds", "sweep", "simulate", "verify")
SWEEP_STEPS = 1000
SWEEP_D = [float(d) for d in np.linspace(0.0, 0.25, 101)]
PROBE_D = [float(d) for d in np.linspace(0.0, 0.5, 51)]
PREDICT_D = (0.05, 0.2)
#: Pulses of the small sessions that compare run_sharded(config, 1) with
#: run_session(config); checked once per run, outside the timed region.
EQUALITY_PULSES = 1 << 14
#: Closed forms against sums: absolute tolerance.  Crossing against threshold:
#: the bisection runs to machine precision, so 1e-9 is far above its error.
CLOSE = 1e-12
CROSSING_TOL = 1e-9


@dataclass(frozen=True)
class Variant:
    """One attack configuration of a session, in the benchmark's own terms."""

    name: str
    mu: float
    eta: float = 1.0
    eps: float = 0.0
    t: float = 1.0
    d: float = 0.0
    kappa: float = 0.0
    rule: str = "single_result"

    @property
    def kind(self) -> str:
        return "bs-ir" if self.name == "bs-ir-majority" else self.name


@dataclass(frozen=True)
class Profile:
    mu: float
    eta: float
    t: float
    pulses: int
    shards: int | None  # None: run_session on one stream
    passes: int  # timed blocks per round (sessions, sweep, crossings), spread through the round
    sp_trials: int
    n_mus: int  # mean photon numbers drawn for the grid; 0: the profile's mu only
    n_etas: int  # random transmissions per mean photon number
    cli_sim: Variant
    cli_sim_args: tuple[str, ...]
    known_faults: bool


PROFILES = {
    "sessions": Profile(
        mu=1.0, eta=0.9, t=0.9, pulses=1 << 19, shards=None, passes=2, sp_trials=1 << 19, n_mus=0, n_etas=30,
        cli_sim=Variant("pns", mu=1.0, eta=0.9, d=0.05),
        cli_sim_args=("--attack", "pns", "--d", "0.05", "--pulses", str(1 << 19)),
        known_faults=False,
    ),
    "dim-sharded": Profile(
        mu=0.1, eta=0.5, t=0.5, pulses=1 << 20, shards=128, passes=3, sp_trials=1 << 18, n_mus=0, n_etas=30,
        cli_sim=Variant("bs-opt", mu=0.1, eta=0.5, t=0.5, d=0.1),
        cli_sim_args=("--attack", "bs-opt", "--t", "0.5", "--d", "0.1",
                      "--pulses", str(1 << 19), "--shards", "64"),
        known_faults=False,
    ),
    "analysis": Profile(
        mu=1.0, eta=0.9, t=0.9, pulses=1 << 16, shards=None, passes=1, sp_trials=1 << 16, n_mus=5, n_etas=8,
        cli_sim=Variant("opt", mu=1.0, eta=0.9, d=0.1),
        cli_sim_args=("--attack", "opt", "--d", "0.1", "--pulses", "100000"),
        known_faults=True,
    ),
}

#: The named faults kept as operations that fail until the package is fixed.
FAULT_NAN_JSON = "thresholds --mu inf emits NaN/Infinity as JSON"
FAULT_MISSING_CONFIG = "a missing --config file ends in a traceback, exit 1"
FAULT_MAJORITY = "simulate --check reports the single_result eve_accuracy for the majority rule"
FAULT_LOSSLESS_SWEEP = "bs-ir sweep on a lossless line rounds p_correct below 1/2 at d=0 and exits 2"
MAJORITY_VARIANT = Variant("bs-ir-majority", mu=3.0, t=0.5, d=0.1, rule="majority")


@dataclass
class Op:
    """One operation of a round.

    ``run`` does the timed work and returns the result; ``check`` returns
    the problems found in a result (none when it is right).  ``fault`` names
    the known package fault an operation shows, if any.
    """

    name: str
    run: Callable[[Any], Any]
    check: Callable[[Any, dict], list[str]]
    fault: str | None = None


def _strict_json(text: str):
    def reject(token: str):
        raise ValueError(f"non-finite number {token} in JSON")

    return json.loads(text, parse_constant=reject)


@dataclass(frozen=True)
class CliResult:
    code: int
    stdout: str
    stderr: str


class Workload:
    """Inputs and operations of one workload, built from its name and seed."""

    def __init__(self, name: str, seed: int, bb, root: Path):
        self.name = name
        self.bb = bb
        self.root = root
        self.profile = p = PROFILES[name]
        rng = np.random.default_rng(seed)
        self.session_seeds = [int(s) for s in rng.integers(0, 2**63, len(VARIANTS))]
        self.sp_seed = int(rng.integers(0, 2**63))
        self.cli_seed = int(rng.integers(0, 2**31))
        self.grid = self._build_grid(rng)
        kappa = bb.kappa_for_channel(p.mu, p.eta).kappa
        mu, eta, t = p.mu, p.eta, p.t
        self.variants = [
            Variant("none", mu, eta),
            Variant("ir", mu, eta, eps=0.5),
            Variant("opt", mu, eta, d=0.1),
            Variant("bs-ir", mu, eta, t=t, d=0.1),
            Variant("bs-ir-majority", mu, eta, t=t, d=0.1, rule="majority"),
            Variant("bs-opt", mu, eta, t=t, d=0.1),
            Variant("pns", mu, eta, kappa=kappa, d=0.05),
        ]
        self.configs = [
            self.session_config(v, p.pulses, s) for v, s in zip(self.variants, self.session_seeds)
        ]
        point = ("--mu", repr(p.mu), "--eta", repr(p.eta))
        self.cli_argv = {
            "thresholds": ("thresholds", *point, "--format", "json"),
            "sweep": ("sweep", "--strategy", "pns", *point, "--steps", str(SWEEP_STEPS)),
            "simulate": ("simulate", *p.cli_sim_args, *point, "--seed", str(self.cli_seed),
                         "--check", "--format", "json"),
            "verify": ("verify", "--format", "json"),
        }
        self.ops = self._build_ops()

    # ------------------------------------------------------------ inputs

    def _build_grid(self, rng) -> list[tuple[float, float]]:
        """(mu, eta) points: a dark line, both sides of eta*, and jittered strata.

        Half of the random transmissions fall below eta* (the PNS total-break
        region, where crossings return at once) and half above, one per
        stratum, so the work per round does not depend on the seed.  eta = 1
        exactly is left to the lossless-sweep fault operation.
        """
        p = self.profile

        def strata(lo: float, hi: float, n: int) -> list[float]:
            return [lo + (i + float(u)) * (hi - lo) / n for i, u in enumerate(rng.uniform(0.0, 1.0, n))]

        if p.n_mus == 0:
            mus = [p.mu]
        else:
            mus = [math.exp(x) for x in strata(math.log(0.05), math.log(5.0), p.n_mus)]
        grid = []
        for mu in mus:
            star = 1.0 - math.log1p(mu) / mu
            etas = {0.0, star * (1.0 - rng.uniform(0.02, 0.2)), star + (1.0 - star) * rng.uniform(0.02, 0.2)}
            etas |= set(strata(0.0, star, p.n_etas // 2)) | set(strata(star, 1.0, p.n_etas - p.n_etas // 2))
            if p.n_mus == 0:
                etas.add(p.eta)
            grid += [(mu, eta) for eta in sorted(etas)]
        return grid

    def session_config(self, v: Variant, pulses: int, seed: int):
        bb = self.bb
        attack = {
            "none": lambda: None,
            "ir": lambda: bb.InterceptResend(eps=v.eps),
            "opt": lambda: bb.OptimalIncoherent(d=v.d),
            "bs-ir": lambda: bb.BsInterceptResend(t=v.t, d=v.d),
            "bs-opt": lambda: bb.BsOptimal(t=v.t, d=v.d),
            "pns": lambda: bb.Pns(kappa=v.kappa, d=v.d),
        }[v.kind]()
        return bb.SessionConfig(
            optics=bb.OpticalConfig(mu=v.mu, eta=v.eta), attack=attack,
            n_pulses=pulses, seed=seed, scenario_a_rule=v.rule,
        )

    def warm_up(self) -> None:
        """The one call that finishes lazy set-up before anything is timed."""
        if self.profile.shards is None:
            if self.name == "analysis":
                self.bb.crossing_point("pns", *self.grid[0])
            else:
                self.bb.run_session(self.session_config(self.variants[0], 1 << 14, 0))
        else:
            self.bb.run_sharded(self.session_config(self.variants[0], 1 << 14, 0), 16)

    # ------------------------------------------------------- operations

    def _build_ops(self) -> list[Op]:
        timed = [self._session_op(i) for i in range(len(VARIANTS))]
        timed += [self._sweep_op(), self._crossing_op()]
        ops = [self._single_photon_op("ir"), self._single_photon_op("opt")]
        ops += [self._probe_op(), self._optics_op(), self._attacks_op()]
        ops += [self._cli_main_op(cmd) for cmd in CLI_COMMANDS]
        ops += [self._cli_process_op(cmd, self.cli_argv[cmd], self._check_cli(cmd)) for cmd in CLI_COMMANDS]
        # The timed blocks are spread through the round, so that the samples
        # of each throughput cover the whole run, not one part of each round.
        passes = self.profile.passes
        for k in reversed(range(passes)):
            at = k * len(ops) // passes
            ops[at:at] = [_again(op, k) for op in timed] if k else timed
        if self.profile.known_faults:
            missing = self.root / "perfbench" / "out" / "no-such-config.json"
            ops += [
                self._cli_process_op("fault-nan-json", ("thresholds", "--mu", "inf", "--format", "json"),
                                     _check_finite_or_usage, FAULT_NAN_JSON),
                self._cli_process_op("fault-missing-config",
                                     ("simulate", "--mu", "1", "--config", str(missing.relative_to(self.root))),
                                     _check_usage_error, FAULT_MISSING_CONFIG),
                self._cli_process_op("fault-majority",
                                     ("simulate", "--attack", "bs-ir", "--t", "0.5", "--d", "0.1", "--mu", "3",
                                      "--scenario-a-rule", "majority", "--check", "--format", "json"),
                                     self._check_simulate_json(MAJORITY_VARIANT), FAULT_MAJORITY),
                self._cli_process_op("fault-lossless-sweep",
                                     ("sweep", "--strategy", "bs-ir", "--mu", "1", "--eta", "1",
                                      "--format", "json"),
                                     _check_lossless_sweep, FAULT_LOSSLESS_SWEEP),
            ]
        return ops

    def _session_op(self, i: int) -> Op:
        bb, v, config = self.bb, self.variants[i], self.configs[i]
        shards = self.profile.shards

        def run(rec):
            rng_probe = rec.wrap("engine.shard_rng", bb.shard_rng)
            for k in range(shards or 1):
                rng_probe(config.seed, k)
            if shards is None:
                call = rec.wrap("engine.run_session", bb.run_session, variant=v.name, pulses=config.n_pulses)
                t0 = rec.clock()
                stats = call(config)
            else:
                call = rec.wrap("engine.run_sharded", bb.run_sharded, variant=v.name, pulses=config.n_pulses)
                t0 = rec.clock()
                stats = call(config, shards)
            rec.sample(f"pulses_per_s.{v.name}", config.n_pulses / (rec.clock() - t0))
            rec.wrap("engine.analytic_expectations", bb.analytic_expectations)(config)
            return stats.to_dict()

        def check(result, _):
            import expect

            bad = expect.check_session(result, expect.session_expectation(v))
            small = self.session_config(v, EQUALITY_PULSES, config.seed)
            if bb.run_sharded(small, 1) != bb.run_session(small):
                bad.append("run_sharded(config, 1) differs from run_session(config)")
            return bad

        return Op(f"session:{v.name}", run, check)

    def _single_photon_op(self, kind: str) -> Op:
        bb, n = self.bb, self.profile.sp_trials
        fn = bb.simulate_ir_attack if kind == "ir" else bb.simulate_opt_attack
        param = 1.0 if kind == "ir" else 0.1
        name = f"single_photon.{fn.__name__}"

        def run(rec):
            rng = np.random.default_rng(self.sp_seed)
            return rec.wrap(name, fn, trials=n)(param, n, rng)

        def check(sample, _):
            import expect

            if kind == "ir":  # eps = 1: every signal is measured and resent
                guess, dist = expect.BREIDBART_CORRECT, expect.RESEND_ERROR
            else:
                guess, dist = expect.helstrom(param), param
            m = sample.sifted_count
            bad = []
            for label, count, trials, prob in (
                ("sifted", m, n, 0.5),
                ("guess_rate", round(sample.guess_rate * m), m, guess),
                ("disturbance", round(sample.disturbance * m), m, dist),
            ):
                z = expect.z_score(count, trials, prob)
                if abs(z) > expect.Z_GATE:
                    bad.append(f"{label}: z={z:.2f}")
            for rate, err in ((sample.guess_rate, sample.guess_stderr),
                              (sample.disturbance, sample.disturbance_stderr)):
                if _off(err, math.sqrt(rate * (1.0 - rate) / m)):
                    bad.append("standard error is not the binomial one")
            return bad

        return Op(name, run, check)

    def _probe_op(self) -> Op:
        bb = self.bb

        def run(rec):
            model_of = rec.wrap("single_photon.probe_model_from_disturbance", bb.probe_model_from_disturbance)
            unitarity = rec.wrap("single_photon.verify_unitarity", bb.verify_unitarity)
            out = []
            for d in PROBE_D:
                model = model_of(d)
                out.append((d, model, unitarity(model).max_deviation))
            return out

        def check(rows, _):
            bad = []
            for d, m, dev in rows:
                if _off(dev, 0.0):
                    bad.append(f"unitarity deviation {dev:.2e} at d={d}")
                if _off(m.fidelity, 1.0 - d) or _off(m.disturbance, d):
                    bad.append(f"fidelity/disturbance wrong at d={d}")
                if _off(m.fidelity_overlap + m.disturbance_overlap, m.fidelity - m.disturbance):
                    bad.append(f"basis-change symmetry broken at d={d}")
                if _off(m.probe_overlap, 1.0 - 2.0 * d):
                    bad.append(f"probe overlap is not 1 - 2d at d={d}")
            return bad

        return Op("single_photon.probe", run, check)

    def _optics_op(self) -> Op:
        po = self.bb.pulse_optics

        def run(rec):
            closed = rec.wrap("pulse_optics.scenario_probs", po.scenario_probs)
            series = rec.wrap("pulse_optics.scenario_probs_series", po.scenario_probs_series)
            coinc = rec.wrap("pulse_optics.coincidence_prob", po.coincidence_prob)
            coinc_series = rec.wrap("pulse_optics.coincidence_prob_series", po.coincidence_prob_series)
            bob_series = rec.wrap("pulse_optics.bob_count_pmf_series", po.bob_count_pmf_series)
            return [
                (mu, eta, closed(mu, eta).as_tuple(), series(mu, eta).as_tuple(),
                 coinc(eta, mu), coinc_series(eta, mu), [bob_series(mu, eta, i) for i in range(4)])
                for mu, eta in self.grid
            ]

        def check(rows, _):
            import expect
            from scipy import stats

            bad = []
            for mu, eta, closed, series, c, c_series, bob in rows:
                want = tuple(expect.scenario_sums(mu, eta).values())
                for label, got in (("scenario_probs", closed), ("scenario_probs_series", series)):
                    if any(_off(a, b) for a, b in zip(got, want)):
                        bad.append(f"{label}({mu}, {eta}) off the photon-number sum")
                c_want = expect.coincidence_sum(eta, mu)
                if _off(c, c_want) or _off(c_series, c_want):
                    bad.append(f"coincidence_prob({eta}, {mu}) off the photon-number sum")
                if any(_off(b, stats.poisson.pmf(i, mu * eta)) for i, b in enumerate(bob)):
                    bad.append(f"post-splitter law at ({mu}, {eta}) is not Poisson(mu t)")
            return bad

        return Op("pulse_optics.batch", run, check)

    def _attacks_op(self) -> Op:
        bb = self.bb

        def run(rec):
            bs_ir = rec.wrap("pulse_attacks.bs_ir_predict", bb.bs_ir_predict)
            bs_opt = rec.wrap("pulse_attacks.bs_opt_predict", bb.bs_opt_predict)
            pns = rec.wrap("pulse_attacks.pns_predict", bb.pns_predict)
            kappa_of = rec.wrap("pulse_attacks.kappa_for_channel", bb.kappa_for_channel)
            rows = []
            for mu, eta in self.grid:
                cal = kappa_of(mu, eta)
                kappa = min(cal.kappa, 1.0)
                for d in PREDICT_D:
                    rows.append((mu, eta, d, cal, bs_ir(mu, eta, d), bs_opt(mu, eta, d), pns(mu, kappa, d)))
            return rows

        def check(rows, _):
            import expect

            bad = []
            for mu, eta, d, cal, p_ir, p_opt, p_pns in rows:
                star = expect.eta_star(mu)
                if _off(cal.kappa, expect.pns_kappa(mu, eta), CLOSE * max(1.0, cal.kappa)):
                    bad.append(f"kappa_for_channel({mu}, {eta}) = {cal.kappa}")
                if cal.break_possible != (eta <= star):
                    bad.append(f"kappa break flag wrong at ({mu}, {eta})")
                kappa = min(cal.kappa, 1.0)
                for label, pred, v in (
                    ("bs_ir", p_ir, Variant("bs-ir", mu, t=eta, d=d)),
                    ("bs_opt", p_opt, Variant("bs-opt", mu, t=eta, d=d)),
                    ("pns", p_pns, Variant("pns", mu, kappa=kappa, d=d)),
                ):
                    e = expect.session_expectation(v)
                    if e.nonempty_rate == 0.0:
                        continue  # t = 0: no detections, so per-detection rates are undefined
                    if _off(pred.guess_prob, e.eve_accuracy) or _off(pred.d_ab, e.qber):
                        bad.append(f"{label}_predict({mu}, {eta}, {d}) off the photon-number sum")
                    if label == "pns" and not cal.break_possible:
                        # The calibration keeps the non-empty rate of a lossy line.
                        if _off(e.nonempty_rate, -math.expm1(-eta * mu)):
                            bad.append(f"kappa at ({mu}, {eta}) does not mimic the line loss")
            return bad

        return Op("pulse_attacks.batch", run, check)

    def _sweep_op(self) -> Op:
        bb = self.bb

        def run(rec):
            rows = []
            t0 = rec.clock()
            for kind in KINDS:
                point = rec.wrap("security.info_curve_point", bb.info_curve_point, kind=kind)
                rows += [(kind, mu, eta, [point(kind, d, mu, eta) for d in SWEEP_D]) for mu, eta in self.grid]
            rec.sample("sweep_points_per_s", len(rows) * len(SWEEP_D) / (rec.clock() - t0))
            return rows

        def check(rows, _):
            bad = []
            for kind, mu, eta, points in rows:
                bad += _check_curve(kind, mu, eta, [(p.d_ab, p.i_ab_bits, p.i_ae_bits, p.feasible) for p in points])
                if [p.d_ab for p in points] != SWEEP_D:
                    bad.append("sweep points are not at the requested error rates")
            return bad

        return Op("security.sweep", run, check)

    def _crossing_op(self) -> Op:
        bb = self.bb

        def run(rec):
            thr = rec.wrap("security.threshold", bb.threshold)
            thresholds = {(kind, mu, eta): thr(kind, mu, eta) for kind in KINDS for mu, eta in self.grid}
            crossings = {}
            t0 = rec.clock()
            for kind in KINDS:
                cross = rec.wrap("security.crossing_point", bb.crossing_point, kind=kind)
                for mu, eta in self.grid:
                    crossings[kind, mu, eta] = cross(kind, mu, eta)
            rec.sample("crossings_per_s", len(crossings) / (rec.clock() - t0))
            return thresholds, crossings

        def check(result, _):
            import expect

            thresholds, crossings = result
            bad = []
            for (kind, mu, eta), res in thresholds.items():
                value = res.max_d_ab
                star = expect.eta_star(mu)
                if kind == "ir" and _off(value, expect.IR_THRESHOLD, 1e-15):
                    bad.append(f"ir threshold {value}")
                if kind == "opt" and _off(value, expect.OPT_THRESHOLD, 1e-15):
                    bad.append(f"opt threshold {value}")
                if kind == "bs_opt" and _off(value, expect.OPT_THRESHOLD * math.exp(-mu * (1.0 - eta))):
                    bad.append(f"bs_opt threshold at ({mu}, {eta})")
                if kind == "pns" and ((value == 0.0 and res.break_possible) != (eta <= star)):
                    bad.append(f"pns break region wrong at ({mu}, {eta}), eta*={star}")
                # The linear criterion d = 1 - p(d) on the independent curve.
                if _off(value, 1.0 - expect.eve_accuracy_curve(kind, value, mu, eta)):
                    bad.append(f"{kind} threshold at ({mu}, {eta}) misses d = 1 - p(d)")
                if _off(crossings[kind, mu, eta], value, CROSSING_TOL):
                    bad.append(f"{kind} crossing {crossings[kind, mu, eta]} vs threshold {value} at ({mu}, {eta})")
            for kind in ("bs_ir", "bs_opt", "pns"):
                for mu in sorted({mu for mu, _ in self.grid}):
                    row = [thresholds[kind, m, e].max_d_ab for m, e in self.grid if m == mu]
                    if any(b < a - 1e-15 for a, b in zip(row, row[1:])):
                        bad.append(f"{kind} threshold not monotone in eta at mu={mu}")
            return bad

        return Op("security.crossings", run, check)

    # ------------------------------------------------------ command line

    def _cli_main_op(self, cmd: str) -> Op:
        from bb84eve import cli

        argv = list(self.cli_argv[cmd])

        def run(rec):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = rec.wrap("cli.main", cli.main, command=cmd)(argv)
            return CliResult(code, out.getvalue(), err.getvalue())

        def check(res, results):
            process = results[f"cli:{cmd}"]
            if res.code != 0 or res.stdout != process.stdout:
                return [f"in-process {cmd} differs from the fresh process (exit {res.code})"]
            return []

        return Op(f"cli.main:{cmd}", run, check)

    def _cli_process_op(self, label: str, argv, check, fault: str | None = None) -> Op:
        command = [sys.executable, "-m", "bb84eve", *argv]

        def run(rec):
            t0 = rec.clock()
            with rec.span("cli.process", command=label):
                proc = subprocess.run(command, capture_output=True, text=True, cwd=self.root,
                                      env=rec.child_env, timeout=120)
            if fault is None:
                rec.sample(f"cli_{label}_s", rec.clock() - t0)
            return CliResult(proc.returncode, proc.stdout, proc.stderr)

        def checked(res, results):
            if res.code not in (0, 1, 2):
                return [f"exit code {res.code}"]
            return check(res, results)

        return Op(f"cli:{label}", run, checked, fault)

    def _check_cli(self, cmd: str):
        return {
            "thresholds": self._check_thresholds_json,
            "sweep": self._check_sweep_csv,
            "simulate": self._check_simulate_json(self.profile.cli_sim),
            "verify": _check_verify_json,
        }[cmd]

    def _check_thresholds_json(self, res: CliResult, _) -> list[str]:
        import expect

        doc, bad = _parse_json(res)
        if doc is None:
            return bad
        mu, eta = self.profile.mu, self.profile.eta
        for kind in KINDS:
            if doc["thresholds"].get(kind) != self.bb.threshold(kind, mu, eta).max_d_ab:
                bad.append(f"thresholds JSON {kind} differs from threshold()")
        if _off(doc["eta_star"], expect.eta_star(mu)):
            bad.append("eta_star wrong")
        if doc["break_possible"] != (eta <= expect.eta_star(mu)):
            bad.append("break_possible wrong")
        return bad

    def _check_sweep_csv(self, res: CliResult, _) -> list[str]:
        if res.code != 0:
            return [f"sweep exit {res.code}: {res.stderr.strip()[:200]}"]
        lines = res.stdout.split("\n")
        if lines[-1] != "" or "\r" in res.stdout:
            return ["sweep CSV does not end in LF line endings"]
        lines = lines[:-1]
        if lines[0] != "d_ab,i_ab_bits,i_ae_bits,feasible":
            return [f"sweep header {lines[0]!r}"]
        if len(lines) - 1 != SWEEP_STEPS:
            return [f"sweep has {len(lines) - 1} rows, not {SWEEP_STEPS}"]
        rows = []
        for line in lines[1:]:
            d, i_ab, i_ae, flag = line.split(",")
            rows.append((float(d), float(i_ab), float(i_ae), flag == "true"))
        bad = _check_curve("pns", self.profile.mu, self.profile.eta, rows)
        if [r[0] for r in rows] != [float(d) for d in np.linspace(0.0, 0.25, SWEEP_STEPS)]:
            bad.append("sweep rows are not at the requested error rates")
        return bad

    def _check_simulate_json(self, v: Variant):
        def check(res: CliResult, _) -> list[str]:
            import expect

            doc, bad = _parse_json(res)
            if doc is None:
                return bad
            want = expect.session_expectation(_with_cli_kappa(v))
            bad += expect.check_session(doc["stats"], want)
            exact = {
                "qber": want.qber,
                "eve_accuracy": 0.5 if want.eve_accuracy is None else want.eve_accuracy,
                "nonempty_rate": want.nonempty_rate,
                "coincidence_rate": want.coincidence_rate,
            }
            for entry in doc.get("check", []):
                metric = entry["metric"]
                if _off(entry["analytic"], exact[metric], CROSSING_TOL):
                    bad.append(f"--check analytic {metric} {entry['analytic']:.6f}, exact {exact[metric]:.6f}")
                if entry["sigma_distance"] > expect.Z_GATE:
                    bad.append(f"--check {metric} at {entry['sigma_distance']:.1f} sigma")
            return bad

        return check


def _again(op: Op, k: int) -> Op:
    """Block ``k`` > 0 of a round runs ``op`` again and must repeat its output."""

    def check(result, first) -> list[str]:
        return [] if repr(result) == repr(first[op.name]) else [f"differs from {op.name}"]

    return Op(f"{op.name}#{k}", op.run, check)


def _off(got: float, want: float, tol: float = CLOSE) -> bool:
    """True when ``got`` is further than ``tol`` from ``want``, or either is NaN."""
    return not abs(got - want) <= tol


def _with_cli_kappa(v: Variant) -> Variant:
    """The CLI derives the PNS blocking fraction from (mu, eta), capped at 1."""
    if v.kind != "pns":
        return v
    import expect

    kappa = min(expect.pns_kappa(v.mu, v.eta), 1.0)
    return Variant(v.name, v.mu, v.eta, kappa=kappa, d=v.d)


def _check_curve(kind: str, mu: float, eta: float, rows) -> list[str]:
    """Information-curve rows (d, i_ab, i_ae, feasible) against the independent curve."""
    import expect

    bad = []
    for d, i_ab, i_ae, flag in rows:
        p = expect.eve_accuracy_curve(kind, d, mu, eta)
        if _off(i_ab, 1.0 - expect.h2(d)):
            bad.append(f"i_ab({d}) is not 1 - H2(d)")
        if _off(i_ae, 1.0 - expect.h2(p), CROSSING_TOL):
            bad.append(f"{kind} i_ae at d={d}, ({mu}, {eta}) is not 1 - H2(p)")
        if flag != (d < 1.0 - p):
            bad.append(f"{kind} feasible at d={d}, ({mu}, {eta}) is not d < 1 - p")
    return bad[:5]


def _parse_json(res: CliResult):
    if res.code != 0:
        return None, [f"exit {res.code}: {res.stderr.strip()[-200:]}"]
    try:
        return _strict_json(res.stdout), []
    except ValueError as exc:
        return None, [f"stdout is not strict JSON: {exc}"]


def _check_verify_json(res: CliResult, _) -> list[str]:
    doc, bad = _parse_json(res)
    if doc is None:
        return bad
    if doc.get("pass") is not True or not all(c["pass"] for c in doc["checks"]):
        bad.append("verify did not pass")
    return bad


def _check_lossless_sweep(res: CliResult, _) -> list[str]:
    """The default 100-point sweep of bs-ir at mu=1 on a lossless line."""
    doc, bad = _parse_json(res)
    if doc is None:
        return bad
    rows = [(r["d_ab"], r["i_ab_bits"], r["i_ae_bits"], r["feasible"]) for r in doc["rows"]]
    if len(rows) != 100:
        bad.append(f"{len(rows)} rows, not 100")
    return bad + _check_curve("bs_ir", 1.0, 1.0, rows)


def _one_line_usage_error(res: CliResult) -> bool:
    lines = res.stderr.strip().splitlines()
    return res.code == 2 and len(lines) == 1 and "Traceback" not in res.stderr


def _check_finite_or_usage(res: CliResult, _) -> list[str]:
    """Exit 2 with a one-line message, or valid output in strict JSON."""
    if _one_line_usage_error(res):
        return []
    return _parse_json(res)[1]


def _check_usage_error(res: CliResult, _) -> list[str]:
    if _one_line_usage_error(res):
        return []
    return [f"exit {res.code} with {len(res.stderr.strip().splitlines())} lines on stderr"]
