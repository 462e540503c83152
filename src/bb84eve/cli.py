"""Command-line front end: threshold tables, information-curve sweeps,
Monte Carlo sessions and self-verification.

Every command emits a run manifest (command, resolved parameters, seed, tool
version, UTC timestamp) as a single JSON line on stderr, and optionally to a
file via ``--manifest``.  Stdout carries only the requested output, so JSON
and CSV results are byte-identical across reruns of the same command.
Parameter precedence is flags, then ``--config`` JSON file, then defaults.
Exit codes: 0 success, 1 verification failure, 2 usage or validation error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from datetime import datetime, timezone

import numpy as np

from . import __version__
from .engine import (
    SCENARIO_A_RULES,
    SessionConfig,
    analytic_expectations,
    run_sharded,
)
from .pulse_attacks import (
    ATTACKS,
    Attack,
    Pns,
    full_break_transmission,
    kappa_for_channel,
)
from .pulse_optics import (
    OpticalConfig,
    bob_count_pmf_after_splitter,
    bob_count_pmf_series,
    coincidence_prob,
    coincidence_prob_series,
    scenario_probs,
    scenario_probs_series,
)
from .security import THRESHOLD_KINDS, info_curve_point, threshold
from .single_photon import (
    basis_symmetry_deviation,
    probe_model_from_disturbance,
    verify_unitarity,
)

SCHEMA_VERSION = "1"

#: The attacks by their command-line spelling: ``bs-ir`` for ``bs_ir``.
_CLI_ATTACKS = {name.replace("_", "-"): cls for name, cls in ATTACKS.items()}
SWEEP_KINDS = tuple(_CLI_ATTACKS)
ATTACK_KINDS = ("none", *SWEEP_KINDS)

_VERIFY_TOL = 1e-12

#: Parameters that count something; a config file must give them whole numbers.
_INTEGER_PARAMS = ("pulses", "seed", "shards", "steps")


def _emit_manifest(command: str, params: dict, seed: int | None, path: str | None) -> None:
    manifest = {
        "schema_version": SCHEMA_VERSION,
        "command": command,
        "params": params,
        "seed": seed,
        "version": __version__,
        "timestamp_utc": datetime.now(timezone.utc).isoformat().replace("+00:00", "Z"),
    }
    line = json.dumps(manifest, allow_nan=False)
    print(line, file=sys.stderr)
    if path:
        with open(path, "w") as fh:
            fh.write(line + "\n")


def _merge_params(args: argparse.Namespace, names: list[str], defaults: dict) -> dict:
    """Resolve values by precedence: explicit flag, config file, default.

    Config files (and re-fed manifests) use underscore keys, matching the
    ``params`` block every command emits.  A key the command does not read
    is an error, so that a misspelt one cannot silently run the default.
    """
    from_file: dict = {}
    if getattr(args, "config", None):
        with open(args.config) as fh:
            loaded = json.load(fh)
        from_file = loaded.get("params", loaded) if isinstance(loaded, dict) else None
        if not isinstance(from_file, dict):
            raise ValueError(f"config file {args.config} must hold a JSON object")
    merged = {}
    for name in names:
        key = name.replace("-", "_")
        flag = getattr(args, key, None)
        if flag is not None:
            merged[name] = flag
        elif key in from_file:
            value = from_file[key]
            # bool is an int subclass: {"mu": true} must not run as mu = 1.
            if isinstance(value, bool) or not isinstance(value, (str, int, float, type(None))):
                raise ValueError(f"config value {key!r} must be a number or a string")
            if name in _INTEGER_PARAMS and isinstance(value, float) and not value.is_integer():
                raise ValueError(f"config value {key!r} must be an integer, got {value!r}")
            merged[name] = value
        else:
            merged[name] = defaults.get(name)
    unknown = sorted(set(from_file) - {name.replace("-", "_") for name in names})
    if unknown:
        raise ValueError(f"unknown config key {', '.join(map(repr, unknown))}")
    return merged


def _print_or_write(text: str, output: str | None) -> None:
    if output:
        with open(output, "w", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _json_document(payload: dict) -> str:
    return json.dumps(payload, indent=2, allow_nan=False) + "\n"


# ---------------------------------------------------------------- thresholds


def _cmd_thresholds(args: argparse.Namespace) -> int:
    params = _merge_params(args, ["mu", "eta"], {"eta": 1.0})
    if params["mu"] is None:
        print("thresholds: --mu is required", file=sys.stderr)
        return 2
    mu, eta = float(params["mu"]), float(params["eta"])
    rows = []
    for kind in THRESHOLD_KINDS:
        res = threshold(kind, mu, eta)
        rows.append((kind, res.max_d_ab, res.break_possible))
    break_flag = any(flag for _, _, flag in rows)
    eta_star = full_break_transmission(mu)
    _emit_manifest("thresholds", {"mu": mu, "eta": eta}, None, args.manifest)

    if args.format == "json":
        payload = {
            "schema_version": SCHEMA_VERSION,
            "command": "thresholds",
            "params": {"mu": mu, "eta": eta},
            "thresholds": {kind: value for kind, value, _ in rows},
            "eta_star": eta_star,
            "break_possible": break_flag,
        }
        _print_or_write(_json_document(payload), args.output)
    elif args.format == "csv":
        lines = ["quantity,max_d_ab,break_possible"]
        for kind, value, flag in rows:
            lines.append(f"{kind},{value!r},{str(flag).lower()}")
        lines.append(f"eta_star,{eta_star!r},")
        _print_or_write("\n".join(lines) + "\n", args.output)
    else:
        lines = [f"tolerable error rates at mu={mu} eta={eta}", ""]
        lines.append(f"{'strategy':<10}{'max_d_ab':>12}")
        for kind, value, flag in rows:
            note = "  (total break possible)" if flag else ""
            lines.append(f"{kind:<10}{value:>12.6f}{note}")
        lines.append("")
        lines.append(f"eta_star   {eta_star:>12.6f}  (full-break transmission)")
        _print_or_write("\n".join(lines) + "\n", args.output)
    return 0


# --------------------------------------------------------------------- sweep


def _cmd_sweep(args: argparse.Namespace) -> int:
    params = _merge_params(
        args,
        ["strategy", "mu", "eta", "d-min", "d-max", "steps"],
        {"eta": 1.0, "d-min": 0.0, "d-max": 0.25, "steps": 100},
    )
    kind_cli = params["strategy"]
    if kind_cli is None:
        print("sweep: --strategy is required", file=sys.stderr)
        return 2
    if kind_cli not in _CLI_ATTACKS:
        print(f"sweep: unknown strategy {kind_cli!r}", file=sys.stderr)
        return 2
    kind = _CLI_ATTACKS[kind_cli].name
    d_min, d_max = float(params["d-min"]), float(params["d-max"])
    steps = int(params["steps"])
    if not (0.0 <= d_min < d_max <= 0.5) or steps < 2:
        print(
            f"sweep: need 0 <= d-min < d-max <= 0.5 and steps >= 2, "
            f"got d-min={d_min} d-max={d_max} steps={steps}",
            file=sys.stderr,
        )
        return 2
    mu = float(params["mu"]) if params["mu"] is not None else None
    eta = float(params["eta"]) if params["eta"] is not None else None

    rows = [
        info_curve_point(kind, float(d), mu, eta)
        for d in np.linspace(d_min, d_max, steps)
    ]

    _emit_manifest(
        "sweep",
        {"strategy": kind_cli, "mu": mu, "eta": eta, "d_min": d_min, "d_max": d_max, "steps": steps},
        None,
        args.manifest,
    )
    if args.format == "json":
        payload = {
            "schema_version": SCHEMA_VERSION,
            "command": "sweep",
            "params": {
                "strategy": kind_cli,
                "mu": mu,
                "eta": eta,
                "d_min": d_min,
                "d_max": d_max,
                "steps": steps,
            },
            "rows": [
                {
                    "d_ab": p.d_ab,
                    "i_ab_bits": p.i_ab_bits,
                    "i_ae_bits": p.i_ae_bits,
                    "feasible": p.feasible,
                }
                for p in rows
            ],
        }
        _print_or_write(_json_document(payload), args.output)
    else:
        lines = ["d_ab,i_ab_bits,i_ae_bits,feasible"]
        for p in rows:
            lines.append(
                f"{p.d_ab!r},{p.i_ab_bits!r},{p.i_ae_bits!r},{str(p.feasible).lower()}"
            )
        _print_or_write("\n".join(lines) + "\n", args.output)
    return 0


# ------------------------------------------------------------------ simulate


_SIM_PARAM_NAMES = [
    "attack", "mu", "eta", "t", "d", "eps", "kappa",
    "pulses", "seed", "shards", "scenario-a-rule",
]
_SIM_DEFAULTS = {
    "attack": "none",
    "eta": 1.0,
    "d": 0.0,
    "eps": 1.0,
    "pulses": 100_000,
    "seed": 0,
    "shards": 1,
    "scenario-a-rule": "single_result",
}


def _build_attack(kind: str, params: dict) -> Attack | None:
    """Build the attack and record its resolved parameters (a derived kappa) in ``params``.

    A PNS blocking fraction matched to the line is capped at 1; when the cap
    bites (the total-break region, eta below eta*), one line on stderr says so.
    """
    if kind == "none":
        return None
    cls = _CLI_ATTACKS[kind]
    mu, eta = float(params["mu"]), float(params["eta"])
    attack = cls.from_params(params, mu, eta)
    if cls is Pns and params.get("kappa") is None:
        calibrated = kappa_for_channel(mu, eta).kappa
        if calibrated > attack.kappa:
            print(
                f"simulate: calibrated kappa {calibrated:.6g} clamped to 1: eta={eta:g} is "
                f"below eta*={full_break_transmission(mu):.6g}, a total break",
                file=sys.stderr,
            )
    params.update(dataclasses.asdict(attack))
    return attack


def _format_check(stats, expected: dict) -> list[dict]:
    checks = []
    measured = {
        "qber": (stats.qber, stats.qber_stderr),
        "eve_accuracy": (stats.eve_accuracy, stats.eve_accuracy_stderr),
        "nonempty_rate": (stats.nonempty_rate, stats.nonempty_stderr),
        "coincidence_rate": (stats.coincidence_rate, stats.coincidence_stderr),
    }
    for metric, analytic in expected.items():
        if analytic is None:
            continue
        value, stderr = measured[metric]
        if value != value:  # NaN: nothing sifted
            continue
        if stderr > 0.0:
            distance = abs(value - analytic) / stderr
        else:  # no spread: a deviation has no finite distance
            distance = 0.0 if value == analytic else None
        checks.append(
            {
                "metric": metric,
                "analytic": analytic,
                "empirical": value,
                "sigma_distance": distance,
            }
        )
    return checks


def _cmd_simulate(args: argparse.Namespace) -> int:
    params = _merge_params(args, _SIM_PARAM_NAMES, _SIM_DEFAULTS)
    if params["mu"] is None:
        print("simulate: --mu is required", file=sys.stderr)
        return 2
    kind = params["attack"]
    if kind not in ATTACK_KINDS:
        print(f"simulate: unknown attack {kind!r}", file=sys.stderr)
        return 2
    try:
        attack = _build_attack(kind, params)
        config = SessionConfig(
            optics=OpticalConfig(mu=float(params["mu"]), eta=float(params["eta"])),
            attack=attack,
            n_pulses=int(params["pulses"]),
            seed=int(params["seed"]),
            scenario_a_rule=str(params["scenario-a-rule"]),
        )
        n_shards = int(params["shards"])
        if not 1 <= n_shards <= config.n_pulses:
            raise ValueError(f"shards must be in [1, pulses={config.n_pulses}], got {n_shards}")
    except (ValueError, TypeError) as exc:
        print(f"simulate: {exc}", file=sys.stderr)
        return 2

    resolved = {
        "attack": kind,
        "mu": config.optics.mu,
        "eta": config.optics.eta,
        "t": params["t"],
        "d": params["d"],
        "eps": params["eps"],
        "kappa": params["kappa"],
        "pulses": config.n_pulses,
        "seed": config.seed,
        "shards": n_shards,
        "scenario_a_rule": config.scenario_a_rule,
    }
    _emit_manifest("simulate", resolved, config.seed, args.manifest)

    stats = run_sharded(config, n_shards)
    checks = _format_check(stats, analytic_expectations(config)) if args.check else None

    if args.format == "json":
        payload = {
            "schema_version": SCHEMA_VERSION,
            "command": "simulate",
            "params": resolved,
            "stats": stats.to_dict(),
        }
        if checks is not None:
            payload["check"] = checks
        _print_or_write(_json_document(payload), args.output)
    else:
        lines = [f"session: attack={kind} mu={config.optics.mu} eta={config.optics.eta} "
                 f"pulses={config.n_pulses} seed={config.seed} shards={n_shards}"]
        lines.append(f"  sifted_count     {stats.sifted_count}")
        lines.append(f"  qber             {stats.qber:.6f} ± {stats.qber_stderr:.6f}")
        lines.append(f"  eve_accuracy     {stats.eve_accuracy:.6f} ± {stats.eve_accuracy_stderr:.6f}")
        lines.append(f"  nonempty_rate    {stats.nonempty_rate:.6f} ± {stats.nonempty_stderr:.6f}")
        lines.append(f"  coincidence_rate {stats.coincidence_rate:.6f} ± {stats.coincidence_stderr:.6f}")
        if stats.scenario_counts is not None:
            lines.append(f"  scenario_counts  {stats.scenario_counts}")
        if checks is not None:
            lines.append("  check (analytic vs empirical):")
            for c in checks:
                sigma = c["sigma_distance"]
                lines.append(
                    f"    {c['metric']:<17} {c['analytic']:.6f} vs {c['empirical']:.6f} "
                    + ("(no spread)" if sigma is None else f"({sigma:.2f} sigma)")
                )
        _print_or_write("\n".join(lines) + "\n", args.output)
    return 0


# -------------------------------------------------------------------- verify


def _cmd_verify(args: argparse.Namespace) -> int:
    _merge_params(args, [], {})  # verify reads no parameter: any config key is unknown
    rng = np.random.default_rng(20240814)
    failures = 0
    checks: list[dict] = []

    def report(name: str, worst: float, tol: float = _VERIFY_TOL) -> None:
        nonlocal failures
        ok = worst < tol
        if not ok:
            failures += 1
        checks.append({"name": name, "max_deviation": worst, "pass": ok})

    d_grid = np.concatenate([np.linspace(0.0, 0.5, 101), rng.uniform(0.0, 0.5, 100)])
    report(
        "probe interaction unitarity",
        max(verify_unitarity(probe_model_from_disturbance(float(d))).max_deviation for d in d_grid),
    )
    report(
        "probe overlaps invariant under basis change",
        max(
            basis_symmetry_deviation(probe_model_from_disturbance(float(d)))
            for d in rng.uniform(0.0, 0.5, 20)
        ),
    )

    mus = np.linspace(0.02, 5.0, 50)
    ts = np.linspace(0.0, 1.0, 50)
    worst_sum = 0.0
    worst_series = 0.0
    for mu in mus:
        for t in ts:
            probs = scenario_probs(float(mu), float(t))
            worst_sum = max(worst_sum, abs(probs.total - 1.0))
            series = scenario_probs_series(float(mu), float(t))
            worst_series = max(
                worst_series,
                max(abs(a - b) for a, b in zip(probs.as_tuple(), series.as_tuple())),
            )
    report("routing-outcome probabilities sum to 1", worst_sum)
    report("routing-outcome closed forms vs photon-number series", worst_series)

    worst = 0.0
    for mu in (0.2, 1.0, 3.0):
        for t in (0.1, 0.5, 0.9):
            for i in range(6):
                worst = max(
                    worst,
                    abs(
                        bob_count_pmf_after_splitter(mu, t, i)
                        - bob_count_pmf_series(mu, t, i)
                    ),
                )
    report("post-splitter photon distribution vs marginalization", worst)

    worst = 0.0
    for mu in np.linspace(0.1, 4.0, 20):
        worst = max(
            worst,
            abs(coincidence_prob(0.9, float(mu)) - coincidence_prob_series(0.9, float(mu))),
        )
    report("coincidence closed form vs series", worst)

    _emit_manifest("verify", {}, None, args.manifest)
    if args.format == "json":
        payload = {
            "schema_version": SCHEMA_VERSION,
            "command": "verify",
            "checks": checks,
            "pass": failures == 0,
        }
        _print_or_write(_json_document(payload), args.output)
    else:
        lines = [
            f"{'PASS' if c['pass'] else 'FAIL'}  {c['name']}: "
            f"max deviation {c['max_deviation']:.3e}"
            for c in checks
        ]
        lines.append(
            "verify: " + ("PASS" if failures == 0 else f"FAIL ({failures} checks)")
        )
        _print_or_write("\n".join(lines) + "\n", args.output)
    return 0 if failures == 0 else 1


# ---------------------------------------------------------------------- main


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bb84eve",
        description="Eavesdropping attack calculus for pulsed BB84, with Monte Carlo validation.",
    )
    parser.add_argument("--version", action="version", version=f"bb84eve {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_thr = sub.add_parser("thresholds", help="Tolerable error rates for all strategies.")
    p_thr.add_argument("--mu", type=float, help="mean photon number (> 0)")
    p_thr.add_argument("--eta", type=float, help="channel transmission in [0, 1] (default 1)")
    p_thr.add_argument("--format", choices=("table", "json", "csv"), default="table")

    p_sweep = sub.add_parser("sweep", help="Information curves vs observed error rate (CSV).")
    p_sweep.add_argument("--strategy", choices=SWEEP_KINDS)
    p_sweep.add_argument("--mu", type=float)
    p_sweep.add_argument("--eta", type=float)
    p_sweep.add_argument("--d-min", type=float)
    p_sweep.add_argument("--d-max", type=float)
    p_sweep.add_argument("--steps", type=int)
    p_sweep.add_argument("--format", choices=("csv", "json"), default="csv")

    p_sim = sub.add_parser("simulate", help="Run a Monte Carlo session.")
    p_sim.add_argument("--attack", choices=ATTACK_KINDS)
    p_sim.add_argument("--mu", type=float)
    p_sim.add_argument("--eta", type=float)
    p_sim.add_argument("--t", type=float, help="splitter transmission (bs-* attacks)")
    p_sim.add_argument("--d", type=float, help="attack strength / disturbance")
    p_sim.add_argument("--eps", type=float, help="intercepted fraction (ir attack)")
    p_sim.add_argument(
        "--kappa", type=float,
        help="single-photon blocking fraction (pns); derived from mu, eta when omitted",
    )
    p_sim.add_argument("--pulses", type=int)
    p_sim.add_argument("--seed", type=int)
    p_sim.add_argument("--shards", type=int)
    p_sim.add_argument("--scenario-a-rule", choices=SCENARIO_A_RULES)
    p_sim.add_argument("--check", action="store_true",
                       help="also print analytic predictions and sigma distances")
    p_sim.add_argument("--format", choices=("text", "json"), default="text")

    p_ver = sub.add_parser("verify", help="Self-check unitarity and series identities.")
    p_ver.add_argument("--format", choices=("text", "json"), default="text")

    for p in (p_thr, p_sweep, p_sim, p_ver):
        p.add_argument("--config", help="JSON file with default parameter values")
        p.add_argument("--output", help="write the result here instead of stdout")
        p.add_argument("--manifest", help="also write the run manifest to this file")

    return parser


_COMMANDS = {
    "thresholds": _cmd_thresholds,
    "sweep": _cmd_sweep,
    "simulate": _cmd_simulate,
    "verify": _cmd_verify,
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (ValueError, OSError) as exc:
        print(f"{args.command}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
