"""Command-line front end: threshold tables, information-curve sweeps,
Monte Carlo sessions and self-verification.

Every command emits a run manifest (command, resolved parameters, seed, tool
version, UTC timestamp) as a single JSON line on stderr, and optionally to a
file via ``--manifest``.  Stdout carries only the requested output, so JSON
and CSV results are byte-identical across reruns of the same command.
Parameter precedence is flags, then ``--config`` JSON file, then defaults;
one table, ``PARAMS``, gives every command's flags, config keys, types and
defaults.
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
from .domain import D, D_IR, MU, UNIT, Interval
from .engine import (
    SCENARIO_A_RULES,
    SessionConfig,
    analytic_expectations,
    run_sharded,
)
from .pulse_attacks import (
    ATTACKS,
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

#: Most error rates one ``sweep`` evaluates: it builds one row per step.
MAX_SWEEP_STEPS = 10**6


@dataclasses.dataclass(frozen=True)
class Param:
    """One command-line parameter: its flag ``--name``, its config key and its value.

    The config key is the name with underscores (``d-min`` reads ``d_min``),
    as in the ``params`` block every command emits.  A ``None`` default
    means the parameter may be absent.  A given value must lie in
    ``domain``, which ``--help`` prints.
    """

    name: str
    type: type
    default: object = None
    help: str = ""
    choices: tuple | None = None
    required: bool = False
    domain: Interval | None = None

    @property
    def key(self) -> str:
        return self.name.replace("-", "_")


_MU = Param("mu", float, help="mean photon number", domain=MU)
_ETA = Param("eta", float, 1.0, "channel transmission", domain=UNIT)

#: Every command's parameters, in the order of its ``params`` block.
PARAMS: dict[str, tuple[Param, ...]] = {
    "thresholds": (dataclasses.replace(_MU, required=True), _ETA),
    "sweep": (
        Param("strategy", str, None, "attack whose curves to draw", SWEEP_KINDS, required=True),
        _MU,
        _ETA,
        Param("d-min", float, 0.0, "smallest error rate", domain=D),
        Param("d-max", float, 0.25, "largest error rate", domain=D),
        Param("steps", int, 100, f"number of error rates, 2 to {MAX_SWEEP_STEPS}"),
    ),
    "simulate": (
        Param("attack", str, "none", "attack on the line", ATTACK_KINDS),
        dataclasses.replace(_MU, required=True),
        _ETA,
        Param("t", float, help="splitter transmission (bs-* attacks)", domain=UNIT),
        Param("d", float, 0.0, f"attack strength / disturbance, {D_IR} for bs-ir, else", domain=D),
        Param("eps", float, 1.0, "intercepted fraction (ir attack)", domain=UNIT),
        Param(
            "kappa", float, domain=UNIT,
            help="single-photon blocking fraction (pns), derived from mu, eta when omitted,",
        ),
        Param("pulses", int, 100_000, "number of pulses"),
        Param("seed", int, 0, "seed of the random streams"),
        Param("shards", int, 1, "independent random streams, at most one per pulse"),
        Param(
            "scenario-a-rule", str, "single_result",
            "how a tapped multi-photon pulse is read (bs-ir attack)", SCENARIO_A_RULES,
        ),
    ),
    "verify": (),
}


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


def _from_config(param: Param, value: object) -> object:
    """Convert one config-file value to the parameter's type."""
    # bool is an int subclass: {"mu": true} must not run as mu = 1.
    if isinstance(value, bool) or not isinstance(value, (str, int, float)):
        raise ValueError(f"config value {param.key!r} must be a number or a string")
    kind = "an integer" if param.type is int else "a number"
    try:
        if param.type is int and isinstance(value, float) and not value.is_integer():
            raise ValueError  # int() would truncate it
        return param.type(value)
    except (ValueError, OverflowError):
        raise ValueError(f"config value {param.key!r} must be {kind}, got {value!r}") from None


def _merge_params(args: argparse.Namespace, command: str) -> dict:
    """Resolve the command's parameters by precedence: flag, config file, default.

    Returns them typed, under their config keys.  Config files (and re-fed
    manifests) use those keys; a ``null`` there counts as absent.  A key the
    command does not read is an error, so that a misspelt one cannot
    silently run the default.
    """
    from_file: dict = {}
    if args.config:
        with open(args.config) as fh:
            loaded = json.load(fh)
        from_file = loaded.get("params", loaded) if isinstance(loaded, dict) else None
        if not isinstance(from_file, dict):
            raise ValueError(f"config file {args.config} must hold a JSON object")
    params = PARAMS[command]
    merged = {}
    for param in params:
        value = getattr(args, param.key)
        if value is None and from_file.get(param.key) is not None:
            value = _from_config(param, from_file[param.key])
        merged[param.key] = param.default if value is None else value
    unknown = sorted(set(from_file) - set(merged))
    if unknown:
        raise ValueError(f"unknown config key {', '.join(map(repr, unknown))}")
    for param in params:
        value = merged[param.key]
        if value is None and param.required:
            raise ValueError(f"--{param.name} is required")
        if param.choices and value not in param.choices:
            raise ValueError(f"unknown {param.key} {value!r}")
        if param.domain and value is not None:
            param.domain.check(param.key, value)
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
    params = _merge_params(args, "thresholds")
    mu, eta = params["mu"], params["eta"]
    rows = []
    for kind in THRESHOLD_KINDS:
        res = threshold(kind, mu, eta)
        rows.append((kind, res.max_d_ab, res.break_possible))
    break_flag = any(flag for _, _, flag in rows)
    eta_star = full_break_transmission(mu)
    _emit_manifest("thresholds", params, None, args.manifest)

    if args.format == "json":
        payload = {
            "schema_version": SCHEMA_VERSION,
            "command": "thresholds",
            "params": params,
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
    params = _merge_params(args, "sweep")
    d_min, d_max, steps = params["d_min"], params["d_max"], params["steps"]
    if not d_min < d_max or not 2 <= steps <= MAX_SWEEP_STEPS:
        raise ValueError(
            f"need d-min < d-max and 2 <= steps <= {MAX_SWEEP_STEPS}, "
            f"got d-min={d_min} d-max={d_max} steps={steps}"
        )
    kind = _CLI_ATTACKS[params["strategy"]].name
    rows = [
        info_curve_point(kind, float(d), params["mu"], params["eta"])
        for d in np.linspace(d_min, d_max, steps)
    ]

    _emit_manifest("sweep", params, None, args.manifest)
    if args.format == "json":
        payload = {
            "schema_version": SCHEMA_VERSION,
            "command": "sweep",
            "params": params,
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
    params = _merge_params(args, "simulate")
    kind, mu, eta = params["attack"], params["mu"], params["eta"]
    attack = None if kind == "none" else _CLI_ATTACKS[kind].from_params(params, mu, eta)
    config = SessionConfig(
        optics=OpticalConfig(mu=mu, eta=eta),
        attack=attack,
        n_pulses=params["pulses"],
        seed=params["seed"],
        scenario_a_rule=params["scenario_a_rule"],
    )
    n_shards = params["shards"]
    if not 1 <= n_shards <= config.n_pulses:
        raise ValueError(f"shards must be in [1, pulses={config.n_pulses}], got {n_shards}")
    if attack is not None:
        # A PNS blocking fraction matched to the line is capped at 1; when the
        # cap bites (the total-break region, eta below eta*), say so on stderr.
        if isinstance(attack, Pns) and params["kappa"] is None:
            calibrated = kappa_for_channel(mu, eta).kappa
            if calibrated > attack.kappa:
                print(
                    f"simulate: calibrated kappa {calibrated:.6g} clamped to 1: eta={eta:g} is "
                    f"below eta*={full_break_transmission(mu):.6g}, a total break",
                    file=sys.stderr,
                )
        params.update(dataclasses.asdict(attack))  # record a derived kappa
    _emit_manifest("simulate", params, config.seed, args.manifest)

    stats = run_sharded(config, n_shards)
    checks = _format_check(stats, analytic_expectations(config)) if args.check else None

    if args.format == "json":
        payload = {
            "schema_version": SCHEMA_VERSION,
            "command": "simulate",
            "params": params,
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
    _merge_params(args, "verify")  # verify reads no parameter: any config key is unknown
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
    closed = [scenario_probs(float(mu), float(t)) for mu in mus for t in ts]
    series = np.stack(scenario_probs_series(mus[:, None], ts[None, :]).as_tuple(), axis=-1)
    report(
        "routing-outcome probabilities sum to 1",
        max(abs(probs.total - 1.0) for probs in closed),
    )
    report(
        "routing-outcome closed forms vs photon-number series",
        float(np.max(np.abs(np.array([probs.as_tuple() for probs in closed]) - series.reshape(-1, 4)))),
    )

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


#: Each command's handler, one-line help and output formats (the first is the default).
_COMMANDS = {
    "thresholds": (
        _cmd_thresholds, "Tolerable error rates for all strategies.", ("table", "json", "csv"),
    ),
    "sweep": (_cmd_sweep, "Information curves vs observed error rate (CSV).", ("csv", "json")),
    "simulate": (_cmd_simulate, "Run a Monte Carlo session.", ("text", "json")),
    "verify": (_cmd_verify, "Self-check unitarity and series identities.", ("text", "json")),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bb84eve",
        description="Eavesdropping attack calculus for pulsed BB84, with Monte Carlo validation.",
    )
    parser.add_argument("--version", action="version", version=f"bb84eve {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    for command, (_, summary, formats) in _COMMANDS.items():
        p = sub.add_parser(command, help=summary)
        for param in PARAMS[command]:
            note = "" if param.default is None else f" (default {param.default})"
            domain = f" in {param.domain}" if param.domain else ""
            p.add_argument(
                f"--{param.name}", type=param.type, choices=param.choices,
                help=param.help + domain + (" (required)" if param.required else note),
            )
        if command == "simulate":
            p.add_argument("--check", action="store_true",
                           help="also print analytic predictions and sigma distances")
        p.add_argument("--format", choices=formats, default=formats[0])
        p.add_argument("--config", help="JSON file with default parameter values")
        p.add_argument("--output", help="write the result here instead of stdout")
        p.add_argument("--manifest", help="also write the run manifest to this file")

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command][0](args)
    except (ValueError, OSError) as exc:
        print(f"{args.command}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
