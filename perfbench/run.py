#!/usr/bin/env python3
"""Benchmark of bb84eve on three workloads: sessions, dim-sharded and analysis.

Run from the root of a checkout (the package is imported from ``./src``):

    python3 perfbench/run.py --workload sessions --seed 1 --seconds 30 --trace 0

The run builds the workload's inputs from the seed, measures set-up time in
fresh interpreters, then repeats whole rounds of the workload's operations
for about ``--seconds`` seconds and checks every output afterwards.  The last
line of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``.  A traced run alternates untraced and
traced rounds, writes its spans to ``perfbench/out/`` and reports the
tracing overhead on standard error.

At most one child process runs at a time, and the BLAS thread pools are held
to one thread, so the benchmark never runs more than two threads of work.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

from spans import Recorder, layer_totals  # noqa: E402
from workloads import CLI_COMMANDS, KINDS, PROFILES, SWEEP_D, VARIANTS, Workload  # noqa: E402

ROOT = Path.cwd()
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"
SETUP_PROBES = 5

END_TO_END = {
    **{f"pulses_per_s.{v}": "1/s" for v in VARIANTS},
    "sweep_points_per_s": "1/s",
    "crossings_per_s": "1/s",
    **{f"cli_{cmd}_s": "s" for cmd in CLI_COMMANDS},
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def load_package():
    """Import bb84eve from ./src, or stop: there is nothing to measure."""
    init = SRC / "bb84eve" / "__init__.py"
    if not init.is_file():
        raise SystemExit(f"perfbench: {init} not found; run from the root of a bb84eve checkout")
    sys.path.insert(0, str(SRC))
    import bb84eve

    if Path(bb84eve.__file__).resolve() != init.resolve():
        raise SystemExit(f"perfbench: imported bb84eve from {bb84eve.__file__}, not {init}")
    return bb84eve


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    return env


def wall(cmd: list[str], env: dict[str, str]) -> tuple[float, str]:
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, env=env, timeout=120)
    elapsed = time.perf_counter() - t0
    if proc.returncode != 0:
        raise SystemExit(f"perfbench: {' '.join(cmd)} failed:\n{proc.stderr}")
    return elapsed, proc.stdout


def digest(result) -> str:
    """What a repeated round must reproduce: stdout and exit code for commands."""
    if hasattr(result, "stdout"):
        result = (result.code, result.stdout)
    return hashlib.sha256(repr(result).encode()).hexdigest()


def run_rounds(workload, rec, seconds: float, trace: bool) -> list[dict]:
    """Whole rounds until about ``seconds`` have passed; traced runs alternate."""
    rounds = []
    start = time.perf_counter()
    while True:
        # Every round starts from the same collector state: nothing young,
        # and the first round's kept results out of the collector's scans.
        gc.collect()
        gc.freeze()
        traced = trace and len(rounds) % 2 == 1
        rec.round = len(rounds)
        rec.tracing = traced
        t0 = time.perf_counter()
        results = {}
        with rec.span("round"):
            for op in workload.ops:
                with rec.span("op", op=op.name):
                    try:
                        results[op.name] = op.run(rec)
                    except Exception:  # the run goes on; the op counts as failed
                        results[op.name] = RuntimeError(traceback.format_exc())
        wall_s = time.perf_counter() - t0
        rec.tracing = False
        rounds.append({
            "traced": traced,
            "wall_s": wall_s,
            "results": results if not rounds else None,
            "digests": {name: digest(r) for name, r in results.items()},
        })
        elapsed = time.perf_counter() - start
        if len(rounds) >= (2 if trace else 1) and elapsed + 0.5 * elapsed / len(rounds) > seconds:
            return rounds


def check_rounds(workload, rounds) -> tuple[int, list[str], list[str]]:
    """Failed operations over all rounds, unexpected problems, and known faults seen."""
    first = rounds[0]["results"]
    problems = {}
    for op in workload.ops:
        result = first[op.name]
        if isinstance(result, Exception):
            problems[op.name] = [f"raised: {result}"]
            continue
        try:
            problems[op.name] = op.check(result, first)
        except Exception:
            problems[op.name] = [f"check raised: {traceback.format_exc()}"]
    failed = 0
    unexpected, faults = [], set()
    for index, rnd in enumerate(rounds):
        for op in workload.ops:
            same = rnd["digests"][op.name] == rounds[0]["digests"][op.name]
            if problems[op.name] or not same:
                failed += 1
            if not same:
                unexpected.append(f"{op.name}: round {index} differs from round 0")
            elif problems[op.name] and op.fault is None and index == 0:
                unexpected += [f"{op.name}: {p}" for p in problems[op.name]]
            elif problems[op.name] and index == 0:
                faults.add(f"{op.name} ({op.fault}): {problems[op.name][0]}")
    return failed, unexpected, sorted(faults)


def end_to_end(rec, setup: list[float], peak_rss_mb: float) -> dict:
    values = {key: statistics.median(rec.samples[key]) for key in END_TO_END
              if key in rec.samples}
    missing = set(END_TO_END) - set(values) - {"setup_s", "peak_rss_mb"}
    if missing:
        raise SystemExit(f"perfbench: no samples for {sorted(missing)}; an operation failed")
    values["setup_s"] = statistics.median(setup)
    values["peak_rss_mb"] = peak_rss_mb
    return {key: {"value": values[key], "unit": unit} for key, unit in END_TO_END.items()}


def per_layer(workload, rec, first: dict, import_s: float, interpreter_s: float) -> dict:
    totals = layer_totals(rec)

    def mean_self(name: str, scale: float, **attrs) -> float:
        key = (name, tuple(sorted(attrs.items())))
        self_ns, calls = totals[key]
        return self_ns / calls / scale

    def per_unit(name: str, unit_attr: str) -> dict:
        """Self ns per pulse or trial, by variant."""
        out = {}
        for (span, attrs), (self_ns, calls) in totals.items():
            if span == name:
                attrs = dict(attrs)
                out.setdefault(attrs.get("variant"), []).append((self_ns, calls * attrs[unit_attr]))
        return {k: sum(a for a, _ in v) / sum(b for _, b in v) for k, v in out.items()}

    engine_span = "engine.run_session" if workload.profile.shards is None else "engine.run_sharded"
    ns_per_pulse = per_unit(engine_span, "pulses")
    sessions = [first[f"session:{v.name}"] for v in workload.variants]
    pulses = sum(s["n_pulses"] for s in sessions)
    hist_total = [sum(col) for col in zip(*(s["bob_count_hist"] for s in sessions))]
    grid_calls = len(workload.grid) * len(KINDS)
    passes = workload.profile.passes  # timed blocks per round
    m = {}
    for v in workload.variants:
        m[f"engine.ns_per_pulse.{v.name}"] = (ns_per_pulse[v.name], "ns")
    m["engine.shard_rng_us"] = (mean_self("engine.shard_rng", 1e3), "us")
    m["engine.shards"] = (len(workload.variants) * passes * (workload.profile.shards or 1), "count")
    m["engine.analytic_expectations_us"] = (mean_self("engine.analytic_expectations", 1e3), "us")
    m["engine.pulses"] = (passes * pulses, "count")
    m["engine.sifted_bits"] = (passes * sum(s["sifted_count"] for s in sessions), "count")
    m["engine.multiphoton_share"] = (sum(hist_total[2:]) / pulses, "fraction")
    m["engine.empty_share"] = (hist_total[0] / pulses, "fraction")
    for fn in ("simulate_ir_attack", "simulate_opt_attack"):
        m[f"single_photon.{fn}.ns_per_trial"] = (per_unit(f"single_photon.{fn}", "trials")[None], "ns")
    for fn in ("verify_unitarity", "probe_model_from_disturbance"):
        m[f"single_photon.{fn}_us"] = (mean_self(f"single_photon.{fn}", 1e3), "us")
    for fn in ("scenario_probs", "scenario_probs_series", "coincidence_prob",
               "coincidence_prob_series", "bob_count_pmf_series"):
        m[f"pulse_optics.{fn}_us"] = (mean_self(f"pulse_optics.{fn}", 1e3), "us")
    for fn in ("bs_ir_predict", "bs_opt_predict", "pns_predict", "kappa_for_channel"):
        m[f"pulse_attacks.{fn}_us"] = (mean_self(f"pulse_attacks.{fn}", 1e3), "us")
    for kind in KINDS:
        m[f"security.info_curve_point_us.{kind}"] = (
            mean_self("security.info_curve_point", 1e3, kind=kind), "us")
    for kind in KINDS:
        m[f"security.crossing_point_us.{kind}"] = (
            mean_self("security.crossing_point", 1e3, kind=kind), "us")
    m["security.threshold_us"] = (mean_self("security.threshold", 1e3), "us")
    m["security.points"] = (passes * grid_calls * len(SWEEP_D), "count")
    m["security.crossings"] = (passes * grid_calls, "count")
    for cmd in CLI_COMMANDS:
        m[f"cli.main_ms.{cmd}"] = (mean_self("cli.main", 1e6, command=cmd), "ms")
    m["cli.import_s"] = (import_s, "s")
    m["cli.interpreter_s"] = (interpreter_s, "s")
    return {key: {"value": value, "unit": unit} for key, (value, unit) in m.items()}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=tuple(PROFILES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=38.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="only build the workload and warm it up, then exit (times set-up)")
    args = parser.parse_args()

    bb = load_package()
    workload = Workload(args.workload, args.seed, bb, ROOT)
    workload.warm_up()
    if args.setup_probe:
        return 0

    env = child_env()
    here = str(Path(__file__).resolve().relative_to(ROOT))
    setup_cmd = [sys.executable, here, "--setup-probe", "--workload", args.workload,
                 "--seed", str(args.seed)]
    wall(setup_cmd, env)  # compiles the byte code once, untimed
    setup, import_s, interpreter_s = [], [], []
    for _ in range(SETUP_PROBES):
        if args.trace:
            interpreter_s.append(wall([sys.executable, "-c", "pass"], env)[0])
            probe = "import time; t = time.perf_counter(); import bb84eve; print(time.perf_counter() - t)"
            import_s.append(float(wall([sys.executable, "-c", probe], env)[1]))
        else:
            setup.append(wall(setup_cmd, env)[0])

    rec = Recorder(env)
    rounds = run_rounds(workload, rec, args.seconds, bool(args.trace))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    import expect

    failed, unexpected, faults = check_rounds(workload, rounds)
    unexpected += [f"expectation module: {p}" for p in expect.self_check()]
    for line in unexpected:
        print(f"perfbench: UNEXPECTED {line}", file=sys.stderr)
    for line in faults:
        print(f"perfbench: known fault {line}", file=sys.stderr)

    if args.trace:
        # Round 0 also pays first-use costs; leave it out when another untraced round ran.
        untraced = [r["wall_s"] for r in rounds if not r["traced"]]
        plain = statistics.median(untraced[1:] or untraced)
        traced = statistics.median(r["wall_s"] for r in rounds if r["traced"])
        overhead = traced / plain - 1.0
        metrics = per_layer(workload, rec, rounds[0]["results"],
                            statistics.median(import_s), statistics.median(interpreter_s))
        OUT.mkdir(exist_ok=True)
        path = OUT / f"trace-{args.workload}.json"
        with open(path, "w") as fh:
            json.dump({
                "run_id": rec.run_id, "workload": args.workload, "seed": args.seed,
                "rounds": [{"traced": r["traced"], "wall_s": r["wall_s"]} for r in rounds],
                "tracing_overhead": overhead, "per_layer": metrics,
                "span_fields": ["id", "parent", "name", "start_ns", "end_ns", "attrs", "round"],
                "spans": rec.spans,
            }, fh, separators=(",", ":"))
        print(f"perfbench: tracing overhead {overhead:+.1%} per round "
              f"({traced:.3f} s traced vs {plain:.3f} s untraced); spans in {path.relative_to(ROOT)}", file=sys.stderr)
    else:
        metrics = end_to_end(rec, setup, peak_rss_mb)

    for key, entry in metrics.items():
        print(f"{key:<48} {entry['value']:>16.6g} {entry['unit']}")
    print(json.dumps({
        "correct": not unexpected,
        "attempted": len(rounds) * len(workload.ops),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
