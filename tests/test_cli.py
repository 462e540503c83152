import json
import math
import subprocess
import sys

import pytest

from bb84eve.security import threshold


def assert_one_line_error(result: subprocess.CompletedProcess, text: str) -> None:
    lines = result.stderr.decode().strip().splitlines()
    assert len(lines) == 1 and text in lines[0], lines
    assert result.stdout == b""


def run_cli(*args: str, expect: int = 0) -> subprocess.CompletedProcess:
    result = subprocess.run(
        [sys.executable, "-m", "bb84eve", *args],
        capture_output=True,
        text=False,
    )
    assert result.returncode == expect, result.stderr.decode()
    return result


class TestThresholdsCommand:
    def test_json_matches_library(self):
        result = run_cli("thresholds", "--mu", "1", "--eta", "0.9", "--format", "json")
        doc = json.loads(result.stdout)
        assert doc["schema_version"] == "1"
        for kind in ("ir", "opt", "bs_ir", "bs_opt", "pns"):
            assert doc["thresholds"][kind] == pytest.approx(
                threshold(kind, 1.0, 0.9).max_d_ab, abs=1e-15
            )
        assert doc["break_possible"] is False
        assert doc["eta_star"] == pytest.approx(1 - math.log(2), abs=1e-12)

    def test_break_region(self):
        result = run_cli("thresholds", "--mu", "1", "--eta", "0.3", "--format", "json")
        doc = json.loads(result.stdout)
        assert doc["thresholds"]["pns"] == 0.0
        assert doc["break_possible"] is True

    def test_table_lists_all_strategies(self):
        text = run_cli("thresholds", "--mu", "1", "--eta", "0.9").stdout.decode()
        for token in ("ir", "opt", "bs_ir", "bs_opt", "pns", "eta_star"):
            assert token in text

    def test_csv_shape(self):
        raw = run_cli(
            "thresholds", "--mu", "1", "--eta", "0.9", "--format", "csv"
        ).stdout
        assert b"\r" not in raw
        lines = raw.decode().splitlines()
        assert lines[0] == "quantity,max_d_ab,break_possible"
        assert len(lines) == 7  # header + five strategies + eta_star

    def test_validation_exit_code(self):
        run_cli("thresholds", "--mu", "0.0", expect=2)
        run_cli("thresholds", expect=2)

    def test_non_finite_mu_is_a_usage_error(self):
        for mu in ("inf", "nan"):
            result = run_cli("thresholds", "--mu", mu, "--format", "json", expect=2)
            assert_one_line_error(result, "mu must be finite")

    def test_mean_above_the_cap_is_a_usage_error(self):
        # The same mu <= 20 domain as simulate, in every command.
        for args in (("thresholds", "--mu", "50"), ("sweep", "--strategy", "pns", "--mu", "50"),
                     ("simulate", "--mu", "50")):
            result = run_cli(*args, expect=2)
            assert_one_line_error(result, "mu must be finite and in")
            assert "20]" in result.stderr.decode()

    def test_manifest_on_stderr(self):
        result = run_cli("thresholds", "--mu", "1", "--eta", "0.9")
        manifest = json.loads(result.stderr.decode().strip().splitlines()[-1])
        assert manifest["command"] == "thresholds"
        assert manifest["params"] == {"mu": 1.0, "eta": 0.9}
        assert "timestamp_utc" in manifest and "version" in manifest


class TestSweepCommand:
    def test_header_and_first_row(self):
        raw = run_cli(
            "sweep", "--strategy", "opt", "--d-min", "0", "--d-max", "0.3",
            "--steps", "4",
        ).stdout
        assert b"\r" not in raw
        lines = raw.decode().splitlines()
        assert lines[0] == "d_ab,i_ab_bits,i_ae_bits,feasible"
        first = lines[1].split(",")
        assert float(first[0]) == 0.0
        assert float(first[1]) == 1.0
        assert float(first[2]) == 0.0
        assert first[3] == "true"

    def test_ir_crossing_bracketed(self):
        raw = run_cli(
            "sweep", "--strategy", "ir", "--d-min", "0", "--d-max", "0.25",
            "--steps", "101",
        ).stdout.decode()
        rows = [line.split(",") for line in raw.splitlines()[1:]]
        gaps = [(float(d), float(ab) - float(ae)) for d, ab, ae, _ in rows]
        sign_changes = [
            (a[0], b[0]) for a, b in zip(gaps, gaps[1:]) if a[1] > 0 >= b[1]
        ]
        assert len(sign_changes) == 1
        lo, hi = sign_changes[0]
        assert lo < 0.20710678118654754 <= hi

    def test_feasible_column_flips_with_the_gap(self):
        raw = run_cli(
            "sweep", "--strategy", "bs-opt", "--mu", "1", "--eta", "0.9",
            "--d-min", "0", "--d-max", "0.3", "--steps", "61",
        ).stdout.decode()
        thr = threshold("bs_opt", 1.0, 0.9).max_d_ab
        for line in raw.splitlines()[1:]:
            d, _, _, ok = line.split(",")
            assert (ok == "true") == (float(d) < thr)

    def test_json_format(self):
        doc = json.loads(
            run_cli(
                "sweep", "--strategy", "pns", "--mu", "1", "--eta", "0.9",
                "--steps", "5", "--d-min", "0", "--d-max", "0.1",
                "--format", "json",
            ).stdout
        )
        assert len(doc["rows"]) == 5
        assert set(doc["rows"][0]) == {"d_ab", "i_ab_bits", "i_ae_bits", "feasible"}

    def test_validation(self):
        run_cli("sweep", "--strategy", "ir", "--d-min", "0.3", "--d-max", "0.2", expect=2)
        run_cli("sweep", expect=2)

    def test_steps_above_the_cap_are_a_usage_error(self, tmp_path, monkeypatch):
        from bb84eve import cli

        def no_rows(*args):
            raise AssertionError("a row was built")

        monkeypatch.setattr(cli, "info_curve_point", no_rows)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"strategy": "ir", "steps": 1e12}))
        for argv in (["--strategy", "ir", "--steps", "1000001"], ["--config", str(cfg)]):
            assert cli.main(["sweep", *argv]) == 2
        result = run_cli("sweep", "--strategy", "ir", "--steps", "1000001", expect=2)
        assert_one_line_error(result, "steps <= 1000000")
        assert "1000000" in run_cli("sweep", "--help").stdout.decode()

    def test_single_photon_kinds_check_the_line_too(self):
        for args, text in ((("--mu", "50", "--eta", "0.9"), "mu must be finite and in (0, 20]"),
                           (("--mu", "1", "--eta", "7"), "eta must be finite and in [0, 1]")):
            for kind in ("ir", "opt"):
                result = run_cli("sweep", "--strategy", kind, *args, expect=2)
                assert_one_line_error(result, text)

    def test_lossless_bs_ir_sweep_starts_at_zero_information(self):
        raw = run_cli("sweep", "--strategy", "bs-ir", "--mu", "1", "--eta", "1").stdout.decode()
        first = raw.splitlines()[1].split(",")
        assert float(first[0]) == 0.0 and float(first[2]) == 0.0


class TestSimulateCommand:
    def test_quiet_line_has_no_errors(self):
        doc = json.loads(
            run_cli(
                "simulate", "--attack", "none", "--mu", "0.1", "--eta", "1",
                "--pulses", "100000", "--seed", "42", "--format", "json",
            ).stdout
        )
        assert doc["stats"]["qber"] == 0.0
        assert doc["stats"]["eve_accuracy"] == 0.5

    def test_repeat_runs_are_byte_identical(self):
        args = (
            "simulate", "--attack", "bs-opt", "--t", "0.9", "--d", "0.1",
            "--mu", "1", "--pulses", "50000", "--seed", "7", "--shards", "4",
            "--format", "json",
        )
        assert run_cli(*args).stdout == run_cli(*args).stdout

    def test_check_reports_small_sigma_distances(self):
        doc = json.loads(
            run_cli(
                "simulate", "--attack", "bs-opt", "--t", "0.9", "--d", "0.1",
                "--mu", "1", "--pulses", "1000000", "--seed", "7", "--check",
                "--format", "json",
            ).stdout
        )
        assert doc["check"], "expected at least one checked metric"
        for entry in doc["check"]:
            assert entry["sigma_distance"] < 3.0, entry

    def test_pns_kappa_derived_from_channel(self):
        doc = json.loads(
            run_cli(
                "simulate", "--attack", "pns", "--mu", "1", "--eta", "0.9",
                "--pulses", "1000", "--seed", "1", "--format", "json",
            ).stdout
        )
        assert doc["params"]["kappa"] == pytest.approx(math.expm1(0.1), abs=1e-12)

    def test_clamped_pns_kappa_is_flagged_on_stderr_only(self):
        def pns(eta: str, *extra: str) -> subprocess.CompletedProcess:
            return run_cli(
                "simulate", "--attack", "pns", "--mu", "1", "--eta", eta,
                "--pulses", "1000", "--seed", "1", "--format", "json", *extra,
            )

        derived, explicit = pns("0.2"), pns("0.2", "--kappa", "1")
        assert derived.stdout == explicit.stdout
        note, manifest = derived.stderr.decode().strip().splitlines()
        assert "kappa 1.22554 clamped to 1" in note and "below eta*=0.306853" in note
        assert json.loads(manifest)["params"]["kappa"] == 1.0
        for quiet in (explicit, pns("0.9")):
            assert len(quiet.stderr.decode().strip().splitlines()) == 1

    def test_manifest_params_be_reusable_as_config(self, tmp_path):
        args = (
            "simulate", "--attack", "pns", "--mu", "1", "--eta", "0.9",
            "--d", "0.05", "--pulses", "20000", "--seed", "3", "--format", "json",
        )
        manifest_path = tmp_path / "manifest.json"
        first = run_cli(*args, "--manifest", str(manifest_path))
        assert manifest_path.exists()
        second = run_cli(
            "simulate", "--config", str(manifest_path), "--format", "json"
        )
        assert first.stdout == second.stdout

    def test_flags_override_config_file(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"attack": "none", "mu": 0.1, "pulses": 1000, "seed": 5}))
        doc = json.loads(
            run_cli(
                "simulate", "--config", str(cfg), "--pulses", "2000",
                "--format", "json",
            ).stdout
        )
        assert doc["params"]["pulses"] == 2000
        assert doc["params"]["mu"] == 0.1

    def test_output_file(self, tmp_path):
        out = tmp_path / "stats.json"
        run_cli(
            "simulate", "--attack", "none", "--mu", "0.2", "--pulses", "1000",
            "--seed", "2", "--format", "json", "--output", str(out),
        )
        assert json.loads(out.read_text())["stats"]["n_pulses"] == 1000

    def test_check_has_every_rate_of_every_attack(self):
        for attack in (
            ("--attack", "none"),
            ("--attack", "ir", "--eps", "0.5"),
            ("--attack", "opt", "--d", "0.1"),
            ("--attack", "bs-ir", "--t", "0.5", "--d", "0.1"),
            ("--attack", "bs-ir", "--t", "0.5", "--d", "0.1", "--scenario-a-rule", "majority"),
            ("--attack", "bs-opt", "--t", "0.9", "--d", "0.1"),
            ("--attack", "pns", "--d", "0.05"),
        ):
            doc = json.loads(
                run_cli(
                    "simulate", *attack, "--mu", "3", "--eta", "0.9", "--pulses", "200000",
                    "--seed", "4", "--check", "--format", "json",
                ).stdout
            )
            assert [c["metric"] for c in doc["check"]] == [
                "qber", "eve_accuracy", "nonempty_rate", "coincidence_rate",
            ], attack
            for entry in doc["check"]:
                assert entry["sigma_distance"] < 3.0, (attack, entry)

    def test_check_without_spread_stays_strict_json(self):
        # No coincidence in 1000 faint pulses: zero standard error, no distance.
        result = run_cli(
            "simulate", "--attack", "none", "--mu", "0.001", "--pulses", "1000",
            "--check", "--format", "json",
        )
        doc = json.loads(result.stdout, parse_constant=pytest.fail)
        coincidence = [c for c in doc["check"] if c["metric"] == "coincidence_rate"]
        assert coincidence[0]["sigma_distance"] is None
        text = run_cli(
            "simulate", "--attack", "none", "--mu", "0.001", "--pulses", "1000", "--check",
        ).stdout.decode()
        assert "(no spread)" in text

    def test_missing_config_is_a_usage_error(self, tmp_path):
        result = run_cli(
            "simulate", "--mu", "1", "--config", str(tmp_path / "missing.json"), expect=2
        )
        assert_one_line_error(result, "No such file")

    def test_config_must_be_an_object(self, tmp_path):
        for content in ("[1, 2]", '{"params": [1]}'):
            cfg = tmp_path / "cfg.json"
            cfg.write_text(content)
            result = run_cli("simulate", "--mu", "1", "--config", str(cfg), expect=2)
            assert_one_line_error(result, "must hold a JSON object")

    def test_config_values_must_be_scalars(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"mu": [1]}')
        for command in ("thresholds", "simulate"):
            result = run_cli(command, "--config", str(cfg), expect=2)
            assert_one_line_error(result, "must be a number or a string")

    def test_config_booleans_are_not_numbers(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        for command, key in (("thresholds", "mu"), ("simulate", "mu"), ("simulate", "pulses")):
            cfg.write_text(json.dumps({"mu": 1, key: True}))
            result = run_cli(command, "--config", str(cfg), expect=2)
            assert_one_line_error(result, f"config value {key!r} must be a number")

    def test_config_counts_must_be_integers(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        for command, key in (("simulate", "pulses"), ("simulate", "seed"),
                             ("simulate", "shards"), ("sweep", "steps")):
            cfg.write_text(json.dumps({"mu": 1, "strategy": "ir", key: 2.5}))
            result = run_cli(command, "--config", str(cfg), expect=2)
            assert_one_line_error(result, f"config value {key!r} must be an integer, got 2.5")
        cfg.write_text(json.dumps({"mu": 1, "pulses": 10.0, "seed": 3.0}))
        doc = json.loads(run_cli("simulate", "--config", str(cfg), "--format", "json").stdout)
        assert (doc["params"]["pulses"], doc["params"]["seed"]) == (10, 3)

    @pytest.mark.parametrize("command, params", [
        ("thresholds", {"mu": 0.1}),
        ("sweep", {"strategy": "ir", "mu": 0.1}),
        ("simulate", {"mu": 0.1}),
        ("verify", {}),
    ])
    def test_unknown_config_keys_are_usage_errors(self, tmp_path, command, params):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({**params, "pulsess": 5}))
        result = run_cli(command, "--config", str(cfg), expect=2)
        assert_one_line_error(result, f"{command}: unknown config key 'pulsess'")

    @pytest.mark.parametrize("command, config, default", [
        ("thresholds", {"mu": 1, "eta": None}, {"eta": 1.0}),
        ("sweep", {"strategy": "ir", "d_min": None}, {"d_min": 0.0}),
        ("sweep", {"strategy": "ir", "steps": None}, {"steps": 100}),
        ("sweep", {"strategy": "ir", "mu": None}, {"mu": None}),
        ("simulate", {"mu": 0.1, "pulses": 1000, "seed": None, "kappa": None}, {"seed": 0}),
    ])
    def test_config_null_runs_the_default(self, tmp_path, command, config, default):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        doc = json.loads(run_cli(command, "--config", str(cfg), "--format", "json").stdout)
        for key, value in default.items():
            assert doc["params"][key] == value

    @pytest.mark.parametrize("command, config, flag", [
        ("thresholds", {"mu": None, "eta": 0.9}, "--mu"),
        ("sweep", {"strategy": None, "mu": 1}, "--strategy"),
        ("simulate", {"mu": None}, "--mu"),
    ])
    def test_config_null_for_a_required_value_is_a_usage_error(self, tmp_path, command, config, flag):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        result = run_cli(command, "--config", str(cfg), expect=2)
        assert_one_line_error(result, f"{command}: {flag} is required")

    def test_help_lists_every_default(self):
        text = " ".join(run_cli("simulate", "--help").stdout.decode().split())
        for default in ("none", "1.0", "0.0", "100000", "single_result"):
            assert f"(default {default})" in text

    def test_help_prints_each_domain(self):
        mu, unit, half = "in (0, 20]", "in [0, 1]", "in [0, 0.5]"
        expected = {
            "simulate": {
                "mu": mu, "eta": unit, "t": unit, "eps": unit, "kappa": unit,
                "d": "[0, 0.25] for bs-ir, else in [0, 0.5]",
            },
            "sweep": {"mu": mu, "eta": unit, "d-min": half, "d-max": half},
            "thresholds": {"mu": mu, "eta": unit},
        }
        for command, domains in expected.items():
            text = " ".join(run_cli(command, "--help").stdout.decode().split())
            entries = {entry.split()[0]: entry for entry in text.split(" --")[1:]}
            for name, interval in domains.items():
                assert interval in entries[name], (command, entries[name])

    def test_more_shards_than_pulses_is_a_usage_error(self):
        result = run_cli("simulate", "--mu", "1", "--pulses", "4", "--shards", "5", expect=2)
        assert_one_line_error(result, "shards must be in [1, pulses=4], got 5")
        run_cli("simulate", "--mu", "1", "--pulses", "4", "--shards", "4")

    def test_validation(self):
        run_cli("simulate", "--attack", "bs-ir", "--mu", "1", expect=2)  # missing --t
        run_cli("simulate", "--attack", "opt", "--mu", "1", "--d", "0.7", expect=2)
        run_cli("simulate", "--attack", "none", expect=2)  # missing --mu
        run_cli("simulate", "--attack", "none", "--mu", "1", "--shards", "0", expect=2)


class TestVerifyCommand:
    def test_passes_and_prints_deviations(self):
        result = run_cli("verify")
        text = result.stdout.decode()
        assert "verify: PASS" in text
        assert text.count("PASS") >= 6

    def test_json_format(self):
        doc = json.loads(run_cli("verify", "--format", "json").stdout)
        assert doc["pass"] is True
        assert len(doc["checks"]) >= 6
        assert all(c["max_deviation"] < 1e-12 for c in doc["checks"])


class TestSweepCrossings:
    def test_pns_crossing_located_to_1e3_at_1e4_steps(self):
        raw = run_cli(
            "sweep", "--strategy", "pns", "--mu", "1", "--eta", "0.9",
            "--d-min", "0", "--d-max", "0.25", "--steps", "10000",
        ).stdout.decode()
        rows = [line.split(",") for line in raw.splitlines()[1:]]
        gaps = [(float(d), float(ab) - float(ae)) for d, ab, ae, _ in rows]
        crossing = next(
            0.5 * (a[0] + b[0]) for a, b in zip(gaps, gaps[1:]) if a[1] > 0 >= b[1]
        )
        assert abs(crossing - threshold("pns", 1.0, 0.9).max_d_ab) < 1e-3


#: One run of each command, taken in each of its formats.
WRITER_RUNS = {
    "thresholds": (("--mu", "1", "--eta", "0.9"), ("table", "json", "csv")),
    "sweep": (("--strategy", "pns", "--mu", "1", "--eta", "0.9", "--steps", "5"), ("csv", "json")),
    "simulate": (
        ("--attack", "pns", "--mu", "1", "--eta", "0.9", "--pulses", "1000", "--check"),
        ("text", "json"),
    ),
    "verify": ((), ("text", "json")),
}


class TestOneWriter:
    @pytest.mark.parametrize(
        "command, fmt",
        [(command, fmt) for command, (_, fmts) in WRITER_RUNS.items() for fmt in fmts],
    )
    def test_output_file_holds_the_stdout_bytes(self, tmp_path, command, fmt):
        argv = (command, *WRITER_RUNS[command][0], "--format", fmt)
        printed = run_cli(*argv).stdout
        out = tmp_path / "out"
        assert run_cli(*argv, "--output", str(out)).stdout == b""
        assert out.read_bytes() == printed
        if fmt == "json":
            head = list(json.loads(printed).items())[:2]
            assert head == [("schema_version", "1"), ("command", command)]


PNS_SESSION = ("simulate", "--attack", "pns", "--pulses", "100", "--check")


class TestFaintSources:
    @pytest.mark.parametrize("argv", [
        (*PNS_SESSION, "--mu", "1e-17", "--eta", "0.9"),
        (*PNS_SESSION, "--mu", "5e-324", "--eta", "0.9"),
        (*PNS_SESSION, "--mu", "1e-17", "--eta", "0"),
        ("sweep", "--strategy", "pns", "--mu", "1e-17", "--eta", "0.9"),
    ])
    def test_pns_runs_without_dividing_by_zero(self, argv):
        json.loads(run_cli(*argv, "--format", "json").stdout, parse_constant=pytest.fail)

    def test_pns_threshold_is_the_single_photon_one_without_a_break(self):
        text = run_cli("thresholds", "--mu", "1e-17", "--eta", "0.9").stdout.decode()
        assert [line.split() for line in text.splitlines() if line.startswith("pns")] == [
            ["pns", "0.146447"]
        ]
