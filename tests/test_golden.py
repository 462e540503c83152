"""Golden digests of the random stream and of the analysis commands' stdout.

Each stream digest is the sha256 of a session's (or single-photon run's)
statistics serialised as sorted JSON.  Any change to draw order, batch layout
or shard derivation changes them.  Each stdout digest is the sha256 of what
``thresholds``, ``sweep`` or ``verify`` prints.  Re-pin only in a change that
alters the stream or a printed value on purpose, and record why in CHANGES.md.
"""

import contextlib
import dataclasses
import hashlib
import io
import json

import numpy as np
import pytest

import bb84eve as bb
from bb84eve import cli
from bb84eve.engine import SessionConfig, run_sharded
from bb84eve.pulse_optics import OpticalConfig

N_PULSES = 1 << 14
SEED = 20240611
MU, ETA, T = 1.0, 0.9, 0.9

#: The numpy release the stream digests were pinned with.  They depend on its
#: ``binomial`` and ``multinomial`` algorithms, so on another release a
#: failing stream digest may be numpy's change rather than the engine's.
NUMPY_PINNED = "2.4.6"
STREAM_NOTE = f"stream digests pinned with numpy {NUMPY_PINNED}, run with numpy {np.__version__}"

VARIANTS = {
    "none": (None, "single_result"),
    "ir": (bb.InterceptResend(eps=0.5), "single_result"),
    "opt": (bb.OptimalIncoherent(d=0.1), "single_result"),
    "bs-ir": (bb.BsInterceptResend(t=T, d=0.1), "single_result"),
    "bs-ir-majority": (bb.BsInterceptResend(t=T, d=0.1), "majority"),
    "bs-opt": (bb.BsOptimal(t=T, d=0.1), "single_result"),
    "pns": (bb.Pns(kappa=bb.kappa_for_channel(MU, ETA).kappa, d=0.05), "single_result"),
}

SESSION_DIGESTS = {
    ("none", 1): "26eed997eb06d21ceb73f255609589c47a6bcc122e72de953bcb7f7859d95d57",
    ("none", 8): "72b770d757101042b07fc213dc714c1c5b6d2d2acee0d498f2b8f68e5b36c4dc",
    ("ir", 1): "a9b808072fc3cdca99d5e1dbed60896bd55c8a79e882738093859c52c883c816",
    ("ir", 8): "1b20d5f92b86332679d5192fc9b0596861a81bdece0fdb7558c2209f9f30cc3b",
    ("opt", 1): "534fd32ee37d3fa0efbd83ede50f21a6d06389690470c1e8dd5f8b48c3b03778",
    ("opt", 8): "702b30de99396709c28f2a26e324523074c8365da8251742703350afc2f37e05",
    ("bs-ir", 1): "b289e784750dea40ba855ff1ed32e10a47e0cbd2aa107d4de27388d7bbdd6bed",
    ("bs-ir", 8): "2083d4e1e01647347ac17a252b76b49757f4eb8327654f740272e98d417be73d",
    ("bs-ir-majority", 1): "f1204a36b6ffcf5292c12e6c783b1987828c58147eeaf8d494e63b364429500d",
    ("bs-ir-majority", 8): "35787b4608492a098db74e677e05841f5dcc551dd3368708c8455bd15ec9b279",
    ("bs-opt", 1): "6a500072eb9c3839c85967a1500e26320e968b96c591ae4168df8e906ac246f2",
    ("bs-opt", 8): "4b360fca0caa1f5a98e4bef624f61b9a309920844323e24d13ed4826686a8aa8",
    ("pns", 1): "e701945d862f6b7975d1b73cfbed43bbfd8032fc84aa7b1f1ca69fd6fc7e07d1",
    ("pns", 8): "7b5977d17e8139e0d56712e57f7faaa93f007e64e7dca7685ead7b7bb8af942b",
}

SINGLE_PHOTON_DIGESTS = {
    "simulate_ir_attack": "833f3819f859e23a75064456b010f6d37c5222c1c27879d016111a508c74b94e",
    "simulate_opt_attack": "494dc5b8fb56b638e3106a605d9ff07aadc9341ffd838846efe7e43f7bf16142",
}


def _sha256(payload: dict) -> str:
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()


def session_digest(variant: str, shards: int) -> str:
    attack, rule = VARIANTS[variant]
    config = SessionConfig(
        optics=OpticalConfig(mu=MU, eta=ETA),
        attack=attack,
        n_pulses=N_PULSES,
        seed=SEED,
        scenario_a_rule=rule,
    )
    return _sha256(run_sharded(config, shards).to_dict())


def single_photon_digest(name: str) -> str:
    fn, param = {
        "simulate_ir_attack": (bb.simulate_ir_attack, 0.7),
        "simulate_opt_attack": (bb.simulate_opt_attack, 0.1),
    }[name]
    sample = fn(param, N_PULSES, np.random.default_rng(SEED))
    return _sha256(dataclasses.asdict(sample))


@pytest.mark.parametrize("variant, shards", sorted(SESSION_DIGESTS))
def test_session_digest(variant, shards):
    assert session_digest(variant, shards) == SESSION_DIGESTS[variant, shards], STREAM_NOTE


@pytest.mark.parametrize("name", sorted(SINGLE_PHOTON_DIGESTS))
def test_single_photon_digest(name):
    assert single_photon_digest(name) == SINGLE_PHOTON_DIGESTS[name], STREAM_NOTE


# Stdout of the analysis commands: closed forms, information curves and the
# self-check.  These draw no random numbers, so they move only when a value
# they print moves.
ANALYSIS_DIGESTS = {
    ("thresholds", 1.0, 0.9): "df6319fd48a5be043f8260db84f8264eb75406b6c91d346fc3f035ae36aa7a36",
    ("thresholds", 0.1, 0.5): "c4602e3842ad9cada1e8027fff63fe079c7edc8c6ec8fbd2e56d0eb32581a446",
    ("sweep ir", 1.0, 0.9): "a33e086778e3d64bc424e37a2b138a6ad0362337136ba7bef3e8137966b65420",
    ("sweep ir", 0.1, 0.5): "a33e086778e3d64bc424e37a2b138a6ad0362337136ba7bef3e8137966b65420",
    ("sweep opt", 1.0, 0.9): "e8300ed99e2e512c3304d67350edc53cb7d2b6c28ac3906a4d375da14f0a5152",
    ("sweep opt", 0.1, 0.5): "e8300ed99e2e512c3304d67350edc53cb7d2b6c28ac3906a4d375da14f0a5152",
    ("sweep bs-ir", 1.0, 0.9): "d4171e2fb76f653e985ebeaa496a1b51d0a17eed098876b30d84f6ab6a19b408",
    ("sweep bs-ir", 0.1, 0.5): "4e72e775e5062ecbb74f9923a28e0dc2ba951440f6dbbbb1647bbfb7e7518964",
    ("sweep bs-opt", 1.0, 0.9): "2cba9e5919a8d9f96b55500e38f1507f5869f895221db72ddc69177b48c92de4",
    ("sweep bs-opt", 0.1, 0.5): "edf254d092c5b2f956bca1ff89e93e6b4c2fb6df0093c3c0422ebf3d5260934c",
    ("sweep pns", 1.0, 0.9): "96231f39d2f54c2ae47c381c5d72b736f3e7c8ae3bc7479c23df8177d47c7875",
    ("sweep pns", 0.1, 0.5): "ed6ea46981384375a2a13f921fd9eeb5c7b59cb6d23defb17922e9d529c302c1",
}

VERIFY_DIGEST = "6d3ca6bb01d47abec94a77010db1d7f895838b4fc179ad33535068c59686d193"


def stdout_digest(argv: list[str]) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        assert cli.main(argv) == 0
    return hashlib.sha256(out.getvalue().encode()).hexdigest()


@pytest.mark.parametrize("command, mu, eta", sorted(ANALYSIS_DIGESTS))
def test_analysis_stdout_digest(command, mu, eta):
    if command == "thresholds":
        argv = ["thresholds", "--format", "json"]
    else:
        argv = ["sweep", "--strategy", command.split()[1], "--format", "csv"]
    argv += ["--mu", str(mu), "--eta", str(eta)]
    assert stdout_digest(argv) == ANALYSIS_DIGESTS[command, mu, eta]


def test_verify_stdout_digest():
    assert stdout_digest(["verify", "--format", "json"]) == VERIFY_DIGEST
