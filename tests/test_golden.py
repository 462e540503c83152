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
    ("none", 1): "83a9bf9d17a6176aee5905d0446ffa78417bf043771aef3d48dba9a3d8d42429",
    ("none", 8): "f41c365d9ebb33ddc779fd133d4d5f2272f111710875a5d435bf3a93a64e736e",
    ("ir", 1): "6fd820100954991d66c5f8793325e733fe09b789e11888f1a73fa332a15cec36",
    ("ir", 8): "9487b0d04025eb8fbea4bfa725ee131fdfc11d72efab5f96263661a782d75275",
    ("opt", 1): "09d0fe5356f51113d20d40829e7cc5f3647a18ef80f6f23820df00e8337074c4",
    ("opt", 8): "7b737157f9f51319b01461eaa8349edd6bf8df2868603a901de6234482f16d71",
    ("bs-ir", 1): "463fb014e2db0ae60fd68f44bf6c31bfea830d49be990033597e18090ca7814d",
    ("bs-ir", 8): "95543b9fb882e13c070d7db6f52996f6cae71ad33df5be0f2364f4c7d5259b2c",
    ("bs-ir-majority", 1): "8c74d2e46c74b7ac6ebcc9144b646dd4eb0b91e334ce2e028a2a089cec17ec24",
    ("bs-ir-majority", 8): "55121318548f366f10697546842d82c28369ddbfeff1e2a7cc54ac9bf803318e",
    ("bs-opt", 1): "674817858327c0c7b8b5a37b049e5e2c7ede2359be6648028e3198f8f517592a",
    ("bs-opt", 8): "27f26ee80b4648090e9b892eb2ae051fc4b28fb2d3af8f21d7c6590c544c14e1",
    ("pns", 1): "9b06d9cfcdc13166c3f5c198938f35ab777d70fdd66c029d7a0eb30db5bfb217",
    ("pns", 8): "e7e6afc549a18d54e85ca89ed951c0a84d94debcfd38ae88c6f17dd0f9c6d359",
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
    assert session_digest(variant, shards) == SESSION_DIGESTS[variant, shards]


@pytest.mark.parametrize("name", sorted(SINGLE_PHOTON_DIGESTS))
def test_single_photon_digest(name):
    assert single_photon_digest(name) == SINGLE_PHOTON_DIGESTS[name]


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
