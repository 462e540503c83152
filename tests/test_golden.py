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
    ("none", 1): "b61e3ce6e6c6436cccbcde196e56e53b23a542b975b2ed5f87b9808d034c5f7c",
    ("none", 8): "890dad09ecc1d5653bda58d2f52edce626eaea76bc49fde7e0ff776e153932eb",
    ("ir", 1): "3cce914e9119e003f1f7acab123b5b2f91193559c5973d1a3e556ca5122422d8",
    ("ir", 8): "9c7b2def4c9136fd1c0f63574b6f71df3328039cd4b893ec936a988127b01296",
    ("opt", 1): "f604f20533c109c1d380e76594ff3e430329517999e4ad19b60b538d5283357e",
    ("opt", 8): "9311e2abb9f0be94f6e63d52cc5d57820436357874aeac343bf7d930d95dd22b",
    ("bs-ir", 1): "9dfd1a3d5ac1543b6b37165017c19dbc85509d62d3d9b940d82ddb7ea855d942",
    ("bs-ir", 8): "9738055f659207a0d5b90c5cb1cbdc853e4b4561b6b8240eb165c71bc24ecf0d",
    ("bs-ir-majority", 1): "3e8e3d43168f55773753f1ed995bb719f5ffc1a8f0f1f81b52cb7909ad51f87d",
    ("bs-ir-majority", 8): "8f35bdba85ee196e7eef12f90fd9abf80e239ae8180c56c2b72e6c43a2fbbbd9",
    ("bs-opt", 1): "7937cb3680e8dfb4c8253f5bde47d1917aef6bf65423f8cf7644193f707df9b4",
    ("bs-opt", 8): "47243d8e31f911b78254ec3c4e04262ebd041f816ed439d72dd0f2a739917991",
    ("pns", 1): "fd4f03931bb53c5f45f1450844d1cde99726d0c74a6b593ecde624ac18017acd",
    ("pns", 8): "6eb77d3a737e7bbe39df46039a385fd3f07d9daa592b4497d6027caee8b57146",
}

SINGLE_PHOTON_DIGESTS = {
    "simulate_ir_attack": "ec59d7b2b8dd2e36b1c27ecb5dc1ee6def338fd6a104bedcfa6e70b4accb20fa",
    "simulate_opt_attack": "10be6f23399df181a7561f4577f7afa8ec89a00b09928f94a885228b03f4fcca",
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
    ("thresholds", 1.0, 0.9): "709a155b9000328bbf4104d73da61b7b571e199aefc963bddff3d3eedc07d01f",
    ("thresholds", 0.1, 0.5): "413e122f8a3a5029b00e20027361ef2266a236eff4e3222b5350fb638235906f",
    ("sweep ir", 1.0, 0.9): "a33e086778e3d64bc424e37a2b138a6ad0362337136ba7bef3e8137966b65420",
    ("sweep ir", 0.1, 0.5): "a33e086778e3d64bc424e37a2b138a6ad0362337136ba7bef3e8137966b65420",
    ("sweep opt", 1.0, 0.9): "e8300ed99e2e512c3304d67350edc53cb7d2b6c28ac3906a4d375da14f0a5152",
    ("sweep opt", 0.1, 0.5): "e8300ed99e2e512c3304d67350edc53cb7d2b6c28ac3906a4d375da14f0a5152",
    ("sweep bs-ir", 1.0, 0.9): "d4171e2fb76f653e985ebeaa496a1b51d0a17eed098876b30d84f6ab6a19b408",
    ("sweep bs-ir", 0.1, 0.5): "4e72e775e5062ecbb74f9923a28e0dc2ba951440f6dbbbb1647bbfb7e7518964",
    ("sweep bs-opt", 1.0, 0.9): "2cba9e5919a8d9f96b55500e38f1507f5869f895221db72ddc69177b48c92de4",
    ("sweep bs-opt", 0.1, 0.5): "edf254d092c5b2f956bca1ff89e93e6b4c2fb6df0093c3c0422ebf3d5260934c",
    ("sweep pns", 1.0, 0.9): "978563c29eeb2dccd8eaa084cf8148e5dada686ef7f7dfeddde25da9797960f2",
    ("sweep pns", 0.1, 0.5): "643a2d3c5024019e668beb55dc448c1e34691c78fad7548aad94387d071dda11",
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
