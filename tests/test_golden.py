"""Golden digests of the random stream.

Each digest is the sha256 of a session's (or single-photon run's) statistics
serialised as sorted JSON.  Any change to draw order, batch layout or shard
derivation changes them.  Re-pin only in a change that alters the stream on
purpose, and record why in CHANGES.md.
"""

import dataclasses
import hashlib
import json

import numpy as np
import pytest

import bb84eve as bb
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
    ("none", 1): "bdcd1c985504ad10c805e2cda837cfbe6e70bbe0d5760db98e0dfc2fe63aca13",
    ("none", 8): "0513a64e7ebb05031745786fb3e60edc03efdb746ade2c69a4400429e7e400a8",
    ("ir", 1): "90733e0659a59eea1c9a71c9c2ef01326a6c865e8cbf68f41c1af476e9a950f4",
    ("ir", 8): "92e73fcc166ff8425c0691fe49e400153fde6f2bd3e35f7e0e2955669caf9f1b",
    ("opt", 1): "8061f0b8abea52dd082ee17e6d4edee1ca41d85d3e1875c2cae081512f844cb6",
    ("opt", 8): "f7ed0d0263deaa937cacffaddef15334084ab34d8090c21d9074188335b007df",
    ("bs-ir", 1): "29e076532e23320fc24bb2a2b9688d7aeb8404e8a4489b50880dfb0aa11fb6f8",
    ("bs-ir", 8): "41cb540b978c67c17e1be2b3510e24bb0b929b1be96b87126bf28e93be982fa9",
    ("bs-ir-majority", 1): "a96ae8ca533b4a66c4a7060074982dc6d5bff9c3466bc9ddbbb6221e467cd2e5",
    ("bs-ir-majority", 8): "69405184c80f95a7196041d50524221393d6ce9fd0bb3a58c036bd668ab7c723",
    ("bs-opt", 1): "81c63c9aa89193c622108569e3f3ca4f75506153f5d3df64831d4f5d94acc6ba",
    ("bs-opt", 8): "89d3e2e12e62e48e164b568d300b814b0679022d806c005fe929d3ab447be839",
    ("pns", 1): "3695cf1aff927f7d05ee5f6a74bed63b1152f0ed93a46dad52e69a476d344c1a",
    ("pns", 8): "be05e8250b738006f864c0a7f4e7165c923a0e2065dbdb6daa1d775dd672c4b2",
}

SINGLE_PHOTON_DIGESTS = {
    "simulate_ir_attack": "ef9fe9ff5a448344c53fac57c3cfba03aca81991ea1f6dde5eeb7c9d5b5bc3f0",
    "simulate_opt_attack": "5523f63047d2846ecc2827bae60f8ffd4e0f7d91ea3f6a2e6941e4c60fefacaf",
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
