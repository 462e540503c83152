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
    ("none", 1): "8dba8f92fdbe1e0f8d6b7a1184da6b98c0bb38fc5de5f8add9afb42471621263",
    ("none", 8): "fffee9f4e52b0cc716890951322dbe33f44ea7638eb8d697ed7306848fb42ddb",
    ("ir", 1): "a4348ff347f8194d37197846852d58fd1051c06227c4fbe0e80ade7c7f0c7719",
    ("ir", 8): "698c716a36752506a336ba2370d3908bb4a10cc78762007c593163e48241c468",
    ("opt", 1): "4f4435bd9f1b20ebfed390e12722d3cd661a7cb009ec15892a0cb236a84e31db",
    ("opt", 8): "e9b7221ed7692c979697c223a8c7784de51b07545fe821f9f9d34398772dee72",
    ("bs-ir", 1): "a5547abf813ba96256c8369c3380902d78c231031602f83c7d8c6203df69df7e",
    ("bs-ir", 8): "8e49e451f15c7a9456414cc909807a37cfc225546a5a03bec4f9ebc1de021c36",
    ("bs-ir-majority", 1): "1cdbd4b7e9191bdb94fd54ac8f82f293a7f0d73b4978ef57ec350e0abca5517f",
    ("bs-ir-majority", 8): "10221a49398c12169f187d042f65076ef3d84e87cd7e672192af7f31cb84b49b",
    ("bs-opt", 1): "8213c0ea12df0ac5c7acc1c1f243974bdea1cf1a9fe6bae807b3ee670985e999",
    ("bs-opt", 8): "15768126f2edf403e9e4c2bdafbc68a1fa47d18d6dd222ea93356a4eab3337fd",
    ("pns", 1): "105ccaa292daba2b7fc5e0e24cf9aeb400f0a626c4b7e9a090a9c3b35c512123",
    ("pns", 8): "f3b98704921c6312b2660b8ba0cf531a922d02f5fdf1aebe6e2ed33c47fac4bf",
}

SINGLE_PHOTON_DIGESTS = {
    "simulate_ir_attack": "daea4d8475a095d3ae0ec6c44af91ed55a5e1e979899e070f8ef63af06171a1e",
    "simulate_opt_attack": "a900bf3b31d60dd50595a5c7d179604cef9e711b1dd496b52249c40867134788",
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
