"""Every entry point accepts exactly the interval declared for each parameter.

Each float parameter is tried at both ends of its interval, one
``math.nextafter`` step outside each end, NaN and both infinities.  A value
in the interval runs; any other is refused with the one shared message, and
by the command line with exit 2.
"""

import contextlib
import functools
import io
import math
import re

import numpy as np
import pytest

from bb84eve import cli, engine, security
from bb84eve import pulse_attacks as pa
from bb84eve import pulse_optics as po
from bb84eve import single_photon as sp
from bb84eve.domain import D, D_IR, MEAN, MU, P_CORRECT, UNIT, Z


def probes(interval):
    """``(value, accepted)``: both ends, one step outside each, NaN and the infinities."""
    return [
        (interval.lo, not interval.open_lo),
        (interval.hi, True),
        (math.nextafter(interval.lo, -math.inf), False),
        (math.nextafter(interval.hi, math.inf), False),
        (math.nan, False),
        (math.inf, False),
        (-math.inf, False),
    ]


def message(name, interval, value):
    return f"{name} must be finite and in {interval}, got {value!r}"


def scenario_fractions(mu):
    return pa.BsOptimal(t=0.5, d=0.1).scenario_fractions(mu)


def probe_model(disturbance):
    fidelity, ratio = 1.0 - disturbance, 1.0 - 2.0 * disturbance
    return sp.ProbeModel(fidelity, disturbance, fidelity * ratio, disturbance * ratio)


LINE = {"mu": MU, "eta": UNIT}

#: (callable, arguments, the domain of each float argument)
LIBRARY = [
    (po.OpticalConfig, {"mu": 1.0, "eta": 0.9}, LINE),
    (po.poisson_pmf, {"mu": 1.0, "n": 1}, {"mu": MEAN}),
    (po.split_pmf, {"n": 3, "t": 0.5, "j": 1}, {"t": UNIT}),
    (po.scenario_probs, {"mu": 1.0, "t": 0.5}, {"mu": MEAN, "t": UNIT}),
    (po.scenario_probs_series, {"mu": 1.0, "t": 0.5}, {"mu": MEAN, "t": UNIT}),
    (po.bob_count_pmf_after_splitter, {"mu": 1.0, "t": 0.5, "i": 1}, {"mu": MEAN, "t": UNIT}),
    (po.bob_count_pmf_series, {"mu": 1.0, "t": 0.5, "i": 1}, {"mu": MEAN, "t": UNIT}),
    (po.coincidence_prob, {"eta": 0.9, "mu": 1.0}, {"eta": UNIT, "mu": MEAN}),
    (po.coincidence_prob_series, {"eta": 0.9, "mu": 1.0}, {"eta": UNIT, "mu": MEAN}),
    (sp.ir_guess_prob, {"eps": 0.5}, {"eps": UNIT}),
    (sp.ir_disturbance, {"eps": 0.5}, {"eps": UNIT}),
    (sp.ir_guess_given_disturbance, {"d": 0.1}, {"d": D_IR}),
    (sp.helstrom, {"overlap": 0.5}, {"overlap": Z}),
    (sp.opt_guess_prob, {"d": 0.1}, {"d": D}),
    (sp.probe_model_from_disturbance, {"d": 0.1}, {"d": D}),
    (probe_model, {"disturbance": 0.1}, {"disturbance": D}),
    (pa.AttackPrediction, {"guess_prob": 0.75, "d_ab": 0.1}, {"d_ab": D}),
    (pa.InterceptResend, {"eps": 0.5}, {"eps": UNIT}),
    (pa.OptimalIncoherent, {"d": 0.1}, {"d": D}),
    (pa.BsInterceptResend, {"t": 0.5, "d": 0.1}, {"t": UNIT, "d": D_IR}),
    (pa.BsOptimal, {"t": 0.5, "d": 0.1}, {"t": UNIT, "d": D}),
    (pa.Pns, {"kappa": 0.5, "d": 0.1}, {"kappa": UNIT, "d": D}),
    (pa.bs_ir_predict, {"mu": 1.0, "t": 0.5, "d": 0.1}, {"mu": MU, "t": UNIT, "d": D_IR}),
    (pa.bs_opt_predict, {"mu": 1.0, "t": 0.5, "d": 0.1}, {"mu": MU, "t": UNIT, "d": D}),
    (pa.pns_predict, {"mu": 1.0, "kappa": 0.5, "d": 0.1}, {"mu": MU, "kappa": UNIT, "d": D}),
    (pa.kappa_for_channel, {"mu": 1.0, "eta": 0.9}, LINE),
    (pa.full_break_transmission, {"mu": 1.0}, {"mu": MU}),
    (scenario_fractions, {"mu": 1.0}, {"mu": MEAN}),
    (security.phi, {"z": 0.5}, {"z": Z}),
    (security.i_ab, {"d": 0.1}, {"d": D}),
    (security.i_eve, {"p_correct": 0.75}, {"p_correct": P_CORRECT}),
    (security.feasible, {"d_ab": 0.1, "p_correct": 0.75}, {"d_ab": D, "p_correct": P_CORRECT}),
    (engine._poisson_table, {"mean": 1.0}, {"mean": MEAN}),
    (engine._live_table, {"mean": 1.0, "share": 0.5}, {"mean": MEAN, "share": UNIT}),
]
for kind in security.THRESHOLD_KINDS:
    for func in (security.threshold, security.crossing_point):
        LIBRARY.append((functools.partial(func, kind), {"mu": 1.0, "eta": 0.9}, LINE))
    for func in (security.eve_accuracy_at, security.info_curve_point):
        args = {"d_ab": 0.1, "mu": 1.0, "eta": 0.9}
        LIBRARY.append((functools.partial(func, kind), args, {"d_ab": D, **LINE}))


def _label(call):
    if isinstance(call, functools.partial):
        return f"{call.func.__name__}[{call.args[0]}]"
    return call.__name__


LIBRARY_CASES = [
    pytest.param(call, args, name, interval, id=f"{_label(call)}.{name}")
    for call, args, domains in LIBRARY
    for name, interval in domains.items()
]


@pytest.mark.parametrize("call, args, name, interval", LIBRARY_CASES)
def test_library_accepts_exactly_the_interval(call, args, name, interval):
    for value, accepted in probes(interval):
        kwargs = {**args, name: value}
        if accepted:
            call(**kwargs)
        else:
            with pytest.raises(ValueError, match=f"^{re.escape(message(name, interval, value))}$"):
                call(**kwargs)


@pytest.mark.parametrize("name, interval", [("eps", UNIT), ("d", D)])
def test_single_photon_samplers_accept_exactly_the_interval(name, interval):
    sampler = engine.simulate_ir_attack if name == "eps" else engine.simulate_opt_attack
    for value, accepted in probes(interval):
        rng = np.random.default_rng(0)
        if accepted:
            sampler(value, 64, rng)
        else:
            with pytest.raises(ValueError, match=re.escape(message(name, interval, value))):
                sampler(value, 64, rng)


def run_main(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, err.getvalue().splitlines()


def assert_cli_accepts_exactly(command, argv, flag, domains, meets=None):
    """Probe ``--flag``: a value passes ``domains`` in turn and must lie in the last.

    ``meets`` is the end of ``d-min`` or ``d-max`` that leaves ``sweep`` an
    empty range, refused as such.
    """
    key = flag.replace("-", "_")
    for value, accepted in probes(domains[-1]):
        code, err = run_main([command, *argv, f"--{flag}={value!r}"])
        if accepted and value != meets:
            assert code == 0, (flag, value, err)
        elif accepted:
            assert code == 2 and err[0].startswith("sweep: need d-min < d-max"), (flag, value, err)
        else:
            wanted = {f"{command}: {message(key, interval, value)}" for interval in domains}
            assert code == 2 and len(err) == 1 and err[0] in wanted, (flag, value, err)


def test_thresholds_accepts_exactly_the_interval():
    for flag, interval in LINE.items():
        others = [f"--{k}=0.9" for k in LINE if k != flag]
        assert_cli_accepts_exactly("thresholds", others, flag, (interval,))


@pytest.mark.parametrize("strategy", cli.SWEEP_KINDS)
def test_sweep_accepts_exactly_the_interval(strategy):
    base = {"mu": 1.0, "eta": 0.9, "d-min": 0.0, "d-max": 0.5}
    domains = {**LINE, "d-min": D, "d-max": D}
    meets = {"d-min": D.hi, "d-max": D.lo}
    for flag, interval in domains.items():
        argv = ["--strategy", strategy, "--steps", "3"]
        argv += [f"--{k}={v!r}" for k, v in base.items() if k != flag]
        assert_cli_accepts_exactly("sweep", argv, flag, (interval,), meets.get(flag))


@pytest.mark.parametrize("attack", cli.ATTACK_KINDS)
def test_simulate_accepts_exactly_the_interval(attack):
    base = {"mu": 1.0, "eta": 0.9, "t": 0.9, "d": 0.1, "eps": 0.5, "kappa": 0.3}
    domains = {
        "mu": (MU,), "eta": (UNIT,), "t": (UNIT,), "eps": (UNIT,), "kappa": (UNIT,),
        # the command line's --d, then the attack's own
        "d": (D, D_IR) if attack == "bs-ir" else (D,),
    }
    for flag, chain in domains.items():
        argv = ["--attack", attack, "--pulses", "100"]
        argv += [f"--{k}={v!r}" for k, v in base.items() if k != flag]
        assert_cli_accepts_exactly("simulate", argv, flag, chain)
