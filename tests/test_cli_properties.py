"""Property test of the whole command line: argv fragments and config files.

Every run of ``cli.main`` must end in one of three ways: exit 0 with valid
output, exit 1 (verification failure), or exit 2 with a one-line message;
argparse's own ``SystemExit(2)`` counts as exit 2.  Nothing may raise, and
``--format json`` output must be strict JSON (no ``NaN`` or ``Infinity``).
The examples are derandomized and nothing is stored between runs, so the
suite draws the same cases every time.  Counts that set a run's length
(``pulses``, ``shards``, ``steps``) are kept small.
"""

import contextlib
import io
import json

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bb84eve import cli

FUZZ = settings(derandomize=True, database=None, deadline=None, max_examples=200)

#: Largest value drawn for a parameter that sets how long a run takes.
_BOUNDED = {"pulses": 5000, "shards": 16, "steps": 2000}



def _plausible(param: cli.Param) -> st.SearchStrategy:
    """Values of the parameter's type near its domain, with its edges and beyond."""
    if param.choices:
        return st.sampled_from(param.choices)
    if param.type is int:
        top = _BOUNDED.get(param.key)
        if top is not None:
            return st.integers(min_value=-2, max_value=top)
        return st.one_of(st.integers(min_value=-3, max_value=30), st.integers(-(2**70), 2**70))
    return st.one_of(
        *[st.floats(min_value=0.0, max_value=1.0)] * 3,
        st.floats(min_value=-0.5, max_value=25.0),
        st.floats(),
        st.integers(min_value=-1, max_value=21),
    )


def _flag_value(param: cli.Param) -> st.SearchStrategy:
    """Text after ``--name``: mostly a plausible value, sometimes any short string."""
    return st.one_of(*[_plausible(param).map(str)] * 9, st.text(max_size=4))


def _config_value(param: cli.Param) -> st.SearchStrategy:
    """A JSON value: mostly plausible, else null, a boolean, a string or a list."""
    odd = st.one_of(
        st.none(),
        st.booleans(),
        _plausible(param).map(str),
        st.text(max_size=4),
        st.lists(st.integers(min_value=0, max_value=3), max_size=2),
    )
    if param.key in _BOUNDED:  # whole and fractional floats for a count
        top = _BOUNDED[param.key]
        odd = st.one_of(odd, st.floats(min_value=-2.0, max_value=top))
    return st.one_of(*[_plausible(param)] * 8, odd)


@st.composite
def invocations(draw):
    """One command line: each parameter absent, a flag, or a config key."""
    command = draw(st.sampled_from(sorted(cli.PARAMS)))
    argv, config = [command], {}
    for param in cli.PARAMS[command]:
        absent = 1 if param.required else 3
        where = draw(st.sampled_from(["absent"] * absent + ["flag", "config"]))
        if where == "flag":
            if draw(st.integers(0, 29)):  # "=" lets a value start with "-"
                argv.append(f"--{param.name}={draw(_flag_value(param))}")
            else:  # the value left out
                argv.append(f"--{param.name}")
        elif where == "config":
            config[param.key] = draw(_config_value(param))
    if draw(st.integers(0, 7)) == 0:
        config["pulsess"] = 5
    if not config and draw(st.booleans()):
        config = None
    elif draw(st.integers(0, 7)) == 0:
        config = draw(st.sampled_from([{"params": config}, [config], "params"]))
    argv += draw(st.sampled_from([[]] * 3 + [["--format", "json"]] * 4 + [["--help"]]))
    if command == "simulate" and draw(st.booleans()):
        argv.append("--check")
    return argv, config


@pytest.fixture(scope="module")
def config_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "config.json"


def _reject_constant(name: str):
    raise AssertionError(f"non-strict JSON constant {name} on stdout")


@FUZZ
@given(invocation=invocations())
@example(invocation=(["thresholds", "--format", "json"], {"mu": 1, "eta": None}))
@example(invocation=(["sweep", "--format", "json"], {"strategy": "ir", "d_min": None}))
@example(invocation=(["sweep"], {"strategy": "ir", "steps": None}))
@example(invocation=(["sweep", "--strategy", "ir", "--mu", "50", "--eta", "7"], None))
def test_every_run_ends_in_a_defined_exit(config_path, invocation):
    argv, config = invocation
    if config is not None:
        config_path.write_text(json.dumps(config))
        argv = [*argv, "--config", str(config_path)]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse: --help, or a malformed command line
            assert exc.code in (0, 2), exc.code
            return
    assert code in (0, 1, 2), code
    if code == 2:
        assert out.getvalue() == ""
        assert len(err.getvalue().splitlines()) == 1, err.getvalue()
    if code == 1:
        assert argv[0] == "verify"
    if code != 2 and "--format" in argv and argv[argv.index("--format") + 1] == "json":
        json.loads(out.getvalue(), parse_constant=_reject_constant)
