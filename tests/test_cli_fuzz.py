"""Config fuzzer for the exit-code contract of ``hvkit.cli.main``.

Hypothesis draws a command first, then the fields of its row in the config
schema (``cli._COMMANDS``), over all five module families (wrappers nested
at most two deep) and families that are not strings, with junk in any
field: bools, floats, lists, ``"1/0"``, nulls and unknown fields.  Every bound the command reads is given, small
and explicit, so no run falls back to a default that takes seconds.  One
time in twenty the config also carries a field outside the command's row (a
field of another command, or one no command reads).  For every config:

* the exit code is 0, 1 or 2 (3 would be a crash inside hvkit);
* exit 1, "the mathematics failed to verify", comes only from the three
  verifying commands;
* exit 2 prints exactly one stderr line and nothing on stdout;
* exits 0 and 1 print nothing on stderr;
* a field outside the command's row exits 2, and a valid command's
  diagnostic leads with that field's path.
"""

import contextlib
import io
import json
import os
import tempfile

from hypothesis import HealthCheck, given, settings, strategies as st

from hvkit.cli import _COMMANDS, main

COMMANDS = tuple(_COMMANDS)
VERIFYING = {"check-axioms", "hc-suite", "jacobi-sweep"}
SLOTS = ("d0", "I0", "C", "C_D", "C_I")

JUNK = st.one_of(
    st.booleans(),
    st.floats(allow_nan=False, allow_infinity=False, width=16),
    st.lists(st.integers(-2, 2), max_size=2),
    st.just("1/0"),
    st.none(),
    st.just({"unknown": 1}),
)


def junky(strategy):
    """``strategy`` most of the time, junk one time in twenty (not on the
    simplest draw, 0, which hypothesis favours)."""
    return st.integers(0, 19).flatmap(lambda n: JUNK if n == 19 else strategy)


SCALARS = junky(st.sampled_from(["0", "1", "-1", "1/2", "-3/2", "i", "2+i", "3"]))


def ints(lo: int, hi: int):
    return junky(st.integers(lo, hi))


def scalar_list(max_size: int):
    return junky(st.lists(SCALARS, max_size=max_size))


def with_unknown_field(strategy):
    """One time in fifty, add a field no reader knows."""
    return st.tuples(strategy, st.integers(0, 49)).map(
        lambda pair: dict(pair[0], bogus=1) if pair[1] == 49 and isinstance(pair[0], dict) else pair[0]
    )


INTERMEDIATE = st.fixed_dictionaries(
    {"family": st.just("intermediate"), "alpha": SCALARS, "beta": SCALARS, "F": SCALARS}
)
# the degenerate line module with its line 0 dropped; the junk makes most draws invalid
PRIMED = st.fixed_dictionaries(
    {"family": st.just("intermediate"), "alpha": junky(st.just("0")), "beta": st.just("0"), "F": st.just("0"),
     "drop_line": ints(0, 0)}
)
OMEGA = st.fixed_dictionaries(
    {
        "family": st.just("omega"),
        "lambda": SCALARS,
        "alpha": SCALARS,
        "mu": scalar_list(2),
        "beta": SCALARS,
    }
)
QUOTIENT = st.fixed_dictionaries({"point": scalar_list(1), "order": ints(1, 2)})
PHI_ENTRY = st.fixed_dictionaries(
    {"gen": junky(st.sampled_from(SLOTS)), "value": SCALARS},
    optional={"point": ints(-1, 1), "exp": junky(st.lists(st.integers(-1, 2), max_size=2))},
)
VERMA = st.fixed_dictionaries(
    {"family": st.just("verma")},
    optional={
        "quotients": junky(st.lists(QUOTIENT, max_size=2)),
        "max_level": ints(1, 2),
        "phi": junky(st.lists(PHI_ENTRY, max_size=3)),
    },
)
# a family that is not a string: unhashable ones must not reach the family table's lookup
NOT_A_FAMILY = st.fixed_dictionaries(
    {"family": st.one_of(st.lists(st.just("omega"), max_size=1), st.just({"omega": 1}), st.integers(0, 2), st.none())}
)
LEAVES = st.one_of(INTERMEDIATE, PRIMED, OMEGA, VERMA, NOT_A_FAMILY)


def modules(depth: int):
    """A module descriptor with evaluation and tensor wrappers at most ``depth`` deep."""
    if depth == 0:
        return with_unknown_field(LEAVES)
    inner = modules(depth - 1)
    evaluation = st.fixed_dictionaries(
        {"family": st.just("evaluation"), "point": scalar_list(2), "order": ints(1, 2), "inner": inner}
    )
    tensor = st.fixed_dictionaries({"family": st.just("tensor"), "left": inner, "right": inner})
    leaves = with_unknown_field(LEAVES)
    return st.one_of(leaves, leaves, with_unknown_field(evaluation), with_unknown_field(tensor))


POLY = with_unknown_field(
    st.fixed_dictionaries(
        {"terms": junky(st.lists(st.fixed_dictionaries({"exp": junky(st.lists(st.integers(0, 2), max_size=2)),
                                                         "coeff": SCALARS}), min_size=1, max_size=2))},
        optional={"k": ints(0, 2)},
    )
)
FIELDS = {
    "module": junky(st.one_of(modules(2), VERMA)),  # a Verma module more often, for its two commands
    "f": junky(POLY),
    "generators": junky(st.lists(POLY, min_size=1, max_size=2)),
    "raising": junky(st.sampled_from(["generators", "full"])),
}
BOUNDS = {
    "index": ints(-1, 1),
    "monomial": ints(0, 1),
    "window": ints(-1, 2),
    "level": ints(0, 2),
    "k": ints(0, 1),
    "operator": ints(0, 2),
}


@st.composite
def configs(draw):
    """(config, the path of a field outside the command's row or None)."""
    command = draw(st.sampled_from(COMMANDS))
    required, optional, bound_row, _run_command = _COMMANDS[command]
    bound_names = tuple(bound_row)
    config = draw(
        st.fixed_dictionaries(
            {
                "command": junky(st.just(command)),
                "bounds": st.fixed_dictionaries({name: BOUNDS[name] for name in bound_names}),
                **{name: FIELDS[name] for name in required},
            },
            optional={name: FIELDS[name] for name in optional},
        )
    )
    if draw(st.integers(0, 19)) < 19:
        return config, None
    outside = [name for name in (*FIELDS, "bogus") if name not in required + optional]
    outside += [f"bounds.{name}" for name in (*BOUNDS, "bogus") if name not in bound_names]
    foreign = draw(st.sampled_from(outside))
    name = foreign.removeprefix("bounds.")
    value = draw({**FIELDS, **BOUNDS}.get(name, JUNK))
    (config["bounds"] if foreign.startswith("bounds.") else config)[name] = value
    return config, foreign


def _run(config) -> tuple:
    """(exit code, stdout, stderr) of ``hvkit --config`` on the config."""
    out, err = io.StringIO(), io.StringIO()
    fd, path = tempfile.mkstemp(suffix=".json")
    try:
        with os.fdopen(fd, "w") as fh:
            json.dump(config, fh)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["--config", path])
    finally:
        os.unlink(path)
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=600, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(configs())
def test_every_config_keeps_the_exit_code_contract(case):
    config, foreign = case
    code, out, err = _run(config)
    assert code in (0, 1, 2), err
    if code == 1:
        assert config["command"] in VERIFYING
    if code == 2:
        assert out == ""
        assert err.count("\n") == 1 and err.endswith("\n"), err
    else:
        assert err == ""
    if foreign is not None:
        assert code == 2
        if config["command"] in COMMANDS:
            assert err.startswith(f"config error: {foreign}: "), err
