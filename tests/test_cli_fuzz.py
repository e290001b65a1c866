"""The CLI input contract under fuzzed inputs: every subcommand on often
malformed or missing groupoid, measure, function, Kraus and channel files,
state shorthands, ``--perm`` strings and numeric flags.

Every run exits 0, 1 or 2 without a traceback, and exits 2 whenever a loader,
a flag check or a missing input rejects the input.
"""

import contextlib
import io
import json
import math
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from groupoidqm import (
    FlatBisection,
    GroupoidError,
    ValidationError,
    fourier_family,
    identity_channel,
    pair_groupoid,
    transpose_channel,
)
from groupoidqm.algebra import element_from_json
from groupoidqm.channels import kraus_from_json
from groupoidqm.cli import main
from groupoidqm.groupoid import groupoid_from_json
from groupoidqm.measure import measure_from_json
from groupoidqm.symalgebra import quotient_function_from_json

JUNK = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 3),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from(["1/2", "abc", "", "3"]),
    st.lists(st.integers(0, 2), max_size=3),
)
NUMBER = st.one_of(
    st.integers(-2, 4),
    st.floats(-2, 4),
    st.sampled_from([0.0, float("nan"), float("inf"), 1e300, "1/3", "x"]),
)


@st.composite
def groupoid_json(draw):
    """A pair groupoid's JSON, often with one entry broken."""
    data = pair_groupoid(draw(st.integers(1, 2))).to_json()
    edit = draw(st.sampled_from(["none", "drop-key", "entry", "inverse", "compose", "junk"]))
    if edit == "drop-key":
        del data[draw(st.sampled_from(sorted(data)))]
    elif edit == "entry":
        morphism = draw(st.sampled_from(data["morphisms"]))
        morphism[draw(st.sampled_from(["id", "src", "tgt"]))] = draw(JUNK)
    elif edit == "inverse":
        data["inverse"][0] = draw(JUNK)
    elif edit == "compose":
        data["compose"].pop(draw(st.integers(0, len(data["compose"]) - 1)))
    elif edit == "junk":
        return draw(JUNK)
    return data


def measure_json(m):
    return st.one_of(
        JUNK,
        st.fixed_dictionaries(
            {"morphism_weights": st.lists(NUMBER, min_size=max(m - 1, 0), max_size=m + 1)},
            optional={"object_weights": st.lists(NUMBER, max_size=3)},
        ),
    )


def function_json(m):
    entry = st.one_of(st.lists(NUMBER, min_size=2, max_size=2), JUNK)
    return st.one_of(
        JUNK, st.fixed_dictionaries({"values": st.lists(entry, min_size=m, max_size=m + 1)})
    )


def loaded(load):
    """What load() returns, or None when it rejects its input."""
    try:
        return load()
    except GroupoidError:
        return None


@st.composite
def invocations(draw):
    """(argv, files, whether a loader or a flag check rejects the input)."""
    command = draw(st.sampled_from(["measure", "convolve", "check-positive"]))
    files, argv = {}, []
    reject = False
    if draw(st.booleans()):
        n = draw(st.integers(-1, 3))
        argv.append(f"--n={n}")
        reject = n < 1
        g = pair_groupoid(n) if n >= 1 else None
    else:
        files["g.json"] = draw(groupoid_json())
        argv += ["--groupoid", "g.json"]
        g = loaded(lambda: groupoid_from_json(files["g.json"]))
        reject = g is None
    m = g.n_morphisms if g is not None else 4
    exact = draw(st.booleans())
    if draw(st.booleans()):
        files["m.json"] = draw(measure_json(m))
        argv += ["--measure", "m.json"]
        if g is not None:
            reject |= loaded(lambda: measure_from_json(files["m.json"], g, exact)) is None
    argv += ["--exact"] * exact
    if command == "measure":
        tol = draw(st.one_of(st.floats(allow_nan=True, allow_infinity=True), st.just(0.0)))
        argv = ["measure", *argv, f"--tol={tol!r}"]
        reject |= not (math.isfinite(tol) and tol >= 0)
    else:
        names = ["f.json", "h.json"][: 2 if command == "convolve" else 1]
        for name in names:
            files[name] = draw(function_json(m))
            if g is not None:
                reject |= loaded(lambda: element_from_json(files[name], g)) is None
        argv = ["algebra", command, *names, *argv]
    return argv, files, reject


@settings(max_examples=50, deadline=None)
@given(invocations())
def test_cli_input_contract(invocation):
    argv, files, reject = invocation
    with tempfile.TemporaryDirectory() as tmp:
        for name, data in files.items():
            (Path(tmp) / name).write_text(json.dumps(data))
        argv = [str(Path(tmp) / a) if a in files else a for a in argv]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv + ["--json"])
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    if reject:
        assert code == 2, (argv, err.getvalue())
    if code == 2:
        assert out.getvalue() == "" and "error" in json.loads(err.getvalue())


# -- the other subcommands --

COUNT = st.one_of(st.none(), st.integers(-1, 4))
PERM = st.one_of(
    st.none(),
    st.sampled_from(["a,b", "", "1,,0", "0,0", "-1,0", "1.5,0", " 1, 0"]),
    st.lists(st.integers(-1, 3), min_size=1, max_size=3).map(lambda p: ",".join(map(str, p))),
)


def flag(name, value):
    return [] if value is None else [f"--{name}={value}"]


def below(value, low):
    return value is not None and value < low


def junk_or(data, draw):
    """data, or data with one field broken or dropped, or junk."""
    edit = draw(st.sampled_from(["none", "none", "drop-key", "field", "junk"]))
    if edit == "drop-key":
        del data[draw(st.sampled_from(sorted(data)))]
    elif edit == "field":
        data[draw(st.sampled_from(sorted(data)))] = draw(JUNK)
    elif edit == "junk":
        return draw(JUNK)
    return data


@st.composite
def kraus_json(draw):
    n = draw(st.integers(1, 2))
    data = fourier_family(n).to_json()
    if draw(st.booleans()):
        data["members"] = data["members"] * (n * n + 1)  # too many members
    elif draw(st.booleans()):
        data["members"][0] = draw(function_json(n * n))
    return junk_or(data, draw)


@st.composite
def channel_json(draw):
    n = draw(st.integers(1, 2))
    build = draw(st.sampled_from([identity_channel, transpose_channel]))
    data = build(n).to_json()
    if draw(st.booleans()):
        pair = st.lists(NUMBER, min_size=2, max_size=2)
        data["values"] = draw(st.lists(pair, min_size=n**4 - 1, max_size=n**4 + 1))
    return junk_or(data, draw)


def input_files(draw, files, strategy, need, prefix):
    """Up to ``need`` positional file names, each present with drawn contents
    or missing; returns the names and whether one is absent or missing."""
    k = draw(st.integers(0, need))
    names = [f"{prefix}{i}.json" for i in range(k)]
    missing = k < need
    for name in names:
        if draw(st.integers(0, 5)):
            files[name] = draw(strategy)
        else:
            missing = True
    return names, missing


def state_arg(draw, files):
    if draw(st.integers(0, 3)) == 0:
        files["s.json"] = draw(function_json(draw(st.sampled_from([1, 4, 9]))))
        return "s.json"
    return draw(st.one_of(
        st.sampled_from(["units", "delta:x", "delta:0,0,0", "absent.json"]),
        st.tuples(st.integers(-1, 3), st.integers(-1, 3)).map(lambda jk: "delta:%d,%d" % jk),
    ))


def state_rejected(state, files, n):
    if state.endswith(".json"):
        g = pair_groupoid(n)
        return state not in files or loaded(lambda: element_from_json(files[state], g)) is None
    if state == "units":
        return False
    try:
        j, k = (int(x) for x in state[len("delta:"):].split(","))
    except ValueError:
        return True
    return not (0 <= j < n and 0 <= k < n)


@st.composite
def groupoid_invocations(draw):
    action = draw(st.sampled_from(["make-pair", "product", "validate"]))
    files = {}
    if action == "make-pair":
        n = draw(COUNT)
        out = draw(st.sampled_from([[], ["-o", "out.json"], ["-o", "absent/out.json"]]))
        return ["groupoid", action, *flag("n", n), *out], files, n is None or n < 1
    names, reject = input_files(draw, files, groupoid_json(), 2 if action == "product" else 1, "g")
    for name in names:
        if name not in files:
            continue
        try:
            groupoid_from_json(files[name])
        except ValidationError:
            reject |= action == "product"  # validate reports an invalid table with exit 1
        except GroupoidError:
            reject = True
    return ["groupoid", action, *names], files, reject


@st.composite
def symmetroid_invocations(draw):
    action = draw(st.sampled_from(["enumerate", "check-exchange", "flat-bisections"]))
    n = draw(st.integers(-1, 4))
    samples = draw(st.integers(-1, 20) if action == "check-exchange" else COUNT)
    seed = draw(st.one_of(st.none(), st.integers(-1, 5)))
    reject = n < 1 or below(samples, 1) or below(seed, 0)
    reject |= action == "check-exchange" and n > 2 and seed is None
    argv = ["symmetroid", action, f"--n={n}", *flag("samples", samples), *flag("seed", seed)]
    return argv, {}, reject


@st.composite
def channel_invocations(draw):
    action = draw(st.sampled_from(["from-kraus", "from-bisection", "apply", "check", "export"]))
    files = {}
    if action == "from-bisection":
        perm = draw(PERM)
        try:
            FlatBisection([int(x) for x in perm.split(",")])
            reject = False
        except (AttributeError, ValueError, GroupoidError):
            reject = True
        return ["channel", action, *flag("perm", perm)], files, reject
    if action == "from-kraus":
        names, reject = input_files(draw, files, kraus_json(), 1, "k")
        if not reject:
            reject = loaded(lambda: kraus_from_json(files[names[0]])) is None
        return ["channel", action, *names], files, reject
    names, reject = input_files(draw, files, channel_json(), 1, "c")
    channel = None if reject else loaded(lambda: quotient_function_from_json(files[names[0]]))
    reject |= channel is None
    argv = ["channel", action, *names]
    if action == "apply":
        pad = draw(COUNT)
        reject |= below(pad, 1)
        if names and draw(st.integers(0, 5)):
            state = state_arg(draw, files)
            argv.append(state)
            if not reject:
                reject = state_rejected(state, files, max(channel.n, pad or 0))
        else:
            reject = True
        argv += flag("pad-to", pad)
    elif action == "check":
        trials, seed = draw(COUNT), draw(COUNT)
        ancilla = draw(st.one_of(st.none(), st.integers(-1, 2)))
        argv += [f"--{c}" for c in ("cp", "flat-psd", "unital") if draw(st.booleans())]
        argv += flag("falsify-positivity", trials) + flag("ancilla", ancilla) + flag("seed", seed)
        reject |= below(trials, 1) or below(ancilla, 1) or below(seed, 0)
        reject |= trials is not None and seed is None
    else:
        fmt = draw(st.sampled_from(["json", "csv"]))
        out = draw(st.sampled_from([[], ["-o", "out.txt"]]))
        argv += [f"--format={fmt}", f"--as={draw(st.sampled_from(['choi', 'a', 'b']))}", *out]
        reject |= fmt == "csv" and not out
    return argv, files, reject


@st.composite
def examples_invocations(draw):
    n = draw(st.integers(-1, 4))
    files = {}
    argv = ["examples", draw(st.sampled_from(["fourier", "shift"])), f"--n={n}"]
    reject = n < 1
    if draw(st.booleans()):
        state = state_arg(draw, files)
        argv.append(f"--state={state}")
        reject = reject or state_rejected(state, files, n)
    return argv, files, reject


@st.composite
def reproduce_invocations(draw):
    out = draw(st.sampled_from(["taken.json", "taken.json/reports"]))
    return ["reproduce", "--out", out], {"taken.json": {}}, True


def run_contract(argv, files, reject, as_json):
    """Run main in a directory holding the files (every *.json or *.txt
    argument names a path in it) and check the exit-code contract."""
    with tempfile.TemporaryDirectory() as tmp:
        for name, data in files.items():
            (Path(tmp) / name).write_text(json.dumps(data))

        def path(a):
            head, sep, tail = a.partition("=")
            value = tail if sep else head
            if value.endswith((".json", ".txt", "/reports")):
                value = str(Path(tmp) / value)
            return f"{head}={value}" if sep else value

        argv = [path(a) for a in argv] + ["--json"] * as_json
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    if reject:
        assert code == 2, (argv, err.getvalue())
    if code == 2:
        assert out.getvalue() == "" and "error" in json.loads(err.getvalue())


@pytest.mark.parametrize(
    "invocations",
    [groupoid_invocations, symmetroid_invocations, channel_invocations,
     examples_invocations, reproduce_invocations],
    ids=lambda f: f.__name__.split("_")[0],
)
@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_cli_input_contract_of_every_subcommand(invocations, data):
    run_contract(*data.draw(invocations()), as_json=data.draw(st.booleans()))
