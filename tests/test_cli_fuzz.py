"""The CLI input contract under fuzzed inputs: ``measure``, ``algebra convolve``
and ``algebra check-positive`` on often-malformed groupoid, measure and
function files and numeric flags.

Every run exits 0, 1 or 2 without a traceback, and exits 2 whenever a loader
or a flag check rejects the input.
"""

import contextlib
import io
import json
import math
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from groupoidqm import GroupoidError, pair_groupoid
from groupoidqm.algebra import element_from_json
from groupoidqm.cli import main
from groupoidqm.groupoid import groupoid_from_json
from groupoidqm.measure import measure_from_json

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
