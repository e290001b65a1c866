import json
from pathlib import Path

import numpy as np
import pytest

from groupoidqm import cli, pair_groupoid, transpose_channel
from groupoidqm.cli import build_parser, main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


GOLDEN = Path(__file__).parent / "golden"


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv, "--json")
    return code, json.loads(out) if out.strip() else None, err


def test_groupoid_make_pair_and_validate(tmp_path, capsys):
    path = str(tmp_path / "g.json")
    code, data, _ = run_json(capsys, "groupoid", "make-pair", "--n", "3", "-o", path)
    assert code == 0
    code, data, _ = run_json(capsys, "groupoid", "validate", path)
    assert code == 0
    assert data["verdict"] == "valid"
    assert data["n_morphisms"] == 9


def test_groupoid_validate_rejects_corrupted(tmp_path, capsys):
    g = pair_groupoid(2)
    data = g.to_json()
    data["inverse"] = [0, 1, 2, 3]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    code, payload, _ = run_json(capsys, "groupoid", "validate", str(path))
    assert code == 1
    assert payload["verdict"] == "invalid"


def test_groupoid_product(tmp_path, capsys):
    g2, g3 = str(tmp_path / "g2.json"), str(tmp_path / "g3.json")
    run_json(capsys, "groupoid", "make-pair", "--n", "2", "-o", g2)
    run_json(capsys, "groupoid", "make-pair", "--n", "3", "-o", g3)
    out = str(tmp_path / "prod.json")
    code, data, _ = run_json(capsys, "groupoid", "product", g2, g3, "-o", out)
    assert code == 0
    assert data["n_objects"] == 6 and data["n_morphisms"] == 36
    code, data, _ = run_json(capsys, "groupoid", "validate", out)
    assert code == 0 and data["verdict"] == "valid"


def test_measure_check_counting(capsys):
    code, data, _ = run_json(capsys, "measure", "--n", "3")
    assert code == 0
    assert data["verdict"] == "haar"
    assert data["left_invariance"]["ok"]


def test_measure_check_rejects_bad_measure(tmp_path, capsys):
    mpath = tmp_path / "m.json"
    # weighted pair measure with all-ones object weights: not left-invariant
    w = (1, 2, 4)
    weights = [w[j] / w[k] for j in range(3) for k in range(3)]
    mpath.write_text(json.dumps({"morphism_weights": weights, "object_weights": [1, 1, 1]}))
    code, data, _ = run_json(capsys, "measure", "--n", "3", "--measure", str(mpath))
    assert code == 1
    assert data["verdict"] == "not-haar"


def test_algebra_convolve(tmp_path, capsys):
    n = 2
    f = {"values": [[0, 0], [1, 0], [0, 0], [0, 0]]}  # δ_(0,1)
    g = {"values": [[0, 0], [0, 0], [1, 0], [0, 0]]}  # δ_(1,0)
    fp, gp = tmp_path / "f.json", tmp_path / "g.json"
    fp.write_text(json.dumps(f))
    gp.write_text(json.dumps(g))
    code, data, _ = run_json(capsys, "algebra", "convolve", str(fp), str(gp), "--n", "2")
    assert code == 0
    assert data["values"] == [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0]]


def test_algebra_check_positive(tmp_path, capsys):
    bad = {"values": [[-1, 0], [1, 0], [1, 0], [-1, 0]]}
    path = tmp_path / "phi.json"
    path.write_text(json.dumps(bad))
    code, data, _ = run_json(capsys, "algebra", "check-positive", str(path), "--n", "2")
    assert code == 1
    assert data["verdict"] is False
    assert abs(data["min_eigenvalue"] + 2) < 1e-9
    assert data["witness"]["object"] == 0 and len(data["witness"]["eigenvector"]) == 2


def test_algebra_check_positive_passing_prints_no_witness(tmp_path, capsys):
    # the lowest eigenvector of a passing block witnesses nothing, and its sign is arbitrary
    path = tmp_path / "phi.json"
    path.write_text(json.dumps({"values": [[0.5, 0], [0.25, 0], [0.25, 0], [0.5, 0]]}))
    code, data, _ = run_json(capsys, "algebra", "check-positive", str(path), "--n", "2")
    assert code == 0
    assert data == {"hermitian_defect": 0.0, "min_eigenvalue": 0.25, "verdict": True}
    code, out, _ = run(capsys, "algebra", "check-positive", str(path), "--n", "2")
    assert code == 0
    assert out == "verdict: True\nmin_eigenvalue: 0.25\nhermitian_defect: 0.0\n"


def test_symmetroid_enumerate(capsys):
    code, data, _ = run_json(capsys, "symmetroid", "enumerate", "--n", "2")
    assert code == 0
    assert data["count"] == 16
    assert data["classes"][0] == [0, 0, 0, 0]
    assert data["classes"][-1] == [1, 1, 1, 1]


def test_symmetroid_check_exchange_exhaustive(capsys):
    code, out, _ = run(capsys, "symmetroid", "check-exchange", "--n", "2")
    assert code == 0
    assert "0 violations / 512 quadruples" in out


def test_symmetroid_check_exchange_rejects_seed(capsys):
    # the check is exact at every n, so it reads no seed
    for n in ("2", "6"):
        with pytest.raises(SystemExit) as exc:
            main(["symmetroid", "check-exchange", "--n", n, "--seed=4"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert "unrecognized arguments: --seed=4" in captured.err and not captured.out


def test_symmetroid_check_exchange_rejects_samples(capsys):
    # ... and draws no sample
    for n in ("2", "6"):
        with pytest.raises(SystemExit) as exc:
            main(["symmetroid", "check-exchange", "--n", n, "--samples=5"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert "unrecognized arguments: --samples=5" in captured.err and not captured.out


def test_symmetroid_check_exchange_echoes_no_seed(capsys):
    # below and above the old sampling bound the output is the same three keys
    for n in (2, 6):
        code, data, _ = run_json(capsys, "symmetroid", "check-exchange", "--n", str(n))
        assert code == 0
        assert set(data) == {"n", "mode", "report"} and data["mode"] == "exhaustive"


@pytest.mark.parametrize("n", [3, 4, 5, 6, 9, 12])
def test_symmetroid_check_exchange_exhaustive_through_the_bound(capsys, n):
    code, data, _ = run_json(capsys, "symmetroid", "check-exchange", "--n", str(n))
    assert code == 0
    assert data == {"n": n, "mode": "exhaustive", "report": f"0 violations / {n**9} quadruples"}


def test_symmetroid_flat_bisections(capsys):
    code, data, _ = run_json(capsys, "symmetroid", "flat-bisections", "--n", "3")
    assert code == 0
    assert data["count"] == 6
    assert [0, 1, 2] in data["permutations"]


PINNED = {
    "flat_bisections_n4.txt": "symmetroid flat-bisections --n 4",
    "convolve_int.txt": "algebra convolve --n 3 int_n3.json int_n3.json",
    "convolve_float.txt": "algebra convolve --n 3 float_n3.json int_n3.json",
    "apply_delta.txt": "channel apply from_bisection_120.json delta:0,1",
    "apply_float.txt": "channel apply from_bisection_120.json float_n3.json",
}


@pytest.mark.parametrize("golden", PINNED)
def test_stdout_bytes_are_pinned(capsys, monkeypatch, golden):
    # the inputs and the expected stdout are files in tests/golden
    monkeypatch.chdir(GOLDEN)
    code, out, _ = run(capsys, *PINNED[golden].split())
    assert code == 0 and out == (GOLDEN / golden).read_text()


def test_channel_from_kraus(tmp_path, capsys):
    from groupoidqm import fourier_family

    kpath = tmp_path / "kraus.json"
    kpath.write_text(json.dumps(fourier_family(3).to_json()))
    out = tmp_path / "fourier.json"
    code, _, _ = run_json(capsys, "channel", "from-kraus", str(kpath), "-o", str(out))
    assert code == 0
    code, data, _ = run_json(
        capsys, "channel", "check", str(out), "--cp", "--flat-psd", "--unital"
    )
    assert code == 0
    assert data["cp"]["verdict"] and data["unital"]["verdict"]


def test_measure_check_exact_rational(tmp_path, capsys):
    mpath = tmp_path / "m.json"
    w = ("1", "2", "4")
    weights = [f"{w[j]}/{w[k]}" for j in range(3) for k in range(3)]
    mpath.write_text(
        json.dumps({"morphism_weights": weights, "object_weights": ["1", "2", "4"]})
    )
    code, data, _ = run_json(
        capsys, "measure", "--n", "3", "--measure", str(mpath), "--exact", "--tol", "0"
    )
    assert code == 0
    assert data["verdict"] == "haar"


def test_channel_check_transpose_fails_cp(tmp_path, capsys):
    path = tmp_path / "transpose.json"
    path.write_text(json.dumps(transpose_channel(2).to_json()))
    code, data, _ = run_json(capsys, "channel", "check", str(path), "--cp")
    assert code == 1
    assert data["cp"]["verdict"] is False
    assert abs(data["cp"]["min_eigenvalue"] + 1) < 1e-9


def test_channel_from_bisection_and_apply(tmp_path, capsys):
    out = tmp_path / "shift.json"
    code, _, _ = run_json(
        capsys, "channel", "from-bisection", "--perm", "1,2,0", "-o", str(out)
    )
    assert code == 0
    assert out.read_bytes() == (GOLDEN / "from_bisection_120.json").read_bytes()
    code, data, _ = run_json(capsys, "channel", "apply", str(out), "delta:0,1")
    assert code == 0
    values = data["values"]
    assert values[1 * 3 + 2] == [1.0, 0.0]
    assert sum(abs(complex(re, im)) for re, im in values) == 1.0


def test_channel_check_passes_for_bisection(tmp_path, capsys):
    out = tmp_path / "shift.json"
    run_json(capsys, "channel", "from-bisection", "--perm", "1,2,0", "-o", str(out))
    code, data, _ = run_json(
        capsys, "channel", "check", str(out), "--cp", "--flat-psd", "--unital"
    )
    assert code == 0
    assert data["cp"]["verdict"] and data["flat_psd"]["verdict"] and data["unital"]["verdict"]
    # every flat-PSD Gram block equals the Choi matrix, so the first block is named
    assert data["flat_psd"]["block"] == [0, 0]


def test_channel_check_decides_the_choi_matrix_once(tmp_path, capsys, monkeypatch):
    from groupoidqm import eigen

    path = tmp_path / "transpose.json"
    path.write_text(json.dumps(transpose_channel(2).to_json()))
    solves = []
    solve = eigen.hermitian_eigh

    def counted(a, **kwargs):
        solves.append((np.shape(a), "vectors" if kwargs.get("vectors", True) else "values"))
        return solve(a, **kwargs)

    monkeypatch.setattr(eigen, "hermitian_eigh", counted)
    code, data, _ = run_json(capsys, "channel", "check", str(path), "--cp", "--flat-psd")
    assert code == 1
    # is_flat_psd is is_cp, so the flat_psd section reports the same solve;
    # only the printed cp witness reads eigenvectors
    assert solves == [((4, 4), "values"), ((4, 4), "vectors")]
    assert "witness" in data["cp"]
    assert data["flat_psd"]["min_eigenvalue"] == data["cp"]["min_eigenvalue"]
    solves.clear()
    assert run_json(capsys, "channel", "check", str(path), "--flat-psd")[1] == {
        "n": 2, "flat_psd": data["flat_psd"]
    }
    assert solves == [((4, 4), "values")]


def test_passing_checks_solve_no_eigenvectors(tmp_path, capsys, monkeypatch):
    from groupoidqm import eigen, identity_channel

    channel = tmp_path / "identity.json"
    channel.write_text(json.dumps(identity_channel(2).to_json()))
    phi = tmp_path / "phi.json"
    phi.write_text(json.dumps({"values": [[1, 0], [0.5, 0], [0.5, 0], [1, 0]]}))
    vectors = []
    solve = eigen.hermitian_eigh

    def counted(a, **kwargs):
        vectors.append(kwargs.get("vectors", True))
        return solve(a, **kwargs)

    monkeypatch.setattr(eigen, "hermitian_eigh", counted)
    code, data, _ = run_json(capsys, "channel", "check", str(channel), "--cp", "--flat-psd")
    assert code == 0 and "witness" not in data["cp"]
    code, data, _ = run_json(capsys, "algebra", "check-positive", str(phi), "--n", "2")
    assert code == 0 and "witness" not in data
    assert vectors == [False, False]


def test_channel_falsify_requires_seed(tmp_path, capsys):
    path = tmp_path / "transpose.json"
    path.write_text(json.dumps(transpose_channel(2).to_json()))
    code, _, err = run(capsys, "channel", "check", str(path), "--falsify-positivity", "10")
    assert code == 2


def test_channel_falsify_transpose(tmp_path, capsys):
    path = tmp_path / "transpose.json"
    path.write_text(json.dumps(transpose_channel(2).to_json()))
    code, data, _ = run_json(
        capsys,
        "channel", "check", str(path),
        "--falsify-positivity", "20", "--ancilla", "2", "--seed", "42",
    )
    assert code == 1
    assert data["falsifier"]["witness_found"]
    assert data["seed"] == 42


def test_channel_export_choi_csv(tmp_path, capsys):
    kpath = tmp_path / "t.json"
    kpath.write_text(json.dumps(transpose_channel(2).to_json()))
    out = tmp_path / "choi.csv"
    code, data, _ = run_json(
        capsys, "channel", "export", str(kpath), "--as", "choi", "--format", "csv", "-o", str(out)
    )
    assert code == 0
    rows = out.read_text().strip().splitlines()
    assert len(rows) == 4 and all(len(r.split(",")) == 8 for r in rows)


def test_channel_export_roundtrip_json(tmp_path, capsys):
    kpath = tmp_path / "t.json"
    kpath.write_text(json.dumps(transpose_channel(2).to_json()))
    code, data, _ = run_json(capsys, "channel", "export", str(kpath), "--as", "a")
    assert code == 0
    assert data["shape"] == [4, 4]


def test_channel_export_as_b_is_an_alias_of_a(tmp_path, capsys):
    from groupoidqm import random_kraus_channel

    kpath = tmp_path / "k.json"
    kpath.write_text(json.dumps(random_kraus_channel(2, np.random.default_rng(3)).to_json()))
    outputs = {}
    for m in ("a", "b"):
        _, stdout, _ = run(capsys, "channel", "export", str(kpath), "--as", m, "--json")
        csv = tmp_path / f"{m}.csv"
        run(capsys, "channel", "export", str(kpath), "--as", m, "--format", "csv", "-o", str(csv))
        outputs[m] = (stdout, csv.read_bytes())
    assert outputs["a"] == outputs["b"]
    assert len(json.loads(outputs["a"][0])["entries"]) == 16


def test_channel_apply_with_pad(tmp_path, capsys):
    from groupoidqm import identity_channel

    path = tmp_path / "id2.json"
    path.write_text(json.dumps(identity_channel(2).to_json()))
    code, data, _ = run_json(
        capsys, "channel", "apply", str(path), "delta:2,2", "--pad-to", "3"
    )
    assert code == 0
    # the padded identity kills anything supported on the new index
    assert all(v == [0.0, 0.0] for v in data["values"])
    code, data, _ = run_json(
        capsys, "channel", "apply", str(path), "delta:0,1", "--pad-to", "3"
    )
    assert code == 0
    assert data["values"][0 * 3 + 1] == [1.0, 0.0]


def test_examples_fourier_output(capsys):
    code, data, _ = run_json(
        capsys, "examples", "fourier", "--n", "3", "--state", "delta:0,0"
    )
    assert code == 0
    out = data["output"]
    for idx in (0, 4, 8):
        assert abs(out[idx][0] - 1 / 3) < 1e-12
    assert np.allclose(data["tomogram"], [1 / 3] * 3)
    assert data["unital"] is True


def test_examples_shift_output(capsys):
    code, data, _ = run_json(
        capsys, "examples", "shift", "--n", "3", "--state", "delta:0,1"
    )
    assert code == 0
    assert data["output"][1 * 3 + 2] == [1.0, 0.0]


def test_deterministic_output(capsys):
    code, out1, _ = run(capsys, "symmetroid", "check-exchange", "--n", "6", "--json")
    _, out2, _ = run(capsys, "symmetroid", "check-exchange", "--n", "6", "--json")
    assert code == 0 and out1 == out2


def test_bad_input_exits_2(tmp_path, capsys):
    path = tmp_path / "nonsense.json"
    path.write_text("{not json")
    code, _, err = run(capsys, "channel", "check", str(path), "--cp")
    assert code == 2
    assert "error" in err


def test_missing_state_index_exits_2(tmp_path, capsys):
    out = tmp_path / "shift.json"
    run_json(capsys, "channel", "from-bisection", "--perm", "1,2,0", "-o", str(out))
    code, _, err = run(capsys, "channel", "apply", str(out), "delta:0,9")
    assert code == 2


def test_reproduce_writes_reports(tmp_path, capsys):
    code, data, _ = run_json(capsys, "reproduce", "--out", str(tmp_path / "reports"))
    assert code == 0
    assert data["all_pass"] is True
    names = {p.name for p in (tmp_path / "reports").glob("*.json")}
    assert names == {
        "shift_bisection_n3.json",
        "fourier_n3.json",
        "fourier_n4.json",
        "modular_tables.json",
        "summary.json",
    }
    for name in names:
        assert (tmp_path / "reports" / name).read_bytes() == (GOLDEN / name).read_bytes(), name
    shift = json.loads((tmp_path / "reports" / "shift_bisection_n3.json").read_text())
    assert shift["all_basis_exact"] and shift["functor_composition_ok"]
    fourier = json.loads((tmp_path / "reports" / "fourier_n3.json").read_text())
    assert fourier["closed_form_all"] and fourier["fourier_offdiagonal_max"] <= 1e-10


def test_channel_check_wrong_length_is_input_error(tmp_path, capsys):
    path = tmp_path / "short.json"
    path.write_text(json.dumps({"n": 2, "values": [[0.0, 0.0]] * 15}))
    code, out, err = run(capsys, "channel", "check", str(path), "--cp", "--json")
    assert code == 2
    assert out == ""
    assert "error" in json.loads(err)


def test_channel_check_nan_kernel_is_input_error(tmp_path, capsys):
    values = [[0.0, 0.0]] * 16
    values[5] = [float("nan"), 0.0]
    path = tmp_path / "nan.json"
    path.write_text(json.dumps({"n": 2, "values": values}))
    code, out, err = run(capsys, "channel", "check", str(path), "--cp", "--flat-psd", "--json")
    assert code == 2
    assert out == ""
    assert "error" in json.loads(err)


@pytest.mark.parametrize(
    "data,argv",
    [
        ({"n": 1, "values": [[10**400, 0]]}, ["channel", "apply", "{}", "units"]),
        ({"n": 1, "members": [{"values": [[0, -(10**400)]]}]}, ["channel", "from-kraus", "{}"]),
        ({"values": [[10**400, 0]]}, ["algebra", "check-positive", "{}", "--n", "1"]),
    ],
    ids=["kernel", "kraus", "function"],
)
def test_huge_integer_is_input_error(tmp_path, capsys, data, argv):
    # an integer too large for a float in a [re, im] pair
    path = tmp_path / "big.json"
    path.write_text(json.dumps(data))
    code, out, err = run(capsys, *(a.format(path) for a in argv))
    assert code == 2
    assert out == ""
    assert "error" in json.loads(err)


@pytest.mark.parametrize("pair", [[True, False], [1, False]])
def test_boolean_value_is_input_error(tmp_path, capsys, pair):
    path = tmp_path / "bool.json"
    path.write_text(json.dumps({"values": [pair]}))
    code, out, err = run(capsys, "algebra", "check-positive", str(path), "--n", "1")
    assert code == 2
    assert out == ""
    assert "error" in json.loads(err)


def test_overflowing_output_is_input_error_not_nan_json(tmp_path, capsys):
    # finite Kraus entries whose products overflow: the kernel holds inf
    kpath = tmp_path / "k.json"
    kpath.write_text(json.dumps({"n": 1, "members": [{"values": [[1e200, 0.0]]}]}))
    code, out, err = run(capsys, "channel", "from-kraus", str(kpath), "--json")
    assert code == 2
    assert "NaN" not in out and "Infinity" not in out
    assert "error" in json.loads(err)
    out_path = tmp_path / "c.json"
    code, _, _ = run(capsys, "channel", "from-kraus", str(kpath), "-o", str(out_path), "--json")
    assert code == 2
    assert not out_path.exists()


def assert_input_error(code, out, err):
    assert code == 2
    assert out == ""
    assert "Traceback" not in err
    assert "error" in json.loads(err)


@pytest.mark.parametrize(
    "weights, exact",
    [
        ([1, 1, 1], False),  # wrong length: a pair groupoid on 2 points has 4 morphisms
        ([1, -1, 1, 1], False),
        ([1, "abc", 1, 1], False),
        ([1, "abc", 1, 1], True),
        ([1, 1e400, 1, 1], False),  # parses as inf
    ],
)
def test_measure_malformed_weights_are_input_errors(tmp_path, capsys, weights, exact):
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"morphism_weights": weights}).replace("Infinity", "1e400"))
    argv = ["measure", "--n", "2", "--measure", str(path), "--json"]
    code, out, err = run(capsys, *argv, *(["--exact"] if exact else []))
    assert_input_error(code, out, err)


def test_measure_wrong_object_weight_count_is_input_error(tmp_path, capsys):
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"morphism_weights": [1] * 4, "object_weights": [1, 1, 1]}))
    code, out, err = run(capsys, "measure", "--n", "2", "--measure", str(path), "--json")
    assert_input_error(code, out, err)


@pytest.mark.parametrize("n_objects", [0, "x"])
def test_groupoid_validate_bad_object_count_is_input_error(tmp_path, capsys, n_objects):
    data = pair_groupoid(2).to_json()
    data["n_objects"] = n_objects
    path = tmp_path / "g.json"
    path.write_text(json.dumps(data))
    code, out, err = run(capsys, "groupoid", "validate", str(path), "--json")
    assert_input_error(code, out, err)


def _set_morphism(i, key, value):
    return lambda d: d["morphisms"][i].__setitem__(key, value)


@pytest.mark.parametrize(
    "edit",
    [
        _set_morphism(1, "src", "a"),
        lambda d: d["compose"][0].__setitem__(2, 0.0),
        lambda d: d["inverse"].__setitem__(1, 2.7),  # was truncated to 2 and validated
        _set_morphism(3, "id", -1),  # was written to the last slot and validated
        _set_morphism(3, "id", 2),  # a duplicate id
        lambda d: d["units"].__setitem__(1, True),
        lambda d: d["compose"][0].pop(),  # not a triple
        lambda d: d["inverse"].pop(),
        lambda d: d["units"].append(0),
    ],
    ids=[
        "src-string", "compose-float", "inverse-float", "negative-id", "duplicate-id",
        "unit-bool", "compose-pair", "short-inverse", "long-units",
    ],
)
def test_groupoid_validate_malformed_table_is_input_error(tmp_path, capsys, edit):
    data = pair_groupoid(2).to_json()
    edit(data)
    path = tmp_path / "g.json"
    path.write_text(json.dumps(data))
    code, out, err = run(capsys, "groupoid", "validate", str(path), "--json")
    assert_input_error(code, out, err)


@pytest.mark.parametrize("key, value", [("src", 5), ("tgt", -1)])
def test_groupoid_validate_out_of_range_endpoint_is_invalid(tmp_path, capsys, key, value):
    data = pair_groupoid(2).to_json()
    data["morphisms"][1][key] = value
    path = tmp_path / "g.json"
    path.write_text(json.dumps(data))
    code, out, err = run(capsys, "groupoid", "validate", str(path), "--json")
    assert code == 1
    assert "Traceback" not in err
    payload = json.loads(out)
    assert payload["verdict"] == "invalid"
    assert [v["kind"] for v in payload["violations"]["violations"]] == ["index-range"]


def test_measure_non_multiplicative_modular_message(tmp_path, capsys):
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"morphism_weights": list(range(1, 10))}))
    for exact in ([], ["--exact"]):
        code, data, _ = run_json(capsys, "measure", "--n", "3", "--measure", str(path), *exact)
        assert code == 1
        assert data["verdict"] == "not-haar"
        assert data["modular"] == {
            "ok": False,
            "error": "modular function is not multiplicative on (m6:0->2, m1:1->0): "
            "defect 1.667e-01",
        }


def _flag_inputs(tmp_path):
    """A non-Haar measure and a function on pair_groupoid(2), and a channel."""
    (tmp_path / "m.json").write_text(json.dumps({"morphism_weights": [1, 2, 3, 1]}))
    (tmp_path / "f.json").write_text(json.dumps({"values": [[1, 0]] * 4}))
    main(["channel", "from-bisection", "--perm", "1,0", "-o", str(tmp_path / "ch.json")])


@pytest.mark.parametrize(
    "argv",
    [
        ["measure", "--n", "2", "--measure", "m.json", "--tol", "nan"],
        ["measure", "--n", "2", "--measure", "m.json", "--tol", "inf"],
        ["measure", "--n", "2", "--tol", "-1"],
        ["groupoid", "make-pair", "--n", "-1"],
        ["measure", "--n", "-1"],
        ["algebra", "convolve", "f.json", "f.json", "--n", "-1"],
        ["algebra", "check-positive", "f.json", "--n", "0"],
        ["symmetroid", "enumerate", "--n", "0"],
        ["examples", "fourier", "--n", "0"],
        ["symmetroid", "check-exchange", "--n", "0"],
        ["channel", "check", "ch.json", "--falsify-positivity", "0", "--seed", "1"],
        ["channel", "check", "ch.json", "--falsify-positivity", "3", "--ancilla", "-2", "--seed", "1"],
        ["channel", "apply", "ch.json", "delta:0,0", "--pad-to", "0"],
        ["symmetroid", "flat-bisections", "--n", "-2"],
        ["channel", "check", "ch.json", "--falsify-positivity", "2", "--seed", "-3"],
    ],
)
def test_numeric_flags_out_of_range_are_input_errors(tmp_path, capsys, monkeypatch, argv):
    _flag_inputs(tmp_path)
    monkeypatch.chdir(tmp_path)
    capsys.readouterr()
    code, out, err = run(capsys, *argv, "--json")
    assert_input_error(code, out, err)


def test_tol_zero_stays_valid(capsys):
    code, data, _ = run_json(capsys, "measure", "--n", "2", "--tol", "0")
    assert code == 0 and data["verdict"] == "haar"


@pytest.mark.parametrize(
    "argv",
    [
        ["groupoid", "make-pair"],
        ["groupoid", "product", "g.json"],
        ["groupoid", "validate"],
        ["algebra", "convolve", "f.json", "--n", "2"],
        ["channel", "from-kraus"],
        ["channel", "apply"],
        ["channel", "apply", "ch.json"],
        ["channel", "check"],
        ["channel", "export"],
        ["channel", "from-bisection"],
        ["channel", "from-bisection", "--perm", "a,b"],
    ],
)
def test_missing_inputs_are_input_errors(tmp_path, capsys, monkeypatch, argv):
    _flag_inputs(tmp_path)
    main(["groupoid", "make-pair", "--n", "2", "-o", str(tmp_path / "g.json")])
    monkeypatch.chdir(tmp_path)
    capsys.readouterr()
    code, out, err = run(capsys, *argv, "--json")
    assert_input_error(code, out, err)


def test_falsifier_witness_without_eigenvalue_is_a_failed_check(tmp_path, capsys):
    # ψ -> iψ: the output of a positive state is not Hermitian, so its
    # positive-type verdict fails with no eigenvalue
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"n": 1, "values": [[0.0, 1.0]]}))
    argv = ["channel", "check", str(path), "--falsify-positivity", "1", "--seed", "0"]
    code, data, _ = run_json(capsys, *argv)
    assert code == 1
    assert data["falsifier"]["witness_found"] and data["falsifier"]["min_eigenvalue"] is None
    code, out, _ = run(capsys, *argv)
    assert code == 1 and out.splitlines()[2].startswith("falsifier: ")


@pytest.mark.parametrize(
    "anywhere, last",
    [
        (
            ["channel", "check", "--cp", "ch.json", "--json"],
            ["channel", "check", "ch.json", "--cp", "--json"],
        ),
        (
            ["channel", "apply", "ch.json", "--pad-to", "2", "delta:0,0"],
            ["channel", "apply", "ch.json", "delta:0,0", "--pad-to", "2"],
        ),
        (
            ["channel", "apply", "--pad-to", "2", "ch.json", "delta:0,0"],
            ["channel", "apply", "ch.json", "delta:0,0", "--pad-to", "2"],
        ),
        (
            ["algebra", "convolve", "f.json", "--n", "2", "f.json"],
            ["algebra", "convolve", "f.json", "f.json", "--n", "2"],
        ),
        (
            ["groupoid", "product", "--json", "g.json", "g.json"],
            ["groupoid", "product", "g.json", "g.json", "--json"],
        ),
    ],
)
def test_options_may_sit_between_inputs(tmp_path, capsys, monkeypatch, anywhere, last):
    _flag_inputs(tmp_path)
    main(["groupoid", "make-pair", "--n", "2", "-o", str(tmp_path / "g.json")])
    monkeypatch.chdir(tmp_path)
    capsys.readouterr()
    expected = run(capsys, *last)
    assert run(capsys, *anywhere) == expected
    assert expected[1] and not expected[2]


@pytest.mark.parametrize(
    "argv",
    [
        ["channel", "check", "ch.json", "--bogus"],
        ["channel", "check", "--bogus", "ch.json"],
        ["measure", "--n", "2", "extra"],
        ["symmetroid", "enumerate", "--n", "2", "extra"],
    ],
)
def test_stray_arguments_are_usage_errors(tmp_path, capsys, monkeypatch, argv):
    _flag_inputs(tmp_path)
    monkeypatch.chdir(tmp_path)
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert "unrecognized arguments" in captured.err and not captured.out


def test_parser_is_built_once():
    assert build_parser() is build_parser()


def _record_parses(monkeypatch):
    """The inputs and check flags of every parse that reaches the action."""
    parses = []
    check_args = cli._check_args

    def record(args):
        parses.append((list(args.inputs), args.cp, args.unital))
        check_args(args)

    monkeypatch.setattr(cli, "_check_args", record)
    return parses


def test_reused_parser_keeps_no_state_between_calls(tmp_path, capsys, monkeypatch):
    _flag_inputs(tmp_path)
    monkeypatch.chdir(tmp_path)
    capsys.readouterr()
    fresh = run(capsys, "channel", "check", "ch.json", "--json")
    parses = _record_parses(monkeypatch)
    # inputs after an option are leftovers that join this call's inputs list
    code, _, _ = run(capsys, "channel", "check", "--cp", "ch.json", "extra.json", "--json")
    assert code == 0
    assert run(capsys, "channel", "check", "ch.json", "--json") == fresh
    assert parses == [(["ch.json", "extra.json"], True, False), (["ch.json"], False, False)]


def test_usage_error_leaves_the_next_parse_unchanged(tmp_path, capsys, monkeypatch):
    _flag_inputs(tmp_path)
    monkeypatch.chdir(tmp_path)
    capsys.readouterr()
    argv = ["channel", "check", "ch.json", "--unital", "--json"]
    before = run(capsys, *argv)
    parses = _record_parses(monkeypatch)
    with pytest.raises(SystemExit) as exc:
        main(["channel", "check", "ch.json", "--cp", "more.json", "--bogus"])
    assert exc.value.code == 2
    capsys.readouterr()
    assert run(capsys, *argv) == before
    assert parses == [(["ch.json"], False, True)]
