"""Checks of the benchmark itself: deterministic inputs and its metric names.

Run from the repository root:

    python3 -m pytest perfbench -q
"""

import json
import sys
import time
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import probe  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
from workloads import WORKLOADS, CliPipeline  # noqa: E402

# Seed kept out of all tuning, for a later change's second-seed check.
HELD_OUT_SEED = 104729


def _draw_bytes(name: str, seed: int, i: int) -> dict[str, bytes]:
    raw = WORKLOADS[name](seed, Path(".")).draw(i)
    return {key: np.ascontiguousarray(value).tobytes() for key, value in raw.items()}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_gives_identical_input_arrays(name):
    for i in (0, 1, 57):
        assert _draw_bytes(name, 3, i) == _draw_bytes(name, 3, i)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_other_seed_or_op_gives_other_input_arrays(name):
    first = _draw_bytes(name, 3, 1)
    assert _draw_bytes(name, 4, 1) != first
    assert _draw_bytes(name, 3, 2) != first
    assert _draw_bytes(name, HELD_OUT_SEED, 1) != first


def _cli_files(seed: int, workdir: Path) -> dict[str, bytes]:
    workdir.mkdir()
    wl = CliPipeline(seed, workdir)
    wl.setup()
    return {p.name: p.read_bytes() for p in sorted(workdir.iterdir())}


def test_cli_input_files_are_byte_identical_for_a_seed(tmp_path):
    a = _cli_files(5, tmp_path / "a")
    b = _cli_files(5, tmp_path / "b")
    c = _cli_files(6, tmp_path / "c")
    assert len(a) == CliPipeline.POOL
    assert a == b
    assert a.keys() == c.keys() and all(a[k] != c[k] for k in a)


def test_metric_names_match_benchmark_json():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END.items())
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(
        spans.LAYER_METRICS
    )
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(WORKLOADS)


def test_tracer_wraps_every_binding_and_restores_them():
    import groupoidqm
    from groupoidqm import algebra, channels, eigen

    original = eigen.hermitian_eigh
    channel = channels.identity_channel(2)
    tracer = spans.Tracer()
    tracer.install()
    try:
        for namespace in (eigen, algebra, channels, groupoidqm):
            assert namespace.hermitian_eigh is not original
            assert namespace.hermitian_eigh.__wrapped__ is original
        tracer.op = 0
        channels.is_cp(channel)
        tracer.op = None
    finally:
        tracer.uninstall()
    assert channels.hermitian_eigh is original
    names = [span[1] for span in tracer.spans]
    assert names == ["channels.is_cp", "channels.to_choi", "eigen.hermitian_eigh"]
    assert [span[4] for span in tracer.spans] == [-1, 0, 0]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_an_op_of_each_workload_passes_its_oracle(name, tmp_path):
    wl = WORKLOADS[name](HELD_OUT_SEED, tmp_path)
    wl.setup()
    x = wl.prepare(1)
    assert wl.check(x, wl.op(x)) == []


def test_loop_gauges_every_passing_op_with_the_probe(tmp_path):
    runner = run.set_up(WORKLOADS, "cli_pipeline", HELD_OUT_SEED, tmp_path)
    untraced, traced, local_probe = runner.loop(0, 3, time.monotonic() + 60)
    assert len(untraced) == 3 and not traced
    assert local_probe.keys() == untraced.keys()
    assert all(p > 0 for p in local_probe.values())


def test_calibration_is_the_identity_at_the_reference_speed():
    assert probe.calibrated(0.25, probe.REFERENCE_MS / 1e3) == pytest.approx(0.25)
    assert probe.calibrated(0.25, 2 * probe.REFERENCE_MS / 1e3) == pytest.approx(0.125)
