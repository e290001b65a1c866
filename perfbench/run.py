"""Benchmark for groupoidqm: three closed-loop workloads, one client each.

Run from the repository root:

    python3 perfbench/run.py --workload verdicts_dense --seed 1 --seconds 30 --trace 0

The package is imported from ``src/`` of the current directory.  One process
runs one workload with one thread.  The run does its own set-up and one
warm-up op, then runs ops back to back for ``--seconds`` and checks every
op's output against an oracle outside the timed intervals.  Set-up time is
measured in fresh child processes, half before the timed loop and half
after it.  With ``--trace 1`` odd ops run traced
and even ops untraced; the per-layer metrics come from the traced ops and
``bench.trace_overhead`` compares the two kinds.  End-to-end metrics come
only from runs with ``--trace 0``.

Op latencies and set-up times are calibrated: each is divided by the time of
a fixed probe (``probe.py``) measured around it, and scaled to the probe's
reference time.  The raw wall-clock values are kept in the metadata line.

The last line of stdout is the result object; the line before it holds the
run's metadata.  Spans of a traced run are written to
``.bench_build/perfbench/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

import probe
import spans

# One client, one thread: keep BLAS from starting worker threads.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path.cwd()
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_build" / "perfbench"

MIN_OPS = 100  # so that the p90 in the metadata has at least ten samples beyond it
# Set-up is sampled in fresh processes, half before the timed loop and half
# after it, so that the median sees the same drift of machine speed as the ops.
SETUP_SAMPLES = 8
HARD_STOP_S = 150.0  # the run ends by then even if MIN_OPS is not reached
PROBE_REPS = 21  # probes in machine.probe_ms before and after the run
# Probes a set-up child makes once it is ready, after one it discards.
SETUP_PROBES = 5

# The host's speed switches between two levels, about 1.8x apart, for
# seconds to minutes at a time, so every timing is calibrated by the probe.
END_TO_END = {
    "setup_s": "s",
    "ops_per_s_cal": "1/s",
    "op_p50_ms_cal": "ms",
    "peak_rss_mb": "MB",
}


def _git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_file = ROOT / ".git" / ref[5:]
    if ref_file.is_file():
        return ref_file.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def _source_digest() -> str:
    """SHA-256 over the package sources: identifies the code where .git is absent."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "groupoidqm").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


def run_metadata(args) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas")
    except TypeError:  # numpy < 1.26 has no dict mode
        blas = None
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "git_commit": _git_commit(),
        "source_sha256": _source_digest(),
    }


def import_package():
    """Import groupoidqm from ./src, and refuse any other copy."""
    if not (SRC / "groupoidqm" / "__init__.py").is_file():
        raise SystemExit(f"error: no src/groupoidqm under {ROOT}; run from the repository root")
    sys.path.insert(0, str(SRC))
    import groupoidqm

    if not Path(groupoidqm.__file__).resolve().is_relative_to(SRC.resolve()):
        raise SystemExit(f"error: imported groupoidqm from {groupoidqm.__file__}, not {SRC}")
    from workloads import WORKLOADS

    return WORKLOADS


class Runner:
    """Runs one workload's ops in order and keeps their latencies and failures."""

    def __init__(self, workload):
        self.wl = workload
        self.attempted = 0  # also the index of the next op
        self.failed = 0
        self.errors: list[str] = []
        self.stdout_bytes: dict[int, int] = {}

    def run_op(self, tracer=None) -> float | None:
        """Prepare, time and check the next op; return its seconds, or None if it failed."""
        i = self.attempted
        x = self.wl.prepare(i)
        self.attempted += 1
        if tracer is not None:
            tracer.op = i
        t0 = time.perf_counter()
        try:
            out = self.wl.op(x)
        except Exception:
            elapsed = None
            errors = [traceback.format_exc(limit=3)]
        else:
            elapsed = time.perf_counter() - t0
            errors = []
        finally:
            if tracer is not None:
                tracer.op = None
        if elapsed is not None:
            errors = self.wl.check(x, out)
            if hasattr(self.wl, "stdout_bytes"):
                self.stdout_bytes[i] = self.wl.stdout_bytes(out)
        if errors:
            self.failed += 1
            self.errors.extend(f"op {i}: {e}" for e in errors)
            return None
        return elapsed

    def loop(self, seconds: float, min_ops: int, hard_stop: float, tracer=None):
        """Closed loop of ops, with a probe before the first op and after each op.

        Returns {op: seconds} of the passing untraced ops, the same of the
        passing traced ops, and {op: probe seconds} of every passing op: the
        mean of the probes just before and just after it.  With a tracer,
        odd ops run traced and even ops untraced, so that both kinds see the
        same drift of machine speed.
        """
        probes = [probe.probe_s()]
        order: list[tuple[int, float | None, bool]] = []
        start = time.monotonic()
        while True:
            now = time.monotonic()
            if now >= hard_stop or (now - start >= seconds and len(order) >= min_ops):
                break
            i = self.attempted
            trace_this = tracer is not None and i % 2 == 1
            if trace_this:
                tracer.install()
            elapsed = self.run_op(tracer if trace_this else None)
            if trace_this:
                tracer.uninstall()
            probes.append(probe.probe_s())
            order.append((i, elapsed, trace_this))

        untraced: dict[int, float] = {}
        traced: dict[int, float] = {}
        local_probe: dict[int, float] = {}
        for j, (i, elapsed, trace_this) in enumerate(order):
            if elapsed is None:
                continue
            (traced if trace_this else untraced)[i] = elapsed
            # Op j ran between probes j and j + 1.
            local_probe[i] = (probes[j] + probes[j + 1]) / 2
        return untraced, traced, local_probe


def set_up(workloads, name: str, seed: int, workdir: Path):
    wl = workloads[name](seed, workdir)
    wl.setup()
    runner = Runner(wl)
    runner.run_op()  # warm-up op 0, checked like every other
    return runner


def setup_probe(args) -> int:
    """Child process: import, set up, warm up, then report the monotonic clock.

    Then it gauges the machine's speed with probes, which the parent does not
    count as set-up time.  The first probe is discarded: it pays for first
    calls, such as numpy's first ``eigh``.
    """
    workloads = import_package()
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"setup-{args.workload}-", dir=OUT_DIR))
    try:
        runner = set_up(workloads, args.workload, args.seed, workdir)
        ready = time.monotonic()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    probe.probe_s()
    probe_s = statistics.median(probe.probe_s() for _ in range(SETUP_PROBES))
    print(json.dumps({"ready": ready, "failed": runner.failed, "probe_s": probe_s}))
    return 0


def measure_setup(args, samples: int) -> list[tuple[float, float]]:
    """Per sample, seconds from spawning a fresh process to its first timed op,
    and the median probe seconds the child measured once it was ready.

    CLOCK_MONOTONIC is shared by all processes, so the child's clock reading
    is comparable with the parent's.
    """
    cmd = [
        sys.executable, str(Path(__file__).resolve()), "--setup-probe",
        "--workload", args.workload, "--seed", str(args.seed),
    ]
    measured = []
    for _ in range(samples):
        t0 = time.monotonic()
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=60)
        if proc.returncode != 0:
            raise SystemExit(f"error: set-up probe failed:\n{proc.stderr}")
        reply = json.loads(proc.stdout.strip().splitlines()[-1])
        if reply["failed"]:
            raise SystemExit("error: the warm-up op failed in a set-up probe")
        measured.append((reply["ready"] - t0, reply["probe_s"]))
    return measured


def percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def end_to_end(lat: list[float], setup: list[tuple[float, float]]) -> dict[str, float]:
    """The end-to-end metrics from ascending calibrated op seconds and the set-up samples."""
    return {
        "setup_s": statistics.median(probe.calibrated(s, p) for s, p in setup),
        "ops_per_s_cal": len(lat) / sum(lat),
        "op_p50_ms_cal": percentile(lat, 0.5) * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)

    if args.setup_probe:
        return setup_probe(args)

    process_start = time.monotonic()
    workloads = import_package()
    if args.workload not in workloads:
        p.error(f"unknown workload {args.workload!r}; choose from {sorted(workloads)}")
    meta = run_metadata(args)
    meta["machine.probe_ms.before"] = probe.probe_ms(PROBE_REPS)
    setup = measure_setup(args, SETUP_SAMPLES // 2) if not args.trace else []

    OUT_DIR.mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"run-{args.workload}-", dir=OUT_DIR))
    try:
        runner = set_up(workloads, args.workload, args.seed, workdir)
        hard_stop = process_start + HARD_STOP_S
        tracer = spans.Tracer() if args.trace else None
        untraced, traced, local_probe = runner.loop(args.seconds, MIN_OPS, hard_stop, tracer)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if not args.trace:
        setup += measure_setup(args, SETUP_SAMPLES - SETUP_SAMPLES // 2)
        meta["setup_samples_s"] = [s for s, _ in setup]
        meta["setup_probe_ms"] = [p * 1e3 for _, p in setup]
    meta["machine.probe_ms.after"] = probe.probe_ms(PROBE_REPS)

    meta["ops"] = len(untraced)
    if untraced:
        lat = sorted(untraced.values())
        meta["ops_per_s"] = len(lat) / sum(lat)
        meta["op_ms"] = {
            f"p{q}": percentile(lat, q / 100) * 1e3 for q in (0, 10, 25, 50, 75, 90, 100)
        }
        cal = sorted(probe.calibrated(t, local_probe[i]) for i, t in untraced.items())
        meta["op_cal_ms"] = {
            f"p{q}": percentile(cal, q / 100) * 1e3 for q in (0, 10, 25, 50, 75, 90, 100)
        }
        meta["op_probe_ms"] = statistics.median(local_probe[i] for i in untraced) * 1e3
    if runner.errors:
        meta["errors"] = runner.errors[:20]
    if args.trace:
        if not untraced or not traced:
            raise SystemExit("error: no passing ops to derive per-layer metrics from")
        values = spans.layer_metrics(tracer, traced)
        bytes_per_op = [runner.stdout_bytes[i] for i in traced if i in runner.stdout_bytes]
        values["cli.stdout_bytes"] = statistics.median(bytes_per_op) if bytes_per_op else 0
        traced_rate = len(traced) / sum(traced.values())
        values["bench.trace_overhead"] = traced_rate / meta["ops_per_s"]
        values["machine.probe_ms.before"] = meta["machine.probe_ms.before"]
        values["machine.probe_ms.after"] = meta["machine.probe_ms.after"]
        meta["traced_ops"] = len(traced)
        spans_path = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl"
        tracer.write(spans_path)
        meta["spans_file"] = str(spans_path.relative_to(ROOT))
        metrics = {
            name: {"value": values[name], "unit": unit} for name, unit, _ in spans.LAYER_METRICS
        }
    else:
        if not untraced:
            raise SystemExit("error: no op passed, so there is no latency to report")
        values = end_to_end(cal, setup)
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}

    print(json.dumps({"meta": meta}))
    print(
        json.dumps(
            {
                "correct": runner.failed == 0,
                "attempted": runner.attempted,
                "failed": runner.failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
