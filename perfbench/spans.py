"""Spans around the package's public functions, for the traced run.

``Tracer.install`` rebinds every binding of each traced function object in
every ``groupoidqm.*`` namespace, because modules import each other's
functions by name (``channels`` calls its own binding of ``hermitian_eigh``).
A class is traced through its ``__init__``.  Spans are recorded only while
an op is running and stay in memory until the run writes them out.

Wrapping stops at public functions: per-element helpers such as
``q_horizontal_compose`` run ~10⁵ times per op and would swamp the timings.
"""

from __future__ import annotations

import functools
import gc
import json
import statistics
import sys
from collections import defaultdict
from time import perf_counter

# The public functions that get a span, by module.
TRACED = {
    "groupoid": ("pair_groupoid", "validate"),
    "measure": (
        "weighted_pair_measure",
        "verify_left_invariance",
        "verify_inverse_relation",
        "verify_disintegration",
        "modular",
    ),
    "symmetroid": ("Symmetroid", "enumerate_quotient"),
    "algebra": ("convolve", "involute", "left_regular_matrix", "is_positive_type"),
    "symalgebra": (
        "induce_measure",
        "verify_induced_equivariance",
        "verify_modular_formula",
        "verify_modular_homomorphism",
        "convolve_S",
        "rep_operator",
    ),
    "channels": (
        "to_choi",
        "is_cp",
        "is_flat_psd",
        "from_kraus",
        "apply",
        "extend_with_identity",
        "positivity_falsifier",
        "is_unital",
        "load_channel",
        "load_kraus",
    ),
    "eigen": ("hermitian_eigh",),
    "cli": ("main",),
}


def _checks(args, result):
    return result.checks


# A per-call number recorded on the span: the matrix order of an eigensolve,
# the checks of a report, or the Gram blocks a PSD check builds.
SPAN_INFO = {
    "eigen.hermitian_eigh": lambda args, result: len(args[0]),
    "groupoid.validate": _checks,
    "symalgebra.verify_induced_equivariance": _checks,
    "symalgebra.verify_modular_homomorphism": _checks,
    "channels.is_flat_psd": lambda args, result: args[0].n ** 2,
    "algebra.is_positive_type": lambda args, result: args[0].groupoid.n_objects,
}

# Per-layer metrics: (name, unit, better).  Each is a per-op value, reported
# as the median over the traced ops.
SELF_MS = (
    "eigen.hermitian_eigh",
    "channels.is_flat_psd",
    "channels.is_cp",
    "channels.to_choi",
    "channels.from_kraus",
    "channels.apply",
    "channels.extend_with_identity",
    "channels.positivity_falsifier",
    "channels.is_unital",
    "channels.load_channel",
    "channels.load_kraus",
    "cli.main",
    "algebra.is_positive_type",
    "algebra.convolve",
    "algebra.involute",
    "algebra.left_regular_matrix",
    "symalgebra.induce_measure",
    "symalgebra.verify_induced_equivariance",
    "symalgebra.verify_modular_formula",
    "symalgebra.verify_modular_homomorphism",
    "symalgebra.convolve_S",
    "symalgebra.rep_operator",
    "symmetroid.Symmetroid",
    "groupoid.pair_groupoid",
    "groupoid.validate",
    "measure.weighted_pair_measure",
    "measure.verify_left_invariance",
    "measure.verify_disintegration",
    "measure.modular",
)
CALLS = (
    "eigen.hermitian_eigh",
    "channels.apply",
    "cli.main",
    "algebra.is_positive_type",
    "algebra.convolve",
    "symalgebra.convolve_S",
    "symmetroid.enumerate_quotient",
)
CHECKS = (
    "groupoid.validate",
    "symalgebra.verify_induced_equivariance",
    "symalgebra.verify_modular_homomorphism",
)
EIGH_PER_CALL = ("channels.is_flat_psd", "algebra.is_positive_type")

LAYER_METRICS = (
    [(f"{f}.calls", "count", "lower") for f in CALLS]
    + [(f"{f}.self_ms", "ms", "lower") for f in SELF_MS]
    + [("eigen.hermitian_eigh.dim_max", "rows", "lower")]
    + [(f"{f}.eigh_per_call", "ratio", "higher") for f in EIGH_PER_CALL]
    + [(f"{f}.checks", "count", "higher") for f in CHECKS]
    + [(f"{m}.share", "ratio", "lower") for m in TRACED]
    + [
        ("cli.stdout_bytes", "bytes", "lower"),
        ("bench.unattributed_ms", "ms", "lower"),
        ("runtime.gc_ms", "ms", "lower"),
        ("runtime.gc_collections", "count", "lower"),
        ("bench.trace_overhead", "ratio", "higher"),
        ("machine.probe_ms.before", "ms", "lower"),
        ("machine.probe_ms.after", "ms", "lower"),
    ]
)


class Tracer:
    """Records spans [op, name, start, end, parent, info] and GC pauses per op."""

    def __init__(self):
        self.spans: list[list] = []
        self.op: int | None = None
        self.gc_s: dict[int, float] = defaultdict(float)
        self.gc_collections: dict[int, int] = defaultdict(int)
        self._stack: list[int] = []
        self._gc_start = 0.0
        self._restore: list[tuple] = []

    def _wrap(self, name: str, fn):
        spans, stack, info = self.spans, self._stack, SPAN_INFO.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            op = self.op
            if op is None:
                return fn(*args, **kwargs)
            span = [op, name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            span[2] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = perf_counter()
                stack.pop()
            if info is not None:
                span[5] = info(args, result)
            return result

        return traced

    def install(self) -> None:
        wrappers = {}
        for module, names in TRACED.items():
            mod = sys.modules[f"groupoidqm.{module}"]
            for attr in names:
                obj = getattr(mod, attr)
                if isinstance(obj, type):
                    self._restore.append((obj, "__init__", obj.__init__))
                    obj.__init__ = self._wrap(f"{module}.{attr}", obj.__init__)
                else:
                    wrappers[id(obj)] = (obj, self._wrap(f"{module}.{attr}", obj))
        for modname, mod in list(sys.modules.items()):
            if modname != "groupoidqm" and not modname.startswith("groupoidqm."):
                continue
            for attr, value in list(vars(mod).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._restore.append((mod, attr, value))
                    setattr(mod, attr, hit[1])
        gc.callbacks.append(self._on_gc)

    def uninstall(self) -> None:
        gc.callbacks.remove(self._on_gc)
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()

    def _on_gc(self, phase: str, info: dict) -> None:
        if self.op is None:
            return
        if phase == "start":
            self._gc_start = perf_counter()
        else:
            self.gc_s[self.op] += perf_counter() - self._gc_start
            self.gc_collections[self.op] += 1

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def _op_values(spans: list[list], child_s: list[float], ks: list[int], op_s: float) -> dict:
    """Every per-layer value of one op from its spans ``spans[k] for k in ks``."""
    calls: dict[str, int] = defaultdict(int)
    self_s: dict[str, float] = defaultdict(float)
    info: dict[str, list] = defaultdict(list)
    eigh_children: dict[str, int] = defaultdict(int)
    top_s = 0.0
    for k in ks:
        _, name, start, end, parent, extra = spans[k]
        calls[name] += 1
        self_s[name] += end - start - child_s[k]
        if extra is not None:
            info[name].append(extra)
        if parent < 0:
            top_s += end - start
        elif name == "eigen.hermitian_eigh":
            eigh_children[spans[parent][1]] += 1
    values = {f"{f}.calls": calls[f] for f in CALLS}
    values.update({f"{f}.self_ms": self_s[f] * 1e3 for f in SELF_MS})
    values["eigen.hermitian_eigh.dim_max"] = max(info["eigen.hermitian_eigh"], default=0)
    for f in EIGH_PER_CALL:
        blocks = sum(info[f])
        values[f"{f}.eigh_per_call"] = eigh_children[f] / blocks if blocks else 0.0
    values.update({f"{f}.checks": sum(info[f]) for f in CHECKS})
    for module in TRACED:
        module_s = sum(s for name, s in self_s.items() if name.startswith(f"{module}."))
        values[f"{module}.share"] = module_s / op_s
    values["bench.unattributed_ms"] = (op_s - top_s) * 1e3
    return values


def layer_metrics(tracer: Tracer, op_seconds: dict[int, float]) -> dict[str, float]:
    """Medians over the traced ops of every span-derived per-layer value."""
    spans = tracer.spans
    child_s = [0.0] * len(spans)
    by_op: dict[int, list[int]] = defaultdict(list)
    for k, span in enumerate(spans):
        by_op[span[0]].append(k)
        if span[4] >= 0:
            child_s[span[4]] += span[3] - span[2]
    per_op = []
    for op, op_s in op_seconds.items():
        values = _op_values(spans, child_s, by_op[op], op_s)
        values["runtime.gc_ms"] = tracer.gc_s.get(op, 0.0) * 1e3
        values["runtime.gc_collections"] = tracer.gc_collections.get(op, 0)
        per_op.append(values)
    return {key: statistics.median(v[key] for v in per_op) for key in per_op[0]}
