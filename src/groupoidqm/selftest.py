"""Built-in structural checks, among them the exchange identity decided
exactly at every n, and the worked-example report generator."""

from __future__ import annotations

import functools
import json
from pathlib import Path

import numpy as np

from . import channels as ch
from .algebra import AlgebraElement, convolve, involute
from .groupoid import pair_groupoid, pair_index
from .measure import GroupoidMeasure, weighted_pair_measure
from .symmetroid import (
    QClass,
    Symmetroid,
    flat_bisection_product,
    flat_bisections,
    q_horizontal_compose,
    q_vertical_compose,
    shift_bisection,
)
from .symalgebra import induce_measure


def _exchange_quadruple(free: tuple[int, ...]) -> tuple[QClass, QClass, QClass, QClass]:
    """Build an admissible exchange quadruple from nine free object indices.

    The constraints (horizontal composability of the bottom and top rows,
    vertical composability of the two columns) leave exactly nine free
    choices; every admissible quadruple arises from exactly one choice.
    """
    z1, y1, x1, w1, z2, y2, zp1, wp1, zp2 = free
    g1 = QClass(z1, y1, x1, w1)
    g2 = QClass(z2, y2, y1, z1)                  # x2 = y1, w2 = z1
    gp1 = QClass(zp1, z1, w1, wp1)               # y'1 = z1, x'1 = w1
    gp2 = QClass(zp2, z2, z1, zp1)               # y'2 = z2, x'2 = w2 = z1, w'2 = z'1
    return gp2, gp1, g2, g1


@functools.cache
def _set_partitions(k: int) -> tuple[np.ndarray, np.ndarray]:
    """The B_k set partitions of k indices: the columns of a read-only (k, B_k)
    int8 array of restricted-growth strings, in lexicographic order (each label
    is at most one above every label before it, and equal labels share a
    block), and beside it each partition's number of blocks, read-only too."""
    strings, top = np.zeros((0, 1), dtype=np.int8), np.full(1, -1)
    for _ in range(k):  # a string whose top label is t grows by 0, 1, ..., t + 1
        parent = np.repeat(np.arange(len(top)), top + 2)
        label = np.arange(len(parent)) - np.searchsorted(parent, parent)
        strings = np.vstack((strings[:, parent], label.astype(np.int8)))
        top = np.maximum(top[parent], label)
    blocks = top + 1
    strings.flags.writeable = blocks.flags.writeable = False
    return strings, blocks


def exchange_identity_report(n: int):
    """Check the exchange identity on the quotient symmetroid at all n⁹
    admissible quadruples (none for n < 1).  The rules only copy and compare
    indices, so a quadruple's verdict depends only on which of its nine free
    indices are equal: one representative of each of the B₉ = 21,147 set
    partitions, composed on arrays, stands for the n(n-1)…(n-k+1) quadruples
    that label its k blocks with distinct points (none when k > n).  Under
    1 ms at any n once the partitions are built, 2 ms to build them (2 cores,
    Python 3.11, numpy 2.4).  Returns (violations, quadruples_checked).
    """
    free, blocks = _set_partitions(9)
    if n < 9:  # partitions with more blocks than points label no quadruple
        free, blocks = np.compress(blocks <= n, free, axis=1), blocks[blocks <= n]
    gp2, gp1, g2, g1 = _exchange_quadruple(free)
    lhs = q_vertical_compose(q_horizontal_compose(gp2, gp1), q_horizontal_compose(g2, g1))
    rhs = q_horizontal_compose(q_vertical_compose(gp2, g2), q_vertical_compose(gp1, g1))
    violations = np.any(np.asarray(lhs) != np.asarray(rhs), axis=0)
    weights = np.cumprod(np.arange(n, n - 9, -1, dtype=object))  # labellings of 1, ..., 9 blocks
    violating, checked = np.bincount(blocks[violations], minlength=10), np.bincount(blocks, minlength=10)
    return int(violating[1:] @ weights), int(checked[1:] @ weights)


# -- machine-readable reports for the two worked dynamical maps --


def _shift_report(n: int) -> dict:
    b = shift_bisection(n)
    channel = ch.from_flat_bisection(b)
    g = pair_groupoid(n)
    perm = b.perm
    basis_ok = True
    states = []
    for r in range(n):
        for s in range(n):
            out = ch.apply(channel, AlgebraElement.delta(g, pair_index(n, r, s)))
            expected = AlgebraElement.delta(g, pair_index(n, perm[r], perm[s]))
            match = out == expected
            basis_ok &= match
            states.append(
                {"input": [r, s], "output_equals": [perm[r], perm[s]], "exact": match}
            )
    cp = ch.is_cp(channel)
    flat = ch.is_flat_psd(channel)
    comp_ok = True
    bs = flat_bisections(n)
    for b1 in bs:
        for b2 in bs:
            composed = ch.compose_channels(ch.from_flat_bisection(b1), ch.from_flat_bisection(b2))
            direct = ch.from_flat_bisection(flat_bisection_product(b1, b2))
            comp_ok &= composed.kernel.allclose(direct.kernel, 1e-12)
    return {
        "kind": "shift-bisection",
        "n": n,
        "permutation": list(perm),
        "conjugation_on_basis": states,
        "all_basis_exact": basis_ok,
        "is_cp": bool(cp.ok),
        "is_flat_psd": bool(flat.ok),
        "is_unital": ch.is_unital(channel),
        "functor_composition_pairs": len(bs) ** 2,
        "functor_composition_ok": comp_ok,
    }


def _fourier_report(n: int) -> dict:
    fam = ch.fourier_family(n)
    channel = ch.fourier_channel(n)
    g = pair_groupoid(n)
    m = GroupoidMeasure.counting(g)
    chi = AlgebraElement.units_indicator(g)
    sum_v = AlgebraElement.zeros(g)
    sum_vv = AlgebraElement.zeros(g)
    sum_vvstar = AlgebraElement.zeros(g)
    for v in fam.members:
        sum_v = sum_v + v
        sum_vv = sum_vv + convolve(v, v, m)
        sum_vvstar = sum_vvstar + convolve(v, involute(v, m), m)
    # diagonality in the Fourier basis: conjugate by the DFT and look at off-diagonals
    F = np.array(
        [[np.exp(2j * np.pi * l * s / n) / np.sqrt(n) for s in range(n)] for l in range(n)]
    )
    outputs = []
    diag_ok = True
    twice_ok = True
    offdiag = 0.0
    for r in range(n):
        for s in range(n):
            psi = AlgebraElement.delta(g, pair_index(n, r, s))
            out = ch.apply(channel, psi)
            expected = [
                (1 / n) if (p - q) % n == (r - s) % n else 0
                for p in range(n)
                for q in range(n)
            ]
            closed_form = all(
                abs(a - b) <= 1e-12 for a, b in zip(out.values, expected)
            )
            diag_ok &= closed_form
            outputs.append(
                {
                    "input": [r, s],
                    "output": out.to_json()["values"],
                    "tomogram": ch.tomogram(psi, n) if r == s else None,
                    "closed_form_ok": closed_form,
                }
            )
            twice_ok &= out.allclose(ch.apply(channel, out), 1e-12)
            rotated = F.conj() @ np.array(out.values, dtype=np.complex128).reshape(n, n) @ F.T
            offdiag = max(offdiag, float(np.max(np.abs(rotated - np.diag(np.diag(rotated))))))
    return {
        "kind": "fourier-decoherence",
        "n": n,
        "is_cp": bool(ch.is_cp(channel).ok),
        "is_flat_psd": bool(ch.is_flat_psd(channel).ok),
        "unital_sums": {
            "sum_V": sum_v.allclose(chi, 1e-12),
            "sum_V_conv_V": sum_vv.allclose(chi, 1e-12),
            "sum_V_conv_Vstar": sum_vvstar.allclose(chi, 1e-12),
        },
        "dsf_members": [ch.dsf_check(v) for v in fam.members],
        "basis_outputs": outputs,
        "closed_form_all": diag_ok,
        "idempotent": twice_ok,
        "fourier_offdiagonal_max": offdiag,
    }


def _modular_tables() -> dict:
    tables = {}
    for label, build in (
        ("counting_n3", lambda g: GroupoidMeasure.counting(g)),
        ("weighted_n3_w124", lambda g: weighted_pair_measure(g, (1, 2, 4))),
    ):
        g = pair_groupoid(3)
        m = build(g)
        sym = Symmetroid(g)
        m2 = induce_measure(sym, m)
        rows = []
        for t in sym.transformations:
            q = sym.project(t)
            rows.append(
                {
                    "class": [q.z, q.y, q.x, q.w],
                    "mu2": float(m2.mu2(t)),
                    "delta2": float(m2.delta2(t)),
                }
            )
        tables[label] = rows
    return tables


def reproduce_reports(out_dir: Path) -> dict:
    """Write the worked-example reports into out_dir; returns a summary."""
    shift = _shift_report(3)
    fouriers = {f"fourier_n{n}": _fourier_report(n) for n in (3, 4)}
    tables = _modular_tables()

    (out_dir / "shift_bisection_n3.json").write_text(
        json.dumps(shift, indent=1, sort_keys=True) + "\n"
    )
    for name, rep in fouriers.items():
        (out_dir / f"{name}.json").write_text(json.dumps(rep, indent=1, sort_keys=True) + "\n")
    (out_dir / "modular_tables.json").write_text(
        json.dumps(tables, indent=1, sort_keys=True) + "\n"
    )

    all_pass = (
        shift["all_basis_exact"]
        and shift["is_cp"]
        and shift["is_flat_psd"]
        and shift["is_unital"]
        and shift["functor_composition_ok"]
        and all(
            rep["is_cp"]
            and rep["is_flat_psd"]
            and all(rep["unital_sums"].values())
            and all(rep["dsf_members"])
            and rep["closed_form_all"]
            and rep["idempotent"]
            and rep["fourier_offdiagonal_max"] <= 1e-10
            for rep in fouriers.values()
        )
    )
    summary = {
        "all_pass": bool(all_pass),
        "files": sorted(p.name for p in out_dir.glob("*.json")),
        "shift_ok": bool(shift["all_basis_exact"] and shift["functor_composition_ok"]),
        "fourier_ok": {name: bool(rep["closed_form_all"]) for name, rep in fouriers.items()},
    }
    (out_dir / "summary.json").write_text(json.dumps(summary, indent=1, sort_keys=True) + "\n")
    summary["files"] = sorted(p.name for p in out_dir.glob("*.json"))
    return summary
