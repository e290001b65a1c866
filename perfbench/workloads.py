"""The three benchmark workloads: seeded inputs, the timed op, and its oracle.

Each workload splits one op into four steps:

- ``draw(i)`` makes the raw inputs of op ``i`` as numpy arrays.  It is a pure
  function of (workload, seed, i), so the same seed gives byte-identical
  inputs on every machine.
- ``prepare(i)`` turns them into program objects.  It is not timed.
- ``op(x)`` is the timed call into the package.  It returns the program's
  outputs and does no checking.
- ``check(x, out)`` is the oracle.  It is not timed and returns a list of
  error strings; an empty list means the op was correct.

Every op of a workload does the same shape of work, so latency percentiles
measure variation in the program and the machine, not the mix of op kinds.
Package functions are always looked up on their module at call time, so the
traced run sees every call through its patched bindings.
"""

from __future__ import annotations

import contextlib
import io
import json
from fractions import Fraction
from pathlib import Path

import numpy as np

from groupoidqm import (
    algebra,
    channels,
    cli,
    groupoid,
    measure,
    symalgebra,
    symmetroid,
)

# Distinct first words of the seed sequence keep the workloads' streams apart.
_STREAM = {"verdicts_dense": 1, "cli_pipeline": 2, "exact_identities": 3}


def _rng(workload: str, seed: int, i: int) -> np.random.Generator:
    return np.random.default_rng([_STREAM[workload], seed, i])


def _rationals(rng, size: int, dyadic: bool = False) -> np.ndarray:
    """Nonzero numerators and positive denominators as a (2, size) int array.

    Numerators avoid zero so that every exact output is a sum with at least
    one Fraction term, and therefore a Fraction itself.  Dyadic denominators
    make every float conversion exact, so float matrix products can be
    compared with ``==``.
    """
    num = rng.integers(1, 10, size=size) * rng.choice([-1, 1], size=size)
    den = 2 ** rng.integers(0, 4, size=size) if dyadic else rng.integers(1, 10, size=size)
    return np.stack([num, den]).astype(np.int64)


def _fractions(pair: np.ndarray) -> list[Fraction]:
    return [Fraction(int(p), int(q)) for p, q in pair.T]


class VerdictsDense:
    """``is_cp`` and ``is_flat_psd`` on one CP and one non-CP channel at n = 4.

    The CP channel has all n² Kraus members, which keeps its Choi matrix
    strictly positive definite; a rank-deficient Choi matrix has zero
    eigenvalues whose computed sign is rounding noise.  The inputs are drawn
    as ``random_kraus_channel`` and ``random_choi_hermitian_channel`` draw
    them, but the benchmark keeps the draws so that its oracle can rebuild
    the Choi matrix without the package.
    """

    name = "verdicts_dense"
    n = 4

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed

    def setup(self) -> None:
        pass

    def draw(self, i: int) -> dict:
        rng = _rng(self.name, self.seed, i)
        d = self.n * self.n
        kraus = (rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))) / np.sqrt(self.n)
        h = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        return {"kraus": kraus, "hermitian": (h + h.conj().T) / 2}

    def prepare(self, i: int) -> dict:
        raw = self.draw(i)
        n = self.n
        g = groupoid.pair_groupoid(n)
        members = [algebra.AlgebraElement(g, list(row)) for row in raw["kraus"]]
        raw["cp"] = channels.from_kraus(channels.KrausFamily(n, members))
        raw["non_cp"] = channels.channel_from_choi(channels.ChoiMatrix(n, raw["hermitian"]))
        return raw

    def op(self, x: dict) -> tuple:
        return (
            channels.is_cp(x["cp"]),
            channels.is_flat_psd(x["cp"]),
            channels.is_cp(x["non_cp"]),
            channels.is_flat_psd(x["non_cp"]),
        )

    def check(self, x: dict, out: tuple) -> list[str]:
        errors = []
        kraus = x["kraus"]
        # Choi[(l,j),(m,k)] = Σ_p V_p(l,j) conj(V_p(m,k)) = (Vᵀ V̄)[(l,j),(m,k)].
        choi_cp = kraus.T @ kraus.conj()
        for label, choi, cp, flat in (
            ("cp", choi_cp, out[0], out[1]),
            ("non_cp", x["hermitian"], out[2], out[3]),
        ):
            lam = float(np.linalg.eigvalsh(choi)[0])
            atol = 1e-9 * float(np.linalg.norm(choi))
            if abs(lam) <= atol:
                errors.append(f"{label}: oracle min eigenvalue {lam:.3e} is within rounding of 0")
                continue
            expected = lam > 0
            for what, res in (("is_cp", cp), ("is_flat_psd", flat)):
                if bool(res.ok) != expected:
                    errors.append(f"{label}: {what} says {res.ok}, eigvalsh min is {lam:.6e}")
                if not abs(res.min_eigenvalue - lam) <= atol:
                    errors.append(
                        f"{label}: {what} min eigenvalue {res.min_eigenvalue!r} != eigvalsh {lam!r}"
                    )
        return errors


class CliPipeline:
    """Two in-process CLI calls: ``channel from-kraus``, then ``channel check``.

    The channel is a unital mixture of n² random unitaries at n = 3, so it is
    completely positive and unital by construction and every check passes.
    A pool of Kraus files is written during set-up; op i reads pool file
    i mod POOL and passes its own falsifier seed.
    """

    name = "cli_pipeline"
    n = 3
    POOL = 32
    FALSIFIER_TRIALS = 10
    ANCILLA = 2

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir

    def draw(self, i: int) -> dict:
        rng = _rng(self.name, self.seed, i)
        n, d = self.n, self.n * self.n
        z = rng.normal(size=(d, n, n)) + 1j * rng.normal(size=(d, n, n))
        q, r = np.linalg.qr(z)
        diag = np.diagonal(r, axis1=1, axis2=2)
        unitaries = q * (diag / np.abs(diag))[:, None, :]  # Haar-distributed
        weights = rng.dirichlet(np.ones(d))
        return {
            "kraus": np.sqrt(weights)[:, None, None] * unitaries,
            "falsifier_seed": rng.integers(0, 2**31, size=1),
        }

    def kraus_path(self, i: int) -> Path:
        return self.workdir / f"kraus-{i % self.POOL:02d}.json"

    def write_kraus_file(self, i: int) -> None:
        kraus = self.draw(i)["kraus"]
        members = [
            {"values": [[float(v.real), float(v.imag)] for v in k.reshape(-1)]} for k in kraus
        ]
        text = json.dumps({"n": self.n, "members": members}, sort_keys=True)
        self.kraus_path(i).write_text(text + "\n")

    def setup(self) -> None:
        for i in range(self.POOL):
            self.write_kraus_file(i)

    def prepare(self, i: int) -> dict:
        return {
            "kraus": str(self.kraus_path(i)),
            "channel": str(self.workdir / "channel.json"),
            "seed": int(self.draw(i)["falsifier_seed"][0]),
        }

    def op(self, x: dict) -> tuple:
        build_out, check_out, err = io.StringIO(), io.StringIO(), io.StringIO()
        with contextlib.redirect_stderr(err):
            with contextlib.redirect_stdout(build_out):
                rc_build = cli.main(
                    ["channel", "from-kraus", x["kraus"], "-o", x["channel"], "--json"]
                )
            with contextlib.redirect_stdout(check_out):
                rc_check = cli.main(
                    [
                        "channel", "check", x["channel"],
                        "--cp", "--flat-psd", "--unital",
                        "--falsify-positivity", str(self.FALSIFIER_TRIALS),
                        "--ancilla", str(self.ANCILLA),
                        "--seed", str(x["seed"]),
                        "--json",
                    ]
                )
        return rc_build, rc_check, build_out.getvalue(), check_out.getvalue(), err.getvalue()

    @staticmethod
    def stdout_bytes(out: tuple) -> int:
        return len(out[2].encode()) + len(out[3].encode())

    def check(self, x: dict, out: tuple) -> list[str]:
        rc_build, rc_check, _, check_text, err = out
        errors = []
        if rc_build != 0 or rc_check != 0:
            errors.append(f"exit codes {rc_build}, {rc_check}; stderr {err.strip()!r}")
        try:
            payload = json.loads(check_text)
        except json.JSONDecodeError as exc:
            return errors + [f"check output is not JSON: {exc}"]
        # Fields are read by name; extra fields in the payload are ignored.
        expected = {
            ("cp", "verdict"): True,
            ("flat_psd", "verdict"): True,
            ("unital", "verdict"): True,
            ("falsifier", "witness_found"): False,
        }
        for (section, field), want in expected.items():
            got = payload.get(section, {}).get(field)
            if got is not want:
                errors.append(f"{section}.{field} is {got!r}, expected {want!r}")
        return errors


class ExactIdentities:
    """Haar, symmetroid and algebra identities on Fractions; never calls ``eigen``.

    The measure on ``pair_groupoid(4)`` has power-of-two object weights, so
    every derived weight is dyadic.  The convolution checks use general
    rationals; the left-regular and ``rep_operator`` homomorphism checks use
    dyadic values, whose float images multiply exactly, so ``==`` holds.
    """

    name = "exact_identities"
    n = 4

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed

    def setup(self) -> None:
        pass

    def draw(self, i: int) -> dict:
        rng = _rng(self.name, self.seed, i)
        n2 = self.n * self.n
        return {
            "w4_exp": rng.integers(-3, 4, size=self.n),
            "f": _rationals(rng, n2),
            "h": _rationals(rng, n2),
            "k": _rationals(rng, n2),
            "a": _rationals(rng, n2, dyadic=True),
            "b": _rationals(rng, n2, dyadic=True),
            "w3": np.abs(_rationals(rng, 3)),
            "q1": _rationals(rng, 81),
            "q2": _rationals(rng, 81),
            "q3": _rationals(rng, 81),
            "w2_exp": rng.integers(-3, 4, size=2),
            "r1": _rationals(rng, 16, dyadic=True),
            "r2": _rationals(rng, 16, dyadic=True),
        }

    def prepare(self, i: int) -> dict:
        raw = self.draw(i)
        x = {key: _fractions(raw[key]) for key in raw if not key.endswith("_exp")}
        x["w4"] = [Fraction(2) ** int(e) for e in raw["w4_exp"]]
        x["w2"] = [Fraction(2) ** int(e) for e in raw["w2_exp"]]
        return x

    def op(self, x: dict) -> dict:
        gr, ms, al, sa = groupoid, measure, algebra, symalgebra
        g = gr.pair_groupoid(self.n)
        m = ms.weighted_pair_measure(g, x["w4"])
        out = {
            "validate": gr.validate(g),
            "left_invariance": ms.verify_left_invariance(g, m),
            "inverse_relation": ms.verify_inverse_relation(g, m),
            "disintegration": ms.verify_disintegration(g, m),
            "modular": ms.modular(g, m),
        }
        m2 = sa.induce_measure(symmetroid.Symmetroid(g), m)
        out["m2"] = m2
        out["equivariance"] = sa.verify_induced_equivariance(m2)
        out["modular_formula"] = sa.verify_modular_formula(m2)
        out["modular_homomorphism"] = sa.verify_modular_homomorphism(m2)

        f, h, k, a, b = (al.AlgebraElement(g, x[key]) for key in "fhkab")
        fh = al.convolve(f, h, m)
        out["assoc"] = (al.convolve(fh, k, m), al.convolve(f, al.convolve(h, k, m), m))
        out["anti"] = (
            al.involute(fh, m),
            al.convolve(al.involute(h, m), al.involute(f, m), m),
        )
        ab = al.convolve(a, b, m)
        out["left_regular"] = tuple(al.left_regular_matrix(e, m) for e in (ab, a, b))

        qm3 = sa.QuotientMeasure(ms.weighted_pair_measure(gr.pair_groupoid(3), x["w3"]))
        q1, q2, q3 = (sa.QuotientFunction(3, x[key]) for key in ("q1", "q2", "q3"))
        out["assoc_S"] = (
            sa.convolve_S(sa.convolve_S(q1, q2, qm3), q3, qm3),
            sa.convolve_S(q1, sa.convolve_S(q2, q3, qm3), qm3),
        )
        qm2 = sa.QuotientMeasure(ms.weighted_pair_measure(gr.pair_groupoid(2), x["w2"]))
        r1, r2 = sa.QuotientFunction(2, x["r1"]), sa.QuotientFunction(2, x["r2"])
        r12 = sa.convolve_S(r1, r2, qm2)
        out["rep"] = tuple(sa.rep_operator(e, qm2) for e in (r12, r1, r2))
        return out

    def check(self, x: dict, out: dict) -> list[str]:
        errors = []
        for key in (
            "validate", "left_invariance", "inverse_relation", "disintegration",
            "equivariance", "modular_formula", "modular_homomorphism",
        ):
            if not out[key].ok:
                errors.append(f"{key} report has {len(out[key].violations)} violations")

        def exact(values, what):
            if not all(type(v) is Fraction for v in values):
                errors.append(f"{what}: a value is not a Fraction")

        # δ(j,k) = μ(j,k)/μ(k,j) = w_j² / w_k² on the weighted pair measure.
        w = x["w4"]
        want = [w[j] ** 2 / w[k] ** 2 for j in range(self.n) for k in range(self.n)]
        exact(out["modular"].values, "modular")
        if list(out["modular"].values) != want:
            errors.append("modular function differs from w_j²/w_k²")
        exact(out["m2"].weights.values(), "induced weights")
        exact(out["m2"].modular.values(), "induced modular values")
        for key in ("assoc", "anti", "assoc_S"):
            lhs, rhs = out[key]
            exact(lhs.values + rhs.values, key)
            if lhs.values != rhs.values:
                errors.append(f"{key}: the two sides differ")
        for key in ("left_regular", "rep"):
            prod, first, second = out[key]
            if not np.array_equal(prod, first @ second):
                errors.append(f"{key}: the matrix of a product is not the product of matrices")
        return errors


WORKLOADS = {w.name: w for w in (VerdictsDense, CliPipeline, ExactIdentities)}
