"""Command-line interface.

Exit codes: 0 success (all requested checks pass), 1 a check failed (witness
on stdout), 2 input or usage error.  Every randomized subcommand requires
--seed and echoes it, so runs are byte-for-byte reproducible.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from pathlib import Path

from . import channels as ch
from . import symalgebra as sa
from .algebra import (
    AlgebraElement,
    complex_values_to_json,
    convolve,
    element_from_json,
    is_positive_type,
)
from .groupoid import (
    FiniteGroupoid,
    GroupoidError,
    ValidationError,
    direct_product,
    groupoid_from_json,
    is_connected,
    load_groupoid,
    pair_groupoid,
    save_groupoid,
)
from .measure import (
    GroupoidMeasure,
    load_measure,
    modular,
    NotHaarError,
    verify_disintegration,
    verify_inverse_relation,
    verify_left_invariance,
)
from .selftest import EXCHANGE_EXHAUSTIVE_MAX_N, exchange_identity_report, reproduce_reports
from .symmetroid import (
    FlatBisection,
    enumerate_quotient,
    flat_bisections,
    shift_bisection,
)

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_INPUT_ERROR = 2


def _dumps(payload, **kwargs) -> str:
    """JSON text of a payload; a non-finite number in it is an input error."""
    try:
        return json.dumps(payload, sort_keys=True, allow_nan=False, **kwargs)
    except ValueError as exc:
        raise GroupoidError(f"result is not finite: {exc}") from exc


def _emit(payload: dict, as_json: bool) -> None:
    if as_json:
        print(_dumps(payload, indent=1))
        return
    # every line is rendered before any is printed: an error leaves stdout empty
    lines = [
        f"{key}: {_dumps(value) if isinstance(value, (dict, list)) else value}"
        for key, value in payload.items()
    ]
    for line in lines:
        print(line)


def _load_groupoid_arg(args) -> FiniteGroupoid:
    if getattr(args, "groupoid", None):
        return load_groupoid(args.groupoid)
    if getattr(args, "n", None):
        return pair_groupoid(args.n)
    raise GroupoidError("give either --n (pair groupoid) or --groupoid FILE")


def _load_measure_arg(args, g) -> GroupoidMeasure:
    if getattr(args, "measure", None):
        return load_measure(args.measure, g, exact=getattr(args, "exact", False))
    return GroupoidMeasure.counting(g)


def _parse_state(shorthand: str, n: int) -> AlgebraElement:
    """State shorthands: "delta:j,k", "units", or a path to a function JSON."""
    g = pair_groupoid(n)
    if shorthand == "units":
        return AlgebraElement.units_indicator(g)
    if shorthand.startswith("delta:"):
        try:
            j, k = (int(x) for x in shorthand[len("delta:") :].split(","))
        except ValueError as exc:
            raise GroupoidError(f"bad state shorthand {shorthand!r}") from exc
        if not (0 <= j < n and 0 <= k < n):
            raise GroupoidError(f"state indices out of range in {shorthand!r}")
        return AlgebraElement.delta(g, j * n + k)
    with open(shorthand) as fh:
        return element_from_json(json.load(fh), g)


# -- groupoid subcommands --


def cmd_groupoid(args) -> int:
    if args.action == "make-pair":
        g = pair_groupoid(args.n)
        if args.out:
            save_groupoid(g, args.out)
        _emit({"n_objects": g.n_objects, "n_morphisms": g.n_morphisms, "out": args.out}, args.json)
        return EXIT_OK
    if args.action == "product":
        g = direct_product(load_groupoid(args.inputs[0]), load_groupoid(args.inputs[1]))
        if args.out:
            save_groupoid(g, args.out)
        _emit({"n_objects": g.n_objects, "n_morphisms": g.n_morphisms, "out": args.out}, args.json)
        return EXIT_OK
    if args.action == "validate":
        with open(args.inputs[0]) as fh:
            data = json.load(fh)
        try:
            g = groupoid_from_json(data)
        except ValidationError as exc:
            _emit({"verdict": "invalid", "violations": exc.report.to_dict()}, args.json)
            return EXIT_CHECK_FAILED
        _emit(
            {
                "verdict": "valid",
                "n_objects": g.n_objects,
                "n_morphisms": g.n_morphisms,
                "connected": is_connected(g),
            },
            args.json,
        )
        return EXIT_OK
    raise GroupoidError(f"unknown groupoid action {args.action!r}")


# -- measure subcommands --


def cmd_measure(args) -> int:
    g = _load_groupoid_arg(args)
    m = _load_measure_arg(args, g)
    reports = {
        "left_invariance": verify_left_invariance(g, m, args.tol),
        "inverse_relation": verify_inverse_relation(g, m, args.tol),
        "disintegration": verify_disintegration(g, m, tol=args.tol),
    }
    payload = {name: rep.to_dict() for name, rep in reports.items()}
    try:
        dl = modular(g, m, args.tol)
        payload["modular"] = {"ok": True, "values": [float(v) for v in dl.values]}
    except NotHaarError as exc:
        payload["modular"] = {"ok": False, "error": str(exc)}
    ok = all(rep.ok for rep in reports.values()) and payload["modular"]["ok"]
    payload["verdict"] = "haar" if ok else "not-haar"
    _emit(payload, args.json)
    return EXIT_OK if ok else EXIT_CHECK_FAILED


# -- algebra subcommands --


def cmd_algebra(args) -> int:
    g = _load_groupoid_arg(args)
    m = _load_measure_arg(args, g)
    if args.action == "convolve":
        f1 = element_from_json(json.loads(Path(args.inputs[0]).read_text()), g)
        f2 = element_from_json(json.loads(Path(args.inputs[1]).read_text()), g)
        out = convolve(f1, f2, m)
        _emit({"values": complex_values_to_json(out.values)}, args.json)
        return EXIT_OK
    if args.action == "check-positive":
        phi = element_from_json(json.loads(Path(args.inputs[0]).read_text()), g)
        res = is_positive_type(phi)
        payload = {
            "verdict": bool(res.ok),
            "min_eigenvalue": _nan_to_none(res.min_eigenvalue),
            "hermitian_defect": res.hermitian_defect,
        }
        if not res.ok:
            payload["witness"] = {"object": res.object_index}
            if res.witness is not None:
                payload["witness"]["eigenvector"] = complex_values_to_json(res.witness)
        _emit(payload, args.json)
        return EXIT_OK if res.ok else EXIT_CHECK_FAILED
    raise GroupoidError(f"unknown algebra action {args.action!r}")


# -- symmetroid subcommands --


def cmd_symmetroid(args) -> int:
    if args.action == "enumerate":
        classes = enumerate_quotient(args.n)
        _emit(
            {"n": args.n, "count": len(classes), "classes": [list(q) for q in classes]},
            args.json,
        )
        return EXIT_OK
    if args.action == "check-exchange":
        sampled = args.n > EXCHANGE_EXHAUSTIVE_MAX_N
        if sampled and args.seed is None:
            raise GroupoidError(
                f"--seed is required for sampled exchange checks (n > {EXCHANGE_EXHAUSTIVE_MAX_N})"
            )
        violations, checked = exchange_identity_report(args.n, args.samples, args.seed)
        payload = {
            "n": args.n,
            "mode": f"sampled:{args.samples}" if sampled else "exhaustive",
            "report": f"{violations} violations / {checked} quadruples",
        }
        if sampled:  # the exhaustive check reads no seed, so it echoes none
            payload["seed"] = args.seed
        _emit(payload, args.json)
        return EXIT_OK if violations == 0 else EXIT_CHECK_FAILED
    if args.action == "flat-bisections":
        bs = flat_bisections(args.n)
        _emit(
            {
                "n": args.n,
                "count": len(bs),
                "permutations": [list(b.perm) for b in bs],
            },
            args.json,
        )
        return EXIT_OK
    raise GroupoidError(f"unknown symmetroid action {args.action!r}")


# -- channel subcommands --


def _write_or_print(payload: dict, out: str | None, as_json: bool) -> None:
    if out:
        Path(out).write_text(_dumps(payload, indent=1) + "\n")
        _emit({"out": out}, as_json)
    else:
        _emit(payload, as_json)


def cmd_channel(args) -> int:
    if args.action == "from-kraus":
        fam = ch.load_kraus(args.inputs[0])
        channel = ch.from_kraus(fam)
        _write_or_print(channel.to_json(), args.out, args.json)
        return EXIT_OK
    if args.action == "from-bisection":
        try:
            perm = [int(x) for x in args.perm.split(",")]
        except ValueError as exc:
            raise GroupoidError(f"bad --perm {args.perm!r}: {exc}") from exc
        channel = ch.from_flat_bisection(FlatBisection(perm))
        _write_or_print(channel.to_json(), args.out, args.json)
        return EXIT_OK
    if args.action == "apply":
        channel = ch.load_channel(args.inputs[0])
        if args.pad_to:
            channel = ch.zero_pad(channel, args.pad_to)
        psi = _parse_state(args.inputs[1], channel.n)
        out = ch.apply(channel, psi)
        _emit({"n": channel.n, "values": complex_values_to_json(out.values)}, args.json)
        return EXIT_OK
    if args.action == "export":
        channel = ch.load_channel(args.inputs[0])
        # "b" is an alias of "a": B[(l,m),(j,k)] = f((l,j),(k,m)) is the A matrix
        to_matrix = ch.to_choi if args.matrix == "choi" else ch.to_a_matrix
        mat = to_matrix(channel).matrix
        if args.format == "csv":
            if not args.out:
                raise GroupoidError("csv export needs --out FILE")
            sa.write_matrix_csv(mat, args.out)
            _emit({"out": args.out, "shape": list(mat.shape)}, args.json)
        else:
            payload = sa.matrix_to_json(mat)
            if args.out:
                sa.write_matrix_json(mat, args.out)
                _emit({"out": args.out, "shape": list(mat.shape)}, args.json)
            else:
                _emit(payload, args.json)
        return EXIT_OK
    if args.action == "check":
        channel = ch.load_channel(args.inputs[0])
        payload: dict = {"n": channel.n}
        failed = False
        if args.cp:
            res = cp = ch.is_cp(channel)
            payload["cp"] = {
                "verdict": bool(res.ok),
                "min_eigenvalue": _nan_to_none(res.min_eigenvalue),
                "hermitian_defect": res.hermitian_defect,
            }
            if not res.ok and res.witness is not None:
                payload["cp"]["witness"] = complex_values_to_json(res.witness)
            failed |= not res.ok
        if args.flat_psd:
            # is_flat_psd is is_cp (see its docstring): decide the Choi matrix once
            res = cp if args.cp else ch.is_flat_psd(channel)
            payload["flat_psd"] = {
                "verdict": bool(res.ok),
                "min_eigenvalue": _nan_to_none(res.min_eigenvalue),
                # every Gram block equals the Choi matrix (see is_flat_psd), so
                # the deciding block is always the first one
                "block": [0, 0],
            }
            failed |= not res.ok
        if args.unital:
            verdict = ch.is_unital(channel)
            payload["unital"] = {"verdict": bool(verdict)}
            failed |= not verdict
        if args.falsify_positivity:
            if args.seed is None:
                raise GroupoidError("--seed is required with --falsify-positivity")
            payload["seed"] = args.seed
            wit = ch.positivity_falsifier(
                channel, args.falsify_positivity, seed=args.seed, ancilla=args.ancilla
            )
            if wit is None:
                payload["falsifier"] = {"witness_found": False, "trials": args.falsify_positivity}
            else:
                payload["falsifier"] = {
                    "witness_found": True,
                    "trial": wit.trial,
                    "ancilla": wit.ancilla,
                    "min_eigenvalue": _nan_to_none(wit.min_eigenvalue),
                    "state": complex_values_to_json(wit.state.values),
                }
                failed = True
        _emit(payload, args.json)
        return EXIT_CHECK_FAILED if failed else EXIT_OK
    raise GroupoidError(f"unknown channel action {args.action!r}")


def _nan_to_none(x: float):
    return None if x != x else x


# -- worked examples --


def cmd_examples(args) -> int:
    n = args.n
    if args.which == "fourier":
        channel = ch.fourier_channel(n)
        payload: dict = {"n": n, "kind": "fourier-decoherence"}
        fam = ch.fourier_family(n)
        payload["unital"] = ch.is_unital(fam)
        payload["dsf_members"] = [ch.dsf_check(v) for v in fam.members]
        if args.state:
            psi = _parse_state(args.state, n)
            out = ch.apply(channel, psi)
            payload["input"] = complex_values_to_json(psi.values)
            payload["output"] = complex_values_to_json(out.values)
            payload["tomogram"] = ch.tomogram(psi, n)
        else:
            payload["kernel"] = channel.to_json()
        _emit(payload, args.json)
        return EXIT_OK
    if args.which == "shift":
        channel = ch.from_flat_bisection(shift_bisection(n))
        payload = {"n": n, "kind": "shift-bisection", "permutation": [(j + 1) % n for j in range(n)]}
        if args.state:
            psi = _parse_state(args.state, n)
            out = ch.apply(channel, psi)
            payload["input"] = complex_values_to_json(psi.values)
            payload["output"] = complex_values_to_json(out.values)
        else:
            payload["kernel"] = channel.to_json()
        _emit(payload, args.json)
        return EXIT_OK
    raise GroupoidError(f"unknown example {args.which!r}")


# -- reproduce: machine-readable reports for the worked examples --


def cmd_reproduce(args) -> int:
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    summary = reproduce_reports(out_dir)
    _emit(summary, args.json)
    return EXIT_OK if summary["all_pass"] else EXIT_CHECK_FAILED


@functools.lru_cache(maxsize=1)
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built on first use and shared by every later call:
    each parse returns a new namespace, and ``nargs`` inputs a new list."""
    p = argparse.ArgumentParser(
        prog="groupoidqm",
        description="Finite measured groupoids, symmetroid algebras and quantum dynamical maps.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", help="emit structured JSON output")
    sub = p.add_subparsers(dest="command", required=True)

    pg = sub.add_parser("groupoid", help="build and validate groupoid tables", parents=[common])
    pg.add_argument("action", choices=["make-pair", "product", "validate"])
    pg.add_argument("inputs", nargs="*", help="input files")
    pg.add_argument("--n", type=int, help="pair-groupoid dimension")
    pg.add_argument("-o", "--out", help="output file")
    pg.set_defaults(func=cmd_groupoid)

    pm = sub.add_parser("measure", parents=[common], help="check Haar structure of a measure")
    pm.add_argument("--n", type=int, help="pair-groupoid dimension")
    pm.add_argument("--groupoid", help="groupoid JSON file")
    pm.add_argument("--measure", help="measure JSON file (default: counting)")
    pm.add_argument("--exact", action="store_true", help="rational arithmetic")
    pm.add_argument("--tol", type=float, default=1e-12)
    pm.set_defaults(func=cmd_measure)

    pa = sub.add_parser("algebra", parents=[common], help="convolution algebra operations")
    pa.add_argument("action", choices=["convolve", "check-positive"])
    pa.add_argument("inputs", nargs="+", help="function JSON files")
    pa.add_argument("--n", type=int, help="pair-groupoid dimension")
    pa.add_argument("--groupoid", help="groupoid JSON file")
    pa.add_argument("--measure", help="measure JSON file (default: counting)")
    pa.add_argument("--exact", action="store_true")
    pa.set_defaults(func=cmd_algebra)

    ps = sub.add_parser("symmetroid", parents=[common], help="quotient symmetroid structure")
    ps.add_argument("action", choices=["enumerate", "check-exchange", "flat-bisections"])
    ps.add_argument("--n", type=int, required=True)
    ps.add_argument(
        "--samples", type=int, default=10000, help=f"sample count for n > {EXCHANGE_EXHAUSTIVE_MAX_N}"
    )
    ps.add_argument("--seed", type=int, help="PRNG seed (required when sampling)")
    ps.set_defaults(func=cmd_symmetroid)

    pc = sub.add_parser("channel", parents=[common], help="build, check, apply and export channels")
    pc.add_argument("action", choices=["from-kraus", "from-bisection", "check", "apply", "export"])
    pc.add_argument("inputs", nargs="*", help="input files / state shorthand")
    pc.add_argument("--perm", help="permutation for from-bisection, e.g. '1,2,0'")
    pc.add_argument("-o", "--out", help="output file")
    pc.add_argument("--cp", action="store_true", help="check complete positivity")
    pc.add_argument("--flat-psd", action="store_true", help="check flat positive semidefiniteness")
    pc.add_argument("--unital", action="store_true", help="check unitality")
    pc.add_argument("--falsify-positivity", type=int, metavar="TRIALS")
    pc.add_argument("--ancilla", type=int, default=1, help="ancilla dimension for the falsifier")
    pc.add_argument("--seed", type=int, help="PRNG seed for randomized checks")
    pc.add_argument("--pad-to", type=int, help="zero-pad the channel to this dimension")
    pc.add_argument("--as", dest="matrix", choices=["choi", "a", "b"], default="choi")
    pc.add_argument("--format", choices=["json", "csv"], default="json")
    pc.set_defaults(func=cmd_channel)

    pe = sub.add_parser("examples", parents=[common], help="the two worked dynamical maps")
    pe.add_argument("which", choices=["fourier", "shift"])
    pe.add_argument("--n", type=int, required=True)
    pe.add_argument("--state", help='state shorthand: "delta:j,k", "units", or a JSON file')
    pe.set_defaults(func=cmd_examples)

    pr = sub.add_parser("reproduce", parents=[common], help="write machine-readable reports for the worked examples")
    pr.add_argument("--out", required=True, help="output directory")
    pr.set_defaults(func=cmd_reproduce)

    return p


# per action: the positional inputs it reads and the flag it cannot run without
NEEDS = {
    ("groupoid", "make-pair"): (0, "n"),
    ("groupoid", "product"): (2, None),
    ("groupoid", "validate"): (1, None),
    ("algebra", "convolve"): (2, None),
    ("channel", "from-kraus"): (1, None),
    ("channel", "from-bisection"): (0, "perm"),
    ("channel", "apply"): (2, None),
    ("channel", "check"): (1, None),
    ("channel", "export"): (1, None),
}


def _check_args(args) -> None:
    """Missing inputs and numeric flags out of range are input errors: fewer
    positional inputs than the action reads, a missing required flag, a --tol
    that is not finite or is negative, a count or dimension below 1 and a
    negative seed."""
    action = getattr(args, "action", None)
    inputs, flag = NEEDS.get((args.command, action), (0, None))
    if len(getattr(args, "inputs", ())) < inputs:
        given = len(args.inputs)
        raise GroupoidError(f"{args.command} {action} needs {inputs} input(s), got {given}")
    if flag and getattr(args, flag) is None:
        raise GroupoidError(f"{args.command} {action} needs --{flag}")
    tol = getattr(args, "tol", 0.0)
    if not (math.isfinite(tol) and tol >= 0):
        raise GroupoidError(f"--tol must be finite and non-negative, got {tol}")
    lows = {"n": 1, "samples": 1, "falsify_positivity": 1, "ancilla": 1, "pad_to": 1, "seed": 0}
    for name, low in lows.items():
        value = getattr(args, name, None)
        if value is not None and value < low:
            raise GroupoidError(f"--{name.replace('_', '-')} must be at least {low}, got {value}")


def main(argv=None) -> int:
    parser = build_parser()
    # argparse ends a nargs positional at the first option, so inputs after an
    # option come back unparsed; they join the inputs in order
    args, leftovers = parser.parse_known_args(argv)
    stray = [t for t in leftovers if t.startswith("-")] if hasattr(args, "inputs") else leftovers
    if stray:
        parser.error(f"unrecognized arguments: {' '.join(stray)}")
    if leftovers:
        args.inputs += leftovers
    try:
        _check_args(args)
        return args.func(args)
    except GroupoidError as exc:
        print(json.dumps({"error": str(exc)}), file=sys.stderr)
        return EXIT_INPUT_ERROR
    except (OSError, json.JSONDecodeError) as exc:
        print(json.dumps({"error": str(exc)}), file=sys.stderr)
        return EXIT_INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())
