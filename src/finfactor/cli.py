"""Command-line surface: build the named constructions, run sparsity searches
and the compression pipeline on matrix files, and run the acceptance suite.

Exit codes: 0 success, 1 usage/parse error, 2 precondition violation,
3 numerical failure. All reports are deterministic for a fixed seed; --json
emits schema-valid documents (schemas ship in docs/schemas)."""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np

from . import acceptance, compression, matrix_units, sparsity, star_algebra
from .errors import (
    DimensionMismatch,
    DimensionOverflow,
    FactorTooSmall,
    FileFormatError,
    FinfactorError,
    IndexTooLarge,
    NotDivisible,
    NotSelfAdjoint,
    NumericalFailure,
    RankMismatch,
    SizeMismatch,
    SupportMismatch,
    SupportTooLarge,
    SystemTooSmall,
    UnknownStrategy,
)
from .matrix_core import (
    DEFAULT_TOL,
    ToleranceConfig,
    check_dimension_cap,
    load_matrix,
    matrix_from_doc,
    matrix_to_doc,
    save_matrix,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_PRECONDITION = 2
EXIT_NUMERICAL = 3

_PRECONDITION_ERRORS = (
    IndexTooLarge,
    SupportTooLarge,
    NotDivisible,
    DimensionMismatch,
    DimensionOverflow,
    SizeMismatch,
    RankMismatch,
    SystemTooSmall,
    SupportMismatch,
    FactorTooSmall,
    NotSelfAdjoint,
)


def _emit_json(doc) -> None:
    print(json.dumps(doc, sort_keys=True, indent=2))


def _config(args) -> ToleranceConfig:
    def flag(name, default):
        value = getattr(args, name, None)
        return default if value is None else value

    return ToleranceConfig(
        zero_block_eta=flag("eta", DEFAULT_TOL.zero_block_eta),
        structural_tol=flag("structural_tol", DEFAULT_TOL.structural_tol),
        span_tol=flag("span_tol", DEFAULT_TOL.span_tol),
    )


def _load_tuple(paths) -> sparsity.GeneratorTuple:
    mats = [load_matrix(p) for p in paths]
    labels = [Path(p).stem for p in paths]
    tup = sparsity.GeneratorTuple.of(mats, labels=labels)
    check_dimension_cap(tup.ambient_dim)
    return tup


def _units_to_doc(sys: matrix_units.MatrixUnitSystem) -> dict:
    units = {}
    for i in range(sys.k):
        for j in range(sys.k):
            units[f"e_{i + 1}_{j + 1}"] = matrix_to_doc(sys.units[i, j])
    return {"k": sys.k, "ambient_dim": sys.ambient_dim, "units": units}


def _units_from_doc(doc) -> matrix_units.MatrixUnitSystem:
    if not isinstance(doc, dict) or "k" not in doc or "units" not in doc:
        raise FileFormatError("unit bundle must be an object with 'k' and 'units'")
    k = doc["k"]
    if not isinstance(k, int) or k < 1:
        raise FileFormatError(f"'k' must be a positive integer, got {k!r}")
    raw = doc["units"]
    mats = {}
    for i in range(k):
        for j in range(k):
            key = f"e_{i + 1}_{j + 1}"
            if key not in raw:
                raise FileFormatError(f"unit bundle is missing {key}")
            mats[(i, j)] = matrix_from_doc(raw[key])
    n = mats[(0, 0)].shape[0]
    units = np.zeros((k, k, n, n), dtype=np.complex128)
    for (i, j), m in mats.items():
        if m.shape[0] != n:
            raise FileFormatError("unit bundle mixes ambient dimensions")
        units[i, j] = m
    return matrix_units.MatrixUnitSystem(ambient_dim=n, k=k, units=units)


def _write_out(out_dir: str, files: dict) -> list[str]:
    base = Path(out_dir)
    base.mkdir(parents=True, exist_ok=True)
    written = []
    for name, content in files.items():
        path = base / name
        if isinstance(content, np.ndarray):
            save_matrix(path, content)
        else:
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(content, fh, sort_keys=True, indent=2)
                fh.write("\n")
        written.append(str(path))
    return written


def _fraction_str(num: int, den: int) -> str:
    f = Fraction(num, den)
    return f"{f.numerator}/{f.denominator}"


# --- demo -----------------------------------------------------------------------


def _demo_shift(args, cfg) -> tuple[dict, dict]:
    k = args.k
    sys = matrix_units.standard_units(k)
    x1, x2 = matrix_units.shift_pair(sys)
    algebra = star_algebra.generate([x1, x2], cfg)
    fam = sparsity.family_from_units(sys, cfg)
    rep = sparsity.interaction_index(
        sparsity.GeneratorTuple.of([x1, x2], labels=("x1", "x2")), fam, cfg,
        family_id="standard_diagonal",
    )
    doc = {
        "kind": "shift",
        "k": k,
        "algebra_dim": algebra.dim,
        "expected_dim": k * k,
        "generation_ok": algebra.dim == k * k,
        "sparsity": rep.to_doc(),
    }
    return doc, {"x1.json": x1, "x2.json": x2}


def _demo_hyperfinite(args, cfg) -> tuple[dict, dict]:
    dims = [int(d) for d in args.dims.split(",") if d]
    x1, x2, tower = sparsity.hyperfinite_pair(dims)
    n = int(np.prod(dims))
    algebra = star_algebra.generate([x1, x2], cfg)
    fam = sparsity.family_from_units(tower[0], cfg)
    rep = sparsity.interaction_index(
        sparsity.GeneratorTuple.of([x1, x2], labels=("x1", "x2")), fam, cfg,
        family_id="first_factor_diagonal",
    )
    bound = Fraction(3, dims[0])
    doc = {
        "kind": "hyperfinite",
        "dims": dims,
        "ambient_dim": n,
        "algebra_dim": algebra.dim,
        "expected_dim": n * n,
        "generation_ok": algebra.dim == n * n,
        "index_bound_num": bound.numerator,
        "index_bound_den": bound.denominator,
        "index_bound_ok": rep.index <= bound,
        "sparsity": rep.to_doc(),
    }
    return doc, {"x1.json": x1, "x2.json": x2}


def _demo_nested_units(args, cfg) -> tuple[dict, dict]:
    sizes = [int(s) for s in args.sizes.split(",") if s]
    nested = matrix_units.nested_product(matrix_units.corner_chain(sizes), cfg)
    rep = matrix_units.verify(nested, cfg)
    n = nested.ambient_dim
    diag = nested.diagonal_projections()
    sum_residual = float(np.linalg.norm(diag.sum(axis=0) - np.eye(n)))
    doc = {
        "kind": "nested-units",
        "sizes": sizes,
        "ambient_dim": n,
        "size": nested.k,
        "verify": rep.to_doc(),
        "diagonal_sum_residual": sum_residual,
    }
    return doc, {"units.json": _units_to_doc(nested)}


def cmd_demo(args) -> int:
    cfg = _config(args)
    builders = {
        "shift": _demo_shift,
        "hyperfinite": _demo_hyperfinite,
        "nested-units": _demo_nested_units,
    }
    doc, artifacts = builders[args.kind](args, cfg)
    if args.out:
        written = _write_out(args.out, artifacts)
        report_path = str(Path(args.out) / "report.json")
        doc["files"] = written + [report_path]
        _write_out(args.out, {"report.json": doc})
    if args.json:
        _emit_json(doc)
    else:
        for key, value in doc.items():
            if key in ("sparsity", "verify"):
                print(f"{key}:")
                for k2, v2 in value.items():
                    print(f"  {k2}: {v2}")
            else:
                print(f"{key}: {value}")
    ok = doc.get("generation_ok", True) and doc.get("index_bound_ok", True)
    ok = ok and doc.get("verify", {}).get("passed", True)
    return EXIT_OK if ok else EXIT_NUMERICAL


# --- sparsity ---------------------------------------------------------------------


def cmd_sparsity(args) -> int:
    cfg = _config(args)
    tup = _load_tuple(args.inputs)
    fam, rep = sparsity.minimize_index(
        tup, args.k, strategy=args.strategy, seed=args.seed, cfg=cfg,
        restarts=args.restarts,
    )
    doc = {
        "report": rep.to_doc(),
        "family": {
            f"p_{j + 1}": matrix_to_doc(fam.projections[j]) for j in range(fam.k)
        },
    }
    if args.out:
        _write_out(Path(args.out).parent or ".", {Path(args.out).name: doc})
    if args.json:
        _emit_json(doc)
    else:
        r = rep.to_doc()
        print(f"inputs: {', '.join(rep.labels)}")
        print(f"k: {rep.k}  strategy: {args.strategy}  seed: {args.seed}")
        print(f"index: {_fraction_str(r['index_num'], r['index_den'])} = {r['index_value']:.6f}")
        print(f"support trace: {_fraction_str(r['support_trace_num'], r['support_trace_den'])}")
        print(f"family: {r['family_id']}")
        for label, pattern in zip(rep.labels, r["patterns"]):
            print(f"pattern {label}:")
            for row in pattern:
                print(f"  {row}")
    return EXIT_OK


# --- pipeline ---------------------------------------------------------------------


def cmd_pipeline(args) -> int:
    cfg = _config(args)
    tup = _load_tuple(args.inputs)
    n = tup.ambient_dim
    if args.units:
        with open(args.units, encoding="utf-8") as fh:
            sys = _units_from_doc(json.load(fh))
    else:
        k = args.units_k or n
        if n % k:
            raise NotDivisible(f"--units-k {k} does not divide ambient dimension {n}")
        sys = matrix_units.amplified_units(k, n // k)
    rep = compression.pipeline(tup, sys, cfg)
    doc = rep.to_doc()
    if args.out:
        doc["files"] = _write_out(args.out, {"final.json": rep.final, "report.json": doc})
    if args.json:
        _emit_json(doc)
    else:
        print(f"inputs: {', '.join(rep.labels)}  (ambient dim {rep.ambient_dim}, k={rep.k})")
        for stage in doc["stages"]:
            dims = stage["algebra_dims"]
            print(f"stage {stage['name']}: ok={stage['ok']} dims {dims['before']} -> {dims['after']}")
            for key, value in stage["bounds"].items():
                print(f"  {key}: {value}")
        print(f"final algebra dim: {doc['final_algebra_dim']}")
    return EXIT_OK


# --- verify-all -------------------------------------------------------------------


def cmd_verify_all(args) -> int:
    results = acceptance.run_all(seed=args.seed, eta=args.eta)
    if args.json:
        doc = {
            "seed": args.seed,
            "all_passed": all(r.passed for r in results),
            "criteria": [
                {
                    "number": r.number,
                    "name": r.name,
                    "passed": r.passed,
                    "details": r.details,
                }
                for r in results
            ],
        }
        _emit_json(doc)
    else:
        for r in results:
            print(r.line())
    return EXIT_OK if all(r.passed for r in results) else EXIT_NUMERICAL


# --- parser -----------------------------------------------------------------------


def _add_tolerance_flags(parser, eta=True, structural=True, span=True):
    if eta:
        parser.add_argument("--eta", type=float, default=None,
                            help="zero-block threshold (relative, default 1e-10)")
    if structural:
        parser.add_argument("--structural-tol", type=float, default=None,
                            help="projection/unitary residual bound (default 1e-8)")
    if span:
        parser.add_argument("--span-tol", type=float, default=None,
                            help="span membership residual bound (default 1e-8)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="finfactor",
        description="Finite matrix *-algebra toolkit: generated algebras, "
        "block-interaction sparsity, and single-generator synthesis.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    demo = sub.add_parser("demo", help="build and verify a named construction")
    demo.add_argument("kind", choices=["shift", "hyperfinite", "nested-units"])
    demo.add_argument("--k", type=int, default=4, help="system size for 'shift'")
    demo.add_argument("--dims", default="3,3", help="tensor factor dims for 'hyperfinite'")
    demo.add_argument("--sizes", default="2,3", help="chain sizes for 'nested-units'")
    demo.add_argument("--json", action="store_true")
    demo.add_argument("--out", default=None, help="directory for artifact files")
    _add_tolerance_flags(demo)
    demo.set_defaults(fn=cmd_demo)

    spars = sub.add_parser("sparsity", help="minimize the interaction index of a tuple")
    spars.add_argument("inputs", nargs="+", help="matrix JSON files forming the tuple")
    spars.add_argument("--k", type=int, required=True, help="family size (must divide n)")
    spars.add_argument("--strategy", choices=list(sparsity.STRATEGIES),
                       default="diagonal_grouping")
    spars.add_argument("--restarts", type=int, default=8)
    spars.add_argument("--seed", type=int, default=0)
    spars.add_argument("--json", action="store_true")
    spars.add_argument("--out", default=None, help="path for the report JSON")
    _add_tolerance_flags(spars)
    spars.set_defaults(fn=cmd_sparsity)

    pipe = sub.add_parser("pipeline", help="compress, synthesize, and fuse a tuple")
    pipe.add_argument("inputs", nargs="+", help="matrix JSON files forming the tuple")
    pipe.add_argument("--units-k", type=int, default=None,
                      help="standard unit-system size (default: ambient dim)")
    pipe.add_argument("--units", default=None, help="unit bundle JSON file")
    pipe.add_argument("--json", action="store_true")
    pipe.add_argument("--out", default=None, help="directory for final element + report")
    _add_tolerance_flags(pipe)
    pipe.set_defaults(fn=cmd_pipeline)

    verify = sub.add_parser("verify-all", help="run the acceptance suite")
    verify.add_argument("--seed", type=int, default=0)
    verify.add_argument("--json", action="store_true")
    verify.add_argument("--eta", type=float, default=None)
    verify.set_defaults(fn=cmd_verify_all)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_OK if exc.code == 0 else EXIT_USAGE
    try:
        return args.fn(args)
    except (FileFormatError, UnknownStrategy, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except _PRECONDITION_ERRORS as exc:
        print(f"precondition violated: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except (NumericalFailure, FinfactorError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
