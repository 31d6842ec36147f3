"""Command-line front end: matrix I/O, inverse computation, classification,
relation testing, and suite running, with JSON reports on stdout.

Exit codes: 0 ok, 2 malformed input, 3 precondition failure, 4 shape
mismatch, 5 unknown identifier, 6 internal failure (a self-check or the SVD).
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from itertools import chain
from pathlib import Path

import numpy as np

from .classify import core_ep_equiv_report
from .drazin import IndexTooLargeError, _analyse, drazin, group_inverse
from .ensembles import EnsembleSpec, InvalidSpecError, KINDS
from .factor import SvdConvergenceError, ZeroMatrixError, hs_derived, hs_reconstruct, pinv
from .inverses import cce_inverse, cmp_inverse, core_ep_inverse, dmp, mpd, mpdmp
from .kernel import (
    DEFAULT_TOL,
    DimensionMismatchError,
    InternalCheckError,
    PreconditionError,
    Tolerance,
    conj_transpose,
    diff_norm,
    fro_norm,
)
from .orders import OrderKind, leq
from .verify import _SYSTEMS, UnknownSuiteError, run_suite

__all__ = ["MatrixFileError", "matrix_to_obj", "matrix_from_obj",
           "load_matrix", "save_matrix", "main"]

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_PRECONDITION = 3
EXIT_SHAPE = 4
EXIT_UNKNOWN_ID = 5
EXIT_INTERNAL = 6


class MatrixFileError(ValueError):
    """The matrix file is malformed."""


class _ArgumentError(ValueError):
    """A command-line value or an environment variable is malformed."""


def matrix_to_obj(a: np.ndarray) -> dict:
    """MatrixFile object: explicit [re, im] pairs, row-major."""
    a = np.asarray(a, dtype=np.complex128)
    return {
        "rows": int(a.shape[0]),
        "cols": int(a.shape[1]),
        "data": np.stack([a.real, a.imag], -1).tolist(),
    }


def matrix_from_obj(obj) -> np.ndarray:
    if not isinstance(obj, dict):
        raise MatrixFileError("matrix object must be a JSON object")
    try:
        rows, cols, data = obj["rows"], obj["cols"], obj["data"]
    except (KeyError, TypeError) as exc:
        raise MatrixFileError(f"missing matrix field: {exc}") from exc
    # JSON true and false are Python bools, which subclass int
    if (not all(isinstance(d, int) and not isinstance(d, bool) for d in (rows, cols))
            or rows < 1 or cols < 0):
        raise MatrixFileError(f"bad dimensions rows={rows!r} cols={cols!r}")
    if not isinstance(data, list) or len(data) != rows:
        raise MatrixFileError("data does not match declared row count")
    try:
        parts = np.array(data, dtype=np.float64)
    except (TypeError, ValueError, OverflowError):
        parts = None
    # numpy reads rows of no pairs as shape (rows, 0)
    if (parts is None or parts.shape != ((rows, cols, 2) if cols else (rows, 0))
            or not _number_pairs(data) or not np.isfinite(parts).all()):
        raise _first_fault(data, cols)
    return parts.reshape(rows, cols, 2).view(np.complex128).reshape(rows, cols)


def _number_pairs(data: list) -> bool:
    """Every row and pair a list and every entry an int or a float: numpy
    converts tuples, strings and None as well."""
    if not all(isinstance(row, list) for row in data):
        return False
    pairs = list(chain.from_iterable(data))
    return (all(issubclass(t, list) for t in set(map(type, pairs)))
            and all(issubclass(t, (int, float))
                    for t in set(map(type, chain.from_iterable(pairs)))))


def _first_fault(data: list, cols: int) -> MatrixFileError:
    """The error for the first malformed row or entry in row-major order,
    on data that `matrix_from_obj` found malformed."""
    for i, row in enumerate(data):
        if not isinstance(row, list) or len(row) != cols:
            return MatrixFileError(f"row {i} does not match declared column count")
        for j, pair in enumerate(row):
            if (not isinstance(pair, list) or len(pair) != 2
                    or not all(isinstance(x, (int, float)) for x in pair)):
                return MatrixFileError(f"entry ({i},{j}) is not a [re, im] pair")
            try:
                finite = math.isfinite(float(pair[0])) and math.isfinite(float(pair[1]))
            except OverflowError:  # an int beyond the float range
                finite = False
            if not finite:
                return MatrixFileError(f"entry ({i},{j}) is not finite")
    raise InternalCheckError("matrix data found malformed, but no row or entry is")


def load_matrix(path: str) -> np.ndarray:
    try:
        with open(path) as fh:
            obj = json.load(fh)
    except OSError as exc:
        raise MatrixFileError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise MatrixFileError(f"{path} is not valid JSON: {exc}") from exc
    return matrix_from_obj(obj)


def save_matrix(path: str, a: np.ndarray) -> None:
    with open(path, "w") as fh:
        fh.write(json.dumps(matrix_to_obj(a)) + "\n")


def _dump(obj, pretty: bool) -> None:
    print(json.dumps(obj, indent=2 if pretty else None))


def _tolerance(args) -> Tolerance:
    """The tolerance of --tol-abs and --tol-rel; a value Tolerance rejects
    (such as -1, nan or inf) exits 2, as a non-number does."""
    try:
        return Tolerance(
            eq_abs=args.tol_abs if args.tol_abs is not None else DEFAULT_TOL.eq_abs,
            eq_rel=args.tol_rel if args.tol_rel is not None else DEFAULT_TOL.eq_rel,
        )
    except ValueError as exc:
        raise _ArgumentError(
            f"{exc}: --tol-abs {args.tol_abs}, --tol-rel {args.tol_rel}") from None


# Residuals reported by `compute`, per --which: (label, sides(rec, x)),
# two matrices whose distance is the residual of the computed inverse x.
_XAX_EQ_X = ("xax_eq_x", lambda r, x: (x @ r.a @ x, x))
_DRAZIN_RESIDUALS = (
    ("power_identity", lambda r, x: (r.power(r.index + 1, right=x), r.power(r.index))),
    _XAX_EQ_X,
    ("commutes", lambda r, x: (r.a @ x, x @ r.a)),
)
_RESIDUALS = {
    "mp": (
        ("axa_eq_a", lambda r, x: (r.a @ x @ r.a, r.a)),
        _XAX_EQ_X,
        ("ax_hermitian", lambda r, x: (conj_transpose(r.a @ x), r.a @ x)),
        ("xa_hermitian", lambda r, x: (conj_transpose(x @ r.a), x @ r.a)),
    ),
    "group": _DRAZIN_RESIDUALS,
    "drazin": _DRAZIN_RESIDUALS,
    "dmp": (
        _XAX_EQ_X,
        ("xa_eq_drazin_a", lambda r, x: (x @ r.a, r.drazin @ r.a)),
        ("power_mp", lambda r, x: (r.power(r.index, right=x),
                                   r.power(r.index, right=r.pinv))),
    ),
    "mpd": (
        _XAX_EQ_X,
        ("ax_eq_a_drazin", lambda r, x: (r.a @ x, r.a @ r.drazin)),
        ("mp_power", lambda r, x: (r.power(r.index, left=x),
                                   r.power(r.index, left=r.pinv))),
    ),
    "cmp": (
        _XAX_EQ_X,
        ("ax_eq_core_mp", lambda r, x: (r.a @ x, r.core @ r.pinv)),
        ("xa_eq_mp_core", lambda r, x: (x @ r.a, r.pinv @ r.core)),
    ),
    # the MPDMP inverse is the designated solution of system a1
    "mpdmp": _SYSTEMS["a1"][1],
    "core-ep": (
        _XAX_EQ_X,
        ("range", lambda r, x: (r.a @ r.core_ep @ x, x)),
        ("range_star", lambda r, x: (r.a @ r.core_ep @ conj_transpose(x),
                                     conj_transpose(x))),
    ),
    "cce": (_XAX_EQ_X,),
}


_WHICH_FUNCS = {
    "mp": pinv,
    "group": group_inverse,
    "drazin": drazin,
    "dmp": dmp,
    "mpd": mpd,
    "cmp": cmp_inverse,
    "mpdmp": mpdmp,
    "core-ep": core_ep_inverse,
    "cce": cce_inverse,
}


def cmd_compute(args) -> int:
    tol = _tolerance(args)
    a = load_matrix(args.input)
    rec = _analyse(a, tol, square=args.which != "mp")
    x = _WHICH_FUNCS[args.which](rec, tol)
    sidecar = {
        "which": args.which,
        "residuals": {label: diff_norm(*sides(rec, x))
                      for label, sides in _RESIDUALS[args.which]},
    }
    if a.shape[0] == a.shape[1]:
        sidecar["index"] = rec.index
        sidecar["rank"] = rec.rank
    if args.output:
        save_matrix(args.output, x)
        _dump(sidecar, args.pretty)
    else:
        _dump({"matrix": matrix_to_obj(x), **sidecar}, args.pretty)
    return EXIT_OK


def cmd_classify(args) -> int:
    tol = _tolerance(args)
    rec = _analyse(load_matrix(args.input), tol)
    rep = core_ep_equiv_report(rec, tol)
    _dump({
        "rank": rec.rank,
        "index": rec.index,
        "is_ep": rep.is_ep,
        "is_core_ep": rep.is_core_ep,
        "is_k_ep": rep.is_k_ep,
        "core_ep_conditions": rep.core_ep_conditions,
        "block_conditions": rep.block_conditions,
        "residuals": rep.residuals,
        "flags": list(rep.flags),
    }, args.pretty)
    return EXIT_OK


def cmd_order(args) -> int:
    tol = _tolerance(args)
    rec = _analyse(load_matrix(args.a), tol)
    b = load_matrix(args.b)
    kinds = list(OrderKind) if args.relation == "all" else [OrderKind(args.relation)]
    out = {}
    for kind in kinds:
        rep = leq(rec, b, kind, tol)
        out[kind.value] = {
            "holds": rep.holds,
            "left_residual": rep.left_residual,
            "right_residual": rep.right_residual,
        }
    _dump(out, args.pretty)
    return EXIT_OK


def _parse_class(text: str):
    name, _, param = text.partition(":")
    if name not in KINDS:
        raise InvalidSpecError(f"unknown class {name!r}")
    if param and name not in ("fixed_rank", "fixed_index"):
        raise InvalidSpecError(f"class {name!r} takes no parameter")
    try:
        value = int(param) if param else None
    except ValueError:
        raise InvalidSpecError(
            f"class {name!r} takes an integer parameter, got {param!r}") from None
    return (name, value if name == "fixed_rank" else None,
            value if name == "fixed_index" else None)


def cmd_verify(args) -> int:
    tol = _tolerance(args)
    seed = args.seed
    if seed is None:
        text = os.environ.get("GENINV_SEED", "0")
        try:
            seed = int(text)
        except ValueError:
            raise _ArgumentError(f"GENINV_SEED must be an integer, got {text!r}") from None
    kind, rank, index_val = _parse_class(args.matrix_class)
    try:
        spec = EnsembleSpec(size=args.size, count=args.count, seed=seed,
                            kind=kind, rank=rank, index=index_val)
    except InvalidSpecError as exc:
        raise PreconditionError(str(exc)) from exc
    report = run_suite(args.suite, spec, tol)
    _dump(report.to_dict(), args.pretty)
    return EXIT_OK if report.passed else 1


def cmd_hs(args) -> int:
    tol = _tolerance(args)
    rec = _analyse(load_matrix(args.input), tol)
    h = rec.hs
    der = hs_derived(h, tol)
    outdir = Path(args.output or ".")
    outdir.mkdir(parents=True, exist_ok=True)
    blocks = {
        "U": h.u,
        "Sigma": h.sigma_mat,
        "Q": h.q,
        "P": h.p,
        "Qhat": der.qhat,
        "SigmaTilde": der.sigma_tilde,
        "QTilde": der.qtilde,
        "Delta": der.delta,
        "DeltaHat": der.delta_hat,
        "DeltaTilde": der.delta_tilde,
    }
    files = {}
    for name, block in blocks.items():
        path = outdir / f"{name}.json"
        save_matrix(str(path), block)
        files[name] = str(path)
    eye_r = np.eye(h.r, dtype=np.complex128)
    _dump({
        "rank": h.r,
        "files": files,
        "residuals": {
            "reconstruction": diff_norm(hs_reconstruct(h), rec.a),
            "qq_pp_identity": fro_norm(
                h.q @ conj_transpose(h.q) + h.p @ conj_transpose(h.p) - eye_r),
        },
    }, args.pretty)
    return EXIT_OK


_COMMANDS = {
    "compute": cmd_compute,
    "classify": cmd_classify,
    "order": cmd_order,
    "verify": cmd_verify,
    "hs": cmd_hs,
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and reused by every later
    `main` call in the process: it holds no state of its own between
    parses."""
    parser = argparse.ArgumentParser(
        prog="geninv",
        description="Generalized matrix inverses, matrix class tests, "
                    "relation orders, and identity-verification suites.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--tol-abs", type=float, default=None,
                       help="absolute equality floor (default 1e-10)")
        p.add_argument("--tol-rel", type=float, default=None,
                       help="relative equality factor (default 1e-9)")
        p.add_argument("--pretty", action="store_true",
                       help="indent the JSON output")

    p = sub.add_parser("compute", help="compute one generalized inverse")
    p.add_argument("--input", "-i", required=True)
    p.add_argument("--which", required=True, choices=sorted(_WHICH_FUNCS))
    p.add_argument("--output", "-o", default=None,
                   help="write the inverse here; residuals go to stdout")
    add_common(p)

    p = sub.add_parser("classify", help="matrix class report")
    p.add_argument("--input", "-i", required=True)
    add_common(p)

    p = sub.add_parser("order", help="test the binary relations for a pair")
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.add_argument("--relation", default="all",
                   choices=["drazin", "dmp", "mpd", "cmp", "all"])
    add_common(p)

    p = sub.add_parser("verify", help="run an identity suite over an ensemble")
    p.add_argument("--suite", required=True)
    p.add_argument("--size", type=int, default=5)
    p.add_argument("--count", type=int, default=50)
    p.add_argument("--seed", type=int, default=None,
                   help="default 0, or GENINV_SEED if set")
    p.add_argument("--class", dest="matrix_class", default="generic",
                   help="sample class; fixed_rank:R and fixed_index:K "
                        "take a parameter")
    add_common(p)

    p = sub.add_parser("hs", help="write the block factorization and "
                                  "derived blocks as matrix files")
    p.add_argument("--input", "-i", required=True)
    p.add_argument("--output", "-o", default=None, help="output directory")
    add_common(p)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (MatrixFileError, _ArgumentError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (PreconditionError, IndexTooLargeError, ZeroMatrixError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except DimensionMismatchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SHAPE
    except (UnknownSuiteError, InvalidSpecError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_UNKNOWN_ID
    except (InternalCheckError, SvdConvergenceError) as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
