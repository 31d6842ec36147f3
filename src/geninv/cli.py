"""Command-line front end: matrix I/O, inverse computation, classification,
relation testing, and suite running, with JSON reports on stdout.

Exit codes: 0 ok, 2 malformed input, 3 precondition failure or a result
beyond the float range, 4 shape mismatch, 5 unknown identifier, 6 internal
failure (a self-check or the SVD).
"""

from __future__ import annotations

import argparse
import dataclasses
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
from .ensembles import _PARAMETERS, EnsembleSpec, InvalidSpecError, KINDS
from .factor import SvdConvergenceError, ZeroMatrixError, _derived, hs_reconstruct, pinv
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
from .verify import _AX_EQ_CORE_MP, _SYSTEMS, _XA_EQ_MP_CORE, UnknownSuiteError, run_suite

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
            or rows < 0 or cols < 0):
        raise MatrixFileError(f"bad dimensions rows={rows!r} cols={cols!r}")
    if not isinstance(data, list) or len(data) != rows:
        raise MatrixFileError("data does not match declared row count")
    try:
        parts = np.array(data, dtype=np.float64)
    except (TypeError, ValueError, OverflowError):
        parts = None
    # numpy reads no rows as shape (0,) and rows of no pairs as (rows, 0)
    want = (rows, cols, 2)
    if (parts is None or parts.shape != want[:parts.ndim] or parts.size != rows * cols * 2
            or not _number_pairs(data) or not np.isfinite(parts).all()):
        raise _first_fault(data, cols)
    return parts.reshape(want).view(np.complex128).reshape(rows, cols)


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


_OVERFLOWED = "the result overflowed: an entry is beyond the float64 range"


def _json(obj, pretty: bool = False) -> str:
    """`obj` as JSON text. JSON has no inf or NaN, so a result with an entry
    beyond the float range raises PreconditionError (exit 3) here, before
    any file is opened."""
    try:
        return json.dumps(obj, indent=2 if pretty else None, allow_nan=False)
    except ValueError:
        raise PreconditionError(_OVERFLOWED) from None


def _write(path: str, text: str) -> None:
    try:
        with open(path, "w") as fh:
            fh.write(text + "\n")
    except OSError as exc:
        raise MatrixFileError(f"cannot write {path}: {exc}") from exc


def save_matrix(path: str, a: np.ndarray) -> None:
    """Write `a` as a MatrixFile; one with a non-finite entry raises
    PreconditionError and writes nothing."""
    _write(path, _json(matrix_to_obj(a)))


def _dump(obj, pretty: bool) -> None:
    print(_json(obj, pretty))


def _tolerance(args) -> Tolerance:
    """The tolerance of --tol-abs and --tol-rel; a value Tolerance rejects
    (such as -1, nan or inf) exits 2, as a non-number does, with an error
    that names the flags given."""
    given = {flag: value for flag, value in
             (("--tol-abs", args.tol_abs), ("--tol-rel", args.tol_rel)) if value is not None}
    try:
        return Tolerance(eq_abs=given.get("--tol-abs", DEFAULT_TOL.eq_abs),
                         eq_rel=given.get("--tol-rel", DEFAULT_TOL.eq_rel))
    except ValueError as exc:
        flags = ", ".join(f"{flag} {value}" for flag, value in given.items())
        raise _ArgumentError(f"{exc}: {flags}") from None


# Residuals reported by `compute`, per --which: (label, sides(rec, x)),
# two matrices whose distance is the residual of the computed inverse x;
# `cmd_compute` passes the record of B = 2^-e A and B's inverse.
_XAX_EQ_X = ("xax_eq_x", lambda r, x: (x @ r.a @ x, x))
_DRAZIN_RESIDUALS = (
    ("power_identity", lambda r, x: (r.power(r.index + 1) @ x, r.power(r.index))),
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
        ("power_mp", lambda r, x: (r.power(r.index) @ x, r.power(r.index) @ r.pinv)),
    ),
    "mpd": (
        _XAX_EQ_X,
        ("ax_eq_a_drazin", lambda r, x: (r.a @ x, r.a @ r.drazin)),
        ("mp_power", lambda r, x: (x @ r.power(r.index), r.pinv @ r.power(r.index))),
    ),
    "cmp": (_XAX_EQ_X, _AX_EQ_CORE_MP, _XA_EQ_MP_CORE),
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
    x = _WHICH_FUNCS[args.which](rec)
    # the residuals are those of B = 2^-e A and B's own inverse, as in
    # `verify_system`: the same for every power-of-two multiple of A, and
    # finite however far A^k would leave the float range
    unit = rec.unit
    x_unit = x if unit is rec else _WHICH_FUNCS[args.which](unit)
    sidecar = {
        "which": args.which,
        "residuals": {label: diff_norm(*sides(unit, x_unit))
                      for label, sides in _RESIDUALS[args.which]},
    }
    if a.shape[0] == a.shape[1]:
        sidecar["index"] = rec.index
        sidecar["rank"] = rec.rank
    if args.output:
        report = _json(sidecar, args.pretty)
        save_matrix(args.output, x)
    else:
        report = _json({"matrix": matrix_to_obj(x), **sidecar}, args.pretty)
    print(report)
    return EXIT_OK


def cmd_classify(args) -> int:
    tol = _tolerance(args)
    rec = _analyse(load_matrix(args.input), tol)
    rep = core_ep_equiv_report(rec)
    _dump({"rank": rec.rank, "index": rec.index, **dataclasses.asdict(rep)}, args.pretty)
    return EXIT_OK


def cmd_order(args) -> int:
    tol = _tolerance(args)
    rec = _analyse(load_matrix(args.a), tol)
    b = load_matrix(args.b)
    kinds = list(OrderKind) if args.relation == "all" else [OrderKind(args.relation)]
    out = {}
    for kind in kinds:
        rep = leq(rec, b, kind)
        out[kind.value] = {
            "holds": rep.holds,
            "left_residual": rep.left_residual,
            "right_residual": rep.right_residual,
        }
    _dump(out, args.pretty)
    return EXIT_OK


def _parse_class(text: str) -> tuple[str, dict]:
    """The class `text` names, and its parameter as a keyword of EnsembleSpec."""
    name, _, param = text.partition(":")
    if name not in KINDS:
        raise InvalidSpecError(f"unknown class {name!r}")
    field = _PARAMETERS.get(name)
    if param and field is None:
        raise InvalidSpecError(f"class {name!r} takes no parameter")
    try:
        value = int(param) if param else None
    except ValueError:
        raise InvalidSpecError(
            f"class {name!r} takes an integer parameter, got {param!r}") from None
    return name, {field: value} if field else {}


def cmd_verify(args) -> int:
    tol = _tolerance(args)
    seed = args.seed
    if seed is None:
        text = os.environ.get("GENINV_SEED", "0")
        try:
            seed = int(text)
        except ValueError:
            raise _ArgumentError(f"GENINV_SEED must be an integer, got {text!r}") from None
    kind, parameter = _parse_class(args.matrix_class)
    try:
        spec = EnsembleSpec(size=args.size, count=args.count, seed=seed, kind=kind, **parameter)
    except InvalidSpecError as exc:
        raise PreconditionError(str(exc)) from exc
    report = run_suite(args.suite, spec, tol)
    _dump(report.to_dict(), args.pretty)
    return EXIT_OK if report.passed else 1


def cmd_hs(args) -> int:
    tol = _tolerance(args)
    rec = _analyse(load_matrix(args.input), tol)
    h = rec.hs
    rebuilt = hs_reconstruct(h)  # names Sigma if it overflows
    der = _derived(h, rec)  # names a derived block that overflows
    outdir = Path(args.output or ".")
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
    # every text is formed before the directory or any file is made, so a
    # block beyond the float range leaves no file behind
    texts = {str(outdir / f"{name}.json"): _json(matrix_to_obj(block))
             for name, block in blocks.items()}
    eye_r = np.eye(h.r, dtype=np.complex128)
    report = _json({
        "rank": h.r,
        "files": dict(zip(blocks, texts)),
        "residuals": {
            "reconstruction": diff_norm(rebuilt, rec.a),
            "qq_pp_identity": fro_norm(
                h.q @ conj_transpose(h.q) + h.p @ conj_transpose(h.p) - eye_r),
        },
    }, args.pretty)
    try:
        outdir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise MatrixFileError(f"cannot write {outdir}: {exc}") from exc
    for path, text in texts.items():
        _write(path, text)
    print(report)
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
