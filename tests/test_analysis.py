"""One analysis per matrix: the input guard, and SVD calls counted against
distinct SVD inputs."""

import io
import json
import sys
from contextlib import redirect_stdout

import numpy as np
import pytest

import geninv as gi
from geninv import DimensionMismatchError, PreconditionError, cli

from conftest import random_complex

SQUARE_ONLY = (gi.index, gi.drazin, gi.is_core_ep, gi.hs_decompose)


@pytest.mark.parametrize("func", (gi.pinv,) + SQUARE_ONLY)
@pytest.mark.parametrize("bad", (np.nan, np.inf, complex(0, -np.inf)))
def test_non_finite_entry_rejected(func, bad):
    a = np.eye(3, dtype=complex)
    a[1, 2] = bad
    with pytest.raises(PreconditionError):
        func(a)


@pytest.mark.parametrize("func", SQUARE_ONLY)
def test_non_square_rejected(func):
    with pytest.raises(DimensionMismatchError):
        func(np.ones((2, 3), dtype=complex))


def test_pinv_takes_rectangular():
    assert gi.pinv(np.ones((2, 3), dtype=complex)).shape == (3, 2)


@pytest.fixture
def svd_inputs(monkeypatch):
    """Every SVD input, as shape plus bytes, from every geninv module.

    The modules come from sys.modules: geninv.drazin is the function."""
    real = sys.modules["geninv.factor"].svd
    inputs = []

    def counting(a, *args, **kwargs):
        inputs.append(repr(a.shape).encode() + a.tobytes())
        return real(a, *args, **kwargs)

    for name, mod in list(sys.modules.items()):
        if name.startswith("geninv.") and getattr(mod, "svd", None) is real:
            monkeypatch.setattr(mod, "svd", counting)
    return inputs


SINGLE_MATRIX = (
    "pinv", "numerical_rank", "index", "drazin", "core_nilpotent", "projectors",
    "spectral_projector", "dmp", "mpd", "cmp_inverse", "mpdmp", "core_ep_inverse",
    "cce_inverse", "mpdmp_pinv", "greville_forms", "inverse_report", "is_ep",
    "is_core_ep", "is_k_ep", "wqrt_criterion", "core_ep_equiv_report",
    "core_upper_bound_check", "hs_decompose",
)


@pytest.mark.parametrize("name", SINGLE_MATRIX)
def test_each_svd_input_decomposed_once(name, a1, svd_inputs):
    getattr(gi, name)(a1)
    assert svd_inputs
    assert len(svd_inputs) == len(set(svd_inputs))


def test_inverse_report_svd_calls_at_most_index_plus_one(a1, svd_inputs):
    # A and the powers B^2 ... B^(k+1) of the index search; A^D and the
    # core-EP inverse need no other
    rep = gi.inverse_report(a1)
    assert rep.index == 2
    assert len(svd_inputs) <= rep.index + 1


CLI_RUNS = [["compute", "--which", w] for w in
            ("mp", "group", "drazin", "dmp", "mpd", "cmp", "mpdmp", "core-ep", "cce")]
CLI_RUNS += [["classify"], ["order", "--relation", "all"], ["hs"]]


@pytest.mark.parametrize("argv", CLI_RUNS, ids=lambda argv: " ".join(argv))
def test_cli_decomposes_each_svd_input_once(argv, a1, b3, tmp_path, svd_inputs):
    a_path, b_path = tmp_path / "a.json", tmp_path / "b.json"
    cli.save_matrix(str(a_path), a1)
    cli.save_matrix(str(b_path), b3)
    if argv[0] == "order":
        argv = argv + ["--a", str(a_path), "--b", str(b_path)]
    elif argv[0] == "hs":
        argv = argv + ["-i", str(a_path), "-o", str(tmp_path / "hs")]
    else:
        argv = argv + ["-i", str(a_path)]
    out = io.StringIO()
    with redirect_stdout(out):
        code = cli.main(argv)
    assert code == (3 if "group" in argv else 0)
    if code == 0:
        json.loads(out.getvalue())
    assert svd_inputs
    assert len(svd_inputs) == len(set(svd_inputs))


@pytest.mark.parametrize("name", ("index", "drazin", "core_ep_inverse", "inverse_report"))
def test_nonsingular_input_decomposes_only_itself(name, rng, svd_inputs):
    a = random_complex(rng, 6, 6) + 3 * np.eye(6)
    getattr(gi, name)(a)
    assert len(svd_inputs) == 1
