import dataclasses
import json
import os
import re
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO
from pathlib import Path

import numpy as np
import pytest

import geninv
from geninv.classify import ClassReport
from geninv.cli import (
    MatrixFileError,
    build_parser,
    load_matrix,
    main,
    matrix_from_obj,
    matrix_to_obj,
    save_matrix,
)
from geninv.ensembles import _PARAMETERS, KINDS


@pytest.fixture
def files(tmp_path, a1, a3, b3):
    paths = {}
    for name, mat in [("a1", a1), ("a3", a3), ("b3", b3),
                      ("zero", np.zeros((3, 3), dtype=complex)),
                      ("rect", np.ones((2, 3), dtype=complex))]:
        p = tmp_path / f"{name}.json"
        save_matrix(str(p), mat)
        paths[name] = str(p)
    return paths


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    run_cli.err = captured.err
    return code, (json.loads(captured.out) if captured.out.strip() else None)


def test_round_trip_bit_exact(tmp_path, rng):
    a = rng.standard_normal((4, 5)) + 1j * rng.standard_normal((4, 5))
    a *= np.exp(rng.uniform(-300, 300, (4, 5)) * np.log(2) / 4)
    path = str(tmp_path / "m.json")
    save_matrix(path, a)
    back = load_matrix(path)
    assert np.array_equal(a, back)


def test_matrix_obj_validation():
    good = matrix_to_obj(np.eye(2, dtype=complex))
    assert matrix_from_obj(good).shape == (2, 2)
    with pytest.raises(MatrixFileError):
        matrix_from_obj([1, 2])
    with pytest.raises(MatrixFileError):
        matrix_from_obj({"rows": 2, "cols": 2})
    with pytest.raises(MatrixFileError):
        matrix_from_obj({"rows": 2, "cols": 2, "data": [[[1, 0]]]})
    with pytest.raises(MatrixFileError):
        matrix_from_obj({"rows": 1, "cols": 1, "data": [[[1]]]})
    with pytest.raises(MatrixFileError):
        matrix_from_obj({"rows": 1, "cols": 1, "data": [[[float("inf"), 0]]]})


def _pair_matrix(data, rows=1, cols=1):
    return {"rows": rows, "cols": cols, "data": data}


NOT_A_PAIR = "entry (0,0) is not a [re, im] pair"
NOT_FINITE = "entry (0,0) is not finite"
MALFORMED = {
    "ragged row": (_pair_matrix([[[1, 0], [0, 0]], [[1, 0]]], 2, 2),
                   "row 1 does not match declared column count"),
    "row a tuple": (_pair_matrix([([1, 0],)]), "row 0 does not match declared column count"),
    "three-element pair": (_pair_matrix([[[1, 0, 0]]]), NOT_A_PAIR),
    "tuple pair": (_pair_matrix([[(1, 0)]]), NOT_A_PAIR),
    "float32 entry": (_pair_matrix([[[np.float32(1.5), 0]]]), NOT_A_PAIR),
    "int64 entry": (_pair_matrix([[[np.int64(1), 0]]]), NOT_A_PAIR),
    "string entry": (_pair_matrix([[["1", 0]]]), NOT_A_PAIR),
    "None entry": (_pair_matrix([[[None, 0]]]), NOT_A_PAIR),
    "dict pair": (_pair_matrix([[{"re": 1, "im": 0}]]), NOT_A_PAIR),
    "inf entry": (_pair_matrix([[[float("inf"), 0]]]), NOT_FINITE),
    "nan entry": (_pair_matrix([[[0, float("nan")]]]), NOT_FINITE),
    "int beyond the float range": (_pair_matrix([[[10 ** 400, 0]]]), NOT_FINITE),
    # the first fault in row-major order is reported
    "nan before a malformed row": (_pair_matrix([[[float("nan"), 0]], "x"], 2), NOT_FINITE),
    "bad pair before nan": (_pair_matrix([[[1], [float("nan"), 0]]], 1, 2), NOT_A_PAIR),
    # JSON true is a Python bool, which subclasses int
    "boolean dimensions": (_pair_matrix([[[1, 2]]], True, True),
                           "bad dimensions rows=True cols=True"),
}


@pytest.mark.parametrize("obj, message", MALFORMED.values(), ids=MALFORMED.keys())
def test_malformed_matrix_message(obj, message):
    with pytest.raises(MatrixFileError) as info:
        matrix_from_obj(obj)
    assert str(info.value) == message


def test_matrix_entries_of_int_and_float_subclasses_accepted():
    obj = _pair_matrix([[[True, np.float64(1.5)], [2, -0.0]]], 1, 2)
    a = matrix_from_obj(obj)
    assert a.dtype == np.complex128 and a.flags.c_contiguous
    assert np.array_equal(a, [[1 + 1.5j, 2]])
    assert np.signbit(a[0, 1].imag)


def test_int_beyond_float_range_exits_two(tmp_path, capsys):
    path = tmp_path / "huge.json"
    path.write_text('{"rows": 1, "cols": 1, "data": [[[1' + "0" * 400 + ', 0]]]}')
    code, _ = run_cli(capsys, "compute", "-i", str(path), "--which", "mp")
    assert code == 2
    assert run_cli.err == f"error: {NOT_FINITE}\n"


def test_save_matrix_golden_bytes(tmp_path):
    a = np.array([[complex(-0.0, 5e-324), complex(1.7976931348623157e308, 2 ** 53 + 1)],
                  [complex(0.1, -0.0), complex(-1e-310, 2.5)]])
    path = tmp_path / "g.json"
    save_matrix(str(path), a)
    assert path.read_text() == (
        '{"rows": 2, "cols": 2, "data": [[[-0.0, 5e-324], '
        '[1.7976931348623157e+308, 9007199254740992.0]], '
        '[[0.1, -0.0], [-1e-310, 2.5]]]}\n')
    assert np.array_equal(load_matrix(str(path)).view(np.float64), a.view(np.float64))


def test_empty_columns_round_trip(tmp_path):
    path = str(tmp_path / "e.json")
    save_matrix(path, np.zeros((3, 0), dtype=complex))
    assert load_matrix(path).shape == (3, 0)


# n x 0 is test_empty_columns_round_trip
@pytest.mark.parametrize("shape", ((0, 3), (0, 0), (1, 1)))
def test_every_written_shape_loads_back(tmp_path, shape):
    a = np.full(shape, 1.5 - 2j)
    path = str(tmp_path / "m.json")
    save_matrix(path, a)
    back = load_matrix(path)
    assert back.shape == shape and np.array_equal(back, a)


def test_compute_output_of_an_empty_matrix_reads_back(tmp_path, capsys):
    # the pseudoinverse of a 2 x 0 matrix is 0 x 2, and that of 0 x 2 is 2 x 0
    src, out = tmp_path / "a.json", tmp_path / "x.json"
    save_matrix(str(src), np.zeros((2, 0), dtype=complex))
    code, _ = run_cli(capsys, "compute", "-i", str(src), "--which", "mp", "-o", str(out))
    assert code == 0 and load_matrix(str(out)).shape == (0, 2)
    code, rep = run_cli(capsys, "compute", "-i", str(out), "--which", "mp")
    assert code == 0 and matrix_from_obj(rep["matrix"]).shape == (2, 0)


def test_parser_built_once():
    assert build_parser() is build_parser()


def test_verify_help_names_every_class_and_its_parameter():
    code, out, _ = _in_process(["verify", "--help"])
    words = set(re.split(r"[\s,]+", out))
    assert code == 0
    for kind in KINDS:
        assert (f"{kind}:{_PARAMETERS[kind].upper()}" if kind in _PARAMETERS else kind) in words


def _in_process(argv):
    out, err = StringIO(), StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def _fresh_interpreter(argv):
    env = dict(os.environ, PYTHONPATH=str(Path(geninv.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-m", "geninv.cli", *argv],
                          capture_output=True, text=True, env=env)
    return proc.returncode, proc.stdout, proc.stderr


def test_module_entry_point(files, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    for path, code in ((files["a1"], 0), (str(bad), 2)):
        argv = ["compute", "-i", path, "--which", "drazin"]
        got = _fresh_interpreter(argv)
        assert got == _in_process(argv)
        assert got[0] == code and bool(got[1]) == (code == 0)



# diag(5e-324, 0) is 2^-1073 B, B = diag(1/2, 0): A^+ and A^D are 2^1073 B^+
# = diag(2^1074, 0), beyond the float range. The blocks of `hs` overflow
# for it, and for 2^1022 J (J the 4 x 4 ones matrix), whose sigma is 2^1024
# up to rounding: the error names Sigma or the first derived block that does.
OVERFLOWED = "the result overflowed: an entry is beyond the float64 range"
BEYOND_RANGE = {
    "compute drazin": ("tiny", ["compute", "--which", "drazin"], OVERFLOWED),
    "compute mp": ("tiny", ["compute", "--which", "mp"], OVERFLOWED),
    "compute mp -o": ("tiny", ["compute", "--which", "mp", "-o", "{out}/x.json"], OVERFLOWED),
    "compute drazin -o": ("tiny", ["compute", "--which", "drazin", "-o", "{out}/x.json"],
                          OVERFLOWED),
    "hs -o": ("tiny", ["hs", "-o", "{out}/hs"], "the derived block qhat overflows float64"),
    "hs -o sigma": ("huge", ["hs", "-o", "{out}/hs"],
                    "Sigma of the factorization overflows float64"),
}


@pytest.mark.parametrize("matrix, argv, message", BEYOND_RANGE.values(), ids=BEYOND_RANGE.keys())
def test_result_beyond_the_float_range_exits_three_and_writes_nothing(matrix, argv, message,
                                                                       tmp_path):
    # JSON has no inf: the CLI names the overflow instead of printing
    # Infinity or NaN, and leaves no file, empty or partial, behind
    a = {"tiny": np.diag([5e-324, 0.0]), "huge": np.full((4, 4), 2.0 ** 1022)}[matrix]
    src, out = tmp_path / "a.json", tmp_path / "out"
    save_matrix(str(src), a)
    out.mkdir()
    code, stdout, stderr = _fresh_interpreter([arg.format(out=out) for arg in argv]
                                              + ["-i", str(src)])
    assert (code, stdout) == (3, "")
    assert f"error: {message}" in stderr
    assert "Traceback" not in stderr
    assert list(out.iterdir()) == []


def test_save_matrix_of_a_non_finite_matrix_writes_nothing(tmp_path):
    path = tmp_path / "x.json"
    with pytest.raises(geninv.PreconditionError, match="overflowed"):
        save_matrix(str(path), np.array([[1.0, np.inf]]))
    assert not path.exists()

VERIFY = ["verify", "--suite", "ew2", "--size", "3", "--count", "2"]
BAD_INPUT = {
    # name: (argv, GENINV_SEED or None, exit code)
    "rank parameter not an integer": (VERIFY + ["--class", "fixed_rank:abc"], None, 5),
    "index parameter not an integer": (VERIFY + ["--class", "fixed_index:2.5"], None, 5),
    "parameter to a class that takes none": (VERIFY + ["--class", "generic:3"], None, 5),
    "seed not an integer": (VERIFY + ["--seed", "abc"], None, 2),
    "GENINV_SEED not an integer": (VERIFY, "abc", 2),
    "GENINV_SEED a float": (VERIFY, "1.5", 2),
    "negative seed": (VERIFY + ["--seed", "-1"], None, 3),
    "negative GENINV_SEED": (VERIFY, "-1", 3),
    "tol-abs not a number": (VERIFY + ["--tol-abs", "abc"], None, 2),
    "tol-abs -1": (VERIFY + ["--tol-abs", "-1"], None, 2),
    "tol-abs nan": (VERIFY + ["--tol-abs", "nan"], None, 2),
    "tol-abs inf": (VERIFY + ["--tol-abs", "inf"], None, 2),
    "tol-rel -1": (VERIFY + ["--tol-rel", "-1"], None, 2),
    "tol-rel nan": (VERIFY + ["--tol-rel", "nan"], None, 2),
    "tol-rel inf": (VERIFY + ["--tol-rel", "inf"], None, 2),
    "compute tol-rel nan": (["compute", "--which", "mp", "-i", "{a1}", "--tol-rel", "nan"],
                            None, 2),
    "boolean dimensions": (["compute", "--which", "mp", "-i", "{bool_dims}"], None, 2),
    "output in a missing directory": (["compute", "--which", "mp", "-i", "{a1}",
                                       "-o", "{missing}/x.json"], None, 2),
    "hs output directory an existing file": (["hs", "-i", "{a1}", "-o", "{a1}"], None, 2),
    "compute non-JSON file": (["compute", "--which", "mp", "-i", "{not_json}"], None, 2),
    "compute missing file": (["compute", "--which", "mp", "-i", "{missing}.json"], None, 2),
    "group inverse of index 2": (["compute", "--which", "group", "-i", "{a1}"], None, 3),
    "classify non-square": (["classify", "-i", "{rect}"], None, 4),
    "order size mismatch": (["order", "--a", "{a3}", "--b", "{eye2}"], None, 4),
    "unknown suite": (["verify", "--suite", "nonsense"], None, 5),
    "unknown class": (["verify", "--suite", "ew2", "--class", "weird"], None, 5),
    "size beyond the largest": (["verify", "--suite", "ew2", "--size", "40"], None, 3),
    "hs zero matrix": (["hs", "-i", "{zero}"], None, 3),
    # at n = 14, seed 7, a constructed core_ep sample fails its own
    # core-EP self-check
    "sample fails its self-check": (["verify", "--suite", "core_ep_equiv", "--class", "core_ep",
                                     "--size", "14", "--count", "13", "--seed", "7"], None, 6),
}
# the text that the error line of a BAD_INPUT row must contain
ERROR_TEXT = {
    "rank parameter not an integer": "class 'fixed_rank' takes an integer parameter, got 'abc'",
    "index parameter not an integer": "class 'fixed_index' takes an integer parameter, got '2.5'",
    "parameter to a class that takes none": "class 'generic' takes no parameter",
    "group inverse of index 2": "index",
    "sample fails its self-check": "not core-EP",
}


@pytest.mark.parametrize("name", BAD_INPUT)
def test_bad_input_exits_with_an_error_line(name, files, tmp_path, monkeypatch):
    argv, env_seed, code = BAD_INPUT[name]
    bool_dims, not_json, eye2 = (tmp_path / f"{stem}.json"
                                 for stem in ("bool_dims", "not_json", "eye2"))
    bool_dims.write_text('{"rows": true, "cols": true, "data": [[[1, 2]]]}')
    not_json.write_text("{nope")
    save_matrix(str(eye2), np.eye(2, dtype=complex))
    monkeypatch.delenv("GENINV_SEED", raising=False)
    if env_seed is not None:
        monkeypatch.setenv("GENINV_SEED", env_seed)
    got, out, err = _in_process([arg.format(**files, bool_dims=bool_dims, not_json=not_json,
                                            eye2=eye2, missing=tmp_path / "missing")
                                 for arg in argv])
    assert got == code
    assert out == ""
    assert any(line.startswith(("error:", "internal error:", "geninv verify: error:",
                                "geninv compute: error:"))
               for line in err.splitlines())
    assert "Traceback" not in err
    assert ERROR_TEXT.get(name, "") in err


TOL_ERROR = "error: tolerance fields must be finite and strictly positive: "


@pytest.mark.parametrize("flags, named", (
    (["--tol-rel", "-1"], "--tol-rel -1.0"),
    (["--tol-abs", "nan"], "--tol-abs nan"),
    (["--tol-abs", "0", "--tol-rel", "1e-9"], "--tol-abs 0.0, --tol-rel 1e-09"),
), ids=("tol-rel", "tol-abs", "both"))
def test_tolerance_error_names_the_flags_given(flags, named):
    assert _in_process(VERIFY + flags) == (2, "", TOL_ERROR + named + "\n")


def test_reused_parser_carries_no_state(files, tmp_path):
    # each call in this process reuses the parser the earlier ones built
    runs = [
        ["classify", "-i", files["a1"], "--pretty"],
        ["classify", "-i", files["a1"]],
        ["compute", "-i", files["a1"], "--which", "drazin", "-o", "{dir}/d.json"],
        ["compute", "-i", files["a1"], "--which", "nope"],
        ["compute", "-i", files["a1"], "--which", "dmp"],
    ]
    for k, argv in enumerate(runs):
        here, fresh = tmp_path / f"here{k}", tmp_path / f"fresh{k}"
        here.mkdir(), fresh.mkdir()
        got = _in_process([arg.format(dir=here) for arg in argv])
        want = _fresh_interpreter([arg.format(dir=fresh) for arg in argv])
        assert got == want
        assert got[0] == (2 if k == 3 else 0)
        assert ([p.read_bytes() for p in here.iterdir()]
                == [p.read_bytes() for p in fresh.iterdir()])


def test_compute_drazin_to_file(files, tmp_path, capsys):
    out = str(tmp_path / "d.json")
    code, sidecar = run_cli(capsys, "compute", "-i", files["a1"],
                            "--which", "drazin", "-o", out)
    assert code == 0
    assert sidecar["index"] == 2
    assert max(sidecar["residuals"].values()) <= 1e-9
    got = load_matrix(out)
    assert np.allclose(got, [[0.5, 0, 0.25], [0, 0, 0], [0, 0, 0]], atol=1e-12)


def test_compute_dmp_fixture(files, tmp_path, capsys):
    out = str(tmp_path / "g.json")
    code, _ = run_cli(capsys, "compute", "-i", files["a3"], "--which", "dmp",
                      "-o", out)
    assert code == 0
    assert np.allclose(load_matrix(out),
                       [[0.5, 0, 0], [0, 0, 0], [0.5, 0, 0]], atol=1e-12)


def test_compute_inline_output(files, capsys):
    code, obj = run_cli(capsys, "compute", "-i", files["a1"], "--which", "mp")
    assert code == 0
    got = matrix_from_obj(obj["matrix"])
    assert np.allclose(got, [[0.5, -0.25, 0], [0, 0, 0], [0, 0.5, 0]], atol=1e-12)


def test_compute_all_inverses_run(files, capsys):
    for which in ["mp", "drazin", "dmp", "mpd", "cmp", "mpdmp", "core-ep", "cce"]:
        code, obj = run_cli(capsys, "compute", "-i", files["a1"], "--which", which)
        assert code == 0
        assert max(obj["residuals"].values()) <= 1e-8


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("e", (297, -294))
@pytest.mark.parametrize("which", ("core-ep", "drazin", "cce", "dmp", "mpd"))
def test_compute_index_three_at_extreme_scales(tmp_path, capsys, which, e):
    # diag(1.5) + J3 has index 3; a^4 and sigma_max^7 leave the float range
    # at 2^297, and sigma_max^4 falls below it at 2^-294. The residuals
    # are those of 2^-e a, so each is finite, and no overflow warning is
    # raised on the way.
    a = np.zeros((4, 4), dtype=complex)
    a[0, 0] = 1.5
    a[1, 2] = a[2, 3] = 1.0
    path = str(tmp_path / "scaled.json")
    save_matrix(path, a * 2.0 ** e)
    code, obj = run_cli(capsys, "compute", "-i", path, "--which", which)
    assert code == 0
    assert obj["index"] == 3
    assert obj["rank"] == 3
    assert all(np.isfinite(r) for r in obj["residuals"].values())
    x = matrix_from_obj(obj["matrix"])
    expected = np.zeros((4, 4), dtype=complex)
    expected[0, 0] = 2.0 ** -e / 1.5
    assert np.array_equal(x, expected)


def _reject_constant(name):
    raise ValueError(f"bare {name} is not JSON")


@pytest.mark.parametrize("which", ("mp", "group", "drazin", "dmp", "mpd", "cmp", "mpdmp",
                                   "core-ep", "cce"))
def test_compute_residuals_are_json_and_the_same_at_every_scale(tmp_path, capsys, which):
    # index 6 (index 1 for the group inverse): at 2^200 the entries of
    # A^7 would pass 2^1200, beyond any float; the residuals are B's, with
    # B = 2^-e A, so they stay finite and do not depend on the scale
    kind = "ep" if which == "group" else "core_ep"
    a = geninv.gen(geninv.EnsembleSpec(8, 3, 19, kind))[0]
    residuals = []
    for e in (0, 200, -200):
        path = str(tmp_path / f"a{e}.json")
        save_matrix(path, a * 2.0 ** e)
        assert main(["compute", "-i", path, "--which", which]) == 0
        out, err = capsys.readouterr()
        assert err == ""
        obj = json.loads(out, parse_constant=_reject_constant)
        assert obj["index"] == (1 if which == "group" else 6)
        residuals.append(obj["residuals"])
    assert residuals[0] == residuals[1] == residuals[2]
    assert max(residuals[0].values()) <= 1e-12


def test_classify_fixture(files, capsys):
    code, rep = run_cli(capsys, "classify", "-i", files["a1"])
    assert code == 0
    assert rep["index"] == 2 and rep["rank"] == 2
    assert rep["is_core_ep"] is False
    assert set(rep["core_ep_conditions"].values()) == {False}
    assert rep["flags"] == []


def test_classify_keys_are_rank_index_then_the_report_fields(files, capsys):
    code, rep = run_cli(capsys, "classify", "-i", files["a3"])
    assert code == 0
    assert list(rep) == ["rank", "index", "is_ep", "is_core_ep", "is_k_ep",
                         "core_ep_conditions", "block_conditions", "residuals", "flags"]
    assert list(rep)[2:] == [f.name for f in dataclasses.fields(ClassReport)]


def test_classify_identity(tmp_path, capsys):
    p = str(tmp_path / "i.json")
    save_matrix(p, np.eye(3, dtype=complex))
    code, rep = run_cli(capsys, "classify", "-i", p)
    assert code == 0
    assert rep["is_ep"] is True and rep["index"] == 0


def test_classify_third_fixture(files, capsys):
    code, rep = run_cli(capsys, "classify", "-i", files["a3"])
    assert code == 0
    assert rep["is_k_ep"] is False


def test_compute_mp_accepts_rectangular(files, capsys):
    code, obj = run_cli(capsys, "compute", "-i", files["rect"], "--which", "mp")
    assert code == 0
    assert obj["matrix"]["rows"] == 3 and obj["matrix"]["cols"] == 2
    assert "index" not in obj


def test_order_all(files, capsys):
    code, rep = run_cli(capsys, "order", "--a", files["a3"], "--b", files["b3"])
    assert code == 0
    assert {k: v["holds"] for k, v in rep.items()} == {
        "dmp": True, "mpd": False, "cmp": False, "drazin": True}


def test_order_single_relation(files, capsys):
    code, rep = run_cli(capsys, "order", "--a", files["a3"], "--b", files["b3"],
                        "--relation", "drazin")
    assert code == 0
    assert list(rep) == ["drazin"] and rep["drazin"]["holds"] is True


def test_verify_suite_ok(capsys):
    code, rep = run_cli(capsys, "verify", "--suite", "ew2", "--size", "4",
                        "--count", "10", "--seed", "42")
    assert code == 0
    assert rep["failures"] == 0 and rep["passed"] is True


def test_verify_class_parameter(capsys):
    code, rep = run_cli(capsys, "verify", "--suite", "commute_lemma",
                        "--size", "4", "--count", "5", "--class", "fixed_index:2")
    assert code == 0 and rep["failures"] == 0


def test_verify_env_seed(capsys, monkeypatch):
    monkeypatch.setenv("GENINV_SEED", "123")
    code, rep1 = run_cli(capsys, "verify", "--suite", "ew2", "--size", "3",
                         "--count", "4")
    monkeypatch.delenv("GENINV_SEED")
    code, rep2 = run_cli(capsys, "verify", "--suite", "ew2", "--size", "3",
                         "--count", "4", "--seed", "123")
    assert rep1 == rep2


def test_verify_failures_exit_one(capsys):
    # impossibly tight tolerance turns rounding noise into failures
    code, rep = run_cli(capsys, "verify", "--suite", "commute_lemma",
                        "--size", "4", "--count", "5",
                        "--tol-abs", "1e-300", "--tol-rel", "1e-300")
    assert code == 1
    assert rep["failures"] > 0


def test_svd_convergence_failure_exits_six(files, capsys, monkeypatch):
    def no_convergence(*args, **kwargs):
        raise np.linalg.LinAlgError("SVD did not converge")

    monkeypatch.setattr(np.linalg, "svd", no_convergence)
    code, rep = run_cli(capsys, "compute", "--which", "drazin", "-i", files["a1"])
    assert (code, rep) == (6, None)
    assert "internal error: SVD did not converge" in run_cli.err


def test_hs_outputs(files, tmp_path, capsys):
    outdir = str(tmp_path / "blocks")
    code, rep = run_cli(capsys, "hs", "-i", files["a1"], "-o", outdir)
    assert code == 0
    assert rep["rank"] == 2
    assert rep["residuals"]["reconstruction"] <= 1e-10
    assert rep["residuals"]["qq_pp_identity"] <= 1e-10
    assert len(rep["files"]) == 10
    u = load_matrix(rep["files"]["U"])
    assert u.shape == (3, 3)
    q = load_matrix(rep["files"]["Q"])
    p = load_matrix(rep["files"]["P"])
    gram = q @ q.conj().T + p @ p.conj().T
    assert np.allclose(gram, np.eye(2), atol=1e-10)


def test_hs_empty_p_round_trips(tmp_path, capsys, rng):
    q, _ = np.linalg.qr(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
    src = str(tmp_path / "u.json")
    save_matrix(src, q)
    outdir = str(tmp_path / "ublocks")
    code, rep = run_cli(capsys, "hs", "-i", src, "-o", outdir)
    assert code == 0
    p = load_matrix(rep["files"]["P"])
    assert p.shape == (3, 0)


def test_pretty_flag(files, capsys):
    code = main(["classify", "-i", files["a1"], "--pretty"])
    out = capsys.readouterr().out
    assert code == 0 and out.startswith("{\n")
