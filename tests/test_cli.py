import json

import numpy as np
import pytest

from geninv.cli import (
    MatrixFileError,
    load_matrix,
    main,
    matrix_from_obj,
    matrix_to_obj,
    save_matrix,
)


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


def test_compute_group_precondition(files, capsys):
    code, _ = run_cli(capsys, "compute", "-i", files["a1"], "--which", "group")
    assert code == 3
    assert "index" in run_cli.err


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
    # form their powers of a from 2^-e a too, so each is finite, and no
    # overflow warning is raised on the way.
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


def test_compute_malformed(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    code, _ = run_cli(capsys, "compute", "-i", str(bad), "--which", "mp")
    assert code == 2
    code, _ = run_cli(capsys, "compute", "-i", str(tmp_path / "missing.json"),
                      "--which", "mp")
    assert code == 2


def test_classify_fixture(files, capsys):
    code, rep = run_cli(capsys, "classify", "-i", files["a1"])
    assert code == 0
    assert rep["index"] == 2 and rep["rank"] == 2
    assert rep["is_core_ep"] is False
    assert set(rep["core_ep_conditions"].values()) == {False}
    assert rep["flags"] == []


def test_classify_identity(tmp_path, capsys):
    p = str(tmp_path / "i.json")
    save_matrix(p, np.eye(3, dtype=complex))
    code, rep = run_cli(capsys, "classify", "-i", p)
    assert code == 0
    assert rep["is_ep"] is True and rep["index"] == 0


def test_classify_non_square(files, capsys):
    code, _ = run_cli(capsys, "classify", "-i", files["rect"])
    assert code == 4


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


def test_order_size_mismatch(files, tmp_path, capsys):
    p = str(tmp_path / "small.json")
    save_matrix(p, np.eye(2, dtype=complex))
    code, _ = run_cli(capsys, "order", "--a", files["a3"], "--b", p)
    assert code == 4


def test_verify_suite_ok(capsys):
    code, rep = run_cli(capsys, "verify", "--suite", "ew2", "--size", "4",
                        "--count", "10", "--seed", "42")
    assert code == 0
    assert rep["failures"] == 0 and rep["passed"] is True


def test_verify_unknown_suite(capsys):
    code, _ = run_cli(capsys, "verify", "--suite", "nonsense")
    assert code == 5


def test_verify_unknown_class(capsys):
    code, _ = run_cli(capsys, "verify", "--suite", "ew2", "--class", "weird")
    assert code == 5


def test_verify_bad_size(capsys):
    code, _ = run_cli(capsys, "verify", "--suite", "ew2", "--size", "40")
    assert code == 3


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


def test_hs_zero_matrix(files, capsys):
    code, _ = run_cli(capsys, "hs", "-i", files["zero"])
    assert code == 3


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
