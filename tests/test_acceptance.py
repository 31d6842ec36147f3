"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete.
"""

import time

import numpy as np

from geninv import (
    OrderKind,
    approx_eq,
    cce_ep_criterion,
    cce_inverse,
    cmp_ep_criterion,
    cmp_inverse,
    conj_transpose,
    core_ep_equiv_report,
    core_nilpotent,
    core_upper_bound_check,
    diff_norm,
    dmp,
    dmp_order_characterizations,
    dmp_pinv_commute_criterion,
    drazin,
    fro_norm,
    greville_forms,
    hs_decompose,
    hs_derived,
    index,
    is_ep,
    leq,
    mat_pow,
    mpd,
    mpd_order_characterizations,
    mpdmp,
    mpdmp_ep_criterion,
    mpdmp_pinv,
    pinv,
    wqrt_criterion,
)
from geninv.ensembles import EnsembleSpec, gen, idempotent_core_samples
from geninv.exact import (
    RMatrix,
    exact_cmp,
    exact_dmp,
    exact_drazin,
    exact_mpd,
    exact_mpdmp,
    exact_pinv,
)
from geninv.verify import verify_system

A1 = np.array([[2, 0, 1], [0, 0, 2], [0, 0, 0]], dtype=complex)
A2 = np.array([[1, 0, 0], [1, 0, 1], [0, 0, 0]], dtype=complex)
A3 = np.array([[2, 0, 0], [0, 0, 0], [2, 2, 0]], dtype=complex)
B3 = np.array([[2, 0, 0], [0, 0, 0], [1, 0, 1]], dtype=complex)


def _report(num, description, ok):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num:2d}: {description}")
    assert ok, f"criterion {num} failed: {description}"


def _entrywise(a, expected):
    return float(np.abs(a - np.asarray(expected, dtype=complex)).max())


def test_criterion_01_first_fixture():
    start = time.perf_counter()
    errs = [
        _entrywise(pinv(A1), [[0.5, -0.25, 0], [0, 0, 0], [0, 0.5, 0]]),
        _entrywise(drazin(A1), [[0.5, 0, 0.25], [0, 0, 0], [0, 0, 0]]),
        _entrywise(dmp(A1), [[0.5, 0, 0], [0, 0, 0], [0, 0, 0]]),
        _entrywise(mpd(A1), [[0.5, 0, 0.25], [0, 0, 0], [0, 0, 0]]),
    ]
    elapsed = time.perf_counter() - start
    _report(1, "first fixture inverses match displayed values (1e-10)",
            max(errs) <= 1e-10 and elapsed < 1.0)


def test_criterion_02_second_fixture():
    errs = [
        _entrywise(pinv(A2), [[1, 0, 0], [0, 0, 0], [-1, 1, 0]]),
        _entrywise(drazin(A2), [[1, 0, 0], [1, 0, 0], [0, 0, 0]]),
        _entrywise(mpdmp(A2), [[1, 0, 0], [0, 0, 0], [0, 0, 0]]),
        _entrywise(dmp(A2), [[1, 0, 0], [1, 0, 0], [0, 0, 0]]),
        _entrywise(mpd(A2), [[1, 0, 0], [0, 0, 0], [0, 0, 0]]),
    ]
    same = float(np.abs(mpdmp(A2) - mpd(A2)).max())
    distinct = float(np.abs(mpdmp(A2) - dmp(A2)).max())
    _report(2, "second fixture inverses match; MPDMP = MPD but != DMP",
            max(errs) <= 1e-10 and same <= 1e-10 and distinct > 0.5)


def test_criterion_03_order_fixture():
    value_d = [[0.5, 0, 0], [0, 0, 0], [0.5, 0, 0]]
    value_c = [[0.5, 0, 0], [0, 0, 0], [0, 0, 0]]
    errs = [
        _entrywise(drazin(A3), value_d),
        _entrywise(dmp(A3), value_d),
        _entrywise(cmp_inverse(A3), value_c),
        _entrywise(mpd(A3), value_c),
    ]
    holds = {kind.value: leq(A3, B3, kind).holds for kind in OrderKind}
    expected = {"drazin": True, "dmp": True, "mpd": False, "cmp": False}
    _report(3, "third fixture values and relation report match",
            max(errs) <= 1e-10 and holds == expected)


def test_criterion_04_oracle_agreement():
    start = time.perf_counter()
    pairs = [
        (pinv, exact_pinv), (drazin, exact_drazin), (dmp, exact_dmp),
        (mpd, exact_mpd), (cmp_inverse, exact_cmp), (mpdmp, exact_mpdmp),
    ]
    worst = 0.0
    count = 0
    for size, seed in [(2, 201), (3, 202), (4, 203), (5, 204)]:
        for a in gen(EnsembleSpec(size=size, count=25, seed=seed,
                                  kind="integer_small")):
            count += 1
            exact_a = RMatrix([[int(x.real) for x in row] for row in a])
            for float_op, exact_op in pairs:
                got = float_op(a)
                want = exact_op(exact_a).to_complex()
                worst = max(worst, float(np.abs(got - want).max()))
    elapsed = time.perf_counter() - start
    _report(4, f"oracle agreement on {count} integer matrices "
               f"(worst {worst:.2e}, {elapsed:.1f}s)",
            count == 100 and worst <= 1e-8 and elapsed < 30.0)


def test_criterion_05_penrose_drazin_properties():
    rng = np.random.default_rng(205)
    failures = 0
    for _ in range(500):
        m, n = rng.integers(1, 9, 2)
        a = (rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n)))
        x = pinv(a)
        bound = 1e-8 * (1 + fro_norm(a)) ** 3
        ok = (diff_norm(a @ x @ a, a) <= bound
              and diff_norm(x @ a @ x, x) <= bound
              and fro_norm(conj_transpose(a @ x) - a @ x) <= bound
              and fro_norm(conj_transpose(x @ a) - x @ a) <= bound)
        q = int(rng.integers(1, 9))
        b = (rng.standard_normal((q, q)) + 1j * rng.standard_normal((q, q)))
        d = drazin(b)
        k = index(b)
        bound_b = 1e-8 * (1 + fro_norm(b)) ** 3
        ok = ok and (diff_norm(mat_pow(b, k + 1) @ d, mat_pow(b, k)) <= bound_b
                     and diff_norm(d @ b @ d, d) <= bound_b
                     and diff_norm(b @ d, d @ b) <= bound_b)
        failures += not ok
    _report(5, "Penrose and power-identity residual suites over 500 samples",
            failures == 0)


def test_criterion_06_seven_way_equivalence():
    specs = [EnsembleSpec(size=5, count=50, seed=206, kind="core_ep"),
             EnsembleSpec(size=5, count=50, seed=207, kind="generic")]
    disagreements = 0
    for spec in specs:
        for a in gen(spec):
            rep = core_ep_equiv_report(a)
            disagreements += sum(v != rep.is_core_ep
                                 for v in rep.core_ep_conditions.values())
    _report(6, "seven-way core-EP equivalence: 100% boolean agreement "
               "on 50 constructed + 50 generic samples",
            disagreements == 0)


def test_criterion_07_core_ep_collapse():
    worst = 0.0
    for a in gen(EnsembleSpec(size=5, count=100, seed=208, kind="core_ep")):
        d = drazin(a)
        bound = 1e-8 * (1 + fro_norm(a)) ** 2
        gap = max(diff_norm(dmp(a), d), diff_norm(mpd(a), d),
                  diff_norm(cmp_inverse(a), d))
        worst = max(worst, gap / bound)
    _report(7, f"DMP/MPD/CMP collapse onto the Drazin inverse on 100 "
               f"constructed samples (worst ratio {worst:.2e})",
            worst <= 1.0)


def test_criterion_08_core_upper_bound():
    rng = np.random.default_rng(209)
    failures = 0
    for _ in range(200):
        a = (rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6)))
        failures += not all(rep.holds for rep in core_upper_bound_check(a))
    _report(8, "core part is an upper bound in all four relations "
               "for 200 random 6x6 matrices",
            failures == 0)


def test_criterion_09_order_characterizations():
    rng = np.random.default_rng(210)
    disagreements = 0
    for _ in range(200):
        n = int(rng.integers(2, 6))
        a = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
        if rng.random() < 0.4:
            r = int(rng.integers(1, n + 1))
            x = rng.standard_normal((n, r)) + 1j * rng.standard_normal((n, r))
            y = rng.standard_normal((r, n)) + 1j * rng.standard_normal((r, n))
            a = x @ y
        b = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
        disagreements += len(set(dmp_order_characterizations(a, b))) != 1
        disagreements += len(set(mpd_order_characterizations(a, b))) != 1
        core = core_nilpotent(a).core
        disagreements += dmp_order_characterizations(a, core) != (True, True, True)
        disagreements += mpd_order_characterizations(a, core) != (True, True, True)
    _report(9, "DMP/MPD order characterizations agree on 200 pairs "
               "plus the positive family",
            disagreements == 0)


def test_criterion_10_uniqueness_systems():
    systems = ["a1", "a2", "remark_i", "remark_ii", "remark_iii",
               "remark_iv", "remark_v", "a101"]
    ok = True
    for system in systems:
        for a in (A1, A2, A3):
            rep = verify_system(a, system, seed=211, perturbations=10)
            eq_worst = max(v["worst_residual"] for k, v in rep.breakdown.items()
                           if k != "perturbation_refutation")
            refute = rep.breakdown["perturbation_refutation"]
            ok = ok and rep.failures == 0 and eq_worst <= 1e-9
            ok = ok and refute["worst_residual"] > 1e-4
    for a in gen(EnsembleSpec(size=5, count=5, seed=212, kind="core_ep")):
        rep = verify_system(a, "kj43", seed=213, perturbations=10)
        eq_worst = max(v["worst_residual"] for k, v in rep.breakdown.items()
                       if k != "perturbation_refutation")
        refute = rep.breakdown["perturbation_refutation"]
        ok = ok and rep.failures == 0 and eq_worst <= 1e-9
        ok = ok and refute["worst_residual"] > 1e-4
    _report(10, "uniqueness systems: solutions within 1e-9, every "
                "perturbation breaks an equation by > 1e-4",
            ok)


def test_criterion_11_closed_forms():
    # absolute 1e-9 agreement requires bounded conditioning, so the random
    # samples come from the generator classes with controlled spectra
    samples = [A1, A2, A3]
    for k in range(4):
        samples += gen(EnsembleSpec(size=5, count=10, seed=230 + k,
                                    kind="fixed_index", index=k))
    samples += gen(EnsembleSpec(size=5, count=20, seed=240, kind="core_ep"))
    samples += gen(EnsembleSpec(size=5, count=20, seed=241, kind="ep"))
    samples += gen(EnsembleSpec(size=4, count=10, seed=242, kind="integer_small"))
    samples += gen(EnsembleSpec(size=3, count=10, seed=243, kind="integer_small"))
    assert len(samples) == 103
    worst = 0.0
    for a in samples:
        h = hs_decompose(a)
        der = hs_derived(h)
        st_pinv = pinv(der.sigma_tilde)
        n = h.u.shape[0]
        block = np.zeros((n, n), dtype=complex)
        block[: h.r, :] = np.hstack([st_pinv @ h.q, st_pinv @ h.p])
        closed = h.u @ block @ conj_transpose(h.u)
        worst = max(worst, diff_norm(mpdmp_pinv(a), closed))
        g_dmp, g_mpd = greville_forms(a)
        worst = max(worst, diff_norm(g_dmp, dmp(a)), diff_norm(g_mpd, mpd(a)))
    _report(11, f"MPDMP pseudoinverse and power-formula dual paths agree "
                f"on fixtures + 100 samples (worst {worst:.2e})",
            worst <= 1e-9)


def test_criterion_12_ep_criteria_dual_paths():
    fixtures = [A1, A2, A3]
    random_samples = (
        gen(EnsembleSpec(size=5, count=34, seed=215, kind="generic"))
        + gen(EnsembleSpec(size=5, count=33, seed=216, kind="fixed_rank", rank=3))
        + gen(EnsembleSpec(size=5, count=33, seed=217, kind="integer_small"))
    )
    constructed = (
        gen(EnsembleSpec(size=5, count=25, seed=218, kind="core_ep"))
        + gen(EnsembleSpec(size=5, count=25, seed=219, kind="ep"))
        + gen(EnsembleSpec(size=5, count=20, seed=220, kind="fixed_index", index=2))
        + gen(EnsembleSpec(size=5, count=10, seed=221, kind="nilpotent"))
        + idempotent_core_samples(5, 20, seed=222)
    )
    assert len(random_samples) == 100 and len(constructed) == 100
    disagreements = 0
    for a in fixtures + random_samples + constructed:
        if not np.any(a != 0):
            continue
        h = hs_decompose(a)
        d = drazin(a)
        gp = pinv(dmp(a))
        cases = [
            (cmp_ep_criterion(h), is_ep(cmp_inverse(a))),
            (mpdmp_ep_criterion(h), is_ep(mpdmp(a))),
            (cce_ep_criterion(h), is_ep(cce_inverse(a))),
            (wqrt_criterion(a), is_ep(cmp_inverse(a))),
            (dmp_pinv_commute_criterion(h), approx_eq(gp @ d, d @ gp)),
        ]
        disagreements += sum(x != y for x, y in cases)
    _report(12, "EP criteria agree with direct tests on fixtures "
                "+ 100 random + 100 constructed samples",
            disagreements == 0)
