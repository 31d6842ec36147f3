"""Equation-system verifiers, solution families, and identity suites run
over random ensembles.

Uniqueness systems are checked two ways: the designated solution must
satisfy every equation, and random perturbations of it must break at least
one equation each. Suites test biconditionals in both directions (boolean
agreement per sample); one-directional results are tested one way only.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np

from .classify import (
    core_ep_equiv_report,
    dmp_pinv_commute_criterion,
    is_core_ep,
    is_ep,
)
from .drazin import _analyse
from .factor import pinv
from .kernel import (
    DEFAULT_TOL,
    InternalCheckError,
    PreconditionError,
    Tolerance,
    approx_eq,
    conj_transpose,
    diff_norm,
    mat_pow,
)
from .orders import (
    OrderKind,
    core_upper_bound_check,
    dmp_order_characterizations,
    leq,
    mpd_order_characterizations,
)
from .ensembles import EnsembleSpec, gen, idempotent_core_samples

__all__ = [
    "UnknownSystemError",
    "UnknownSuiteError",
    "VerificationReport",
    "SYSTEM_IDS",
    "SUITE_IDS",
    "verify_system",
    "solution_family",
    "run_suite",
]


class UnknownSystemError(ValueError):
    """No equation system with that identifier."""


class UnknownSuiteError(ValueError):
    """No verification suite with that identifier."""


@dataclass
class VerificationReport:
    """Per-suite outcome: sample counts, failures, and worst residual of
    the identities that were required to hold."""

    suite: str
    samples: int = 0
    failures: int = 0
    worst_residual: float = 0.0
    breakdown: dict[str, dict] = field(default_factory=dict)

    def record(self, check: str, ok: bool, residual: float = 0.0) -> None:
        entry = self.breakdown.setdefault(
            check, {"samples": 0, "failures": 0, "worst_residual": 0.0}
        )
        entry["samples"] += 1
        if not ok:
            entry["failures"] += 1
            self.failures += 1
        entry["worst_residual"] = max(entry["worst_residual"], residual)
        self.worst_residual = max(self.worst_residual, residual)

    def note(self, check: str) -> None:
        entry = self.breakdown.setdefault(
            check, {"samples": 0, "failures": 0, "worst_residual": 0.0}
        )
        entry["samples"] += 1

    @property
    def passed(self) -> bool:
        return self.failures == 0

    def to_dict(self) -> dict:
        return {
            "suite": self.suite,
            "samples": self.samples,
            "failures": self.failures,
            "worst_residual": self.worst_residual,
            "passed": self.passed,
            "breakdown": self.breakdown,
        }


SYSTEM_IDS = (
    "a2",
    "a1",
    "remark_i",
    "remark_ii",
    "remark_iii",
    "remark_iv",
    "remark_v",
    "a101",
    "kj43",
)


def _system_equations(rec, system: str, tol: Tolerance):
    """Designated solution and equations (label, lhs(X), rhs(X)) of a system."""
    a, p, d = rec.a, rec.pinv, rec.drazin
    p_a = a @ p
    q_a = p @ a

    if system == "a2":
        x = d @ p
        eqs = [
            ("x_pa_eq_x", lambda x: x @ p_a, lambda x: x),
            ("xa_eq_drazin", lambda x: x @ a, lambda x: d),
        ]
        return x, eqs

    if system in ("a1", "remark_i", "remark_ii", "remark_iii",
                  "remark_iv", "remark_v"):
        x = p @ d @ p
        a3 = mat_pow(a, 3)
        eqs = {
            "a1": [
                ("x_a3_x_eq_x", lambda x: x @ a3 @ x, lambda x: x),
                ("ax_eq_d_mp", lambda x: a @ x, lambda x: d @ p),
                ("xa_eq_mp_d", lambda x: x @ a, lambda x: p @ d),
            ],
            "remark_i": [
                ("qa_x_pa_eq_x", lambda x: q_a @ x @ p_a, lambda x: x),
                ("ax_eq_d_mp", lambda x: a @ x, lambda x: d @ p),
            ],
            "remark_ii": [
                ("qa_x_pa_eq_x", lambda x: q_a @ x @ p_a, lambda x: x),
                ("axa_eq_drazin", lambda x: a @ x @ a, lambda x: d),
            ],
            "remark_iii": [
                ("qa_x_pa_eq_x", lambda x: q_a @ x @ p_a, lambda x: x),
                ("xa_eq_mp_d", lambda x: x @ a, lambda x: p @ d),
            ],
            "remark_iv": [
                ("x_pa_eq_x", lambda x: x @ p_a, lambda x: x),
                ("xa_eq_mp_d", lambda x: x @ a, lambda x: p @ d),
            ],
            "remark_v": [
                ("qa_x_eq_x", lambda x: q_a @ x, lambda x: x),
                ("ax_eq_d_mp", lambda x: a @ x, lambda x: d @ p),
            ],
        }[system]
        return x, eqs

    if system == "a101":
        k = rec.index
        ak = mat_pow(a, k)
        ak1 = mat_pow(a, k + 1)
        x = rec.core
        eqs = [
            ("ak_x_eq_ak1", lambda x: ak @ x, lambda x: ak1),
            ("ax_eq_xa", lambda x: a @ x, lambda x: x @ a),
            ("x_d_x_eq_x", lambda x: x @ d @ x, lambda x: x),
        ]
        return x, eqs

    if system == "kj43":
        if not is_core_ep(rec, tol):
            raise PreconditionError("system kj43 requires a core-EP matrix")
        k = rec.index
        ak = mat_pow(a, k)
        proj_range = ak @ rec.power_pinv(k)
        spectral = a @ d
        a3 = mat_pow(a, 3)
        x = rec.mpdmp
        eqs = [
            ("a3_x_eq_spectral_projector", lambda x: a3 @ x, lambda x: spectral),
            ("range_inclusion", lambda x: proj_range @ x, lambda x: x),
        ]
        return x, eqs

    raise UnknownSystemError(f"unknown system {system!r}")


def verify_system(a: np.ndarray, system: str, tol: Tolerance = DEFAULT_TOL,
                  seed: int = 0, perturbations: int = 10,
                  step: float = 1e-2,
                  min_violation: float = 1e-4) -> VerificationReport:
    """Substitute the designated solution into the named system, then try
    random perturbations, each of which must break at least one equation
    by more than min_violation."""
    rec = _analyse(a, tol)
    x, eqs = _system_equations(rec, system, tol)
    report = VerificationReport(suite=f"system:{system}")

    for label, lhs, rhs in eqs:
        left, right = lhs(x), rhs(x)
        report.record(label, approx_eq(left, right, tol), diff_norm(left, right))
    report.samples = 1

    rng = np.random.default_rng(seed)
    n = rec.a.shape[0]
    for _ in range(perturbations):
        e = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        e /= np.linalg.norm(e)
        xp = x + step * e
        violation = max(diff_norm(lhs(xp), rhs(xp)) for _, lhs, rhs in eqs)
        entry = report.breakdown.setdefault(
            "perturbation_refutation",
            {"samples": 0, "failures": 0, "worst_residual": np.inf},
        )
        entry["samples"] += 1
        entry["worst_residual"] = min(entry["worst_residual"], violation)
        if violation <= min_violation:
            entry["failures"] += 1
            report.failures += 1
    return report


def solution_family(a: np.ndarray, f: np.ndarray, which: str,
                    tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Member of the affine solution family of x a = a^+ core(a) (q1) or
    core(a) a^+ = a x (q2); the family equation is re-verified on return."""
    a = np.asarray(a, dtype=np.complex128)
    f = np.asarray(f, dtype=np.complex128)
    if a.shape != f.shape or a.shape[0] != a.shape[1]:
        raise ValueError("a and f must be square and of equal size")
    rec = _analyse(a, tol)
    p, core = rec.pinv, rec.core
    eye = np.eye(a.shape[0], dtype=np.complex128)
    if which == "q1":
        x = rec.mpd + f @ (eye - a @ p)
        if not approx_eq(x @ a, p @ core, tol):
            raise InternalCheckError("family member violates x a = a^+ core(a)")
        return x
    if which == "q2":
        x = rec.dmp + (eye - p @ a) @ f
        if not approx_eq(a @ x, core @ p, tol):
            raise InternalCheckError("family member violates core(a) a^+ = a x")
        return x
    raise ValueError(f"unknown family {which!r}; use 'q1' or 'q2'")


SUITE_IDS = (
    "core_ep_equiv",
    "core_ep_collapse",
    "six_part",
    "ass",
    "five_way_mp",
    "five_way_core",
    "commute_lemma",
    "ew2",
    "adf",
    "orders_kep",
    "cce_conditional",
)


def _agree(report, label, b_left, b_right, residual=0.0):
    report.record(label, b_left == b_right, residual)


def _suite_core_ep_equiv(samples, report, tol):
    for a in samples:
        rep = core_ep_equiv_report(a, tol)
        for label, value in rep.core_ep_conditions.items():
            residual = rep.residuals[label] if rep.is_core_ep else 0.0
            _agree(report, label, value, rep.is_core_ep, residual)


def _suite_core_ep_collapse(samples, report, tol):
    for a in samples:
        rec = _analyse(a, tol)
        if not is_core_ep(rec, tol):
            report.note("not_core_ep_skipped")
            continue
        d, g, h, c, m = rec.drazin, rec.dmp, rec.mpd, rec.cmp, rec.mpdmp
        report.record("dmp_eq_drazin", approx_eq(g, d, tol), diff_norm(g, d))
        report.record("mpd_eq_drazin", approx_eq(h, d, tol), diff_norm(h, d))
        report.record("cmp_eq_drazin", approx_eq(c, d, tol), diff_norm(c, d))
        report.record("dmp_eq_mpd", approx_eq(g, h, tol), diff_norm(g, h))
        _agree(report, "mpdmp_dmp_iff_mpdmp_mpd",
               approx_eq(m, g, tol), approx_eq(m, h, tol))


def _suite_six_part(samples, report, tol):
    for a in samples:
        rec = _analyse(a, tol)
        if not is_core_ep(rec, tol):
            report.note("not_core_ep_skipped")
            continue
        p, h, g, c, m = rec.pinv, rec.mpd, rec.dmp, rec.cmp, rec.mpdmp
        d, core = rec.drazin, rec.core
        q_a = p @ a
        a2 = a @ a
        pairs = [
            ("mpd_commutes_matrix", h @ a, a @ h),
            ("mpd_commutes_drazin", h @ d, d @ h),
            ("mpd_commutes_core", h @ core, core @ h),
            ("mpdmp_commutes_mpd", m @ h, h @ m),
            ("core_eq_cmp_a2", core, c @ a2),
            ("core_eq_mpd_a2", core, h @ a2),
            ("core_eq_dmp_a2", core, g @ a2),
            ("qa_core_eq_core", q_a @ core, core),
            ("core_qa_eq_core", core @ q_a, core),
        ]
        for label, lhs, rhs in pairs:
            report.record(label, approx_eq(lhs, rhs, tol), diff_norm(lhs, rhs))


def _suite_ass(samples, report, tol):
    for a in samples:
        rec = _analyse(a, tol)
        k = rec.index
        ak = mat_pow(a, k)
        ak1 = mat_pow(a, k + 1)
        eye = np.eye(a.shape[0], dtype=np.complex128)
        proj = ak @ rec.power_pinv(k)
        b_product = approx_eq(rec.cmp, rec.mpd @ rec.dmp, tol)
        b_power = approx_eq(ak1, ak, tol)
        b_range = approx_eq((eye - a) @ proj, np.zeros_like(a), tol)
        _agree(report, "product_iff_idempotent_power", b_product, b_power)
        _agree(report, "idempotent_power_iff_range", b_power, b_range)


def _suite_five_way_mp(samples, report, tol):
    for a in samples:
        if not np.any(a != 0):
            report.note("zero_skipped")
            continue
        rec = _analyse(a, tol)
        h = rec.hs
        p, d, c, g, m = rec.pinv, rec.drazin, rec.cmp, rec.dmp, rec.mpd
        ak = mat_pow(a, rec.index)
        gp = pinv(g, tol)
        ps = conj_transpose(p)
        _agree(report, "dmp_pinv_commutes",
               dmp_pinv_commute_criterion(h, tol),
               approx_eq(gp @ d, d @ gp, tol))
        _agree(report, "cmp_eq_mpd_a",
               approx_eq(c, m @ a, tol), approx_eq(ak @ p, ak, tol))
        _agree(report, "cmp_eq_a_dmp",
               approx_eq(c, a @ g, tol), approx_eq(p @ ak, ak, tol))
        _agree(report, "cmp_eq_mpd_astar",
               approx_eq(c, m @ conj_transpose(a), tol),
               approx_eq(ak @ ps, ak, tol))
        _agree(report, "cmp_eq_astar_dmp",
               approx_eq(c, conj_transpose(a) @ g, tol),
               approx_eq(ps @ ak, ak, tol))


def _suite_five_way_core(samples, report, tol):
    for a in samples:
        rec = _analyse(a, tol)
        p, d_inv, m_inv, c_inv, core = rec.pinv, rec.dmp, rec.mpd, rec.cmp, rec.core
        k = rec.index
        ak = mat_pow(a, k)
        ak1 = mat_pow(a, k + 1)
        eye = np.eye(a.shape[0], dtype=np.complex128)
        zero = np.zeros_like(a)
        _agree(report, "dmp_core_commute_iff_null",
               approx_eq(d_inv @ core, core @ d_inv, tol),
               approx_eq(ak @ (eye - a @ p), zero, tol))
        _agree(report, "mpd_core_commute_iff_range",
               approx_eq(m_inv @ core, core @ m_inv, tol),
               approx_eq((eye - p @ a) @ ak, zero, tol))
        _agree(report, "core_fixed_by_dmp_iff_idempotent_power",
               approx_eq(core, d_inv @ core, tol), approx_eq(ak, ak1, tol))
        _agree(report, "core_fixed_by_mpd_iff_mp_fixes_power",
               approx_eq(core, m_inv @ core, tol), approx_eq(p @ ak, ak, tol))
        _agree(report, "core_fixed_by_cmp_iff_mp_fixes_power",
               approx_eq(core, c_inv @ core, tol), approx_eq(p @ ak, ak, tol))


def _suite_commute_lemma(samples, report, tol):
    for a in samples:
        rec = _analyse(a, tol)
        d = rec.drazin
        lhs = d @ rec.mpd
        rhs = rec.dmp @ d
        d2 = d @ d
        report.record("drazin_mpd_eq_dmp_drazin", approx_eq(lhs, rhs, tol),
                      diff_norm(lhs, rhs))
        report.record("drazin_mpd_eq_drazin_sq", approx_eq(lhs, d2, tol),
                      diff_norm(lhs, d2))
        report.record("dmp_drazin_eq_drazin_sq", approx_eq(rhs, d2, tol),
                      diff_norm(rhs, d2))


def _suite_ew2(samples, report, tol):
    for a in samples:
        for rep in core_upper_bound_check(a, tol):
            report.record(f"core_upper_bound_{rep.kind.value}", rep.holds,
                          max(rep.left_residual, rep.right_residual))


def _suite_adf(samples, report, tol):
    recs = [_analyse(a, tol) for a in samples]
    pairs = [(recs[2 * i], samples[2 * i + 1]) for i in range(len(samples) // 2)]
    pairs += [(rec, rec.core) for rec in recs]
    for a, b in pairs:
        t1 = dmp_order_characterizations(a, b, tol)
        t2 = mpd_order_characterizations(a, b, tol)
        report.record("dmp_characterizations_agree", len(set(t1)) == 1)
        report.record("mpd_characterizations_agree", len(set(t2)) == 1)


def _suite_cce_conditional(samples, report, tol):
    for a in samples:
        if not np.any(a != 0):
            report.note("zero_skipped")
            continue
        rec = _analyse(a, tol)
        core = _analyse(rec.hs.core, tol)
        if not approx_eq(core.core_ep, core.drazin, tol):
            report.note("hypothesis_skipped")
            continue
        report.note("qualified")
        c = _analyse(rec.cmp, tol)
        cp = c.pinv
        z = rec.cce
        _agree(report, "cmp_ep_iff_cce_commutes",
               is_ep(c, tol), approx_eq(z @ cp, cp @ z, tol))


_PLAIN_SUITES = {
    "core_ep_equiv": _suite_core_ep_equiv,
    "core_ep_collapse": _suite_core_ep_collapse,
    "six_part": _suite_six_part,
    "five_way_mp": _suite_five_way_mp,
    "five_way_core": _suite_five_way_core,
    "commute_lemma": _suite_commute_lemma,
    "ew2": _suite_ew2,
    "adf": _suite_adf,
    "cce_conditional": _suite_cce_conditional,
}


def run_suite(suite: str, spec: EnsembleSpec | Sequence[EnsembleSpec],
              tol: Tolerance = DEFAULT_TOL) -> VerificationReport:
    """Run a named identity suite over the ensemble(s).

    "ass" adds idempotent-core witnesses derived from the first spec's
    seed; "orders_kep" draws the left operands from the spec with its
    class forced to k_ep and the right operands from the spec as given;
    "adf" consumes the ensemble pairwise and adds (a, core(a)) pairs.
    """
    specs = [spec] if isinstance(spec, EnsembleSpec) else list(spec)
    if suite not in SUITE_IDS:
        raise UnknownSuiteError(f"unknown suite {suite!r}")
    samples = [a for s in specs for a in gen(s, tol)]
    report = VerificationReport(suite=suite)

    if suite in _PLAIN_SUITES:
        _PLAIN_SUITES[suite](samples, report, tol)
    elif suite == "ass":
        first = specs[0]
        witnesses = idempotent_core_samples(first.size, len(samples), first.seed)
        _suite_ass(samples + witnesses, report, tol)
        samples = samples + witnesses
    elif suite == "orders_kep":
        kep_samples = [a for s in specs
                       for a in gen(replace(s, kind="k_ep"), tol)]
        for a, b in zip(kep_samples, samples):
            rec = _analyse(a, tol)
            holds = [leq(rec, b, kind, tol).holds for kind in OrderKind]
            report.record("four_relations_agree", len(set(holds)) == 1)
    report.samples = len(samples)
    return report
