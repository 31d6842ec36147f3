"""Equation-system verifiers, solution families, and identity suites run
over random ensembles.

Uniqueness systems are checked two ways: the designated solution must
satisfy every equation, and random perturbations of it must break at least
one equation each. Suites test biconditionals in both directions (boolean
agreement per sample); one-directional results are tested one way only.
Both are tables, `_SYSTEMS` and `_SUITES`, of (label, sides) identities,
each judged by `kernel._check` with the `_compare` of the subject's record.
"""

from __future__ import annotations

import math
import numbers
import operator
from dataclasses import dataclass, field, replace
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .classify import _CORE_EP_CONDITIONS
from .drazin import _analyse, _operand
from .kernel import (
    DEFAULT_TOL,
    InternalCheckError,
    PreconditionError,
    Tolerance,
    _check,
    conj_transpose,
    diff_norm,
)
from .orders import (
    OrderKind,
    _order_sides,
    dmp_order_characterizations,
    leq,
    mpd_order_characterizations,
)
from .ensembles import EnsembleSpec, InvalidSpecError, _records, idempotent_core_samples

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
        self.record(check, True)

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


# Uniqueness systems: system -> (solution(rec), equations). Each
# equation is (label, sides(rec, x)), two matrices that are equal at the
# designated solution x and that a perturbation of x must pull apart.
_AX_EQ_D_MP = ("ax_eq_d_mp", lambda r, x: (r.a @ x, r.drazin @ r.pinv))
_XA_EQ_MP_D = ("xa_eq_mp_d", lambda r, x: (x @ r.a, r.pinv @ r.drazin))
# the equations of the CMP inverse that the two solution families keep
_AX_EQ_CORE_MP = ("ax_eq_core_mp", lambda r, x: (r.a @ x, r.core @ r.pinv))
_XA_EQ_MP_CORE = ("xa_eq_mp_core", lambda r, x: (x @ r.a, r.pinv @ r.core))
_X_PA_EQ_X = ("x_pa_eq_x", lambda r, x: (x @ (r.a @ r.pinv), x))
_QA_X_PA_EQ_X = ("qa_x_pa_eq_x", lambda r, x: (r.pinv @ r.a @ x @ (r.a @ r.pinv), x))


def _mpdmp(rec):
    return rec.mpdmp


def _core_ep_mpdmp(rec):
    if not rec.is_core_ep:
        raise PreconditionError("system kj43 requires a core-EP matrix")
    return rec.mpdmp


_SYSTEMS = {
    "a2": (lambda r: r.drazin @ r.pinv, (
        _X_PA_EQ_X,
        ("xa_eq_drazin", lambda r, x: (x @ r.a, r.drazin)),
    )),
    "a1": (_mpdmp, (
        # (x A^3) x: the scales of x and A^3 cancel before the second x
        ("x_a3_x_eq_x", lambda r, x: (x @ r.power(3) @ x, x)),
        _AX_EQ_D_MP,
        _XA_EQ_MP_D,
    )),
    "remark_i": (_mpdmp, (_QA_X_PA_EQ_X, _AX_EQ_D_MP)),
    "remark_ii": (_mpdmp, (
        _QA_X_PA_EQ_X,
        ("axa_eq_drazin", lambda r, x: (r.a @ x @ r.a, r.drazin)),
    )),
    "remark_iii": (_mpdmp, (_QA_X_PA_EQ_X, _XA_EQ_MP_D)),
    "remark_iv": (_mpdmp, (_X_PA_EQ_X, _XA_EQ_MP_D)),
    "remark_v": (_mpdmp, (
        ("qa_x_eq_x", lambda r, x: (r.pinv @ r.a @ x, x)),
        _AX_EQ_D_MP,
    )),
    "a101": (lambda r: r.core, (
        ("ak_x_eq_ak1", lambda r, x: (r.power(r.index) @ x, r.power(r.index + 1))),
        ("ax_eq_xa", lambda r, x: (r.a @ x, x @ r.a)),
        ("x_d_x_eq_x", lambda r, x: (x @ r.drazin @ x, x)),
    )),
    "kj43": (_core_ep_mpdmp, (
        ("a3_x_eq_spectral_projector", lambda r, x: (r.power(3) @ x, r.a @ r.drazin)),
        ("range_inclusion", lambda r, x: (r.a @ r.core_ep @ x, x)),
    )),
}

SYSTEM_IDS = tuple(_SYSTEMS)


def verify_system(a: np.ndarray, system: str, tol: Tolerance = DEFAULT_TOL,
                  seed: int = 0, perturbations: int = 10,
                  step: float = 1e-2,
                  min_violation: float = 1e-4) -> VerificationReport:
    """Substitute the designated solution into the named system, then try
    random perturbations, each of which must break at least one equation
    by more than min_violation. The system is evaluated on B = 2^-e a (e as
    in `svd`), so the report is the same for every power-of-two multiple of
    a; the residuals are B's. The seed and the number of perturbations are
    integers (not bools) >= 0, the step a finite real > 0 and min_violation
    not NaN; anything else raises ValueError."""
    if system not in _SYSTEMS:
        raise UnknownSystemError(f"unknown system {system!r}")
    for name, value in (("seed", seed), ("perturbations", perturbations)):
        try:
            if isinstance(value, bool) or operator.index(value) < 0:
                raise TypeError
        except TypeError:
            raise ValueError(f"{name} must be an integer >= 0, got {value!r}") from None
    if isinstance(step, bool) or not isinstance(step, numbers.Real) or not 0 < step < math.inf:
        raise ValueError(f"step must be a finite real > 0, got {step!r}")
    if math.isnan(min_violation):
        raise ValueError("min_violation must not be NaN")
    rec = _analyse(a, tol).unit
    solution, eqs = _SYSTEMS[system]
    x = solution(rec)
    report = VerificationReport(suite=f"system:{system}")
    for label, sides in eqs:
        report.record(label, *_check(sides(rec, x), rec._compare))
    report.samples = 1

    rng = np.random.default_rng(seed)
    n = rec.a.shape[0]
    for _ in range(perturbations):
        e = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        e /= np.linalg.norm(e)
        xp = x + step * e
        violation = max(diff_norm(*sides(rec, xp)) for _, sides in eqs)
        entry = report.breakdown.setdefault(
            "perturbation_refutation",
            {"samples": 0, "failures": 0, "worst_residual": np.inf},
        )
        entry["samples"] += 1
        entry["worst_residual"] = min(entry["worst_residual"], violation)
        if not violation > min_violation:  # a NaN violation refutes nothing
            entry["failures"] += 1
            report.failures += 1
    return report


def solution_family(a: np.ndarray, f: np.ndarray, which: str,
                    tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Member of the affine solution family of x a = a^+ core(a) (q1) or
    core(a) a^+ = a x (q2); on return the member is checked against that
    equation, the CMP row `xa_eq_mp_core` or `ax_eq_core_mp` that
    `geninv compute --which cmp` reports."""
    rec = _analyse(a, tol)
    f = _operand(rec, f)
    a, p = rec.a, rec.pinv
    eye = rec.power(0)
    if which == "q1":
        x, (_, sides), law = rec.mpd + f @ (eye - a @ p), _XA_EQ_MP_CORE, "x a = a^+ core(a)"
    elif which == "q2":
        x, (_, sides), law = rec.dmp + (eye - p @ a) @ f, _AX_EQ_CORE_MP, "core(a) a^+ = a x"
    else:
        raise ValueError(f"unknown family {which!r}; use 'q1' or 'q2'")
    if not _check(sides(rec, x), rec._compare)[0]:
        raise InternalCheckError(f"family member violates {law}")
    return x


def _drawn(specs, tol):
    """The ensembles' samples as records, each a subject of the identities."""
    recs = [rec for spec in specs for rec in _records(spec, tol)]
    return recs, recs


def _with_witnesses(specs, tol):
    """The samples plus as many idempotent-core witnesses, seeded from the
    first spec."""
    recs, _ = _drawn(specs, tol)
    first = specs[0]
    recs += [_analyse(w, tol) for w in
             idempotent_core_samples(first.size, len(recs), first.seed)]
    return recs, recs


def _adf_pairs(specs, tol):
    """The samples taken pairwise, then each with its core part."""
    recs, _ = _drawn(specs, tol)
    pairs = [(recs[2 * i], recs[2 * i + 1]) for i in range(len(recs) // 2)]
    return recs, pairs + [(rec, rec.core) for rec in recs]


def _kep_pairs(specs, tol):
    """Left operands from the specs with the class forced to k_ep, right
    operands from the specs as given."""
    recs, _ = _drawn(specs, tol)
    keps, _ = _drawn([replace(s, kind="k_ep", rank=None, index=None) for s in specs], tol)
    return recs, list(zip(keps, recs))


class _Suite(NamedTuple):
    """An identity suite: its identities (label, sides(subject)), the skip
    rules (note, applies(subject)) tried in order before them, and the
    source (specs, tol) -> (samples, subjects). A subject is a record, or a
    pair whose first member is a record; that record judges the identities."""

    identities: tuple
    skips: tuple = ()
    source: Callable = _drawn

    @property
    def pairwise(self) -> bool:
        """Whether the subjects are pairs: the source is `_adf_pairs` or `_kep_pairs`."""
        return self.source in (_adf_pairs, _kep_pairs)

    def judge(self, subject):
        """The note of the first skip rule that applies to the subject, or
        (label, holds, residual) for every identity, judged by its record."""
        for note, applies in self.skips:
            if applies(subject):
                return note
        compare = (subject[0] if self.pairwise else subject)._compare
        return [(label, *_check(sides(subject), compare)) for label, sides in self.identities]


def _iff_core_ep(sides):
    """A core-EP condition as a suite identity: on a core-EP subject it must
    hold, and its residual is recorded; on any other it must fail."""
    return lambda r: sides(r) if r.is_core_ep else (sides(r), False)


# The two block statements on SQ, read from the record of the DMP inverse:
# with A = U [[SQ, SP], [0, 0]] U* and P = AA^+, P A^D P = A^D A A^+ is
# U diag((SQ)^D, 0) U* and A^D A (I - P) is U [[0, (SQ)^D SP], [0, 0]] U*.
def _dmp_pinv_commutes(r):
    """(DMP)^+ commutes with A^D iff (SQ)^D is EP and (SQ)^D SP = 0, that
    is, iff the DMP inverse is EP and A^D A (I - AA^+) = 0."""
    d = r._of(r.dmp)
    null = r._compare(r.drazin @ r.a @ (r.power(0) - r.a @ r.pinv), r.a - r.a)[0]
    return d.is_ep and null, (d.pinv @ r.drazin, r.drazin @ d.pinv)


def _cce_hypothesis_fails(r):
    """(SQ)^CE != (SQ)^D, that is, the DMP inverse is not EP: for any T of
    index k, T^CE = T^D P_R(T^k), which is T^D iff T^D is EP. The verdict is
    decided on 2^-e DMP, so the skip does not depend on the scale of A."""
    return not r._of(r.dmp).is_ep


def _cmp_ep_iff_cce_commutes(r):
    c = r._of(r.cmp)
    z, cp = r.cce, c.pinv
    return c.is_ep, (z @ cp, cp @ z)


_NOT_CORE_EP = ("not_core_ep_skipped", lambda r: not r.is_core_ep)
_ZERO = ("zero_skipped", lambda r: r.rank == 0)

# A^0 = I and A - A, a zero matrix with +0.0 entries, on either record
_SUITES = {
    "core_ep_equiv": _Suite(tuple(
        (label, _iff_core_ep(sides)) for label, sides in _CORE_EP_CONDITIONS)),
    "core_ep_collapse": _Suite(skips=(_NOT_CORE_EP,), identities=(
        ("dmp_eq_drazin", lambda r: (r.dmp, r.drazin)),
        ("mpd_eq_drazin", lambda r: (r.mpd, r.drazin)),
        ("cmp_eq_drazin", lambda r: (r.cmp, r.drazin)),
        ("dmp_eq_mpd", lambda r: (r.dmp, r.mpd)),
        ("mpdmp_dmp_iff_mpdmp_mpd",
         lambda r: ((r.mpdmp, r.dmp), (r.mpdmp, r.mpd))),
    )),
    "six_part": _Suite(skips=(_NOT_CORE_EP,), identities=(
        ("mpd_commutes_matrix", lambda r: (r.mpd @ r.a, r.a @ r.mpd)),
        ("mpd_commutes_drazin", lambda r: (r.mpd @ r.drazin, r.drazin @ r.mpd)),
        ("mpd_commutes_core", lambda r: (r.mpd @ r.core, r.core @ r.mpd)),
        ("mpdmp_commutes_mpd", lambda r: (r.mpdmp @ r.mpd, r.mpd @ r.mpdmp)),
        ("core_eq_cmp_a2", lambda r: (r.core, r.cmp @ (r.a @ r.a))),
        ("core_eq_mpd_a2", lambda r: (r.core, r.mpd @ (r.a @ r.a))),
        ("core_eq_dmp_a2", lambda r: (r.core, r.dmp @ (r.a @ r.a))),
        ("qa_core_eq_core", lambda r: (r.pinv @ r.a @ r.core, r.core)),
        ("core_qa_eq_core", lambda r: (r.core @ (r.pinv @ r.a), r.core)),
    )),
    "ass": _Suite(source=_with_witnesses, identities=(
        ("product_iff_idempotent_power",
         lambda r: ((r.cmp, r.mpd @ r.dmp), (r.power(r.index + 1), r.power(r.index)))),
        ("idempotent_power_iff_range",
         lambda r: ((r.power(r.index + 1), r.power(r.index)),
                    ((r.power(0) - r.a) @ r.a @ r.core_ep, r.a - r.a))),
    )),
    "five_way_mp": _Suite(skips=(_ZERO,), identities=(
        ("dmp_pinv_commutes", _dmp_pinv_commutes),
        ("cmp_eq_mpd_a", lambda r: ((r.cmp, r.mpd @ r.a),
                                    (r.power(r.index) @ r.pinv, r.power(r.index)))),
        ("cmp_eq_a_dmp", lambda r: ((r.cmp, r.a @ r.dmp),
                                    (r.pinv @ r.power(r.index), r.power(r.index)))),
        ("cmp_eq_mpd_astar", lambda r: ((r.cmp, r.mpd @ conj_transpose(r.a)),
                                        (r.power(r.index) @ conj_transpose(r.pinv),
                                         r.power(r.index)))),
        ("cmp_eq_astar_dmp", lambda r: ((r.cmp, conj_transpose(r.a) @ r.dmp),
                                        (conj_transpose(r.pinv) @ r.power(r.index),
                                         r.power(r.index)))),
    )),
    "five_way_core": _Suite((
        ("dmp_core_commute_iff_null",
         lambda r: ((r.dmp @ r.core, r.core @ r.dmp),
                    (r.power(r.index) @ (r.power(0) - r.a @ r.pinv), r.a - r.a))),
        ("mpd_core_commute_iff_range",
         lambda r: ((r.mpd @ r.core, r.core @ r.mpd),
                    ((r.power(0) - r.pinv @ r.a) @ r.power(r.index), r.a - r.a))),
        ("core_fixed_by_dmp_iff_idempotent_power",
         lambda r: ((r.core, r.dmp @ r.core), (r.power(r.index), r.power(r.index + 1)))),
        ("core_fixed_by_mpd_iff_mp_fixes_power",
         lambda r: ((r.core, r.mpd @ r.core), (r.pinv @ r.power(r.index), r.power(r.index)))),
        ("core_fixed_by_cmp_iff_mp_fixes_power",
         lambda r: ((r.core, r.cmp @ r.core), (r.pinv @ r.power(r.index), r.power(r.index)))),
    )),
    "commute_lemma": _Suite((
        ("drazin_mpd_eq_dmp_drazin", lambda r: (r.drazin @ r.mpd, r.dmp @ r.drazin)),
        ("drazin_mpd_eq_drazin_sq", lambda r: (r.drazin @ r.mpd, r.drazin @ r.drazin)),
        ("dmp_drazin_eq_drazin_sq", lambda r: (r.dmp @ r.drazin, r.drazin @ r.drazin)),
    )),
    "ew2": _Suite(tuple(
        (f"core_upper_bound_{kind.value}",
         lambda r, kind=kind: _order_sides(r, r.core, kind))
        for kind in OrderKind)),
    "adf": _Suite(source=_adf_pairs, identities=(
        ("dmp_characterizations_agree",
         lambda pair: dmp_order_characterizations(*pair)),
        ("mpd_characterizations_agree",
         lambda pair: mpd_order_characterizations(*pair)),
    )),
    "orders_kep": _Suite(source=_kep_pairs, identities=(
        ("four_relations_agree",
         lambda pair: tuple(leq(*pair, kind).holds for kind in OrderKind)),
    )),
    "cce_conditional": _Suite(
        skips=(_ZERO, ("hypothesis_skipped", _cce_hypothesis_fails)),
        identities=(
            # one statement always agrees with itself: counts the subjects
            # that meet the hypothesis
            ("qualified", lambda r: (True,)),
            ("cmp_ep_iff_cce_commutes", _cmp_ep_iff_cce_commutes),
        )),
}

SUITE_IDS = tuple(_SUITES)

def run_suite(suite: str, spec: EnsembleSpec | Sequence[EnsembleSpec],
              tol: Tolerance = DEFAULT_TOL) -> VerificationReport:
    """Run a named identity suite over the ensemble(s).

    "ass" adds idempotent-core witnesses derived from the first spec's
    seed; "orders_kep" draws the left operands from the spec with its
    class forced to k_ep and the right operands from the spec as given;
    "adf" consumes the ensemble pairwise and adds (a, core(a)) pairs. An
    empty list of specs raises InvalidSpecError.
    """
    specs = [spec] if isinstance(spec, EnsembleSpec) else list(spec)
    if suite not in _SUITES:
        raise UnknownSuiteError(f"unknown suite {suite!r}")
    if not specs:
        raise InvalidSpecError("run_suite needs at least one ensemble spec")
    row = _SUITES[suite]
    samples, subjects = row.source(specs, tol)
    report = VerificationReport(suite=suite)
    for subject in subjects:
        judged = row.judge(subject)
        if isinstance(judged, str):
            report.note(judged)
        else:
            for verdict in judged:
                report.record(*verdict)
    report.samples = len(samples)
    return report
