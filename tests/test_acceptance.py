"""Acceptance gate: every criterion at its stated tolerance.

Criteria 1-5, 7 and 8 read the CLI's reports, whose checks define them once.
Each test prints one pass/fail line (visible with ``pytest -s`` or in the
captured output) and then asserts, so a red run still reports every
criterion's measured error.
"""

import time

import numpy as np
import pytest

from prodform_geo.classify import (
    CaseId,
    ExampleSpec,
    FAMILY_CURVE_X_FACTOR,
    FAMILY_FACTOR_X_CURVE,
    FAMILY_PSI,
    build_example,
    gallery_specs,
)
from prodform_geo.cli import RunConfig, run
from prodform_geo.hypersurface import shape_operator
from prodform_geo.jacobi import (
    frame_shape_at,
    parallel_immersion,
    parallel_shape,
    q_matrix,
    q_matrix_prime,
    transported_frame,
)

SAMPLES = 1000
SEED = 20240817
FLOW_STEPS = (-0.2, -0.1, 0.1, 0.2)
TAGS = [case.value for case in CaseId]


def _report(num: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {num}] {status}: {name} {detail}".rstrip())
    assert ok, f"criterion {num} failed: {name} {detail}"


def _checks(report, names):
    """The checks of ``report`` with these names, in order; a missing one raises KeyError."""
    by_name = {c.name: c for c in report.checks}
    return [by_name[n] for n in names]


@pytest.fixture(scope="module")
def detq_run():
    started = time.perf_counter()
    report = run(RunConfig(command="detq", samples=SAMPLES, seed=SEED))
    return report, time.perf_counter() - started


def test_criterion_1_derivative_identity_suite(detq_run):
    report, elapsed = detq_run
    names = [
        f"{case.value}.derivative_order_{k}"
        for case in CaseId
        for k in ((1, 2, 4, 6, 10) if case is CaseId.S2xH2 else (1, 2, 4, 6))
    ]
    worst = max(c.max_abs_err for c in _checks(report, names))
    ok = worst == 0.0 and elapsed < 10.0
    _report(
        1,
        "derivative identity suite (orders 1,2,4,6 and 10)",
        ok,
        f"(max abs err {worst:.3e}, runtime {elapsed:.2f}s)",
    )


def test_criterion_2_detq_equivalence(detq_run):
    report, _ = detq_run
    det = _checks(report, [f"{tag}.detq_matrix_vs_closed_form" for tag in TAGS])
    trace = _checks(report, [f"{tag}.trace_vs_log_derivative" for tag in TAGS])
    worst_det = max(c.max_abs_err for c in det)
    worst_trace = max(c.max_rel_err for c in trace)
    ok = worst_det < 1e-12 and worst_trace < 1e-10
    _report(
        2,
        "det Q matrix vs closed form, trace vs log-derivative",
        ok,
        f"(det gap {worst_det:.3e}, trace gap {worst_trace:.3e})",
    )


def test_criterion_3_case_system_consistency():
    report = run(RunConfig(command="cases", samples=SAMPLES, seed=SEED + 2))
    residual = _checks(report, [f"{tag}.cubic_annihilates_angle" for tag in TAGS])
    roundtrip = _checks(report, [f"{tag}.invariants_round_trip" for tag in TAGS])
    guard = _checks(report, [f"{tag}.coefficients_nonvanishing" for tag in TAGS])
    worst_residual = max(c.max_abs_err for c in residual)
    worst_roundtrip = max(c.max_abs_err for c in roundtrip)
    ok = worst_residual < 1e-8 and worst_roundtrip < 1e-10 and all(c.passed for c in guard)
    _report(
        3,
        "constancy cubic annihilation and invariant round trip",
        ok,
        f"(residual {worst_residual:.3e}, round trip {worst_roundtrip:.3e})",
    )


IDENTITIES = (
    "p_symmetric",
    "p_isometry",
    "p_eq_minus_j1j2",
    "p_eq_minus_j2j1",
    "j1_squared",
    "j2_squared",
    "sectional_first",
    "sectional_second",
    "sectional_mixed",
)


def test_criterion_4_structure_identities():
    report = run(RunConfig(command="identities", samples=SAMPLES, seed=SEED + 3))
    involution = _checks(report, [f"{tag}.p_involution" for tag in TAGS])
    others = _checks(report, [f"{tag}.{name}" for tag in TAGS for name in IDENTITIES])
    worst_exact = max(c.max_abs_err for c in involution)
    worst = max(c.max_abs_err for c in others)
    ok = worst_exact == 0.0 and worst < 1e-12
    _report(
        4,
        "product structure and curvature identities",
        ok,
        f"(P^2 gap {worst_exact:.1e}, identity gap {worst:.3e})",
    )


def test_criterion_5_psi_gallery(default_gallery):
    report, _ = default_gallery
    psi = ExampleSpec(family=FAMILY_PSI).label()
    angle, curvature, control = _checks(
        report,
        [f"{psi}.angle_constancy", f"{psi}.curvature_constancy", "psi_negative_control_fails"],
    )
    ok = angle.max_abs_err < 1e-8 and curvature.max_abs_err < 1e-6 and control.max_abs_err > 1e-3
    _report(
        5,
        "ruled example: angle 1-2c, curvature and H(l) constancy, negative control",
        ok,
        f"(angle gap {angle.max_abs_err:.3e}, curvature and H(l) dev {curvature.max_abs_err:.3e}, "
        f"control dev {control.max_abs_err:.3e})",
    )


def test_criterion_6_jacobi_vs_numeric_flow():
    points = [
        np.array([0.0, 0.0, 0.0]),
        np.array([0.4, -0.3, 0.6]),
        np.array([-0.7, 0.5, -0.2]),
    ]
    worst = 0.0
    for spec in (
        ExampleSpec(family=FAMILY_PSI, c=0.25),
        ExampleSpec(family=FAMILY_FACTOR_X_CURVE, kappa1=1, kappa2=0, k=1.0),
    ):
        imm = build_example(spec)
        for u in points:
            fs, cp, _ = frame_shape_at(imm, u)
            for l in FLOW_STEPS:
                a_jacobi = parallel_shape(q_matrix(fs, cp, l), q_matrix_prime(fs, cp, l))
                flowed = parallel_immersion(imm, l)
                frame_l, n_l = transported_frame(imm, u, l)
                rec_l = shape_operator(flowed, u, basis=frame_l, hint=n_l)
                worst = max(worst, float(np.max(np.abs(a_jacobi - rec_l.A))))
    ok = worst < 1e-4
    _report(
        6,
        "closed-form A_l vs numeric shape operator of the flowed immersion",
        ok,
        f"(max entry gap {worst:.3e})",
    )


def test_criterion_7_ricci_trace_consistency(default_gallery):
    report, _ = default_gallery
    checks = _checks(report, [f"{spec.label()}.ricci_trace_vs_scalar" for spec in gallery_specs()])
    worst = max(c.max_abs_err for c in checks)
    ok = worst < 1e-8
    _report(
        7,
        "Ricci trace equals scalar curvature on all gallery grid points",
        ok,
        f"(max gap {worst:.3e})",
    )


def test_criterion_8_product_families(default_gallery):
    _, reports = default_gallery
    specs = [s for s in gallery_specs() if s.family != FAMILY_PSI]
    worst_curvature = 0.0
    angle_exact = True
    points = 0
    for spec in specs:
        expected_angle = 1.0 if spec.family == FAMILY_CURVE_X_FACTOR else -1.0
        want = np.sort(np.array([spec.k, 0.0, 0.0]))
        for rec in reports[spec.label()].records:
            points += 1
            factor = rec.normal.second if spec.family == FAMILY_CURVE_X_FACTOR else rec.normal.first
            if rec.C != expected_angle or np.any(factor.coords):
                angle_exact = False
            pcs = np.sort(rec.principal_curvatures())
            # the normal's sign is a convention: compare up to one global sign
            gap = min(
                float(np.max(np.abs(pcs - want))),
                float(np.max(np.abs(np.sort(-pcs) - want))),
            )
            worst_curvature = max(worst_curvature, gap)
    ok = points == len(specs) * 5**3 and angle_exact and worst_curvature < 1e-6
    _report(
        8,
        "product families: exact angle +-1 and principal curvatures (k, 0, 0)",
        ok,
        f"({points} points, angle exact {angle_exact}, curvature gap {worst_curvature:.3e})",
    )
