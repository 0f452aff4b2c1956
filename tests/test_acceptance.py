"""Acceptance gate: every criterion at its stated tolerance.

Each test prints one pass/fail line (visible with ``pytest -s`` or in the
captured output) and then asserts, so a red run still reports every
criterion's measured error.
"""

import time
from fractions import Fraction

import numpy as np

from prodform_geo.ambient import (
    complex_structures,
    curvature_tensor,
    product_metric,
    product_structure,
    random_product_point,
    random_product_tangent,
    ProductVector,
)
from prodform_geo.classify import (
    CaseId,
    ExampleSpec,
    FAMILY_CURVE_X_FACTOR,
    FAMILY_FACTOR_X_CURVE,
    FAMILY_PSI,
    build_example,
    build_perturbed_psi,
    case_alphas,
    constancy_polynomial,
    gallery_specs,
    invariants_from_alphas,
    isoparametric_report,
)
from prodform_geo.cli import exact_derivatives, random_frame_shape
from prodform_geo.hypersurface import ricci, shape_operator, unit_normal
from prodform_geo.jacobi import (
    detq_closed_form,
    frame_shape_at,
    parallel_immersion,
    parallel_mean_curvature,
    parallel_shape,
    q_matrix,
    q_matrix_prime,
    transported_frame,
)
from prodform_geo.spaceform import random_tangent, zero_vector

SAMPLES = 1000
SEED = 20240817
FLOW_STEPS = (-0.2, -0.1, 0.1, 0.2)


def _report(num: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {num}] {status}: {name} {detail}".rstrip())
    assert ok, f"criterion {num} failed: {name} {detail}"


def test_criterion_1_derivative_identity_suite():
    started = time.perf_counter()
    worst = 0.0
    for case in CaseId:
        rng = np.random.default_rng(SEED)
        orders = (1, 2, 4, 6, 10) if case is CaseId.S2xH2 else (1, 2, 4, 6)
        for _ in range(SAMPLES):
            closed, oracles = exact_derivatives(random_frame_shape(case, rng, exact=True), orders)
            for k in orders:
                oracle = oracles[k]
                rel = abs(float(oracle - Fraction(closed[k]))) / max(1.0, abs(float(oracle)))
                worst = max(worst, rel)
    elapsed = time.perf_counter() - started
    ok = worst < 1e-10 and elapsed < 10.0
    _report(
        1,
        "derivative identity suite (orders 1,2,4,6 and 10)",
        ok,
        f"(max rel err {worst:.3e}, runtime {elapsed:.2f}s)",
    )


def test_criterion_2_detq_equivalence():
    worst_det = 0.0
    worst_trace = 0.0
    for case in CaseId:
        rng = np.random.default_rng(SEED + 1)
        for _ in range(SAMPLES):
            fs = random_frame_shape(case, rng, exact=False)
            cp = fs.case
            l = float(rng.uniform(-0.4, 0.4))
            q = q_matrix(fs, cp, l)
            closed = detq_closed_form(fs, cp, l)
            worst_det = max(worst_det, abs(float(np.linalg.det(q)) - closed))
            if abs(closed) > 1e-3:
                a_l = parallel_shape(q, q_matrix_prime(fs, cp, l))
                h_flow = parallel_mean_curvature(fs, cp, l)
                gap = abs(float(np.trace(a_l)) - h_flow) / max(1.0, abs(h_flow))
                worst_trace = max(worst_trace, gap)
    ok = worst_det < 1e-12 and worst_trace < 1e-10
    _report(
        2,
        "det Q matrix vs closed form, trace vs log-derivative",
        ok,
        f"(det gap {worst_det:.3e}, trace gap {worst_trace:.3e})",
    )


def test_criterion_3_case_system_consistency():
    worst_residual = 0.0
    worst_roundtrip = 0.0
    for case in CaseId:
        rng = np.random.default_rng(SEED + 2)
        for _ in range(SAMPLES):
            c0 = float(rng.uniform(-0.9, 0.9))
            rho = float(rng.uniform(-3.0, 3.0))
            h13 = float(rng.uniform(-3.0, 3.0))
            h12 = float(rng.uniform(-3.0, 3.0)) if case is CaseId.S2xH2 else 0.0
            ar = case_alphas(case, c0, rho, h12, h13)
            poly = constancy_polynomial(case, ar)
            scale = max(abs(x) for x in poly.coefficients)
            worst_residual = max(worst_residual, abs(poly.evaluate_at_angle(c0)) / scale)
            solved = invariants_from_alphas(case, ar, c0)
            worst_roundtrip = max(
                worst_roundtrip, abs(solved.rho - rho) / max(1.0, abs(rho))
            )
            worst_roundtrip = max(
                worst_roundtrip, abs(solved.H13 - h13) / max(1.0, abs(h13))
            )
            if case is CaseId.S2xH2:
                worst_roundtrip = max(
                    worst_roundtrip, abs(solved.H12 - h12) / max(1.0, abs(h12))
                )
    ok = worst_residual < 1e-8 and worst_roundtrip < 1e-10
    _report(
        3,
        "constancy cubic annihilation and invariant round trip",
        ok,
        f"(residual {worst_residual:.3e}, round trip {worst_roundtrip:.3e})",
    )


def test_criterion_4_structure_identities():
    worst_exact = 0.0
    worst = 0.0
    worst_sectional = 0.0
    for case in CaseId:
        rng = np.random.default_rng(SEED + 3)
        for _ in range(SAMPLES):
            p = random_product_point(case.kappa1, case.kappa2, rng)
            x = random_product_tangent(p, rng)
            y = random_product_tangent(p, rng)

            ppx = product_structure(product_structure(x))
            worst_exact = max(
                worst_exact,
                float(np.max(np.abs(ppx.first.coords - x.first.coords))),
                float(np.max(np.abs(ppx.second.coords - x.second.coords))),
            )
            sym_gap = abs(
                product_metric(product_structure(x), y)
                - product_metric(product_structure(y), x)
            )
            worst = max(worst, sym_gap / max(1.0, abs(product_metric(x, y))))

            j1x, j2x = complex_structures(x)
            px = product_structure(x)
            scale = max(1.0, x.norm())
            for candidate in (-complex_structures(j2x)[0], -complex_structures(j1x)[1]):
                gap = max(
                    float(np.max(np.abs(candidate.first.coords - px.first.coords))),
                    float(np.max(np.abs(candidate.second.coords - px.second.coords))),
                )
                worst = max(worst, gap / scale)
            for jx, idx in ((j1x, 0), (j2x, 1)):
                jjx = complex_structures(jx)[idx]
                gap = max(
                    float(np.max(np.abs(jjx.first.coords + x.first.coords))),
                    float(np.max(np.abs(jjx.second.coords + x.second.coords))),
                )
                worst = max(worst, gap / scale)

            a = random_tangent(p.first, rng)
            a = a.scale(1.0 / a.norm())
            xa = ProductVector(a, zero_vector(p.second))
            ya = complex_structures(xa)[0]
            worst_sectional = max(
                worst_sectional, abs(curvature_tensor(xa, ya, ya, xa) - case.kappa1)
            )
            b = random_tangent(p.second, rng)
            b = b.scale(1.0 / b.norm())
            xb = ProductVector(zero_vector(p.first), b)
            yb = complex_structures(xb)[0]
            worst_sectional = max(
                worst_sectional, abs(curvature_tensor(xb, yb, yb, xb) - case.kappa2)
            )
            worst_sectional = max(
                worst_sectional, abs(curvature_tensor(xa, xb, xb, xa))
            )
    ok = worst_exact == 0.0 and worst < 1e-12 and worst_sectional < 1e-12
    _report(
        4,
        "product structure and curvature identities",
        ok,
        f"(P^2 gap {worst_exact:.1e}, identity gap {worst:.3e}, sectional gap {worst_sectional:.3e})",
    )


def test_criterion_5_psi_gallery():
    c = 0.25
    imm = build_example(ExampleSpec(family=FAMILY_PSI, c=c))
    rep = isoparametric_report(imm, grid=imm.grid(5), l_samples=FLOW_STEPS, tol=1e-6)

    angle_dev = rep.angle.max_dev
    angle_gap = abs(rep.angle.mean - (1.0 - 2.0 * c))
    principal_dev = max(s.max_dev for s in rep.principal)
    h_dev = max(s.max_dev for s in rep.mean_curvature.values())

    control = isoparametric_report(build_perturbed_psi(c), tol=1e-3)
    control_fails = control.angle.max_dev > 1e-3

    ok = (
        angle_dev < 1e-8
        and angle_gap < 1e-8
        and principal_dev < 1e-6
        and h_dev < 1e-6
        and control_fails
    )
    _report(
        5,
        "ruled example: angle 1-2c, curvature and H(l) constancy, negative control",
        ok,
        f"(angle dev {angle_dev:.3e}, angle gap {angle_gap:.3e}, "
        f"principal dev {principal_dev:.3e}, H(l) dev {h_dev:.3e}, "
        f"control dev {control.angle.max_dev:.3e})",
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


def test_criterion_7_ricci_trace_consistency():
    worst = 0.0
    for spec in gallery_specs():
        imm = build_example(spec)
        for u in imm.grid(3):
            rec = shape_operator(imm, u)
            trace = sum(ricci(e, rec) for e in rec.basis)
            worst = max(worst, abs(trace - rec.rho))
    ok = worst < 1e-8
    _report(
        7,
        "Ricci trace equals scalar curvature on all gallery grid points",
        ok,
        f"(max gap {worst:.3e})",
    )


def test_criterion_8_product_families():
    from prodform_geo.hypersurface import angle_of_normal

    worst_curvature = 0.0
    angle_exact = True
    for case in CaseId:
        for family in (FAMILY_CURVE_X_FACTOR, FAMILY_FACTOR_X_CURVE):
            expected_angle = 1.0 if family == FAMILY_CURVE_X_FACTOR else -1.0
            for k in (0.0, 0.5, 1.0, 2.0):
                spec = ExampleSpec(
                    family=family, kappa1=case.kappa1, kappa2=case.kappa2, k=k
                )
                imm = build_example(spec)
                want = np.sort(np.array([k, 0.0, 0.0]))
                for u in imm.grid(3):
                    n = unit_normal(imm, u)
                    c, _ = angle_of_normal(n)
                    if c != expected_angle:
                        angle_exact = False
                    factor = n.second if family == FAMILY_CURVE_X_FACTOR else n.first
                    if float(np.max(np.abs(factor.coords))) != 0.0:
                        angle_exact = False
                    pcs = np.sort(shape_operator(imm, u).principal_curvatures())
                    # the normal's sign is a convention, so compare up to one
                    # global sign of the whole spectrum
                    gap = min(
                        float(np.max(np.abs(pcs - want))),
                        float(np.max(np.abs(np.sort(-pcs) - want))),
                    )
                    worst_curvature = max(worst_curvature, gap)
    ok = angle_exact and worst_curvature < 1e-6
    _report(
        8,
        "product families: exact angle +-1 and principal curvatures (k, 0, 0)",
        ok,
        f"(angle exact {angle_exact}, curvature gap {worst_curvature:.3e})",
    )
