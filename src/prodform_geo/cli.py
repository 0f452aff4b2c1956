"""Batch verification harness with deterministic JSON/CSV reports.

Commands
--------
identities   product-structure and curvature identities on random tangents
detq         exact oracle vs closed-form derivatives, det Q equivalence
cases        case-system round trips and constancy-cubic annihilation
gallery      classified examples vs their expected invariants
flow         dump H(l), C and principal curvatures of one example along l

Exit status: 0 all checks pass, 1 any check fails or a geometric or numerical
failure stops the run, 2 usage or config error.
Reports are written atomically and are byte-identical for a fixed seed.
"""

from __future__ import annotations

import argparse
import csv
import decimal
import io
import json
import math
import os
import sys
import tempfile
from dataclasses import asdict, dataclass, field, fields, replace
from decimal import Decimal
from fractions import Fraction
from operator import sub
from typing import Optional, Sequence

import numpy as np

from . import __version__
from .ambient import (
    ProductVector,
    complex_structures,
    curvature_tensor,
    product_metric,
    product_structure,
    random_product_point,
    random_product_tangent,
)
from .classify import (
    CaseId,
    ExampleSpec,
    FAMILIES,
    FAMILY_PSI,
    StatSummary,
    build_control,
    build_example,
    case_alphas,
    constancy_polynomial,
    gallery_specs,
    invariants_from_alphas,
    isoparametric_report,
    known_geometry,
)
# nothing here calls shape_operator, but perfbench's gallery workload cuts its
# run into segments on calls of cli.shape_operator, so the name must stay
from .hypersurface import angle_of_normal, ricci, shape_operator, unit_normal
from .jacobi import (
    FrameShape,
    detq_and_slope_from_pairs,
    detq_derivative_formula,
    detq_derivatives,
    formula_orders,
    parallel_mean_curvature,
    parallel_shape,
    q_prime_rows,
    q_rows,
)
from .spaceform import GeometryError, random_tangent, stability_functions, zero_vector

CASES = tuple(case.value for case in CaseId)

DEFAULT_TOLS = {
    "identities": 1e-12,
    "detq": 1e-10,
    "detq_matrix": 1e-12,
    "cases": 1e-10,
    "gallery_angle": 1e-8,
    "gallery_curvature": 1e-6,
    "gallery_ricci": 1e-8,
}


class ConfigError(ValueError):
    """Invalid run configuration."""


@dataclass(frozen=True)
class RunConfig:
    command: str
    case: Optional[str] = None
    samples: int = 1000
    seed: int = 0
    tol: Optional[float] = None
    grid: int = 5
    l_values: tuple[float, ...] = (-0.2, -0.1, 0.1, 0.2)
    out: Optional[str] = None
    fmt: str = "json"
    family: Optional[str] = None
    c: float = 0.25
    k: float = 1.0

    def validate(self) -> None:
        if self.command not in COMMANDS:
            raise ConfigError(f"unknown command {self.command!r}")
        if self.case is not None and self.case not in CASES:
            raise ConfigError(f"--case must be one of {CASES}, got {self.case!r}")
        if self.samples < 1:
            raise ConfigError("--samples must be at least 1")
        if self.seed < 0:
            raise ConfigError("--seed must be non-negative")
        if self.tol is not None and not (math.isfinite(self.tol) and self.tol > 0):
            raise ConfigError("--tol must be positive and finite")
        if self.grid < 2:
            raise ConfigError("--grid must be at least 2")
        if not self.l_values:
            raise ConfigError("--l needs at least one value")
        if not all(math.isfinite(l) for l in self.l_values):
            raise ConfigError("--l values must be finite")
        if self.fmt not in ("json", "csv"):
            raise ConfigError(f"--format must be json or csv, got {self.fmt!r}")
        if self.family is not None and self.family not in FAMILIES:
            raise ConfigError(f"unknown family {self.family!r}")
        if not 0.0 < self.c < 1.0:
            raise ConfigError("--c must lie strictly between 0 and 1")
        if not (math.isfinite(self.k) and self.k >= 0.0):
            raise ConfigError("--k must be finite and non-negative")
        if self.out is not None:
            if os.path.isdir(self.out):
                raise ConfigError(f"--out {self.out!r} is a directory")
            if not os.path.isdir(os.path.dirname(self.out) or "."):
                raise ConfigError(f"--out directory of {self.out!r} does not exist")

    def selected_cases(self) -> list[CaseId]:
        return list(CaseId) if self.case is None else [CaseId(self.case)]

    def tolerance(self, key: str) -> float:
        return self.tol if self.tol is not None else DEFAULT_TOLS[key]


@dataclass
class CheckResult:
    name: str
    anchor: str
    samples: int
    max_abs_err: float
    max_rel_err: float
    passed: bool

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "anchor": self.anchor,
            "samples": self.samples,
            "max_abs_err": self.max_abs_err,
            "max_rel_err": self.max_rel_err,
            "pass": self.passed,
        }


@dataclass
class VerificationReport:
    seed: int
    config: dict
    checks: list[CheckResult] = field(default_factory=list)
    rows: list[dict] = field(default_factory=list)

    def add(self, check: CheckResult) -> None:
        self.checks.append(check)

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def body(self) -> dict:
        return {
            "version": __version__,
            "seed": self.seed,
            "config": self.config,
            "checks": [c.as_dict() for c in self.checks],
            "rows": self.rows,
            "summary": {
                "total": len(self.checks),
                "passed": sum(c.passed for c in self.checks),
                "failed": sum(not c.passed for c in self.checks),
            },
        }


class ErrorTracker:
    """One check: its name, anchor and tolerance, and its running error maxima.

    ``record`` scales an error by max(1, |got|, |want|); ``record_abs`` takes
    an unscaled error, so its relative error is the absolute one.  ``check``
    judges the relative maximum, or the absolute one with ``judge_abs``.  A
    NaN error, once recorded, stays the maximum and fails the check, and so
    does any pair of exact values given to ``record_unequal``.
    """

    def __init__(self, name: str, anchor: str, tol: float, judge_abs: bool = False):
        self.name = name
        self.anchor = anchor
        self.tol = tol
        self.judge_abs = judge_abs
        self.max_abs = 0.0
        self.max_rel = 0.0
        self.unequal = False

    def record(self, got: float, want: float) -> None:
        # _worse, inline: this runs once per check and sample
        err = abs(got - want)
        if err > self.max_abs or err != err:
            self.max_abs = err
        rel = err / max(1.0, abs(got), abs(want))
        if rel > self.max_rel or rel != rel:
            self.max_rel = rel

    def record_unequal(self, got, want) -> None:
        """Record two exact values known to differ: their float error, and a failed check."""
        self.unequal = True
        self.record(float(got), float(want))

    def record_abs(self, err: float) -> None:
        err = abs(err)
        self.max_abs = _worse(err, self.max_abs)
        self.max_rel = _worse(err, self.max_rel)

    def check(self, samples: int) -> CheckResult:
        err = self.max_abs if self.judge_abs else self.max_rel
        return CheckResult(
            name=self.name,
            anchor=self.anchor,
            samples=samples,
            max_abs_err=self.max_abs,
            max_rel_err=self.max_rel,
            passed=bool(err <= self.tol) and not self.unequal,
        )


def _worse(err: float, worst: float) -> float:
    """The larger error, where NaN is larger than any number (``max`` would drop it)."""
    return err if err > worst or err != err else worst


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


#: samples of ``identities`` whose normals are drawn together, in one call
IDENTITIES_BLOCK = 256


def _normals_per_sample(case: CaseId) -> int:
    """Standard normals one ``identities`` sample draws: per factor, its
    point's (3 on the sphere, 2 elsewhere) and three tangents' (x, y and the
    unit factor vector), one per embedding coordinate."""
    return sum((3 if k == 1 else 2) + 3 * (2 if k == 0 else 3) for k in (case.kappa1, case.kappa2))


class _Normals:
    """A drawn block of standard normals, handed out in order as the
    generator would have drawn them: ``normal(size=n)`` is a view of the next
    n, in the form ``random_point`` and ``random_tangent`` take."""

    __slots__ = ("flat", "at")

    def __init__(self, block: np.ndarray):
        self.flat = block.reshape(-1)
        self.at = 0

    def normal(self, size: int) -> np.ndarray:
        start = self.at
        self.at = end = start + size
        return self.flat[start:end]


def run_identities(cfg: RunConfig, report: VerificationReport) -> None:
    """Check P, J1, J2 and the curvature tensor on random points and tangents.

    Each case has one generator at the seed, and draws the standard normals
    of ``IDENTITIES_BLOCK`` samples at a time in one call, a row of
    ``_normals_per_sample`` per sample.  A sample's point, x, y and unit
    factor vectors take them in that order through ``random_product_point``,
    ``random_product_tangent`` and ``_unit_factor_vectors``, as they took
    them from the generator one vector at a time: the generator's normals
    are one stream however they are drawn, so the report is byte for byte
    that of per-vector draws, and memory does not grow with ``--samples``.
    """
    tol = cfg.tolerance("identities")
    for case in cfg.selected_cases():
        rng = np.random.default_rng(cfg.seed)
        width = _normals_per_sample(case)
        trackers = {
            name: ErrorTracker(f"{case.value}.{name}", f"ambient.{name}", tol)
            for name in (
                "p_involution",
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
        }
        for start in range(0, cfg.samples, IDENTITIES_BLOCK):
            rows = min(IDENTITIES_BLOCK, cfg.samples - start)
            normals = _Normals(rng.normal(size=(rows, width)))
            for _ in range(rows):
                # through cli's name, on whose calls perfbench's identities workload cuts its runs
                p = random_product_point(case.kappa1, case.kappa2, normals)
                x = random_product_tangent(p, normals)
                y = random_product_tangent(p, normals)

                px = product_structure(x)
                py = product_structure(y)
                trackers["p_involution"].record_abs(_vector_gap(product_structure(px), x))
                trackers["p_symmetric"].record(product_metric(px, y), product_metric(py, x))
                trackers["p_isometry"].record(product_metric(px, py), product_metric(x, y))
                j1x, j2x = complex_structures(x)
                j1j1x, j2j1x = complex_structures(j1x)
                j1j2x, j2j2x = complex_structures(j2x)
                minus_x = -x
                trackers["p_eq_minus_j1j2"].record_abs(_vector_gap(-j1j2x, px))
                trackers["p_eq_minus_j2j1"].record_abs(_vector_gap(-j2j1x, px))
                trackers["j1_squared"].record_abs(_vector_gap(j1j1x, minus_x))
                trackers["j2_squared"].record_abs(_vector_gap(j2j2x, minus_x))

                a, b = _unit_factor_vectors(p, normals)
                ja = complex_structures(a)[0]
                trackers["sectional_first"].record(curvature_tensor(a, ja, ja, a), float(case.kappa1))
                jb = complex_structures(b)[0]
                trackers["sectional_second"].record(curvature_tensor(b, jb, jb, b), float(case.kappa2))
                trackers["sectional_mixed"].record(curvature_tensor(a, b, b, a), 0.0)

        for tracker in trackers.values():
            report.add(tracker.check(cfg.samples))


def _vector_gap(x: ProductVector, y: ProductVector) -> float:
    """Largest coordinate gap, on the vectors' Python floats; the max is exact.

    ``max`` keeps the first of its arguments unless a later one is larger, so
    a NaN gap is the result where it comes first and dropped elsewhere.
    """
    return max(
        *map(abs, map(sub, x.first.xs, y.first.xs)),
        *map(abs, map(sub, x.second.xs, y.second.xs)),
    )


def _unit_factor_vectors(p, rng) -> tuple[ProductVector, ProductVector]:
    """Random unit vectors (v, 0) and (0, w), drawn in that order."""
    v, w = (t.scale(1.0 / t.norm()) for t in (random_tangent(p.first, rng), random_tangent(p.second, rng)))
    return ProductVector(v, zero_vector(p.second)), ProductVector(zero_vector(p.first), w)


def random_frame_shape(case: CaseId, rng: np.random.Generator, exact: bool) -> FrameShape:
    """Random symmetric shape matrix with entries in [-2, 2] and |C| < 0.95.

    Exact mode draws the entries and C as Decimals n/1000, so the oracle runs
    in integer arithmetic and every closed form is a terminating decimal that
    ``exact_derivatives`` evaluates on the same shape without rounding.
    """
    if exact:
        entries = [Decimal(n).scaleb(-3) for n in rng.integers(-2000, 2001, size=6).tolist()]
        c = Decimal(int(rng.integers(-949, 950))).scaleb(-3)
    else:
        entries = rng.uniform(-2.0, 2.0, size=6).tolist()
        c = float(rng.uniform(-0.95, 0.95))
    a11, a22, a33, a12, a13, a23 = entries
    a = ((a11, a12, a13), (a12, a22, a23), (a13, a23, a33))
    return FrameShape(A=a, kappa1=case.kappa1, kappa2=case.kappa2, C=c)


#: Every operation in this context is exact or raises.  On the exact draws of
#: ``random_frame_shape`` (Decimals n/1000, |a_ij| <= 2, |C| < 0.95) the closed
#: forms divide only by 2, 4 and 8; the longest value, in the order-10 form,
#: has 18 fractional digits and magnitude below 10^4, so at most 22
#: significant digits, well inside the precision.
EXACT_DECIMAL = decimal.Context(
    prec=50,
    traps=[decimal.Inexact, decimal.InvalidOperation, decimal.DivisionByZero, decimal.Overflow],
)


def exact_derivatives(fs: FrameShape, orders: Sequence[int]) -> tuple[dict[int, Decimal], dict[int, Fraction]]:
    """Closed-form and oracle derivatives of det Q at l = 0 for a Decimal shape.

    The oracle ``detq_derivatives`` and the closed forms with their
    invariants both run on ``fs`` itself, the closed forms in
    ``EXACT_DECIMAL``: a shape whose closed forms are not exact in 50 digits
    raises ``decimal.Inexact`` instead of being rounded.
    """
    oracle = detq_derivatives(fs, fs.case, orders)
    with decimal.localcontext(EXACT_DECIMAL):
        H, rho, H12, H13 = fs.H, fs.rho, fs.H12, fs.H13
        closed = {k: detq_derivative_formula(k, fs.case, H=H, rho=rho, H12=H12, H13=H13) for k in orders}
    return closed, oracle


#: float samples of ``detq`` whose matrix side is evaluated together, in one stack
DETQ_BLOCK = 256


def _check_matrix_block(q, q_prime, dets, traced, det_tracker: ErrorTracker, trace_tracker: ErrorTracker) -> None:
    """Check the matrix side of a block of ``detq`` float samples and empty the block.

    The first len(dets) matrices of ``q`` are the samples' Q and ``dets``
    their closed det Q; ``traced`` holds (index, closed H) of each sample with
    |det Q| > 1e-3, and the first len(traced) matrices of ``q_prime`` their Q'.
    One stacked det serves every sample and one stacked ``parallel_shape`` and
    trace the traced ones.  det, inv, matmul and trace run once per matrix of a
    stack, so every value is bit for bit the one of a call on that sample's
    matrix alone, and the block size moves no report byte.
    """
    for det_direct, det_closed in zip(np.linalg.det(q[: len(dets)]).tolist(), dets):
        det_tracker.record_abs(det_direct - det_closed)
    if traced:
        index, flows = zip(*traced)
        traces = np.trace(parallel_shape(q[list(index)], q_prime[: len(traced)]), axis1=1, axis2=2)
        for trace, h in zip(traces.tolist(), flows):
            trace_tracker.record(trace, h)
    dets.clear()
    traced.clear()


def run_detq(cfg: RunConfig, report: VerificationReport) -> None:
    """Each sample is drawn once and checked in every selected case.

    A sample is an exact shape, a float shape and l, drawn in that order from
    one generator; the draws do not depend on the case, and each selected
    case builds its own shapes from them, checked as any shape.  The exact
    half compares the closed derivative forms of det Q at 0 with the integer
    oracle exactly; only an unequal pair is rounded, to report its error.
    The float half compares det Q and tr A_l with the closed expansion: the
    closed side per sample, the matrix side a block of ``DETQ_BLOCK`` samples
    of one case at a time (``_check_matrix_block``).  Each case's lines come
    out as if it had been run alone.
    """
    tol = cfg.tolerance("detq")
    tol_matrix = cfg.tolerance("detq_matrix")
    # per case: its orders, trackers, Q and Q' stacks and its block's samples
    per_case = []
    for case in cfg.selected_cases():
        orders = formula_orders(case.kappa1, case.kappa2)
        tag = case.value
        derivative_trackers = {
            k: ErrorTracker(f"{tag}.derivative_order_{k}", f"jacobi.detq.d{k}", tol) for k in orders
        }
        det_tracker = ErrorTracker(
            f"{tag}.detq_matrix_vs_closed_form", "jacobi.detq.matrix_equivalence", tol_matrix, judge_abs=True
        )
        trace_tracker = ErrorTracker(f"{tag}.trace_vs_log_derivative", "jacobi.detq.jacobi_formula", tol)
        q, q_prime = np.empty((DETQ_BLOCK, 3, 3)), np.empty((DETQ_BLOCK, 3, 3))
        per_case.append((case, orders, derivative_trackers, det_tracker, trace_tracker, q, q_prime, [], []))
    first = per_case[0][0]
    rng = np.random.default_rng(cfg.seed)

    for _ in range(cfg.samples):
        # drawn in the first case, whose shapes these are
        exact = random_frame_shape(first, rng, exact=True)
        drawn = random_frame_shape(first, rng, exact=False)
        l = float(rng.uniform(-0.4, 0.4))
        for case, orders, derivative_trackers, det_tracker, trace_tracker, q, q_prime, dets, traced in per_case:
            fs, fsf = exact, drawn
            if case is not first:
                fs = FrameShape(A=exact.A, kappa1=case.kappa1, kappa2=case.kappa2, C=exact.C)
                fsf = FrameShape(A=drawn.A, kappa1=case.kappa1, kappa2=case.kappa2, C=drawn.C)
            closed, oracle = exact_derivatives(fs, orders)
            for k in orders:
                # a Decimal and a Fraction compare exactly: an equal pair is an
                # error of 0, and an unequal one fails its line
                if closed[k] != oracle[k]:
                    derivative_trackers[k].record_unequal(closed[k], oracle[k])

            cpf = fsf.case
            d1, d2 = float(cpf.delta1), float(cpf.delta2)
            # one evaluation of both pairs serves the closed expansion and Q and Q'
            pairs = (*stability_functions(d1, l), *stability_functions(d2, l))
            det_closed, slope = detq_and_slope_from_pairs(fsf, d1, d2, *pairs, l)
            q[len(dets)] = q_rows(fsf.A, l, *pairs)
            if abs(det_closed) > 1e-3:
                q_prime[len(traced)] = q_prime_rows(fsf.A, d1, d2, *pairs)
                traced.append((len(dets), parallel_mean_curvature(det_closed, slope, l)))
            dets.append(det_closed)
            if len(dets) == DETQ_BLOCK:
                _check_matrix_block(q, q_prime, dets, traced, det_tracker, trace_tracker)

    for _, _, derivative_trackers, det_tracker, trace_tracker, q, q_prime, dets, traced in per_case:
        if dets:
            _check_matrix_block(q, q_prime, dets, traced, det_tracker, trace_tracker)
        for tracker in (*derivative_trackers.values(), det_tracker, trace_tracker):
            report.add(tracker.check(cfg.samples))


def run_cases(cfg: RunConfig, report: VerificationReport) -> None:
    tol = cfg.tolerance("cases")
    for case in cfg.selected_cases():
        rng = np.random.default_rng(cfg.seed)
        tag = case.value
        # the annihilation tolerance is fixed: --tol does not reach it
        annihilation = ErrorTracker(
            f"{tag}.cubic_annihilates_angle", f"classify.{tag}.constancy_cubic", 1e-8, judge_abs=True
        )
        roundtrip = ErrorTracker(f"{tag}.invariants_round_trip", f"classify.{tag}.solved_system", tol)
        nonvanishing = ErrorTracker(
            f"{tag}.coefficients_nonvanishing", f"classify.{tag}.coefficient_guard", tol, judge_abs=True
        )
        for _ in range(cfg.samples):
            c0 = float(rng.uniform(-0.9, 0.9))
            rho = float(rng.uniform(-3.0, 3.0))
            h13 = float(rng.uniform(-3.0, 3.0))
            h12 = float(rng.uniform(-3.0, 3.0)) if case is CaseId.S2xH2 else 0.0
            ar = case_alphas(case, c0, rho, h12, h13)
            poly = constancy_polynomial(case, ar)
            coeff_scale = max(abs(x) for x in poly.coefficients)
            if coeff_scale == 0.0:
                nonvanishing.record_abs(1.0)
            else:
                annihilation.record_abs(poly.evaluate_at_angle(c0) / coeff_scale)
            solved = invariants_from_alphas(case, ar, c0)
            roundtrip.record(solved.rho, rho)
            roundtrip.record(solved.H13, h13)
            if case is CaseId.S2xH2:
                roundtrip.record(solved.H12, h12)
        for tracker in (annihilation, roundtrip, nonvanishing):
            report.add(tracker.check(cfg.samples))


def _gallery_selection(cfg: RunConfig) -> list[ExampleSpec]:
    pairs = {(case.kappa1, case.kappa2) for case in cfg.selected_cases()}
    specs = [
        replace(s, c=cfg.c) if s.family == FAMILY_PSI else s
        for s in gallery_specs()
        if cfg.family in (None, s.family) and (s.kappa1, s.kappa2) in pairs
    ]
    if not specs:
        raise ConfigError("gallery selection is empty")
    return specs


def run_gallery(cfg: RunConfig, report: VerificationReport) -> None:
    tol_angle = cfg.tolerance("gallery_angle")
    tol_curv = cfg.tolerance("gallery_curvature")
    tol_ricci = cfg.tolerance("gallery_ricci")
    control = None

    for spec in _gallery_selection(cfg):
        imm = build_example(spec)
        rep = isoparametric_report(imm, grid=imm.grid(cfg.grid), l_samples=cfg.l_values)
        name = imm.name
        angle = ErrorTracker(f"{name}.angle_constancy", "classify.gallery.angle", tol_angle, judge_abs=True)
        curvature = ErrorTracker(
            f"{name}.curvature_constancy", "classify.gallery.principal_curvatures", tol_curv, judge_abs=True
        )
        ricci_trace = ErrorTracker(
            f"{name}.ricci_trace_vs_scalar", "hypersurface.ricci.trace", tol_ricci, judge_abs=True
        )

        known = known_geometry(spec)
        angle.record_abs(rep.angle.max_dev)
        angle.record(rep.angle.mean, known.C)
        if spec.family == FAMILY_PSI:
            control = build_control(imm)

        for stat in rep.principal:
            curvature.record_abs(stat.max_dev)
        for stats in rep.mean_curvature.values():
            curvature.record_abs(stats.max_dev)
        curvature.record_abs(known.principal_gap([s.mean for s in rep.principal]))

        for rec in rep.records:
            ricci_trace.record(sum(ricci(e, rec) for e in rec.basis), rec.rho)

        for tracker in (angle, curvature, ricci_trace):
            report.add(tracker.check(rep.grid_points))

    if control is not None:
        # the check reads only the angle C = <PN, N>, so the control takes its
        # unit normals and no shape operator
        grid = control.grid(cfg.grid)
        angle = StatSummary.of([angle_of_normal(unit_normal(control, u)) for u in grid])
        report.add(
            CheckResult(
                name="psi_negative_control_fails",
                anchor="classify.gallery.negative_control",
                samples=len(grid),
                max_abs_err=angle.max_dev,
                max_rel_err=angle.max_dev,
                passed=bool(angle.max_dev > 1e-3),
            )
        )


def run_flow(cfg: RunConfig, report: VerificationReport) -> None:
    family = cfg.family or FAMILY_PSI
    case = CaseId(cfg.case) if cfg.case else CaseId.H2xR2
    if family == FAMILY_PSI and case is not CaseId.H2xR2:
        raise ConfigError(f"psi lives in h2r2, not in {case.value}")
    spec = ExampleSpec(family=family, kappa1=case.kappa1, kappa2=case.kappa2, k=cfg.k, c=cfg.c)
    imm = build_example(spec)

    grid = imm.grid(cfg.grid)
    rep = isoparametric_report(imm, grid, l_samples=(0.0, *cfg.l_values))
    for u, rec, (k1, k2, k3), hs in zip(grid, rep.records, rep.principal_values, rep.h_values):
        for l, h in zip(rep.l_samples, hs):
            report.rows.append(
                {
                    "u1": float(u[0]),
                    "u2": float(u[1]),
                    "u3": float(u[2]),
                    "l": l,
                    "H": h,  # None at a focal point; the run continues
                    "C": rec.C,
                    "k1": k1,
                    "k2": k2,
                    "k3": k3,
                }
            )
    report.add(
        CheckResult(
            name=f"{imm.name}.flow_dump",
            anchor="cli.flow.dump",
            samples=len(report.rows),
            max_abs_err=float(rep.focal_events),
            max_rel_err=float(rep.focal_events),
            passed=True,
        )
    )


#: each command and the function that runs it, in the order of the module docstring
COMMANDS = {
    "identities": run_identities,
    "detq": run_detq,
    "cases": run_cases,
    "gallery": run_gallery,
    "flow": run_flow,
}


# ---------------------------------------------------------------------------
# report output
# ---------------------------------------------------------------------------


def _atomic_write(path: str, text: str) -> None:
    """Write ``text`` to ``path`` through a unique temp file in the same directory.

    Concurrent writers never share a temp file, and the temp file is removed
    when the write or the rename fails.  The report gets the mode ``open``
    gives a new file, 0o666 less the umask, not the temp file's 0o600.
    """
    fd, tmp = tempfile.mkstemp(
        prefix=os.path.basename(path) + ".", suffix=".tmp", dir=os.path.dirname(path) or "."
    )
    umask = os.umask(0)
    os.umask(umask)
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.chmod(tmp, 0o666 & ~umask)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def render_json(report: VerificationReport) -> str:
    return json.dumps(report.body(), indent=2, sort_keys=True) + "\n"


CSV_COLUMNS = ("u1", "u2", "u3", "l", "H", "C", "k1", "k2", "k3")


def render_csv(report: VerificationReport) -> str:
    """Rows of the flow dump, or one row per check; a field with a comma is quoted."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    if report.rows:
        writer.writerow(CSV_COLUMNS)
        for row in report.rows:
            writer.writerow("" if row[col] is None else f"{float(row[col]):.17g}" for col in CSV_COLUMNS)
    else:
        writer.writerow(("name", "samples", "max_abs_err", "max_rel_err", "pass"))
        for check in report.checks:
            writer.writerow(
                (check.name, check.samples, f"{check.max_abs_err:.17g}", f"{check.max_rel_err:.17g}", int(check.passed))
            )
    return out.getvalue()


# ---------------------------------------------------------------------------
# configuration and entry point
# ---------------------------------------------------------------------------


def _parse_config_file(path: str) -> dict:
    values: dict[str, str] = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for line_no, line in enumerate(fh, start=1):
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                if "=" not in line:
                    raise ConfigError(f"{path}:{line_no}: expected 'key = value'")
                key, _, value = line.partition("=")
                values[key.strip().replace("-", "_")] = value.strip()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    return values


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="prodform-geo",
        description="Verification harness for product space-form hypersurface identities.",
    )
    parser.add_argument("command", choices=list(COMMANDS))
    parser.add_argument("--config", help="flat key = value config file; flags win")
    parser.add_argument("--case", choices=list(CASES))
    parser.add_argument("--samples", type=int)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--tol", type=float)
    parser.add_argument("--grid", type=int)
    parser.add_argument(
        "--l",
        dest="l_values",
        help="comma-separated flow distances; a list that starts with a minus sign"
        " is written --l=-0.2,0.1, or l = -0.2,0.1 in a config file",
    )
    parser.add_argument("--out", help="report path")
    parser.add_argument("--format", dest="fmt", choices=["json", "csv"])
    parser.add_argument("--family", choices=list(FAMILIES))
    parser.add_argument("--c", type=float, help="strip constant of the ruled example")
    parser.add_argument("--k", type=float, help="curve curvature for the product families")
    return parser


def build_config(args: argparse.Namespace) -> RunConfig:
    # the options that set RunConfig fields; a config file key names one by its
    # field or by its flag (l_values or l, fmt or format)
    settable = {f.name for f in fields(RunConfig)}
    actions = [a for a in _build_parser()._actions if a.option_strings and a.dest in settable]
    by_key = {key: a for a in actions for key in (a.dest, a.option_strings[0][2:])}
    values: dict = {}
    if args.config:
        for key, text in _parse_config_file(args.config).items():
            action = by_key.get(key)
            if action is None:
                raise ConfigError(f"unknown config key {key!r}")
            try:
                values[action.dest] = (action.type or str)(text)
            except ValueError as exc:
                raise ConfigError(f"config key {key}: {exc}") from exc
    for action in actions:
        flag = getattr(args, action.dest)
        if flag is not None:
            values[action.dest] = flag
    if isinstance(values.get("l_values"), str):
        try:
            values["l_values"] = tuple(float(x) for x in values["l_values"].split(",") if x.strip())
        except ValueError as exc:
            raise ConfigError(f"--l: {exc}") from exc
    cfg = RunConfig(command=args.command, **values)
    cfg.validate()
    return cfg


def run(cfg: RunConfig) -> VerificationReport:
    """Dispatch one configured run and return its report."""
    cfg.validate()
    report = VerificationReport(seed=cfg.seed, config=_config_echo(cfg))
    COMMANDS[cfg.command](cfg, report)
    return report


def _config_echo(cfg: RunConfig) -> dict:
    echo = asdict(cfg)
    echo["format"] = echo.pop("fmt")
    # a report must not depend on where it is written
    del echo["out"]
    return echo


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = build_config(args)
        report = run(cfg)
    except (ConfigError, GeometryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        # a geometric or numerical failure during the run is not a usage error
        return 2 if isinstance(exc, ConfigError) else 1

    text = render_csv(report) if cfg.fmt == "csv" else render_json(report)
    if cfg.out:
        _atomic_write(cfg.out, text)
    else:
        sys.stdout.write(text)

    for check in report.checks:
        status = "PASS" if check.passed else "FAIL"
        print(
            f"[{status}] {check.name} (samples={check.samples}, "
            f"max_abs={check.max_abs_err:.3e}, max_rel={check.max_rel_err:.3e})",
            file=sys.stderr,
        )
    return 0 if report.all_passed else 1


if __name__ == "__main__":
    raise SystemExit(main())
