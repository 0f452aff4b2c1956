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
    FAMILY_CURVE_X_FACTOR,
    FAMILY_PSI,
    PERTURBED_AMPLITUDE,
    build_example,
    build_perturbed_psi,
    case_alphas,
    constancy_polynomial,
    gallery_specs,
    invariants_from_alphas,
    isoparametric_report,
)
# nothing here calls shape_operator, but perfbench's gallery workload cuts its
# run into segments on calls of cli.shape_operator, so the name must stay
from .hypersurface import ricci, shape_operator
from .jacobi import (
    FrameShape,
    detq_and_slope,
    detq_derivative_formula,
    detq_derivatives,
    formula_orders,
    parallel_mean_curvature,
    parallel_shape,
    q_matrix,
    q_matrix_prime,
)
from .spaceform import GeometryError, random_tangent, zero_vector

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
        if self.case is None:
            return [CaseId.from_tag(tag) for tag in CASES]
        return [CaseId.from_tag(self.case)]

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
    NaN error, once recorded, stays the maximum and fails the check.
    """

    def __init__(self, name: str, anchor: str, tol: float, judge_abs: bool = False):
        self.name = name
        self.anchor = anchor
        self.tol = tol
        self.judge_abs = judge_abs
        self.max_abs = 0.0
        self.max_rel = 0.0

    def record(self, got: float, want: float) -> None:
        err = abs(got - want)
        self.max_abs = _worse(err, self.max_abs)
        self.max_rel = _worse(err / max(1.0, abs(got), abs(want)), self.max_rel)

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
            passed=bool(err <= self.tol),
        )


def _worse(err: float, worst: float) -> float:
    """The larger error, where NaN is larger than any number (``max`` would drop it)."""
    return err if err > worst or err != err else worst


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def run_identities(cfg: RunConfig, report: VerificationReport) -> None:
    tol = cfg.tolerance("identities")
    for case in cfg.selected_cases():
        rng = np.random.default_rng(cfg.seed)
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
        for _ in range(cfg.samples):
            p = random_product_point(case.kappa1, case.kappa2, rng)
            x = random_product_tangent(p, rng)
            y = random_product_tangent(p, rng)

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

            a, b = _unit_factor_vectors(p, rng)
            ja = complex_structures(a)[0]
            trackers["sectional_first"].record(curvature_tensor(a, ja, ja, a), float(case.kappa1))
            jb = complex_structures(b)[0]
            trackers["sectional_second"].record(curvature_tensor(b, jb, jb, b), float(case.kappa2))
            trackers["sectional_mixed"].record(curvature_tensor(a, b, b, a), 0.0)

        for tracker in trackers.values():
            report.add(tracker.check(cfg.samples))


def _vector_gap(x: ProductVector, y: ProductVector) -> float:
    """Largest coordinate gap; the same subtractions as numpy, and an exact max."""
    return max(
        abs(a - b)
        for u, v in ((x.first, y.first), (x.second, y.second))
        for a, b in zip(u.coords.tolist(), v.coords.tolist())
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
        entries = list(rng.uniform(-2.0, 2.0, size=6))
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


def run_detq(cfg: RunConfig, report: VerificationReport) -> None:
    tol = cfg.tolerance("detq")
    tol_matrix = cfg.tolerance("detq_matrix")
    for case in cfg.selected_cases():
        orders = formula_orders(case.kappa1, case.kappa2)
        rng = np.random.default_rng(cfg.seed)
        tag = case.value
        derivative_trackers = {
            k: ErrorTracker(f"{tag}.derivative_order_{k}", f"jacobi.detq.d{k}", tol) for k in orders
        }
        det_tracker = ErrorTracker(
            f"{tag}.detq_matrix_vs_closed_form", "jacobi.detq.matrix_equivalence", tol_matrix, judge_abs=True
        )
        trace_tracker = ErrorTracker(f"{tag}.trace_vs_log_derivative", "jacobi.detq.jacobi_formula", tol)

        for _ in range(cfg.samples):
            closed, oracle = exact_derivatives(random_frame_shape(case, rng, exact=True), orders)
            for k in orders:
                # float() rounds a Decimal and a Fraction correctly, so equal
                # exact values record an error of 0
                derivative_trackers[k].record(float(closed[k]), float(oracle[k]))

            fsf = random_frame_shape(case, rng, exact=False)
            cpf = fsf.case
            l = float(rng.uniform(-0.4, 0.4))
            q = q_matrix(fsf, cpf, l)
            det_direct = float(np.linalg.det(q))
            det_closed, slope = detq_and_slope(fsf, cpf, l)
            det_tracker.record_abs(det_direct - det_closed)
            if abs(det_closed) > 1e-3:
                trace = float(np.trace(parallel_shape(q, q_matrix_prime(fsf, cpf, l))))
                trace_tracker.record(trace, parallel_mean_curvature(det_closed, slope, l))

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
    cases = cfg.selected_cases()
    specs = [
        replace(s, c=cfg.c) if s.family == FAMILY_PSI else s
        for s in gallery_specs()
        if cfg.family in (None, s.family) and CaseId.from_kappas(s.kappa1, s.kappa2) in cases
    ]
    if not specs:
        raise ConfigError("gallery selection is empty")
    return specs


#: the negative control's grid size, which --grid does not reach (perfbench counts its 5^3 points)
CONTROL_GRID = 5


def run_gallery(cfg: RunConfig, report: VerificationReport) -> None:
    tol_angle = cfg.tolerance("gallery_angle")
    tol_curv = cfg.tolerance("gallery_curvature")
    tol_ricci = cfg.tolerance("gallery_ricci")
    control_c = None

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

        angle.record_abs(rep.angle.max_dev)
        if spec.family == FAMILY_PSI:
            angle.record(rep.angle.mean, 1.0 - 2.0 * spec.c)
            # c(1 + a sin r) must stay in [0, 1], so the control's c is capped
            control_c = min(spec.c, 1.0 / (1.0 + PERTURBED_AMPLITUDE))
        else:
            expected = 1.0 if spec.family == FAMILY_CURVE_X_FACTOR else -1.0
            angle.record(rep.angle.mean, expected)

        for stat in rep.principal:
            curvature.record_abs(stat.max_dev)
        for stats in rep.mean_curvature.values():
            curvature.record_abs(stats.max_dev)
        if spec.family != FAMILY_PSI:
            got = sorted(s.mean for s in rep.principal)
            want = sorted((spec.k, 0.0, 0.0))
            gap = min(
                max(abs(g - w) for g, w in zip(got, sorted(want))),
                max(abs(g - w) for g, w in zip(got, sorted(-x for x in want))),
            )
            curvature.record_abs(gap)

        for rec in rep.records:
            ricci_trace.record(sum(ricci(e, rec) for e in rec.basis), rec.rho)

        for tracker in (angle, curvature, ricci_trace):
            report.add(tracker.check(rep.grid_points))

    if control_c is not None:
        control_imm = build_perturbed_psi(control_c)
        control = isoparametric_report(control_imm, control_imm.grid(CONTROL_GRID), l_samples=cfg.l_values)
        report.add(
            CheckResult(
                name="psi_negative_control_fails",
                anchor="classify.gallery.negative_control",
                samples=control.grid_points,
                max_abs_err=control.angle.max_dev,
                max_rel_err=control.angle.max_dev,
                passed=bool(control.angle.max_dev > 1e-3),
            )
        )


def run_flow(cfg: RunConfig, report: VerificationReport) -> None:
    family = cfg.family or FAMILY_PSI
    case = CaseId.from_tag(cfg.case) if cfg.case else CaseId.H2xR2
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
    parser.add_argument("--l", dest="l_values", help="comma-separated flow distances")
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
