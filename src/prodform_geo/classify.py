"""Case systems forcing a constant product angle, and the example gallery.

For each curvature pair with kappa1 != kappa2, constancy of the low-order
derivatives of det Q at l = 0 yields three polynomial relations among the
angle value C and the invariants (rho, H12, H13).  Eliminating the invariants
leaves a cubic that the angle value must satisfy, so C can take only finitely
many values.  This module evaluates those systems both ways, forms the
cubics, and builds the classified hypersurface families for numerical
verification.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .ambient import ProductPoint, ProductVector
from .hypersurface import Immersion, ShapeRecord
from .jacobi import (
    CaseParams,
    detq_derivative_formula,
    flow_mean_curvature,
    formula_orders,
    frame_shape_at,
    horner,
    normal_graph,
)
from .spaceform import KAPPAS, GeometryError, ModelPoint, ModelVector, stability_functions, tangent_frame


class CaseId(enum.Enum):
    """The three mixed-curvature products: each value is the case's tag, and
    each case carries its curvature pair as ``kappa1`` and ``kappa2``."""

    S2xH2 = "s2h2", 1, -1
    S2xR2 = "s2r2", 1, 0
    H2xR2 = "h2r2", -1, 0

    def __new__(cls, tag: str, kappa1: int, kappa2: int) -> "CaseId":
        case = object.__new__(cls)
        case._value_ = tag
        case.kappa1, case.kappa2 = kappa1, kappa2
        return case


@dataclass(frozen=True)
class AlphaRecord:
    """Values of the constant derivative combinations for one case."""

    alpha1: float
    alpha2: float
    alpha3: float
    alpha4: Optional[float] = None


def case_alphas(case: CaseId, C, rho, H12, H13) -> AlphaRecord:
    """Evaluate the three (or four) constant combinations of a case.

    These are the closed forms of the derivative orders 2, 4 and 6, and 10
    in the sphere-times-hyperbolic case, at the case's curvature pair.
    """
    cp = CaseParams(case.kappa1, case.kappa2, C)
    return AlphaRecord(
        *(
            detq_derivative_formula(k, cp, rho=rho, H12=H12, H13=H13)
            for k in formula_orders(case.kappa1, case.kappa2)[1:]
        )
    )


@dataclass(frozen=True)
class SolvedInvariants:
    rho: float
    H13: float
    H12: Optional[float] = None


def invariants_from_alphas(case: CaseId, ar: AlphaRecord, C) -> SolvedInvariants:
    """Solve the case system for the invariants at a given angle value.

    Inverts the relations of :func:`case_alphas`; the sphere-times-hyperbolic
    case recovers all of (rho, H12, H13), the flat-factor cases (rho, H13).
    """
    c = CaseParams(case.kappa1, case.kappa2, C).C
    a1, a2, a3 = ar.alpha1, ar.alpha2, ar.alpha3
    if case is CaseId.S2xH2:
        _require_nonzero(1 - c, "1-C")
        _require_nonzero(1 + c, "1+C")
        rho = a1 - c
        h12 = -(4 * a1 * c * c - (2 * a1 - 4 * a2 - 2) * c + a1 - a2 + a3 - 1) / (8 * (1 - c))
        h13 = -(4 * a1 * c * c + (2 * a1 + 4 * a2 + 2) * c + a1 + a2 + a3 + 1) / (8 * (1 + c))
        return SolvedInvariants(rho=rho, H13=h13, H12=h12)
    # the flat-factor cases are mirror images under kappa1 -> -kappa1
    k1 = case.kappa1
    _require_nonzero(1 + c, "1+C")
    rho = a1 + k1 * (3 - c) / 2
    h13 = -(k1 * (1 + c) ** 2 + 4 * a1 * (1 + c) + 4 * k1 * a2) / (16 * (1 + c))
    return SolvedInvariants(rho=rho, H13=h13)


def _require_nonzero(value, label: str) -> None:
    if abs(value) <= 1e-8:
        raise GeometryError(f"degenerate denominator: {label} vanishes (value {float(value)!r})")


@dataclass(frozen=True)
class ConstancyPolynomial:
    """Cubic that the angle value must satisfy, in the stated variable."""

    coefficients: tuple  # ascending, length 4
    variable: str  # "C" or "1+C"

    def evaluate_at_angle(self, c):
        return horner(self.coefficients, c if self.variable == "C" else 1 + c)


def constancy_polynomial(case: CaseId, ar: AlphaRecord) -> ConstancyPolynomial:
    """The printed cubic annihilating the angle value, per case.

    Sphere-times-hyperbolic: 16 a2 C^3 + (16 a1 + 12 a3) C^2 + (4 a2 + 4) C
    - a1 - 2 a3 - a4 in the variable C (the C and C^3 coefficients cannot
    both vanish).  The flat-factor cases are monic cubics in 1 + C, mirror
    images under kappa1 -> -kappa1.
    """
    a1, a2, a3 = ar.alpha1, ar.alpha2, ar.alpha3
    if case is CaseId.S2xH2:
        if ar.alpha4 is None:
            raise GeometryError("the sphere-times-hyperbolic cubic needs alpha4")
        return ConstancyPolynomial(
            coefficients=(-a1 - 2 * a3 - ar.alpha4, 4 * a2 + 4, 16 * a1 + 12 * a3, 16 * a2),
            variable="C",
        )
    k1 = case.kappa1
    return ConstancyPolynomial(coefficients=(8 * k1 * a3, 12 * a2, 6 * k1 * a1, 1), variable="1+C")


# ---------------------------------------------------------------------------
# classified example hypersurfaces
# ---------------------------------------------------------------------------

FAMILY_CURVE_X_FACTOR = "curve_x_factor"
FAMILY_FACTOR_X_CURVE = "factor_x_curve"
FAMILY_PSI = "psi"
FAMILIES = (FAMILY_CURVE_X_FACTOR, FAMILY_FACTOR_X_CURVE, FAMILY_PSI)


@dataclass(frozen=True)
class ExampleSpec:
    """Parameters of one classified example hypersurface, up to ambient isometry.

    Families: a constant-curvature curve times a full factor (either order),
    or the ruled hypersurface over a horocycle in the hyperbolic-times-flat
    product, built from a strip constant 0 < c < 1.
    """

    family: str
    kappa1: int = -1
    kappa2: int = 0
    k: float = 1.0
    c: float = 0.25

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise GeometryError(f"unknown example family {self.family!r}")
        for name in ("k", "c"):
            if not math.isfinite(getattr(self, name)):
                raise GeometryError(f"{name} must be finite, got {getattr(self, name)!r}")
        for name in ("kappa1", "kappa2"):
            if getattr(self, name) not in KAPPAS:
                raise GeometryError(f"{name} must be one of {KAPPAS}, got {getattr(self, name)!r}")
        if self.family == FAMILY_PSI:
            if (self.kappa1, self.kappa2) != (-1, 0):
                raise GeometryError("the ruled example lives in the hyperbolic-times-flat product")
            if not 0.0 < self.c < 1.0:
                raise GeometryError(f"the strip constant must satisfy 0 < c < 1, got {self.c}")
        else:
            if self.kappa1 == self.kappa2:
                raise GeometryError("example families require distinct curvatures")
            if self.k < 0.0:
                raise GeometryError("curve curvature is parametrized by k >= 0")

    def label(self) -> str:
        if self.family == FAMILY_PSI:
            return f"psi(c={self.c!r})"
        side = "first" if self.family == FAMILY_CURVE_X_FACTOR else "second"
        # the shortest repr that reads back as k, so distinct k give distinct names
        k = repr(float(self.k)).removesuffix(".0")
        return f"curve(k={k},{side})x({self.kappa1},{self.kappa2})"


def constant_curvature_curve(kappa: int, k: float) -> Callable[..., list[list[float]]]:
    """Unit-speed curve of constant geodesic curvature k, with its unit normal.

    Flat plane: lines and circles of radius 1/k.  Sphere: great and small
    circles.  Hyperbolic plane: geodesics (k = 0), equidistants (k < 1), the
    horocycle (k = 1) and circles (k > 1), all on the hyperboloid.

    One formula covers them all: with (S, C) the stability pair at
    delta = kappa + k^2, gamma = p0 + S T0 + I W, gamma' = C T0 + S W and
    gamma'' = -delta S T0 + C W, where W = -kappa p0 + k J T0 and
    I = (1 - C)/delta = 2 S(t/2)^2, which is t^2/2 at delta = 0 and keeps
    its digits near it, where 1 - C cancels.  The curve starts at p0, the
    origin or (1, 0, 0), along the first leg T0 of its ``tangent_frame``,
    and turns towards J T0: <gamma'', J gamma'> = k.  Its unit normal
    nu = J gamma' starts at J T0 with nu' = -k gamma', so
    nu = J T0 - k (S T0 + I W).

    ``curve(t, order)`` evaluates the stability pair once and returns the
    frame [gamma, nu], then gamma' and gamma'' up to ``order``, as lists of
    Python floats.
    """
    if k < 0.0:
        raise GeometryError("curve curvature must be nonnegative")
    delta = kappa + k * k
    if not math.isfinite(delta):
        raise GeometryError(f"curve curvature k = {k!r} overflows delta = kappa + k^2")
    p0 = ModelPoint(kappa, [1.0, 0.0, 0.0] if kappa else [0.0, 0.0])
    t0, jt0 = tangent_frame(p0)
    # (p0, T0, W, J T0) coordinate by coordinate, in Python floats
    columns = [(p, a, -kappa * p + k * j, j) for p, a, j in zip(p0.xs, t0.xs, jt0.xs)]

    def curve(t: float, order: int = 0) -> list[list[float]]:
        s, c = stability_functions(delta, t)
        half, _ = stability_functions(delta, t / 2.0)
        i = 2.0 * half * half
        frame = [
            [p + s * a + i * w for p, a, w, _ in columns],
            [j - k * (s * a + i * w) for _, a, w, j in columns],
        ]
        if order > 0:
            frame.append([c * a + s * w for _, a, w, _ in columns])
        if order > 1:
            frame.append([-delta * s * a + c * w for _, a, w, _ in columns])
        return frame

    return curve


def fermi_chart(kappa: int, k: float) -> tuple[Callable, Callable]:
    """Fermi coordinates along the curve of constant curvature k.

    F(a, b) = C(b) gamma(a) + S(b) nu(a), with (S, C) the stability pair at
    delta = kappa, lies at distance b along the curve's normal geodesic at
    gamma(a), so b = const is a parallel of the curve (Cecil & Ryan,
    Geometry of Hypersurfaces, 2015).  Since nu' = -k gamma',
    F_a = (C - kS) gamma', F_b = -kappa S gamma + C nu, F_aa = (C - kS) gamma'',
    F_ab = -(kappa S + kC) gamma' and F_bb = -kappa F.  At b = 0 the chart is
    positively oriented, (F_a, F_b) = (gamma', J gamma'); at k = 0 it covers
    the whole factor.  Returns (F, F_a, F_b) and (F_aa, F_ab, F_bb) as
    functions of (a, b), each evaluating one curve frame.
    """
    curve = constant_curvature_curve(kappa, k)

    def partials(a: float, b: float) -> tuple[list[float], list[float], list[float]]:
        gamma, nu, dgamma = curve(a, 1)
        s, c = stability_functions(kappa, b)
        stretch = c - k * s
        return (
            [c * g + s * n for g, n in zip(gamma, nu)],
            [stretch * x for x in dgamma],
            [-kappa * s * g + c * n for g, n in zip(gamma, nu)],
        )

    def second_partials(a: float, b: float) -> tuple[list[float], list[float], list[float]]:
        gamma, nu, dgamma, ddgamma = curve(a, 2)
        s, c = stability_functions(kappa, b)
        stretch, turn = c - k * s, -(kappa * s + k * c)
        return (
            [stretch * x for x in ddgamma],
            [turn * x for x in dgamma],
            [-kappa * (c * g + s * n) for g, n in zip(gamma, nu)],
        )

    return partials, second_partials


def _curve_piece(kappa: int, k: float) -> tuple:
    """The piece gamma(t) of ``constant_curvature_curve``, constant in (a, b)."""
    curve = constant_curvature_curve(kappa, k)

    def partials(t: float, a: float, b: float) -> list[list[float]]:
        gamma, _, dgamma = curve(t, 1)
        return [gamma, dgamma, [0.0] * len(gamma), [0.0] * len(gamma)]

    def second(t: float, a: float, b: float) -> list[list[float]]:
        ddgamma = curve(t, 2)[3]
        zero = [0.0] * len(ddgamma)
        return [ddgamma, zero, zero, zero, zero, zero]

    return kappa, partials, second


def _factor_piece(kappa: int) -> tuple:
    """The piece F(a, b) of ``fermi_chart(kappa, 0)``, the full factor, constant in t."""
    factor_partials, factor_second = fermi_chart(kappa, 0.0)

    def partials(t: float, a: float, b: float) -> list[list[float]]:
        f, fa, fb = factor_partials(a, b)
        return [f, [0.0] * len(f), fa, fb]

    def second(t: float, a: float, b: float) -> list[list[float]]:
        zero = [0.0] * (2 if kappa == 0 else 3)
        return [zero, zero, zero, *factor_second(a, b)]

    return kappa, partials, second


def _psi_pieces(c: float) -> tuple[tuple, tuple]:
    """psi's pieces in (t, r, s): the horocycle's Fermi sweep F(r, -sqrt(c) t), with
    F = ``fermi_chart(-1, 1)``, and the line (s, sqrt(1 - c) t)."""
    sc, flat_speed = math.sqrt(c), math.sqrt(1.0 - c)
    sweep_partials, sweep_second = fermi_chart(-1, 1.0)

    def sweep(t: float, r: float, s: float) -> list[list[float]]:
        f, fr, fb = sweep_partials(r, -sc * t)
        return [f, [-sc * x for x in fb], fr, [0.0] * 3]

    def sweep_curvature(t: float, r: float, s: float) -> list[list[float]]:
        frr, frb, fbb = sweep_second(r, -sc * t)
        zero = [0.0] * 3
        return [[c * x for x in fbb], [-sc * x for x in frb], zero, frr, zero, zero]

    def line(t: float, r: float, s: float) -> list[list[float]]:
        return [[s, t * flat_speed], [0.0, flat_speed], [0.0, 0.0], [1.0, 0.0]]

    # the line is linear in (t, s), and nothing depends on r
    return (-1, sweep, sweep_curvature), (0, line, lambda t, r, s: [[0.0, 0.0]] * 6)


def _assemble(first: tuple, second: tuple, name: str) -> Immersion:
    """The immersion (t, a, b) -> (first, second) of two factor pieces, with its jacobian and hessian.

    A piece is (kappa, partials, second): as functions of (t, a, b), ``partials``
    gives the factor point and its three first partials and ``second`` its six
    second partials in the order of ``HESSIAN_PAIRS``, each a new list of
    Python floats.  The chart and the jacobian's base take the point of ``partials``.
    """
    kappa1, partials1, second1 = first
    kappa2, partials2, second2 = second

    def chart(u: np.ndarray) -> ProductPoint:
        # Python floats: numpy scalar arithmetic is slower and rounds the same
        t, a, b = u.tolist()
        return ProductPoint(ModelPoint(kappa1, partials1(t, a, b)[0]), ModelPoint(kappa2, partials2(t, a, b)[0]))

    def jacobian(u: np.ndarray):
        t, a, b = u.tolist()
        f, f_t, f_a, f_b = partials1(t, a, b)
        g, g_t, g_a, g_b = partials2(t, a, b)
        p, q = ModelPoint(kappa1, f), ModelPoint(kappa2, g)
        return (
            ProductVector(ModelVector(p, f_t), ModelVector(q, g_t)),
            ProductVector(ModelVector(p, f_a), ModelVector(q, g_a)),
            ProductVector(ModelVector(p, f_b), ModelVector(q, g_b)),
        )

    def hessian(u: np.ndarray):
        t, a, b = u.tolist()
        return tuple(zip(second1(t, a, b), second2(t, a, b)))

    return Immersion(
        kappa1=kappa1,
        kappa2=kappa2,
        chart=chart,
        jacobian=jacobian,
        hessian=hessian,
        name=name,
    )


def build_example(spec: ExampleSpec) -> Immersion:
    """Immersion of a classified example, with its analytic jacobian and hessian.

    Each example assembles two factor pieces.  A curve times a full factor is
    (gamma(t), F(a, b)), in either order, with F the factor's ``fermi_chart``
    at k = 0; psi is the horocycle's Fermi sweep ruled against a line,
    (F(r, -sqrt(c) t), (s, sqrt(1 - c) t)) with F = ``fermi_chart(-1, 1)``.
    """
    if spec.family == FAMILY_PSI:
        return _assemble(*_psi_pieces(spec.c), spec.label())
    if spec.family == FAMILY_CURVE_X_FACTOR:
        return _assemble(_curve_piece(spec.kappa1, spec.k), _factor_piece(spec.kappa2), spec.label())
    return _assemble(_factor_piece(spec.kappa1), _curve_piece(spec.kappa2, spec.k), spec.label())


@dataclass(frozen=True)
class KnownGeometry:
    """What the classification says of one example: its angle C and its
    principal curvatures, ascending, for the normal ``unit_normal`` gives."""

    C: float
    principal_curvatures: tuple[float, float, float]

    def principal_gap(self, measured: Sequence[float]) -> float:
        """The largest gap of ``measured``, sorted, to the known principal curvatures."""
        return max(abs(g - w) for g, w in zip(sorted(measured), self.principal_curvatures))


def known_geometry(spec: ExampleSpec) -> KnownGeometry:
    """The known angle and principal curvatures of a classified example.

    A curve of curvature k times a full factor has C = 1 with the curve in
    the first factor, C = -1 in the second, and principal curvatures
    (k, 0, 0); psi has C = 1 - 2c and (0, 0, sqrt(1 - c)).  Every chart of
    ``build_example`` has its curve's nu as normal, so the signs hold as
    written and the first focal point lies at l > 0.
    """
    if spec.family == FAMILY_PSI:
        return KnownGeometry(1.0 - 2.0 * spec.c, (0.0, 0.0, math.sqrt(1.0 - spec.c)))
    # k >= 0, so (0, 0, k) is ascending
    return KnownGeometry(1.0 if spec.family == FAMILY_CURVE_X_FACTOR else -1.0, (0.0, 0.0, spec.k))


#: the normal distance of the negative control is CONTROL_AMPLITUDE sin(u1 + 2 u2 - u3)
CONTROL_AMPLITUDE = 0.1


def build_control(imm: Immersion) -> Immersion:
    """Negative control: the normal graph of ``imm`` at a distance that varies.

    A parallel hypersurface keeps the angle C of its base, and an
    isoparametric one has C constant; moving the points by different
    distances makes C vary, so the control is not isoparametric.
    """

    def phi(u: np.ndarray) -> float:
        u1, u2, u3 = u.tolist()
        return CONTROL_AMPLITUDE * math.sin(u1 + 2.0 * u2 - u3)

    return normal_graph(imm, phi, f"{imm.name}|control")


#: the curve curvatures k of the gallery's curve examples
GALLERY_CURVATURES = (0.0, 0.5, 1.0, 2.0)


def gallery_specs() -> list[ExampleSpec]:
    """The classified examples over all mixed curvature pairs."""
    return [
        ExampleSpec(family=family, kappa1=case.kappa1, kappa2=case.kappa2, k=k)
        for case in CaseId
        for k in GALLERY_CURVATURES
        for family in (FAMILY_CURVE_X_FACTOR, FAMILY_FACTOR_X_CURVE)
    ] + [ExampleSpec(family=FAMILY_PSI)]


# ---------------------------------------------------------------------------
# the isoparametric verification report
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StatSummary:
    """Constancy statistics of one scalar field over the sample grid."""

    mean: float
    max_dev: float  # largest |value - mean|

    @classmethod
    def of(cls, values: Sequence[float]) -> "StatSummary":
        arr = np.asarray(values, dtype=float)
        mean = float(np.mean(arr))
        return cls(mean=mean, max_dev=float(np.max(np.abs(arr - mean))))


@dataclass(frozen=True)
class IsoparametricReport:
    """What ``isoparametric_report`` measured on one grid; it judges nothing.

    ``records`` holds the flow-frame shape record of each grid point,
    ``principal_values`` its ascending principal curvatures and ``h_values``
    its H(l) for each entry of ``l_samples``, in order, with None at or
    beyond a focal point.  The statistics summarize them:
    ``mean_curvature`` maps each distinct l to its H values over the
    non-focal points.
    """

    name: str
    l_samples: tuple[float, ...]
    angle: StatSummary
    principal: tuple[StatSummary, StatSummary, StatSummary]
    mean_curvature: dict[float, StatSummary]
    records: tuple[ShapeRecord, ...] = field(repr=False)
    principal_values: tuple[tuple[float, float, float], ...] = field(repr=False)
    h_values: tuple[tuple[Optional[float], ...], ...] = field(repr=False)

    @property
    def grid_points(self) -> int:
        return len(self.records)

    @property
    def focal_events(self) -> int:
        return sum(h is None for hs in self.h_values for h in hs)


def isoparametric_report(
    imm: Immersion,
    grid: Sequence[np.ndarray],
    *,
    l_samples: Sequence[float],
) -> IsoparametricReport:
    """Measure the angle, principal curvatures and flow H(l) over a grid.

    Each grid point gets one flow-frame shape record, and H(l) comes from
    one evaluation of the det Q closed form of that record, which is its
    frame shape (``flow_mean_curvature``).  A sample at or beyond a focal
    point gives None and the walk continues.  The report holds measurements
    only: the checks and their tolerances belong to the caller.
    """
    l_samples = tuple(float(l) for l in l_samples)

    records: list[ShapeRecord] = []
    h_values: list[tuple[Optional[float], ...]] = []
    h_of_l: dict[float, list[float]] = {l: [] for l in l_samples}
    for u in grid:
        rec, cp, _ = frame_shape_at(imm, u)
        records.append(rec)
        hs = tuple(flow_mean_curvature(rec, cp, l) for l in l_samples)
        for l, h in zip(l_samples, hs):
            if h is not None:
                h_of_l[l].append(h)
        h_values.append(hs)

    principals = tuple(tuple(float(k) for k in rec.principal_curvatures()) for rec in records)

    return IsoparametricReport(
        name=imm.name,
        l_samples=l_samples,
        angle=StatSummary.of([rec.C for rec in records]),
        principal=tuple(StatSummary.of([pc[i] for pc in principals]) for i in range(3)),
        mean_curvature={l: StatSummary.of(vals) for l, vals in h_of_l.items() if vals},
        records=tuple(records),
        principal_values=principals,
        h_values=tuple(h_values),
    )
