"""Case systems forcing a constant product angle, and the example gallery.

For each curvature pair with kappa1 != kappa2, constancy of the low-order
derivatives of det Q at l = 0 yields three polynomial relations among the
angle value C and the invariants (rho, H12, H13).  Eliminating the invariants
leaves a cubic that the angle value must satisfy, so C can take only finitely
many values.  This module evaluates those systems both ways, solves the
cubics robustly, and builds the classified hypersurface families for
numerical verification.
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
)
from .spaceform import KAPPAS, GeometryError, ModelPoint, ModelVector, stability_functions, tangent_frame, zero_vector


class CaseId(enum.Enum):
    """The three mixed-curvature products."""

    S2xH2 = "s2h2"
    S2xR2 = "s2r2"
    H2xR2 = "h2r2"

    @property
    def kappa1(self) -> int:
        return {"s2h2": 1, "s2r2": 1, "h2r2": -1}[self.value]

    @property
    def kappa2(self) -> int:
        return {"s2h2": -1, "s2r2": 0, "h2r2": 0}[self.value]

    @classmethod
    def from_tag(cls, tag: str) -> "CaseId":
        for case in cls:
            if case.value == tag.lower():
                return case
        raise GeometryError(f"unknown case tag {tag!r}; expected one of s2h2, s2r2, h2r2")

    @classmethod
    def from_kappas(cls, kappa1: int, kappa2: int) -> "CaseId":
        for case in cls:
            if (case.kappa1, case.kappa2) == (kappa1, kappa2):
                return case
        raise GeometryError(f"no mixed case for curvature pair ({kappa1}, {kappa2})")


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

    def roots_in_angle(self) -> list["PolyRoot"]:
        shift = 0.0 if self.variable == "C" else -1.0
        lo, hi = (-1.0, 1.0) if self.variable == "C" else (0.0, 2.0)
        roots = solve_polynomial(self.coefficients, lo=lo, hi=hi)
        return [
            PolyRoot(value=r.value + shift, multiplicity=r.multiplicity, in_range=r.in_range)
            for r in roots
        ]


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
# real roots of the constancy cubics
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PolyRoot:
    value: float
    multiplicity: int
    in_range: bool


def solve_polynomial(coefficients: Sequence[float], lo: float = -1.0, hi: float = 1.0) -> list[PolyRoot]:
    """All real roots of a polynomial of degree at most three.

    Exact-degeneracy cases (multiple roots, dropped leading coefficients) are
    classified through the discriminant; distinct roots are found in closed
    form and Newton-polished on the original polynomial.  Roots are sorted,
    merged at 1e-10 and flagged against [lo, hi].
    """
    coeffs = [float(x) for x in coefficients]
    if len(coeffs) > 4:
        raise GeometryError("only polynomials of degree <= 3 are supported")
    if not all(math.isfinite(x) for x in coeffs):
        raise GeometryError(f"coefficients must be finite, got {tuple(coeffs)!r}")
    scale = max(abs(x) for x in coeffs) if coeffs else 0.0
    if scale == 0.0:
        raise GeometryError("all coefficients vanish")
    while coeffs and coeffs[-1] == 0.0:
        coeffs.pop()
    degree = len(coeffs) - 1

    if degree == 0:
        raw: list[tuple[float, int]] = []
    elif degree == 1:
        raw = [(-coeffs[0] / coeffs[1], 1)]
    elif degree == 2:
        raw = _quadratic_roots(coeffs)
    else:
        raw = _cubic_roots(coeffs)

    polished = []
    for r, mult in raw:
        if mult == 1:
            r = _newton_polish(coeffs, r)
        polished.append((r, mult))
    polished.sort(key=lambda t: t[0])

    merged: list[tuple[float, int]] = []
    for r, mult in polished:
        if merged and abs(r - merged[-1][0]) <= 1e-10:
            merged[-1] = (merged[-1][0], merged[-1][1] + mult)
        else:
            merged.append((r, mult))
    return [
        PolyRoot(value=r, multiplicity=m, in_range=(lo - 1e-12 <= r <= hi + 1e-12))
        for r, m in merged
    ]


def _newton_polish(coeffs: Sequence[float], x: float) -> float:
    """At most three Newton steps on the polynomial, stopped by a zero derivative or an overflow."""
    deriv = [k * c for k, c in enumerate(coeffs)][1:]
    for _ in range(3):
        d = horner(deriv, x)
        if d == 0.0:
            break
        step = horner(coeffs, x) / d
        if not math.isfinite(step):
            break
        x -= step
    return x


def _quadratic_roots(coeffs: Sequence[float]) -> list[tuple[float, int]]:
    c0, c1, c2 = coeffs
    scale = max(abs(c0), abs(c1), abs(c2))
    disc = c1 * c1 - 4.0 * c2 * c0
    if abs(disc) <= 1e-13 * scale * scale:
        return [(-c1 / (2.0 * c2), 2)]
    if disc < 0.0:
        return []
    q = -0.5 * (c1 + math.copysign(math.sqrt(disc), c1))
    r1 = q / c2
    r2 = c0 / q if q != 0.0 else -c1 / c2 - r1
    return [(r1, 1), (r2, 1)]


def _cubic_roots(coeffs: Sequence[float]) -> list[tuple[float, int]]:
    d, c, b, a = coeffs
    scale = max(abs(a), abs(b), abs(c), abs(d))
    disc = (
        18.0 * a * b * c * d
        - 4.0 * b**3 * d
        + b * b * c * c
        - 4.0 * a * c**3
        - 27.0 * a * a * d * d
    )
    disc0 = b * b - 3.0 * a * c
    if abs(disc) <= 1e-13 * scale**4:
        if abs(disc0) <= 1e-13 * scale * scale:
            return [(-b / (3.0 * a), 3)]
        double = (9.0 * a * d - b * c) / (2.0 * disc0)
        simple = (4.0 * a * b * c - 9.0 * a * a * d - b**3) / (a * disc0)
        return [(double, 2), (simple, 1)]
    # depressed cubic t^3 + p t + q with x = t - b/(3a)
    p = (3.0 * a * c - b * b) / (3.0 * a * a)
    q = (2.0 * b**3 - 9.0 * a * b * c + 27.0 * a * a * d) / (27.0 * a**3)
    shift = -b / (3.0 * a)
    if disc > 0.0:
        # three distinct real roots: trigonometric form
        m = 2.0 * math.sqrt(-p / 3.0)
        arg = min(1.0, max(-1.0, 3.0 * q / (p * m)))
        theta = math.acos(arg)
        return [(shift + m * math.cos((theta - 2.0 * math.pi * k) / 3.0), 1) for k in range(3)]
    # one real root: Cardano with a cancellation-free branch
    half_q = -0.5 * q
    root = math.sqrt(half_q * half_q + (p / 3.0) ** 3)
    u = half_q + math.copysign(root, half_q) if half_q != 0.0 else root
    u = math.copysign(abs(u) ** (1.0 / 3.0), u)
    t = u + (-p / 3.0) / u if u != 0.0 else 0.0
    return [(shift + t, 1)]


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
        return f"curve(k={self.k:g},{side})x({self.kappa1},{self.kappa2})"


def constant_curvature_curve(kappa: int, k: float) -> tuple[Callable, Callable, Callable]:
    """Unit-speed curve of constant geodesic curvature k and its first two derivatives.

    Flat plane: lines and circles of radius 1/k.  Sphere: great and small
    circles.  Hyperbolic plane: geodesics (k = 0), equidistants (k < 1), the
    horocycle (k = 1) and circles (k > 1), all on the hyperboloid.

    One formula covers them all: with (S, C) the stability pair at
    delta = kappa + k^2, gamma = p0 + S T0 + I W, gamma' = C T0 + S W and
    gamma'' = -delta S T0 + C W, where W = -kappa p0 + k J T0 and
    I = (1 - C)/delta = 2 S(t/2)^2, which is t^2/2 at delta = 0 and keeps
    its digits near it, where 1 - C cancels.  The curve starts at p0, the
    origin or (1, 0, 0), along the first leg T0 of its ``tangent_frame``,
    and turns towards J T0: <gamma'', J gamma'> = k.
    """
    if k < 0.0:
        raise GeometryError("curve curvature must be nonnegative")
    p0 = ModelPoint(kappa, [1.0, 0.0, 0.0] if kappa else [0.0, 0.0])
    t0, jt0 = tangent_frame(p0)
    w0 = -kappa * p0.coords + k * jt0.coords
    delta = kappa + k * k
    # (p0, T0, W) coordinate by coordinate, in Python floats
    columns = list(zip(p0.coords.tolist(), t0.coords.tolist(), w0.tolist()))

    def gamma(t: float) -> np.ndarray:
        s, _ = stability_functions(delta, t)
        half, _ = stability_functions(delta, t / 2.0)
        i = 2.0 * half * half
        return np.array([p + s * a + i * w for p, a, w in columns])

    def dgamma(t: float) -> np.ndarray:
        s, c = stability_functions(delta, t)
        return np.array([c * a + s * w for _, a, w in columns])

    def ddgamma(t: float) -> np.ndarray:
        s, c = stability_functions(delta, t)
        return np.array([-delta * s * a + c * w for _, a, w in columns])

    return gamma, dgamma, ddgamma


def _factor_chart(kappa: int) -> tuple[Callable, Callable, Callable, Callable]:
    """Chart of a full factor in two parameters, with both partials and the
    three second partials (aa, ab, bb)."""
    if kappa == 0:
        return (
            lambda a, b: np.array([a, b]),
            lambda a, b: np.array([1.0, 0.0]),
            lambda a, b: np.array([0.0, 1.0]),
            lambda a, b: (np.zeros(2), np.zeros(2), np.zeros(2)),
        )
    if kappa == 1:

        def sphere_second(a: float, b: float) -> tuple:
            ca, sa, cb, sb = math.cos(a), math.sin(a), math.cos(b), math.sin(b)
            return (
                np.array([-ca * cb, -ca * sb, -sa]),
                np.array([sa * sb, -sa * cb, 0.0]),
                np.array([-ca * cb, -ca * sb, 0.0]),
            )

        return (
            lambda a, b: np.array([math.cos(a) * math.cos(b), math.cos(a) * math.sin(b), math.sin(a)]),
            lambda a, b: np.array([-math.sin(a) * math.cos(b), -math.sin(a) * math.sin(b), math.cos(a)]),
            lambda a, b: np.array([-math.cos(a) * math.sin(b), math.cos(a) * math.cos(b), 0.0]),
            sphere_second,
        )

    def hyperboloid_second(a: float, b: float) -> tuple:
        w = math.sqrt(1.0 + a * a + b * b)
        w3 = w * w * w
        return (
            np.array([(1.0 + b * b) / w3, 0.0, 0.0]),
            np.array([-a * b / w3, 0.0, 0.0]),
            np.array([(1.0 + a * a) / w3, 0.0, 0.0]),
        )

    return (
        lambda a, b: np.array([math.sqrt(1.0 + a * a + b * b), a, b]),
        lambda a, b: np.array([a / math.sqrt(1.0 + a * a + b * b), 1.0, 0.0]),
        lambda a, b: np.array([b / math.sqrt(1.0 + a * a + b * b), 0.0, 1.0]),
        hyperboloid_second,
    )


def build_example(spec: ExampleSpec) -> Immersion:
    """Immersion of a classified example, with its analytic jacobian and hessian."""
    if spec.family == FAMILY_PSI:
        return _build_psi(spec)
    curve_first = spec.family == FAMILY_CURVE_X_FACTOR

    def ordered(curve_part, factor_part) -> tuple:
        """The (first, second) factor order of the family; a swap is its own inverse."""
        return (curve_part, factor_part) if curve_first else (factor_part, curve_part)

    curve_kappa, factor_kappa = ordered(spec.kappa1, spec.kappa2)
    gamma, dgamma, ddgamma = constant_curvature_curve(curve_kappa, spec.k)
    chart2, d2a, d2b, d2 = _factor_chart(factor_kappa)
    curve_dim, factor_dim = (2 if kappa == 0 else 3 for kappa in (curve_kappa, factor_kappa))

    def chart(u: np.ndarray) -> ProductPoint:
        # Python floats: numpy scalar arithmetic is slower and rounds the same
        t, a, b = u.tolist()
        return ProductPoint(*ordered(ModelPoint(curve_kappa, gamma(t)), ModelPoint(factor_kappa, chart2(a, b))))

    def jacobian(u: np.ndarray):
        t, a, b = u.tolist()
        p = chart(u)
        pc, pf = ordered(p.first, p.second)
        zc, zf = zero_vector(pc), zero_vector(pf)
        return (
            ProductVector(*ordered(ModelVector(pc, dgamma(t)), zf)),
            ProductVector(*ordered(zc, ModelVector(pf, d2a(a, b)))),
            ProductVector(*ordered(zc, ModelVector(pf, d2b(a, b)))),
        )

    def hessian(u: np.ndarray):
        # the curve and the factor chart share no parameter, so d_t d_a f = d_t d_b f = 0
        t, a, b = u.tolist()
        zc, zf = np.zeros(curve_dim), np.zeros(factor_dim)
        return (
            ordered(ddgamma(t), zf),
            ordered(zc, zf),
            ordered(zc, zf),
            *(ordered(zc, d) for d in d2(a, b)),
        )

    return Immersion(
        kappa1=spec.kappa1,
        kappa2=spec.kappa2,
        chart=chart,
        jacobian=jacobian,
        hessian=hessian,
        name=spec.label(),
    )


def horocycle_with_normal(r: float) -> tuple[list[float], list[float]]:
    """The reference horocycle ((2+r^2)/2, r, r^2/2) and its unit normal, as Python floats."""
    return [(2.0 + r * r) / 2.0, r, r * r / 2.0], [r * r / 2.0, r, (-2.0 + r * r) / 2.0]


def _ruled(t: float, r: float, s: float, c: float) -> tuple[ProductPoint, list[float], list[float], float, float]:
    """The ruled point at strip constant c, with what places it: the horocycle
    g and its normal n at r, and cosh and sinh of t sqrt(c).

    The coordinates are formed in Python floats, coordinate by coordinate,
    which round as numpy's elementwise products and sums do.
    """
    g, n = horocycle_with_normal(r)
    sc = math.sqrt(c)
    ch, sh = math.cosh(t * sc), math.sinh(t * sc)
    point = ProductPoint(
        ModelPoint(-1, [ch * a + sh * b for a, b in zip(g, n)]),
        ModelPoint(0, [s, t * math.sqrt(1.0 - c)]),
    )
    return point, g, n, ch, sh


def _ruled_point(t: float, r: float, s: float, c: float) -> ProductPoint:
    """The ruled example at strip constant c: the horocycle flowed t sqrt(c), times (s, t sqrt(1 - c))."""
    return _ruled(t, r, s, c)[0]


def _build_psi(spec: ExampleSpec) -> Immersion:
    c = spec.c
    sc = math.sqrt(c)

    def jacobian(u: np.ndarray):
        t, r, s = u.tolist()
        point, g, n, ch, sh = _ruled(t, r, s, c)
        p, q = point.first, point.second
        dt = ProductVector(
            ModelVector(p, [sc * (sh * a + ch * b) for a, b in zip(g, n)]),
            ModelVector(q, np.array([0.0, math.sqrt(1.0 - c)])),
        )
        # both the horocycle and its normal differentiate to (r, 1, r)
        dr = ProductVector(
            ModelVector(p, [(ch + sh) * x for x in (r, 1.0, r)]),
            zero_vector(q),
        )
        ds = ProductVector(zero_vector(p), ModelVector(q, np.array([1.0, 0.0])))
        return dt, dr, ds

    def hessian(u: np.ndarray):
        # the second factor (s, t sqrt(1 - c)) is linear, and nothing depends on s
        t, r, s = u.tolist()
        _, g, n, ch, sh = _ruled(t, r, s, c)
        e = ch + sh
        zero, flat = np.zeros(3), np.zeros(2)
        return (
            (np.array([c * (ch * a + sh * b) for a, b in zip(g, n)]), flat),
            (np.array([sc * e * x for x in (r, 1.0, r)]), flat),
            (zero, flat),
            (np.array([e, 0.0, e]), flat),
            (zero, flat),
            (zero, flat),
        )

    return Immersion(
        kappa1=-1,
        kappa2=0,
        chart=lambda u: _ruled_point(*u.tolist(), c),
        jacobian=jacobian,
        hessian=hessian,
        name=spec.label(),
    )


#: relative size of the strip-constant perturbation in the negative control
PERTURBED_AMPLITUDE = 0.1


def build_perturbed_psi(c: float = 0.25) -> Immersion:
    """Negative control: the ruled example with c replaced by c(1 + a sin r).

    Still lands on the product manifold but is not isoparametric; its angle
    function visibly varies over any grid.
    """

    def chart(u: np.ndarray) -> ProductPoint:
        t, r, s = u.tolist()
        cr = c * (1.0 + PERTURBED_AMPLITUDE * math.sin(r))
        if not 0.0 <= cr <= 1.0:
            raise GeometryError(
                f"perturbed strip constant c(1 + {PERTURBED_AMPLITUDE!r} sin r) = {cr!r} at r = {r!r} "
                f"leaves [0, 1] for c = {c!r}"
            )
        return _ruled_point(t, r, s, cr)

    return Immersion(kappa1=-1, kappa2=0, chart=chart, name=f"psi-perturbed(c={c:g})")


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
    one evaluation of the det Q closed form of its frame shape
    (``flow_mean_curvature``).  A sample at or beyond a focal point gives
    None and the walk continues.  The report holds measurements only: the checks
    and their tolerances belong to the caller.
    """
    l_samples = tuple(float(l) for l in l_samples)

    records: list[ShapeRecord] = []
    h_values: list[tuple[Optional[float], ...]] = []
    h_of_l: dict[float, list[float]] = {l: [] for l in l_samples}
    for u in grid:
        fs, cp, rec = frame_shape_at(imm, u)
        records.append(rec)
        hs = tuple(flow_mean_curvature(fs, cp, l) for l in l_samples)
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
