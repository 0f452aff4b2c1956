"""Parallel-hypersurface flow: flow frame, Jacobi blocks, det Q machinery.

Flowing a hypersurface distance l along its normal geodesics turns the shape
operator into A_l = -Q'(l) Q(l)^{-1}, where Q collects the Jacobi-field
components in a frame adapted to the product splitting.  The determinant of Q
has a short closed expansion whose l-derivatives at 0 are polynomial in the
curvature invariants; this module provides the closed forms, an exact integer
recurrence oracle for those derivatives, and a truncated-power-series engine
that the tests use as its reference.  The stability pair (S_delta, C_delta)
of the Jacobi blocks is ``spaceform.stability_functions``.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import cached_property, reduce
from fractions import Fraction
from typing import Iterable, Optional, Sequence

import numpy as np

from .ambient import (
    ProductPoint,
    ProductVector,
    complex_structures,
    product_exp,
    product_metric,
)
from .hypersurface import Immersion, ShapeInvariants, ShapeRecord, angle_of_normal, gram_schmidt, shape_operator, unit_normal
from .hypersurface import at_most, is_finite
from .spaceform import GeometryError, KAPPAS, complex_structure, geodesic_transport, stability_functions, tangent_frame, zero_vector

#: flow_frame uses the adapted frame where 1 - C^2 >= FRAME_EPS, the legs for C^2 = 1 closer in
FRAME_EPS = 1e-6

#: below this |det Q| the flow has hit a focal point
FOCAL_TOL = 1e-10

SERIES_ORDER = 12


class FocalPointError(GeometryError):
    """det Q vanished: the parallel map degenerates and A_l blows up."""


class UnsupportedCaseError(GeometryError):
    """No closed form is provided for the requested derivative order or case."""


# ---------------------------------------------------------------------------
# truncated power series (exact on rational coefficients)
# ---------------------------------------------------------------------------


class TaylorSeries:
    """Truncated power series in the flow parameter.

    Coefficients may be any numeric type; arithmetic never leaves the
    coefficients' field, so Fraction inputs give exact results up to the
    truncation order.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Sequence, order: Optional[int] = None):
        coeffs = list(coeffs)
        if order is not None:
            if len(coeffs) > order + 1:
                coeffs = coeffs[: order + 1]
            else:
                coeffs = coeffs + [0] * (order + 1 - len(coeffs))
        if not coeffs:
            raise ValueError("a series needs at least the constant coefficient")
        self.coeffs = coeffs

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def __add__(self, other: "TaylorSeries") -> "TaylorSeries":
        n = min(self.order, other.order)
        return TaylorSeries([self.coeffs[k] + other.coeffs[k] for k in range(n + 1)])

    def __mul__(self, other: "TaylorSeries") -> "TaylorSeries":
        n = min(self.order, other.order)
        out = [0] * (n + 1)
        for i, a in enumerate(self.coeffs[: n + 1]):
            if a == 0:
                continue
            for j in range(n + 1 - i):
                b = other.coeffs[j]
                if b != 0:
                    out[i + j] += a * b
        return TaylorSeries(out)

    def derivative_at_zero(self, k: int):
        """k-th derivative at 0, i.e. k! times the k-th coefficient."""
        if k > self.order:
            raise ValueError(f"series of order {self.order} cannot give derivative {k}")
        return math.factorial(k) * self.coeffs[k]

    def __call__(self, x):
        return horner(self.coeffs, x)


def horner(coeffs: Sequence, x):
    """Value at x of the polynomial with ascending coefficients ``coeffs``.

    The accumulator starts from the int 0, so Fraction inputs stay exact and
    float inputs give the same value as a float accumulator would.
    """
    acc = 0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def stability_series(delta, order: int = SERIES_ORDER) -> tuple[TaylorSeries, TaylorSeries]:
    """Series of the stability pair (S_delta, C_delta) around 0.

    S: l - delta l^3/3! + delta^2 l^5/5! - ...,
    C: 1 - delta l^2/2! + delta^2 l^4/4! - ...
    Each coefficient is a power of -delta over a factorial in the ring of
    ``delta``: exact for an int or a Fraction, rounded for a Decimal or a float.
    """
    s = [0] * (order + 1)
    c = [0] * (order + 1)
    # (-delta)^m from 1 in delta's ring (Decimal(0) ** 0 raises); an int delta starts a Fraction
    power = Fraction(1) if isinstance(delta, int) else delta * 0 + 1
    for m in range(order // 2 + 1):
        if 2 * m <= order:
            c[2 * m] = power / math.factorial(2 * m)
        if 2 * m + 1 <= order:
            s[2 * m + 1] = power / math.factorial(2 * m + 1)
        power = power * (-delta)
    return TaylorSeries(s), TaylorSeries(c)


# ---------------------------------------------------------------------------
# case parameters and shape data in the adapted frame
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CaseParams:
    """Curvature pair and angle value driving the Jacobi blocks."""

    kappa1: int
    kappa2: int
    C: object  # float, Fraction or Decimal

    def __post_init__(self):
        if self.kappa1 not in KAPPAS or self.kappa2 not in KAPPAS:
            raise GeometryError(f"curvature tags must be in {KAPPAS}")
        if not (is_finite(self.C) and at_most(abs(self.C), 1 + 1e-12)):
            raise GeometryError(f"angle value must lie in [-1, 1], got {self.C!r}")

    @property
    def delta1(self):
        return self.kappa1 * (1 + self.C) / 2

    @property
    def delta2(self):
        return self.kappa2 * (1 - self.C) / 2


@dataclass(frozen=True)
class FrameShape(ShapeInvariants):
    """Symmetric shape matrix in the adapted frame, with derived invariants."""

    A: tuple
    kappa1: int
    kappa2: int
    C: object

    def __post_init__(self):
        self._set_shape(tuple(tuple(row) for row in self.A))

    @classmethod
    def from_record(cls, rec: ShapeRecord) -> "FrameShape":
        # plain floats: an overflow in the closed forms gives inf or nan, not a numpy warning
        return cls(A=rec.A.tolist(), kappa1=rec.kappa1, kappa2=rec.kappa2, C=rec.C)

    @cached_property
    def case(self) -> CaseParams:
        return CaseParams(self.kappa1, self.kappa2, self.C)


# ---------------------------------------------------------------------------
# the Q matrix
# ---------------------------------------------------------------------------


def q_matrix(fs: FrameShape, cp: CaseParams, l: float) -> np.ndarray:
    """Jacobi component matrix Q(l); Q(0) is the identity."""
    a = np.array(fs.A, dtype=float)
    s1, c1 = stability_functions(cp.delta1, l)
    s2, c2 = stability_functions(cp.delta2, l)
    return np.array(
        [
            [1.0 - l * a[0, 0], -l * a[0, 1], -l * a[0, 2]],
            [-a[0, 1] * s1, c1 - a[1, 1] * s1, -a[1, 2] * s1],
            [-a[0, 2] * s2, -a[1, 2] * s2, c2 - a[2, 2] * s2],
        ]
    )


def q_matrix_prime(fs: FrameShape, cp: CaseParams, l: float) -> np.ndarray:
    """Analytic l-derivative of Q, using S' = C and C' = -delta S."""
    a = np.array(fs.A, dtype=float)
    d1 = float(cp.delta1)
    d2 = float(cp.delta2)
    s1, c1 = stability_functions(d1, l)
    s2, c2 = stability_functions(d2, l)
    return np.array(
        [
            [-a[0, 0], -a[0, 1], -a[0, 2]],
            [-a[0, 1] * c1, -d1 * s1 - a[1, 1] * c1, -a[1, 2] * c1],
            [-a[0, 2] * c2, -a[1, 2] * c2, -d2 * s2 - a[2, 2] * c2],
        ]
    )


def _detq_terms(fs: FrameShape, s1, c1, s2, c2) -> tuple:
    """The four (g, h, X, Y) of the closed expansion det Q(l) = sum (g + l h) X Y.

    X Y runs over C1 C2, S1 C2, C1 S2 and S1 S2; the stability pairs may be values or series.
    """
    a = fs.A
    return (
        (1, -a[0][0], c1, c2),
        (-a[1][1], fs.H12, s1, c2),
        (-a[2][2], fs.H13, c1, s2),
        (fs.H23, -fs.K, s1, s2),
    )


def detq_and_slope(fs: FrameShape, cp: CaseParams, l: float) -> tuple[float, float]:
    """det Q(l) and its l-derivative from one evaluation of the closed expansion."""
    d1 = float(cp.delta1)
    d2 = float(cp.delta2)
    s1, c1 = stability_functions(d1, l)
    s2, c2 = stability_functions(d2, l)
    # (X Y)' of the four products, from S' = C and C' = -delta S
    slopes = (-d1 * s1 * c2 - d2 * c1 * s2, c1 * c2 - d2 * s1 * s2, -d1 * s1 * s2 + c1 * c2, c1 * s2 + s1 * c2)
    # -0.0 + t == t for every float t (0.0 + -0.0 is 0.0), so these folds are ((t1 + t2) + t3) + t4
    value = slope = -0.0
    for (g, h, x, y), xy_slope in zip(_detq_terms(fs, s1, c1, s2, c2), slopes):
        f = g + l * h
        value += f * x * y
        slope += h * x * y + f * xy_slope
    return value, slope


def detq_closed_form(fs: FrameShape, cp: CaseParams, l: float) -> float:
    """Closed expansion of det Q(l) in the curvature invariants."""
    return detq_and_slope(fs, cp, l)[0]


def parallel_shape(q: np.ndarray, q_prime: np.ndarray) -> np.ndarray:
    """Shape operator of the parallel hypersurface, A_l = -Q' Q^{-1}."""
    det = float(np.linalg.det(q))
    if abs(det) < FOCAL_TOL:
        raise FocalPointError(f"det Q = {det:.3e}: focal point reached")
    return -q_prime @ np.linalg.inv(q)


def _mean_curvature(det: float, slope: float, l: float) -> float:
    h = -slope / det
    # an overflowed det Q makes H nan, or finite and meaningless
    if not (math.isfinite(det) and math.isfinite(h)):
        raise GeometryError(f"det Q or H is not finite at flow distance l = {l!r}, too large for floats")
    return h


def parallel_mean_curvature(det: float, slope: float, l: float) -> float:
    """Mean curvature H(l) = -(det Q)'/det Q of the parallel map from ``detq_and_slope`` at l;
    a focal point, |det Q| < FOCAL_TOL, raises."""
    if abs(det) < FOCAL_TOL:
        raise FocalPointError(f"det Q = {det:.3e}: focal point reached")
    return _mean_curvature(det, slope, l)


def flow_mean_curvature(fs: FrameShape, cp: CaseParams, l: float) -> Optional[float]:
    """H(l) along the flow from l = 0, or None at or beyond a focal point."""
    det, slope = detq_and_slope(fs, cp, l)
    # det Q(0) = 1, so a det Q below FOCAL_TOL, of either sign, means the
    # flow has reached or crossed a focal point
    if det < FOCAL_TOL:
        return None
    return _mean_curvature(det, slope, l)


def detq_taylor(fs: FrameShape, cp: CaseParams, order: int = SERIES_ORDER) -> TaylorSeries:
    """Series of det Q at l = 0 from the stability-function expansions.

    With Fraction entries in the shape matrix and a Fraction angle value the
    coefficients are exact, making k! c_k an independent oracle for the
    closed-form derivative expressions.
    """
    s1, c1 = stability_series(cp.delta1, order)
    s2, c2 = stability_series(cp.delta2, order)
    return reduce(operator.add, [TaylorSeries([g, h], order) * x * y for g, h, x, y in _detq_terms(fs, s1, c1, s2, c2)])


def detq_derivatives(fs: FrameShape, cp: CaseParams, orders: Iterable[int]) -> dict[int, Fraction]:
    """Exact k-th derivatives of det Q at l = 0, for the requested orders only.

    The closed expansion is det Q = g + l h, with g and h combinations of the
    products X Y of the stability pairs (X = C or S at delta1, Y = C or S at
    delta2).  Each product solves f'''' + 2 (delta1 + delta2) f'' +
    (delta1 - delta2)^2 f = 0, whose characteristic roots add a root of
    r^2 = -delta1 to one of r^2 = -delta2, so the derivatives at 0 follow
    from the first four by a two-term recurrence, and (det Q)^(k) = g^(k) +
    k h^(k-1).  The upper triangle of the shape matrix, as in ``q_matrix``,
    and C are read exactly through ``as_integer_ratio()`` (int, float,
    Fraction and Decimal all have it); the six entries share one integer
    denominator e and both deltas one denominator d, so every term is a
    Python int and order k has the denominator e^3 d^(k // 2).  Agrees
    exactly with ``detq_taylor`` and uses none of the closed derivative forms.
    """
    orders = list(orders)
    if any(k < 0 for k in orders):
        raise ValueError(f"derivative orders must be non-negative, got {orders}")
    a = fs.A
    upper = [a[i][j].as_integer_ratio() for i, j in ((0, 0), (1, 1), (2, 2), (0, 1), (0, 2), (1, 2))]
    e = math.lcm(*(den for _, den in upper))
    a11, a22, a33, a12, a13, a23 = (num * (e // den) for num, den in upper)
    h12 = a11 * a22 - a12 * a12
    h13 = a11 * a33 - a13 * a13
    h23 = a22 * a33 - a23 * a23
    det = a11 * h23 - a12 * (a12 * a33 - a23 * a13) + a13 * (a12 * a23 - a22 * a13)

    # delta1 = kappa1 (1 + C) / 2 and delta2 = kappa2 (1 - C) / 2 over d = 2 den(C)
    cn, cd = cp.C.as_integer_ratio()
    d = 2 * cd
    u = -cp.kappa1 * (cd + cn)  # d * (-delta1)
    v = -cp.kappa2 * (cd - cn)  # d * (-delta2)

    def scaled_derivatives(c1c2: int, s1c2: int, c1s2: int, s1s2: int) -> list[int]:
        """d^(n // 2) times the n-th derivative at 0 of c1c2 C1 C2 + s1c2 S1 C2 + c1s2 C1 S2 + s1s2 S1 S2."""
        # at 0: C = 1, C' = 0, C'' = -delta, C''' = 0 and S = 0, S' = 1, S'' = 0, S''' = -delta
        f = [c1c2, s1c2 + c1s2, c1c2 * (u + v) + 2 * d * s1s2, s1c2 * (u + 3 * v) + c1s2 * (3 * u + v)]
        for n in range(4, max(orders, default=0) + 1):
            f.append(2 * (u + v) * f[n - 2] - (u - v) ** 2 * f[n - 4])
        return f

    # e^3 g and e^3 h: the terms of ``detq_closed_form`` without and with a factor l
    e2 = e * e
    g = scaled_derivatives(e2 * e, -a22 * e2, -a33 * e2, h23 * e)
    h = scaled_derivatives(-a11 * e2, h12 * e, h13 * e, -det)
    # k h^(k-1) is scaled by d^((k - 1) // 2), one power of d short of d^(k // 2) for even k
    return {
        k: Fraction(g[k] + (k * h[k - 1] * d ** (1 - k % 2) if k else 0), e2 * e * d ** (k // 2))
        for k in orders
    }


# ---------------------------------------------------------------------------
# closed-form derivatives of det Q at l = 0
# ---------------------------------------------------------------------------


def formula_orders(kappa1: int, kappa2: int) -> tuple[int, ...]:
    """The derivative orders with a closed form: 1, 2, 4 and 6, and 10 at (+1, -1) only."""
    return (1, 2, 4, 6) + ((10,) if (kappa1, kappa2) == (1, -1) else ())


def detq_derivative_formula(k: int, cp: CaseParams, H=None, rho=None, H12=None, H13=None):
    """Closed form of the k-th derivative of det Q at l = 0.

    Available for the orders of ``formula_orders`` at the case's curvature
    pair.  Other orders are rejected rather than reconstructed from the
    series.  The expressions are polynomial, so Fraction inputs are evaluated
    exactly.
    """
    k1, k2, c = cp.kappa1, cp.kappa2, cp.C
    if k not in formula_orders(k1, k2):
        raise UnsupportedCaseError(f"no closed form for derivative order {k} at the pair ({k1}, {k2})")
    if k == 1:
        if H is None:
            raise GeometryError("k = 1 needs the mean curvature H")
        return -H
    if any(v is None for v in (rho, H12, H13)):
        raise GeometryError(f"k = {k} needs rho, H12 and H13")
    if k == 2:
        return rho + ((k1 - k2) * c - 3 * (k1 + k2)) / 2
    if k == 4:
        return (
            -4 * (1 - c) * k2 * H12
            - 4 * (1 + c) * k1 * H13
            - ((3 * c * c - 2 * c - 5) * k1 * k1) / 4
            - ((3 * c * c + 2 * c - 5) * k2 * k2) / 4
            + ((7 + c * c) * k1 * k2) / 2
            - ((1 + c) * k1 + (1 - c) * k2) * rho
        )
    if k == 6:
        c2 = c * c
        return (
            (6 * (1 - c) ** 2 * k2 * k2 + 10 * (1 - c2) * k1 * k2) * H12
            + (6 * (1 + c) ** 2 * k1 * k1 + 10 * (1 - c2) * k1 * k2) * H13
            + ((3 * (1 + c) ** 2 * k1 * k1 + 10 * (1 - c2) * k1 * k2 + 3 * (1 - c) ** 2 * k2 * k2) * rho) / 4
            + (
                (1 + c) ** 2 * (5 * c - 7) * k1**3
                - (41 + 13 * c - 17 * c2 + 11 * c2 * c) * k1 * k1 * k2
                + (-41 + 13 * c + 17 * c2 + 11 * c2 * c) * k1 * k2 * k2
                - (1 - c) ** 2 * (7 + 5 * c) * k2**3
            ) / 8
        )
    # k == 10
    c2 = c * c
    c3 = c2 * c
    c4 = c2 * c2
    return (
        (128 * c4 - 80 * c3 - 96 * c2 + 40 * c + 8) * H12
        + (128 * c4 + 80 * c3 - 96 * c2 - 40 * c + 8) * H13
        + (16 * c4 - 12 * c2 + 1) * rho
        + 16 * c4 * c
        - 4 * c3
        - 3 * c
    )


# ---------------------------------------------------------------------------
# the flow frame and the flow of immersions
# ---------------------------------------------------------------------------


def flow_frame(n: ProductVector) -> tuple[ProductVector, ProductVector, ProductVector]:
    """Frame at the unit normal n that diagonalizes the Jacobi blocks, also at C^2 = 1.

    The angle value C and the tangent part V come from n through
    ``angle_of_normal``.  Where 1 - C^2 >= ``FRAME_EPS`` this is the adapted
    frame.  At C = 1 the normal lies in the first factor: the curvature block
    acts on (J N1, 0) while the whole second factor is flat, so any
    orthonormal pair there fills the two zero-frequency slots (and
    symmetrically at C = -1).  Near those values J N1 and J N2 have norms
    sqrt((1 + C)/2) and sqrt((1 - C)/2), and are scaled to unit length; the
    normal still has a small part in the factor of the pair, so the pair is
    projected onto the tangent space.
    """
    c, v = angle_of_normal(n)
    if 1.0 - c * c >= FRAME_EPS:
        # the adapted frame (V/|V|, (J1+J2)N/sqrt(2(1+C)), (J1-J2)N/sqrt(2(1-C))):
        # its second and third legs split the normal's rotations between the factors
        j1n, j2n = complex_structures(n)
        return (
            v.scale(1.0 / math.sqrt(1.0 - c * c)),
            (j1n + j2n).scale(1.0 / math.sqrt(2.0 * (1.0 + c))),
            (j1n - j2n).scale(1.0 / math.sqrt(2.0 * (1.0 - c))),
        )
    normal_first = c > 0.0

    # the (first, second) order of a (normal's factor, other factor) pair; a swap is its own inverse
    def ordered(normal_part, flat_part) -> tuple:
        return (normal_part, flat_part) if normal_first else (flat_part, normal_part)

    p_normal, p_flat = ordered(n.first.base, n.second.base)
    jn = complex_structure(ordered(n.first, n.second)[0])
    e1, e_flat = (ProductVector(*ordered(zero_vector(p_normal), b)) for b in tangent_frame(p_flat))
    if abs(c) != 1.0:  # at C = +-1 exactly the legs are unit and tangent already
        jn = jn.scale(1.0 / math.sqrt((1.0 + abs(c)) / 2.0))
        e1, e_flat = gram_schmidt([e - n.scale(product_metric(e, n)) for e in (e1, e_flat)])
    e_normal = ProductVector(*ordered(jn, zero_vector(p_flat)))
    # J N1 is the second leg of the adapted frame at C -> 1, J N2 the third at C -> -1
    return (e1, *ordered(e_normal, e_flat))


def frame_shape_at(imm: Immersion, u: np.ndarray) -> tuple[FrameShape, CaseParams, ShapeRecord]:
    """Shape data at a parameter value, expressed in the flow frame of its normal."""
    rec = shape_operator(imm, u, basis=flow_frame)
    fs = FrameShape.from_record(rec)
    return fs, fs.case, rec


def parallel_immersion(imm: Immersion, l: float) -> Immersion:
    """Immersion of the parallel hypersurface at normal distance l.

    Each point flows along the normal geodesic; the angle function of the
    flowed immersion agrees with the original because the product structure
    is parallel.
    """

    def chart(u: np.ndarray) -> ProductPoint:
        n = unit_normal(imm, u)
        return product_exp(n.base, n, l)

    label = f"{imm.name}|flow l={l:g}" if imm.name else f"flow l={l:g}"
    return Immersion(
        kappa1=imm.kappa1,
        kappa2=imm.kappa2,
        chart=chart,
        name=label,
    )


def transported_frame(
    imm: Immersion, u: np.ndarray, l: float
) -> tuple[tuple[ProductVector, ProductVector, ProductVector], ProductVector]:
    """Flow frame carried to the parallel hypersurface, with the flowed normal."""
    n = unit_normal(imm, u)
    frame = flow_frame(n)
    # one geodesic per factor carries all three legs
    firsts, v1 = geodesic_transport(n.first.base, n.first, l, [e.first for e in frame])
    seconds, v2 = geodesic_transport(n.second.base, n.second, l, [e.second for e in frame])
    return tuple(map(ProductVector, firsts, seconds)), ProductVector(v1, v2)
