"""Parallel-hypersurface flow: adapted frame, Jacobi blocks, det Q machinery.

Flowing a hypersurface distance l along its normal geodesics turns the shape
operator into A_l = -Q'(l) Q(l)^{-1}, where Q collects the Jacobi-field
components in a frame adapted to the product splitting.  The determinant of Q
has a short closed expansion whose l-derivatives at 0 are polynomial in the
curvature invariants; this module provides the closed forms, an exact integer
Leibniz oracle for those derivatives, and a truncated-power-series engine that
the tests use as its reference.

The two stability functions solve f'' + delta f = 0 with (f(0), f'(0)) equal
to (0, 1) and (1, 0) respectively, so S' = C and C' = -delta S.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Sequence

import numpy as np

from .ambient import (
    ProductPoint,
    ProductVector,
    complex_structures,
    product_exp,
    product_metric,
    product_transport,
    product_velocity,
)
from .hypersurface import Immersion, ShapeInvariants, ShapeRecord, gram_schmidt, shape_operator, unit_normal, angle_of_normal
from .spaceform import GeometryError, KAPPAS, complex_structure, tangent_frame, zero_vector

#: the adapted frame refuses points closer than this to C^2 = 1
FRAME_EPS = 1e-6

#: below this |det Q| the flow has hit a focal point
FOCAL_TOL = 1e-10

SERIES_ORDER = 12


class FrameDegenerateError(GeometryError):
    """The adapted frame is undefined where C^2 is too close to 1."""


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

    def __getitem__(self, k: int):
        return self.coeffs[k] if k <= self.order else 0

    def __add__(self, other: "TaylorSeries") -> "TaylorSeries":
        n = min(self.order, other.order)
        return TaylorSeries([self.coeffs[k] + other.coeffs[k] for k in range(n + 1)])

    def __sub__(self, other: "TaylorSeries") -> "TaylorSeries":
        n = min(self.order, other.order)
        return TaylorSeries([self.coeffs[k] - other.coeffs[k] for k in range(n + 1)])

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

    def scale(self, a) -> "TaylorSeries":
        return TaylorSeries([a * c for c in self.coeffs])

    def differentiate(self) -> "TaylorSeries":
        if self.order == 0:
            return TaylorSeries([0 * self.coeffs[0]])
        return TaylorSeries([k * c for k, c in enumerate(self.coeffs)][1:])

    def derivative_at_zero(self, k: int):
        """k-th derivative at 0, i.e. k! times the k-th coefficient."""
        if k > self.order:
            raise ValueError(f"series of order {self.order} cannot give derivative {k}")
        return math.factorial(k) * self.coeffs[k]

    def __call__(self, x):
        return horner(self.coeffs, x)

    def __repr__(self) -> str:
        return f"TaylorSeries({self.coeffs!r})"


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
    Exact when ``delta`` is a Fraction.
    """
    s = [0] * (order + 1)
    c = [0] * (order + 1)
    # (-delta)^m, staying in the coefficient field of delta
    power = 1 if isinstance(delta, (int, Fraction)) else 1.0
    for m in range(order // 2 + 1):
        if 2 * m <= order:
            c[2 * m] = _divide_exact(power, math.factorial(2 * m))
        if 2 * m + 1 <= order:
            s[2 * m + 1] = _divide_exact(power, math.factorial(2 * m + 1))
        power = power * (-delta)
    return TaylorSeries(s), TaylorSeries(c)


def _divide_exact(num, den: int):
    if isinstance(num, (int, Fraction)):
        return Fraction(num, den)
    return num / den


# ---------------------------------------------------------------------------
# case parameters and shape data in the adapted frame
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CaseParams:
    """Curvature pair and angle value driving the Jacobi blocks."""

    kappa1: int
    kappa2: int
    C: object  # float or Fraction

    def __post_init__(self):
        if self.kappa1 not in KAPPAS or self.kappa2 not in KAPPAS:
            raise GeometryError(f"curvature tags must be in {KAPPAS}")
        if not math.isfinite(self.C) or abs(self.C) > 1 + 1e-12:
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

    @property
    def case(self) -> CaseParams:
        return CaseParams(self.kappa1, self.kappa2, self.C)


# ---------------------------------------------------------------------------
# stability functions and the Q matrix
# ---------------------------------------------------------------------------


def stability_functions(delta: float, l: float) -> tuple[float, float]:
    """Evaluate (S_delta, C_delta) at l, branching on the sign of delta."""
    delta = float(delta)
    if delta == 0.0:
        return l, 1.0
    if delta < 0.0:
        r = math.sqrt(-delta)
        try:
            return math.sinh(l * r) / r, math.cosh(l * r)
        except OverflowError:
            raise GeometryError(
                f"flow distance l = {l!r} overflows the stability functions at delta = {delta!r}"
            ) from None
    r = math.sqrt(delta)
    return math.sin(l * r) / r, math.cos(l * r)


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


def detq_closed_form(fs: FrameShape, cp: CaseParams, l: float) -> float:
    """Closed expansion of det Q(l) in the curvature invariants."""
    s1, c1 = stability_functions(cp.delta1, l)
    s2, c2 = stability_functions(cp.delta2, l)
    a = fs.A
    return (
        (1.0 - l * a[0][0]) * c1 * c2
        + (-a[1][1] + l * fs.H12) * s1 * c2
        + (-a[2][2] + l * fs.H13) * c1 * s2
        + (fs.H23 - l * fs.K) * s1 * s2
    )


def detq_closed_form_dl(fs: FrameShape, cp: CaseParams, l: float) -> float:
    """l-derivative of the closed det Q expansion."""
    d1 = float(cp.delta1)
    d2 = float(cp.delta2)
    s1, c1 = stability_functions(d1, l)
    s2, c2 = stability_functions(d2, l)
    a = fs.A
    t1 = -a[0][0] * c1 * c2 + (1.0 - l * a[0][0]) * (-d1 * s1 * c2 - d2 * c1 * s2)
    t2 = fs.H12 * s1 * c2 + (-a[1][1] + l * fs.H12) * (c1 * c2 - d2 * s1 * s2)
    t3 = fs.H13 * c1 * s2 + (-a[2][2] + l * fs.H13) * (-d1 * s1 * s2 + c1 * c2)
    t4 = -fs.K * s1 * s2 + (fs.H23 - l * fs.K) * (c1 * s2 + s1 * c2)
    return t1 + t2 + t3 + t4


def parallel_shape(q: np.ndarray, q_prime: np.ndarray) -> np.ndarray:
    """Shape operator of the parallel hypersurface, A_l = -Q' Q^{-1}."""
    det = float(np.linalg.det(q))
    if abs(det) < FOCAL_TOL:
        raise FocalPointError(f"det Q = {det:.3e}: focal point reached")
    return -q_prime @ np.linalg.inv(q)


def parallel_mean_curvature(fs: FrameShape, cp: CaseParams, l: float) -> float:
    """Mean curvature H(l) = -(det Q)'/det Q of the parallel hypersurface."""
    det = detq_closed_form(fs, cp, l)
    if abs(det) < FOCAL_TOL:
        raise FocalPointError(f"det Q = {det:.3e}: focal point reached")
    h = -detq_closed_form_dl(fs, cp, l) / det
    # an overflowed det Q makes H nan, or finite and meaningless
    if not (math.isfinite(det) and math.isfinite(h)):
        raise GeometryError(f"det Q or H is not finite at flow distance l = {l!r}, too large for floats")
    return h


def detq_taylor(fs: FrameShape, cp: CaseParams, order: int = SERIES_ORDER) -> TaylorSeries:
    """Series of det Q at l = 0 from the stability-function expansions.

    With Fraction entries in the shape matrix and a Fraction angle value the
    coefficients are exact, making k! c_k an independent oracle for the
    closed-form derivative expressions.
    """
    s1, c1 = stability_series(cp.delta1, order)
    s2, c2 = stability_series(cp.delta2, order)
    a = fs.A

    def lin(a0, a1) -> TaylorSeries:
        return TaylorSeries([a0, a1], order)

    return (
        lin(1, -a[0][0]) * c1 * c2
        + lin(-a[1][1], fs.H12) * s1 * c2
        + lin(-a[2][2], fs.H13) * c1 * s2
        + lin(fs.H23, -fs.K) * s1 * s2
    )


def detq_derivatives(fs: FrameShape, cp: CaseParams, orders: Iterable[int]) -> dict[int, Fraction]:
    """Exact k-th derivatives of det Q at l = 0, for the requested orders only.

    Each product (p + q l) X Y of the closed expansion is differentiated with
    the Leibniz rule, using that the derivatives at 0 of the stability pair
    are powers of -delta: S^(2m+1) = C^(2m) = (-delta)^m, all others 0.  The
    six entries of the shape matrix, read from its upper triangle as in
    ``q_matrix``, are put on one integer denominator e and both deltas on one
    denominator d, so every term is a Python int and order k has the
    denominator e^3 d^(k // 2).  Float inputs are taken at their exact value
    ``Fraction(x)``.  Agrees exactly with ``detq_taylor`` and uses none of the
    closed derivative forms.
    """
    orders = list(orders)
    if any(k < 0 for k in orders):
        raise ValueError(f"derivative orders must be non-negative, got {orders}")
    a = fs.A
    upper = [Fraction(a[i][j]) for i, j in ((0, 0), (1, 1), (2, 2), (0, 1), (0, 2), (1, 2))]
    e = math.lcm(*(x.denominator for x in upper))
    a11, a22, a33, a12, a13, a23 = (x.numerator * (e // x.denominator) for x in upper)
    h12 = a11 * a22 - a12 * a12
    h13 = a11 * a33 - a13 * a13
    h23 = a22 * a33 - a23 * a23
    det = a11 * h23 - a12 * (a12 * a33 - a23 * a13) + a13 * (a12 * a23 - a22 * a13)
    # (s_x, s_y, e^3 p, e^3 q) for each product (p + q l) X Y of the expansion,
    # with X = S_delta1 if s_x else C_delta1 and Y = S_delta2 if s_y else C_delta2
    e2 = e * e
    terms = (
        (0, 0, e2 * e, -a11 * e2),
        (1, 0, -a22 * e2, h12 * e),
        (0, 1, -a33 * e2, h13 * e),
        (1, 1, h23 * e, -det),
    )

    # delta1 = kappa1 (1 + C) / 2 and delta2 = kappa2 (1 - C) / 2 over d = 2 den(C)
    c = Fraction(cp.C)
    d = 2 * c.denominator
    u = -cp.kappa1 * (c.denominator + c.numerator)  # d * (-delta1)
    v = -cp.kappa2 * (c.denominator - c.numerator)  # d * (-delta2)
    top = max(orders, default=0) // 2
    u_pow = [u**i for i in range(top + 1)]
    v_pow = [v**i for i in range(top + 1)]
    d_pow = [d**i for i in range(top + 1)]

    def product(n: int, s_x: int, s_y: int, k: int) -> int:
        """n-th derivative at 0 of X Y, times d^(k // 2)."""
        m, odd = divmod(n - s_x - s_y, 2)
        if m < 0 or odd:
            return 0
        total = sum(math.comb(n, 2 * i + s_x) * u_pow[i] * v_pow[m - i] for i in range(m + 1))
        return total * d_pow[k // 2 - m]

    # d^k/dl^k [(p + q l) X Y] = p (X Y)^(k) + k q (X Y)^(k-1)
    out = {}
    for k in orders:
        num = sum(
            p * product(k, s_x, s_y, k) + k * q * product(k - 1, s_x, s_y, k)
            for s_x, s_y, p, q in terms
        )
        out[k] = Fraction(num, e2 * e * d_pow[k // 2])
    return out


# ---------------------------------------------------------------------------
# closed-form derivatives of det Q at l = 0
# ---------------------------------------------------------------------------

FORMULA_ORDERS = (1, 2, 4, 6, 10)


def detq_derivative_formula(k: int, cp: CaseParams, H=None, rho=None, H12=None, H13=None):
    """Closed form of the k-th derivative of det Q at l = 0.

    Available for k in {1, 2, 4, 6} at any curvature pair and k = 10 only for
    (kappa1, kappa2) = (1, -1).  Orders without a closed counterpart are
    rejected rather than reconstructed from the series.  The expressions are
    polynomial, so Fraction inputs are evaluated exactly.
    """
    k1, k2, c = cp.kappa1, cp.kappa2, cp.C
    if k == 1:
        if H is None:
            raise GeometryError("k = 1 needs the mean curvature H")
        return -H
    if k not in FORMULA_ORDERS:
        raise UnsupportedCaseError(f"no closed form for derivative order {k}")
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
    if (k1, k2) != (1, -1):
        raise UnsupportedCaseError(
            f"the order-10 closed form only exists for the (+1, -1) pair, got ({k1}, {k2})"
        )
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
# adapted frame and the flow of immersions
# ---------------------------------------------------------------------------


def adapted_frame(
    n: ProductVector, c: float, v: ProductVector
) -> tuple[ProductVector, ProductVector, ProductVector]:
    """Orthonormal tangent frame (V/|V|, (J1+J2)N/sqrt(2(1+C)), (J1-J2)N/sqrt(2(1-C))).

    Defined only away from C^2 = 1; the second and third legs split the
    normal's rotations between the factors.
    """
    if 1.0 - c * c < FRAME_EPS:
        raise FrameDegenerateError(f"adapted frame undefined at C = {c!r}")
    j1n, j2n = complex_structures(n)
    e1 = v.scale(1.0 / math.sqrt(1.0 - c * c))
    e2 = (j1n + j2n).scale(1.0 / math.sqrt(2.0 * (1.0 + c)))
    e3 = (j1n - j2n).scale(1.0 / math.sqrt(2.0 * (1.0 - c)))
    return e1, e2, e3


def flow_frame(n: ProductVector) -> tuple[ProductVector, ProductVector, ProductVector]:
    """Frame at the unit normal n that diagonalizes the Jacobi blocks, also at C^2 = 1.

    The angle value C and the tangent part V come from n through
    ``angle_of_normal``.  Away from the degenerate values this is the adapted
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
        return adapted_frame(n, c, v)
    p = n.base
    if c > 0.0:
        jn1 = complex_structure(n.first)
        b1, b2 = tangent_frame(p.second)
        e1 = ProductVector(zero_vector(p.first), b1)
        e3 = ProductVector(zero_vector(p.first), b2)
        if c != 1.0:  # at C = 1 exactly the legs are unit and tangent already
            jn1 = jn1.scale(1.0 / math.sqrt((1.0 + c) / 2.0))
            e1, e3 = gram_schmidt([e - n.scale(product_metric(e, n)) for e in (e1, e3)])
        e2 = ProductVector(jn1, zero_vector(p.second))
    else:
        jn2 = complex_structure(n.second)
        a1, a2 = tangent_frame(p.first)
        e1 = ProductVector(a1, zero_vector(p.second))
        e2 = ProductVector(a2, zero_vector(p.second))
        if c != -1.0:
            jn2 = jn2.scale(1.0 / math.sqrt((1.0 - c) / 2.0))
            e1, e2 = gram_schmidt([e - n.scale(product_metric(e, n)) for e in (e1, e2)])
        e3 = ProductVector(zero_vector(p.first), jn2)
    return e1, e2, e3


def frame_shape_at(imm: Immersion, u: np.ndarray) -> tuple[FrameShape, CaseParams, ShapeRecord]:
    """Shape data at a parameter value, expressed in the flow frame of its normal."""
    rec = shape_operator(imm, u, basis=flow_frame)
    return FrameShape.from_record(rec), CaseParams(imm.kappa1, imm.kappa2, rec.C), rec


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
        domain=imm.domain,
        jacobian=None,
        name=label,
    )


def transported_frame(
    imm: Immersion, u: np.ndarray, l: float
) -> tuple[tuple[ProductVector, ProductVector, ProductVector], ProductVector]:
    """Flow frame carried to the parallel hypersurface, with the flowed normal."""
    n = unit_normal(imm, u)
    p = n.base
    return tuple(product_transport(p, n, l, e) for e in flow_frame(n)), product_velocity(p, n, l)
