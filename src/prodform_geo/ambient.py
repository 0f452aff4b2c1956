"""Product of two model spaces: metric, product structure, curvature, geodesics.

Tangent vectors of the product are pairs of factor tangent vectors; the
product structure P flips the sign of the second component.  Everything is
evaluated componentwise through the closed forms of :mod:`.spaceform`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .spaceform import (
    ModelPoint,
    ModelVector,
    _require_same_base,
    _tangent_check,
    _zero_pairing,
    complex_structure,
    exp_map,
    form,
    geodesic_velocity,
    metric,
    parallel_transport,
    random_point,
    random_tangent,
    tangent_frame,
    zero_vector,
)


@dataclass(frozen=True)
class ProductPoint:
    first: ModelPoint
    second: ModelPoint

    @property
    def kappa1(self) -> int:
        return self.first.kappa

    @property
    def kappa2(self) -> int:
        return self.second.kappa


@dataclass(frozen=True)
class ProductVector:
    first: ModelVector
    second: ModelVector

    @property
    def base(self) -> ProductPoint:
        return ProductPoint(self.first.base, self.second.base)

    def __add__(self, other: "ProductVector") -> "ProductVector":
        return ProductVector(self.first + other.first, self.second + other.second)

    def __sub__(self, other: "ProductVector") -> "ProductVector":
        return ProductVector(self.first - other.first, self.second - other.second)

    def __neg__(self) -> "ProductVector":
        return ProductVector(-self.first, -self.second)

    def scale(self, a: float) -> "ProductVector":
        return ProductVector(self.first.scale(a), self.second.scale(a))

    def norm(self) -> float:
        return math.sqrt(max(product_metric(self, self), 0.0))


def product_metric(x: ProductVector, y: ProductVector) -> float:
    """Sum of the factor inner products."""
    return metric(x.first, y.first) + metric(x.second, y.second)


def product_structure(x: ProductVector) -> ProductVector:
    """P(X1, X2) = (X1, -X2); an involutive, metric-preserving symmetry."""
    return ProductVector(x.first, -x.second)


def complex_structures(x: ProductVector) -> tuple[ProductVector, ProductVector]:
    """The pair (J1 X, J2 X) with J1 = (J, J) and J2 = (J, -J)."""
    jf = complex_structure(x.first)
    js = complex_structure(x.second)
    return ProductVector(jf, js), ProductVector(jf, -js)


def curvature_tensor(x: ProductVector, y: ProductVector, z: ProductVector, w: ProductVector) -> float:
    """Curvature tensor of the product metric, evaluated term by term.

    R(X,Y,Z,W) = kappa1/4 {<X,PW+W><Y,PZ+Z> - <X,PZ+Z><Y,PW+W>}
               + kappa2/4 {<X,PW-W><Y,PZ-Z> - <X,PZ-Z><Y,PW-W>}.

    The expression is kept literal so tests exercise this exact form rather
    than a rearrangement: eight product metrics, with PW +- W and PZ +- Z on
    factor coordinates (``_sum_and_difference``).  ``reference_curvature_tensor``
    in tests/test_ambient.py keeps the vector arithmetic that this equals bit
    for bit.
    """
    # the base pairs the eight product_metric calls would check
    for u, v in ((x, w), (y, z), (x, z), (y, w)):
        _require_same_base(u.first, v.first)
        _require_same_base(u.second, v.second)
    k1 = x.first.kappa
    k2 = x.second.kappa

    def pairing(u: ProductVector, halves) -> float:
        # product_metric(u, V) for V given by the halves of _sum_and_difference
        (a, b), (c, d) = (u.first.coords, u.second.coords), halves
        return (_zero_pairing(k1, a) if c is None else form(k1, a, c)) + (
            _zero_pairing(k2, b) if d is None else form(k2, b, d)
        )

    pw_plus_w, pw_minus_w = _sum_and_difference(w)
    pz_plus_z, pz_minus_z = _sum_and_difference(z)
    term1 = (
        pairing(x, pw_plus_w) * pairing(y, pz_plus_z)
        - pairing(x, pz_plus_z) * pairing(y, pw_plus_w)
    )
    term2 = (
        pairing(x, pw_minus_w) * pairing(y, pz_minus_z)
        - pairing(x, pz_minus_z) * pairing(y, pw_minus_w)
    )
    return k1 / 4.0 * term1 + k2 / 4.0 * term2


def _sum_and_difference(w: ProductVector) -> tuple[tuple, tuple]:
    """Factor coordinates of PW + W = (W1+W1, (-W2)+W2) and PW - W =
    (W1-W1, (-W2)-W2) as vector arithmetic gives them, None for a half
    that is +0.0 in every entry.

    W1-W1 is such a half.  If W2 is settled, -W2 is its negated coordinates,
    so (-W2)+W2 is one too, and (-W2)-W2 = -(W2+W2), whose check is the
    negated check of W2+W2.  An unsettled W2 takes the vector arithmetic.
    """
    w1, w2 = w.first, w.second
    doubled = _tangent_check(w1.base, w1.coords + w1.coords)[0]
    if w2._settled:
        return (doubled, None), (None, -_tangent_check(w2.base, w2.coords + w2.coords)[0])
    minus_w2 = -w2
    return (doubled, (minus_w2 + w2).coords), (None, (minus_w2 - w2).coords)


def product_exp(p: ProductPoint, x: ProductVector, l: float) -> ProductPoint:
    """Componentwise exponential map; either component may be stationary."""
    return ProductPoint(
        exp_map(p.first, x.first, l),
        exp_map(p.second, x.second, l),
    )


def product_velocity(p: ProductPoint, x: ProductVector, l: float) -> ProductVector:
    """Velocity of the product geodesic at parameter ``l``."""
    return ProductVector(
        geodesic_velocity(p.first, x.first, l),
        geodesic_velocity(p.second, x.second, l),
    )


def product_transport(p: ProductPoint, x: ProductVector, l: float, w: ProductVector) -> ProductVector:
    """Parallel transport of ``w`` along the product geodesic with velocity x."""
    return ProductVector(
        parallel_transport(p.first, x.first, l, w.first),
        parallel_transport(p.second, x.second, l, w.second),
    )


def ambient_frame(p: ProductPoint) -> tuple[ProductVector, ProductVector, ProductVector, ProductVector]:
    """Orthonormal frame (a,0), (Ja,0), (0,b), (0,Jb) of the ambient tangent space."""
    a1, a2 = tangent_frame(p.first)
    b1, b2 = tangent_frame(p.second)
    z1 = zero_vector(p.first)
    z2 = zero_vector(p.second)
    return (
        ProductVector(a1, z2),
        ProductVector(a2, z2),
        ProductVector(z1, b1),
        ProductVector(z1, b2),
    )


def random_product_point(kappa1: int, kappa2: int, rng: np.random.Generator) -> ProductPoint:
    return ProductPoint(random_point(kappa1, rng), random_point(kappa2, rng))


def random_product_tangent(p: ProductPoint, rng: np.random.Generator, scale: float = 1.0) -> ProductVector:
    return ProductVector(
        random_tangent(p.first, rng, scale),
        random_tangent(p.second, rng, scale),
    )

