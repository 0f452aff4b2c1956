"""Product of two model spaces: metric, product structure, curvature, geodesics.

Tangent vectors of the product are pairs of factor tangent vectors; the
product structure P flips the sign of the second component.  Everything is
evaluated componentwise through the closed forms of :mod:`.spaceform`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .spaceform import (
    KAPPAS,
    ModelPoint,
    ModelVector,
    _pairing,
    _require_same_base,
    complex_structure,
    exp_map,
    metric,
    random_point,
    random_tangent,
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


@dataclass(frozen=True, init=False)
class ProductVector:
    first: ModelVector
    second: ModelVector

    def __init__(self, first: ModelVector, second: ModelVector):
        # the instance dict of a frozen dataclass, written directly
        self.__dict__.update(first=first, second=second)

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


#: product_metric bit for bit on (first, second) factor coordinates as
#: Python floats, one function for each (kappa1, kappa2), built once
_PRODUCT_PAIRINGS = {
    (k1, k2): lambda x, y, pair1=_pairing(k1), pair2=_pairing(k2): pair1(x[0], y[0]) + pair2(x[1], y[1])
    for k1 in KAPPAS
    for k2 in KAPPAS
}


def _product_pairing(kappa1: int, kappa2: int) -> Callable[[tuple, tuple], float]:
    """The function that gives product_metric bit for bit on (first, second)
    factor coordinates as Python floats."""
    return _PRODUCT_PAIRINGS[kappa1, kappa2]


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
        if u.first.base is not v.first.base:
            _require_same_base(u.first, v.first)
        if u.second.base is not v.second.base:
            _require_same_base(u.second, v.second)
    pairing = _product_pairing(x.first.kappa, x.second.kappa)
    xs = (x.first.xs, x.second.xs)
    ys = (y.first.xs, y.second.xs)
    pw_plus_w, pw_minus_w = _sum_and_difference(w)
    pz_plus_z, pz_minus_z = _sum_and_difference(z)
    term1 = (
        pairing(xs, pw_plus_w) * pairing(ys, pz_plus_z)
        - pairing(xs, pz_plus_z) * pairing(ys, pw_plus_w)
    )
    term2 = (
        pairing(xs, pw_minus_w) * pairing(ys, pz_minus_z)
        - pairing(xs, pz_minus_z) * pairing(ys, pw_minus_w)
    )
    return x.first.kappa / 4.0 * term1 + x.second.kappa / 4.0 * term2


def _sum_and_difference(w: ProductVector) -> tuple[tuple, tuple]:
    """Factor coordinates, as Python floats, of PW + W = (W1+W1, (-W2)+W2)
    and PW - W = (W1-W1, (-W2)-W2), the exact sums the vector arithmetic
    forms: x + (-x) and x - x are +0.0, and (-x) - x is -(x+x).
    """
    w1, w2 = w.first.xs, w.second.xs
    return ([a + a for a in w1], [0.0] * len(w2)), ([0.0] * len(w1), [-(b + b) for b in w2])


def product_exp(p: ProductPoint, x: ProductVector, l: float) -> ProductPoint:
    """Componentwise exponential map; either component may be stationary."""
    return ProductPoint(
        exp_map(p.first, x.first, l),
        exp_map(p.second, x.second, l),
    )


def random_product_point(kappa1: int, kappa2: int, rng: np.random.Generator) -> ProductPoint:
    return ProductPoint(random_point(kappa1, rng), random_point(kappa2, rng))


def random_product_tangent(p: ProductPoint, rng: np.random.Generator) -> ProductVector:
    return ProductVector(random_tangent(p.first, rng), random_tangent(p.second, rng))

