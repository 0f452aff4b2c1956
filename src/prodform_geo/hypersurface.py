"""Parametrized hypersurfaces of a product of model spaces.

An :class:`Immersion` is a map from a box in R^3 into the product, optionally
with an analytic jacobian.  From it we derive tangent frames, the unit normal
(by a generalized cross product in an orthonormal ambient frame), the product
angle function C = <PN, N>, the shape operator by Richardson-extrapolated
central differences of the normal field, and curvature invariants.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .ambient import (
    ProductPoint,
    ProductVector,
    ambient_frame,
    product_metric,
    product_structure,
)
from .spaceform import (
    DegeneratePointError,
    GeometryError,
    ModelVector,
    form,
    tangent_project,
)

#: base step for central differences
FD_STEP = 1e-5

#: smallest admissible singular value of the tangent map
RANK_TOL = 1e-6

ORTHONORMAL_TOL = 1e-8

#: largest |A_ij - A_ji| accepted in a shape matrix
SYMMETRY_TOL = 1e-8


@dataclass(frozen=True)
class Immersion:
    """Map from a parameter box in R^3 into the product manifold."""

    kappa1: int
    kappa2: int
    chart: Callable[[np.ndarray], ProductPoint]
    domain: tuple[tuple[float, float], tuple[float, float], tuple[float, float]] = (
        (-1.0, 1.0),
        (-1.0, 1.0),
        (-1.0, 1.0),
    )
    jacobian: Optional[Callable[[np.ndarray], tuple[ProductVector, ProductVector, ProductVector]]] = None
    name: str = ""

    @property
    def anchor(self) -> np.ndarray:
        return np.array([0.5 * (lo + hi) for lo, hi in self.domain])

    def grid(self, n: int = 5) -> list[np.ndarray]:
        """Regular n x n x n sample of the parameter box."""
        axes = [np.linspace(lo, hi, n) for lo, hi in self.domain]
        return [
            np.array([a, b, c])
            for a in axes[0]
            for b in axes[1]
            for c in axes[2]
        ]


def _fd_step(u: np.ndarray) -> float:
    return max(FD_STEP, FD_STEP * float(np.linalg.norm(u)))


def tangent_basis(imm: Immersion, u: np.ndarray) -> tuple[ProductVector, ProductVector, ProductVector]:
    """Coordinate tangent vectors of the immersion at parameter u.

    Uses the analytic jacobian when available, otherwise second-order central
    differences of the chart with components projected onto the factor
    tangent spaces.
    """
    u = np.asarray(u, dtype=float)
    if imm.jacobian is not None:
        basis = imm.jacobian(u)
    else:
        p = imm.chart(u)
        h = _fd_step(u)
        vectors = []
        for k in range(3):
            du = np.zeros(3)
            du[k] = h
            plus = imm.chart(u + du)
            minus = imm.chart(u - du)
            d1 = (plus.first.coords - minus.first.coords) / (2.0 * h)
            d2 = (plus.second.coords - minus.second.coords) / (2.0 * h)
            vectors.append(
                ProductVector(
                    ModelVector(p.first, tangent_project(p.first, d1)),
                    ModelVector(p.second, tangent_project(p.second, d2)),
                )
            )
        basis = tuple(vectors)
    _check_rank(basis, u)
    return basis


def _check_rank(basis: Sequence[ProductVector], u: np.ndarray) -> None:
    gram = np.array([[product_metric(a, b) for b in basis] for a in basis])
    smallest = min(np.linalg.eigvalsh(gram))
    if smallest < RANK_TOL**2:
        raise DegeneratePointError(
            f"immersion is degenerate at u={u.tolist()} (sigma_min ~ {math.sqrt(max(smallest, 0.0)):.3e})"
        )


def _det3(a):
    """Cofactor expansion of a 3 x 3 determinant, read as ``a[i][j]``."""
    return (
        a[0][0] * (a[1][1] * a[2][2] - a[1][2] * a[2][1])
        - a[0][1] * (a[1][0] * a[2][2] - a[1][2] * a[2][0])
        + a[0][2] * (a[1][0] * a[2][1] - a[1][1] * a[2][0])
    )


def unit_normal(
    imm: Immersion,
    u: np.ndarray,
    hint: Optional[ProductVector] = None,
    basis: Optional[Sequence[ProductVector]] = None,
) -> ProductVector:
    """Unit vector orthogonal to the tangent space at parameter u.

    The normal direction is the kernel of the 3 x 4 matrix of tangent
    components in an orthonormal ambient frame, computed as a generalized
    cross product.  The sign makes (e1, e2, e3, N) positively oriented in the
    frame induced by the factor rotations J; that convention is deterministic
    and does not depend on the frame representative.  A ``hint`` vector
    overrides the sign to keep a family of normals coherent.
    """
    u = np.asarray(u, dtype=float)
    if basis is None:
        basis = tangent_basis(imm, u)
    p = basis[0].base
    frame = ambient_frame(p)
    m = np.array([[product_metric(t, f) for f in frame] for t in basis])

    sigma_min = min(np.linalg.svd(m, compute_uv=False))
    if sigma_min < RANK_TOL:
        raise DegeneratePointError(
            f"immersion is degenerate at u={u.tolist()} (sigma_min={sigma_min:.3e})"
        )

    # cofactor expansion: det(e1, e2, e3, n) = |n|^2 > 0 by construction
    cols = [0, 1, 2, 3]
    rows = m.tolist()
    n = np.empty(4)
    for j in cols:
        keep = [c for c in cols if c != j]
        n[j] = (-1.0) ** (j + 1) * _det3([[row[c] for c in keep] for row in rows])
    n /= np.linalg.norm(n)

    normal = ProductVector(
        frame[0].first.scale(n[0]) + frame[1].first.scale(n[1]),
        frame[2].second.scale(n[2]) + frame[3].second.scale(n[3]),
    )
    if hint is not None:
        # hint may live at a nearby point (finite differencing), so align
        # through the raw ambient pairing instead of the strict metric
        align = form(p.kappa1, normal.first.coords, hint.first.coords) + form(
            p.kappa2, normal.second.coords, hint.second.coords
        )
        if align < 0.0:
            normal = -normal
    return normal


def angle_of_normal(n: ProductVector) -> tuple[float, ProductVector]:
    """Product angle C = <PN, N> and the tangent part V = PN - C N."""
    pn = product_structure(n)
    c = product_metric(pn, n) / product_metric(n, n)
    return c, pn - n.scale(c)


def angle_function(imm: Immersion, u: np.ndarray, hint: Optional[ProductVector] = None) -> tuple[float, ProductVector]:
    """Product angle function and its tangential companion field at u."""
    return angle_of_normal(unit_normal(imm, u, hint=hint))


def gram_schmidt(vectors: Sequence[ProductVector]) -> tuple[ProductVector, ...]:
    out: list[ProductVector] = []
    for v in vectors:
        w = v
        for e in out:
            w = w - e.scale(product_metric(w, e))
        nrm = w.norm()
        if nrm < RANK_TOL:
            raise DegeneratePointError("vectors are numerically dependent")
        out.append(w.scale(1.0 / nrm))
    return tuple(out)


class ShapeInvariants:
    """Curvature invariants of a symmetric 3 x 3 shape matrix at an angle value.

    Subclasses provide ``A``, ``kappa1``, ``kappa2`` and ``C``.  ``A`` is read
    as ``A[i][j]``, so an ndarray and a tuple of Fraction rows both work and
    each invariant stays in the entries' field.  The invariants are computed
    on access.  The scalar curvature is always recomputed from the trace
    identity, never accepted as an independent input, so (A, C, rho) stay
    consistent.
    """

    def _set_shape(self, a) -> None:
        """Store ``a`` as ``A`` once it is known to be a finite symmetric 3 x 3 matrix."""
        if len(a) != 3 or any(len(row) != 3 for row in a):
            raise GeometryError("shape matrix must be 3 x 3")
        for i in range(3):
            for j in range(i, 3):
                x, y = a[i][j], a[j][i]
                # each comparison is false for NaN; x == y skips the slow
                # comparison of a Fraction with the float tolerance
                if not (-math.inf < x < math.inf and (x == y or abs(x - y) <= SYMMETRY_TOL)):
                    raise GeometryError(
                        f"shape matrix must be finite and symmetric within {SYMMETRY_TOL:g}"
                    )
        object.__setattr__(self, "A", a)

    @property
    def H(self):
        a = self.A
        return a[0][0] + a[1][1] + a[2][2]

    @property
    def K(self):
        return _det3(self.A)

    @property
    def H12(self):
        a = self.A
        return a[0][0] * a[1][1] - a[0][1] ** 2

    @property
    def H13(self):
        a = self.A
        return a[0][0] * a[2][2] - a[0][2] ** 2

    @property
    def H23(self):
        a = self.A
        return a[1][1] * a[2][2] - a[1][2] ** 2

    @property
    def rho(self):
        a = self.A
        norm_sq = sum(a[i][j] ** 2 for i in range(3) for j in range(3))
        return (
            self.kappa1 * (1 - self.C)
            + self.kappa2 * (1 + self.C)
            + self.H**2
            - norm_sq
        )


@dataclass(frozen=True)
class ShapeRecord(ShapeInvariants):
    """Shape operator at a point, in a declared orthonormal tangent basis."""

    A: np.ndarray
    basis: tuple[ProductVector, ProductVector, ProductVector]
    normal: ProductVector
    kappa1: int
    kappa2: int
    C: float

    def __post_init__(self):
        self._set_shape(np.array(self.A, dtype=float, ndmin=2))

    def principal_curvatures(self) -> np.ndarray:
        return np.linalg.eigvalsh(self.A)


def _check_orthonormal(basis: Sequence[ProductVector]) -> None:
    gram = np.array([[product_metric(a, b) for b in basis] for a in basis])
    if float(np.max(np.abs(gram - np.eye(3)))) > ORTHONORMAL_TOL:
        raise GeometryError("supplied basis is not orthonormal within 1e-8")


def shape_operator(
    imm: Immersion,
    u: np.ndarray,
    basis: Optional[Sequence[ProductVector]] = None,
    hint: Optional[ProductVector] = None,
) -> ShapeRecord:
    """Shape operator A_ij = -<grad_{e_i} N, e_j> by differencing the normal.

    The normal field is differentiated along the parameter directions with
    central differences at two step sizes and Richardson-combined; directional
    derivatives along the basis follow from the Gram solve that expresses each
    basis vector in coordinate tangents.  The result is symmetrized.
    """
    u = np.asarray(u, dtype=float)
    tangents = tangent_basis(imm, u)
    if basis is None:
        basis = gram_schmidt(tangents)
    else:
        basis = tuple(basis)
        _check_orthonormal(basis)
    n = unit_normal(imm, u, hint=hint, basis=tangents)

    gram = np.array([[product_metric(a, b) for b in tangents] for a in basis])
    coeff = np.linalg.solve(
        np.array([[product_metric(a, b) for b in tangents] for a in tangents]).T,
        gram.T,
    ).T  # coeff[i] expresses basis[i] in the coordinate tangents

    h = _fd_step(u)
    dn = [_normal_derivative(imm, u, k, h, n) for k in range(3)]

    a = np.empty((3, 3))
    for i in range(3):
        d1 = sum(coeff[i, k] * dn[k][0] for k in range(3))
        d2 = sum(coeff[i, k] * dn[k][1] for k in range(3))
        for j in range(3):
            a[i, j] = -(
                form(imm.kappa1, d1, basis[j].first.coords)
                + form(imm.kappa2, d2, basis[j].second.coords)
            )
    a = 0.5 * (a + a.T)
    c, _ = angle_of_normal(n)
    return ShapeRecord(A=a, basis=tuple(basis), normal=n, kappa1=imm.kappa1, kappa2=imm.kappa2, C=c)


def _normal_derivative(
    imm: Immersion, u: np.ndarray, k: int, h: float, center: ProductVector
) -> tuple[np.ndarray, np.ndarray]:
    """Richardson-extrapolated derivative of the normal field along u^k."""

    def central(step: float) -> tuple[np.ndarray, np.ndarray]:
        du = np.zeros(3)
        du[k] = step
        np_plus = unit_normal(imm, u + du, hint=center)
        np_minus = unit_normal(imm, u - du, hint=center)
        return (
            (np_plus.first.coords - np_minus.first.coords) / (2.0 * step),
            (np_plus.second.coords - np_minus.second.coords) / (2.0 * step),
        )

    f1, s1 = central(h)
    f2, s2 = central(2.0 * h)
    return (4.0 * f1 - f2) / 3.0, (4.0 * s1 - s2) / 3.0


def ricci(x: ProductVector, rec: ShapeRecord) -> float:
    """Ricci curvature Ric(X, X) of the hypersurface, evaluated literally.

    Combines the two curvature blocks of the ambient product with the mean
    curvature and shape operator terms; X must be tangent to the hypersurface
    and is expanded in the record's basis for the A-action.
    """
    k1, k2, c = rec.kappa1, rec.kappa2, rec.C
    n = rec.normal
    px = product_structure(x)
    xx = product_metric(x, x)
    xpx = product_metric(x, px)
    pxn = product_metric(px, n)
    t1 = k1 / 4.0 * ((1.0 - c) * xx + (1.0 - c) * xpx + pxn**2)
    t2 = k2 / 4.0 * ((1.0 + c) * xx - (1.0 + c) * xpx + pxn**2)
    comps = np.array([product_metric(x, e) for e in rec.basis])
    ax = rec.A @ comps
    return t1 + t2 + rec.H * float(comps @ ax) - float(ax @ ax)
