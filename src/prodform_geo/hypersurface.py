"""Parametrized hypersurfaces of a product of model spaces.

An :class:`Immersion` is a map from the box [-1, 1]^3 into the product, optionally
with an analytic jacobian and closed second partials (its ``hessian``).  From
it we derive tangent frames, the unit normal (by a generalized cross product
in an orthonormal ambient frame), the product angle function C = <PN, N>, the
shape operator from the second fundamental form h_kl = <d_k d_l f, N>, and
curvature invariants.  A chart with a closed hessian needs no differenced
point.  Derivatives the chart does not give in closed form (those of the
negative control and of flowed charts) are central differences at steps
STEP, 2 STEP and 4 STEP, Richardson-extrapolated to order STEP^6.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from decimal import Decimal
from fractions import Fraction
from typing import Callable, Optional, Sequence, Union

import numpy as np

from .ambient import ProductPoint, ProductVector, _product_pairing, product_metric
from .spaceform import (
    DegeneratePointError,
    GeometryError,
    ModelVector,
    _frame_legs,
    _pairing,
    _project,
    _require_same_base,
)

#: smallest of the three central-difference steps STEP, 2 STEP, 4 STEP
STEP = 8e-3

#: smallest admissible singular value of the tangent map
RANK_TOL = 1e-6

#: machine epsilon, the unit of the rounding bounds in _clearly_full_rank
_EPS = float(np.finfo(float).eps)

ORTHONORMAL_TOL = 1e-8

#: largest |A_ij - A_ji| accepted in a shape matrix
SYMMETRY_TOL = 1e-8

#: the index pairs (k, l), k <= l, of the partials d_k d_l f an ``Immersion.hessian`` returns
HESSIAN_PAIRS = ((0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2))


def is_finite(x) -> bool:
    """Finiteness in x's own type: ints and Fractions always are, and a Decimal NaN is never compared."""
    if isinstance(x, float):  # numpy's float64 too
        return math.isfinite(x)
    if isinstance(x, Decimal):
        return x.is_finite()
    return isinstance(x, (int, Fraction)) or math.isfinite(x)


def at_most(x, bound: float) -> bool:
    """x <= bound, with an exact x compared to the exact value of ``bound`` in its own type."""
    if isinstance(x, Decimal):
        return x <= Decimal(bound)
    return x <= (Fraction(bound) if isinstance(x, (int, Fraction)) else bound)


@dataclass(frozen=True)
class Immersion:
    """Map from the parameter box [-1, 1]^3 into the product manifold."""

    kappa1: int
    kappa2: int
    chart: Callable[[np.ndarray], ProductPoint]
    jacobian: Optional[Callable[[np.ndarray], tuple[ProductVector, ProductVector, ProductVector]]] = None
    #: the six second partials d_k d_l f, k <= l in the order of ``HESSIAN_PAIRS``,
    #: each as raw (first, second) factor coordinates
    hessian: Optional[Callable[[np.ndarray], Sequence[tuple[np.ndarray, np.ndarray]]]] = None
    name: str = ""

    def grid(self, n: int) -> list[np.ndarray]:
        """Regular n x n x n sample of the parameter box."""
        axis = np.linspace(-1.0, 1.0, n)
        return [np.array([a, b, c]) for a in axis for b in axis for c in axis]


def _richardson(difference: Callable[[float], np.ndarray]) -> np.ndarray:
    """Two Richardson rounds on a central difference taken at STEP, 2 STEP and 4 STEP."""
    return (64.0 * difference(STEP) - 20.0 * difference(2.0 * STEP) + difference(4.0 * STEP)) / 45.0


def _chart_coords(imm: Immersion, u: np.ndarray) -> np.ndarray:
    q = imm.chart(u)
    return np.array(q.first.xs + q.second.xs)


def tangent_basis(imm: Immersion, u: np.ndarray) -> tuple[ProductVector, ProductVector, ProductVector]:
    """Coordinate tangent vectors of the immersion at parameter u.

    Uses the analytic jacobian when available, otherwise Richardson-
    extrapolated central differences of the chart with components projected
    onto the factor tangent spaces.
    """
    return _tangents(imm, u)[0]


def _tangents(
    imm: Immersion, u: np.ndarray
) -> tuple[tuple[ProductVector, ProductVector, ProductVector], list[list[float]]]:
    """``tangent_basis`` at u with the rows of its Gram matrix, which the rank check computes."""
    u = np.asarray(u, dtype=float)
    if imm.jacobian is not None:
        basis = imm.jacobian(u)
    else:
        p = imm.chart(u)
        split = len(p.first.xs)
        vectors = []
        for du in np.eye(3):
            d = _richardson(lambda s: (_chart_coords(imm, u + s * du) - _chart_coords(imm, u - s * du)) / (2 * s))
            d = d.tolist()
            vectors.append(
                ProductVector(
                    ModelVector(p.first, _project(p.first, d[:split])),
                    ModelVector(p.second, _project(p.second, d[split:])),
                )
            )
        basis = tuple(vectors)
    return basis, _check_rank(basis, u)


def _factor_coords(vectors: Sequence[ProductVector], at: ProductVector) -> list[tuple]:
    """Each vector's (first, second) factor coordinates as Python floats, read
    once, after one same-base check of the vector against ``at``."""
    coords = []
    for v in vectors:
        _require_same_base(v.first, at.first)
        _require_same_base(v.second, at.second)
        coords.append((v.first.xs, v.second.xs))
    return coords


def _check_rank(basis: Sequence[ProductVector], u: np.ndarray) -> list[list[float]]:
    """The rows of the Gram matrix of ``basis`` as Python floats, once its
    smallest singular value is at least RANK_TOL."""
    # both factor forms are bitwise symmetric
    pair = _product_pairing(basis[0].first.kappa, basis[0].second.kappa)
    coords = _factor_coords(basis, basis[0])
    rows = [[0.0] * 3 for _ in range(3)]
    for i, x in enumerate(coords):
        for j in range(i + 1):
            rows[i][j] = rows[j][i] = pair(x, coords[j])
    if not _clearly_full_rank(rows):
        smallest = min(np.linalg.eigvalsh(np.array(rows)))
        if smallest < RANK_TOL**2:
            raise DegeneratePointError(
                f"immersion is degenerate at u={u.tolist()} (sigma_min ~ {math.sqrt(max(smallest, 0.0)):.3e})"
            )
    return rows


def _clearly_full_rank(g: Sequence[Sequence[float]]) -> bool:
    """True only if eigvalsh would find the smallest eigenvalue of the
    symmetric 3 x 3 ``g`` (rows of Python floats) at or above RANK_TOL**2;
    decided without calling it.

    Positive leading minors make g positive definite (Sylvester), and then
    lambda_min >= 4 det / tr^2, since the other two eigenvalues multiply to
    at most (tr / 2)^2.  With a = max|g_ij|, the rounding of the 2 x 2 minor,
    det and tr is below 4 eps a^2, 30 eps a^3 and 6 eps a (each term of degree d
    is at most a^d; Higham 2002, 3.1), and eigvalsh is backward stable, off
    by a small multiple of eps ||g|| <= 3 eps a.  The margins below cover all
    of these with room, and the factor 2 the rounding of the last test, so
    a Gram this accepts is one eigvalsh accepts; every other one goes to
    eigvalsh.
    """
    (g00, g01, g02), (_, g11, g12), (_, _, g22) = g
    a = max(abs(g00), abs(g01), abs(g02), abs(g11), abs(g12), abs(g22))
    e = _EPS * a
    det = _det3(g) - 64.0 * e * a * a
    tr = g00 + g11 + g22 + 16.0 * e
    return (
        g00 > 0.0
        and g00 * g11 - g01 * g01 > 8.0 * e * a
        and det > 0.0
        and 4.0 * det > 2.0 * tr * tr * (RANK_TOL**2 + 256.0 * e)
    )


def _det3(a):
    """Cofactor expansion of a 3 x 3 determinant, read as ``a[i][j]``."""
    return (
        a[0][0] * (a[1][1] * a[2][2] - a[1][2] * a[2][1])
        - a[0][1] * (a[1][0] * a[2][2] - a[1][2] * a[2][0])
        + a[0][2] * (a[1][0] * a[2][1] - a[1][1] * a[2][0])
    )


#: det(e1, e2, e3, n) expanded along n: the sign of each component's
#: cofactor and the three columns of its minor
_COFACTORS = ((-1.0, (1, 2, 3)), (1.0, (0, 2, 3)), (-1.0, (0, 1, 3)), (1.0, (0, 1, 2)))


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
    and does not depend on the frame representative.  A ``hint`` vector at
    the same point overrides the sign to keep a family of normals coherent.
    A given ``basis`` must come from ``tangent_basis`` at u, whose rank check
    then covers the normal too.  The frame's legs are ``tangent_frame``'s
    coordinates as Python floats, from the same ``_frame_legs``; they are
    checked once, through the normal, each of whose factor parts is a
    combination of its factor's two legs.  Each of the 12 tangent components
    is a product_metric pairing, taken on factor coordinates through the
    factor forms ``_pairing``; a zero leg is paired as the form with zeros,
    so each component is the product metric's bit for bit.
    """
    if basis is None:
        basis = tangent_basis(imm, u)
    p1, p2 = basis[0].first.base, basis[0].second.base
    # product_metric against the legs (a, 0), (Ja, 0), (0, b), (0, Jb) of the
    # ambient frame; each tangent's coordinates are read once
    pair1, pair2 = _pairing(p1.kappa), _pairing(p2.kappa)
    (a, ja), (b, jb) = _frame_legs(p1), _frame_legs(p2)
    zeros1, zeros2 = [0.0] * len(p1.xs), [0.0] * len(p2.xs)
    rows = []
    for t in basis:
        x, y = t.first.xs, t.second.xs
        z1, z2 = pair1(x, zeros1), pair2(y, zeros2)
        rows.append([pair1(x, a) + z2, pair1(x, ja) + z2, z1 + pair2(y, b), z1 + pair2(y, jb)])

    # cofactor expansion: det(e1, e2, e3, n) = |n|^2 > 0 by construction; the
    # norm is np.linalg.norm's, whose dot may sum in another order than a loop
    n = [sign * _det3([[row[i], row[j], row[k]] for row in rows]) for sign, (i, j, k) in _COFACTORS]
    norm = math.sqrt(float(np.dot(n, n)))
    n0, n1, n2, n3 = [x / norm for x in n]

    normal = ProductVector(
        ModelVector(p1, [n0 * x + n1 * y for x, y in zip(a, ja)]),
        ModelVector(p2, [n2 * x + n3 * y for x, y in zip(b, jb)]),
    )
    if hint is not None and product_metric(normal, hint) < 0.0:
        normal = -normal
    return normal


def angle_of_normal(n: ProductVector) -> float:
    """Product angle C = <PN, N> / <N, N>.

    Both pairings are product_metric's bit for bit, on n's factor
    coordinates read once; P negates the second factor's.
    """
    pair = _product_pairing(n.first.kappa, n.second.kappa)
    x = (n.first.xs, n.second.xs)
    return pair((x[0], [-v for v in x[1]]), x) / pair(x, x)


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
    as ``A[i][j]``, so an ndarray and a tuple of Fraction or Decimal rows all
    work and each invariant stays in the entries' ring.  The invariants are
    computed on access.  The scalar curvature is always recomputed from the
    trace identity, never accepted as an independent input, so (A, C, rho)
    stay consistent.
    """

    def _set_shape(self, a) -> None:
        """Store ``a`` as ``A`` once it is known to be a finite symmetric 3 x 3 matrix."""
        if len(a) != 3 or any(len(row) != 3 for row in a):
            raise GeometryError("shape matrix must be 3 x 3")
        # all entries are judged finite before a comparison can trap on a Decimal NaN
        upper, lower = (a[0][1], a[0][2], a[1][2]), (a[1][0], a[2][0], a[2][1])
        if not (
            all(map(is_finite, (*a[0], *a[1], *a[2])))
            and (upper == lower or all(x == y or at_most(abs(x - y), SYMMETRY_TOL) for x, y in zip(upper, lower)))
        ):
            raise GeometryError(f"shape matrix must be finite and symmetric within {SYMMETRY_TOL:g}")
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


def _check_orthonormal(basis: Sequence[ProductVector], n: ProductVector) -> list[tuple]:
    """The factor coordinates of ``basis``, once it is orthonormal and tangent
    within ORTHONORMAL_TOL; the pairings are product_metric's, bit for bit."""
    pair = _product_pairing(n.first.kappa, n.second.kappa)
    coords = _factor_coords(basis, n)
    gram = np.array([[pair(a, b) for b in coords] for a in coords])
    if float(np.max(np.abs(gram - np.eye(3)))) > ORTHONORMAL_TOL:
        raise GeometryError("supplied basis is not orthonormal within 1e-8")
    normal = (n.first.xs, n.second.xs)
    if max(abs(pair(b, normal)) for b in coords) > ORTHONORMAL_TOL:
        raise GeometryError("supplied basis is not tangent within 1e-8")
    return coords


def shape_operator(
    imm: Immersion,
    u: np.ndarray,
    basis: Union[None, Sequence[ProductVector], Callable[[ProductVector], Sequence[ProductVector]]] = None,
    hint: Optional[ProductVector] = None,
) -> ShapeRecord:
    """Shape operator A_ij = <grad_{e_i} e_j, N> from the second fundamental form.

    h_kl = <d_k d_l f, N> pairs the second partials of the chart with N in
    the flat ambient form of each factor, which suffices because N is
    tangent to each factor quadric; A = coeff h coeff^T, where coeff
    expresses the basis in coordinate tangents.  ``basis`` is an orthonormal
    tangent basis, a function that builds one from the unit normal, or None
    for the Gram-Schmidt basis of the coordinate tangents.

    A chart with a closed ``hessian`` (and jacobian) needs no chart point.
    Any other chart (the negative control, a flowed chart) takes h as the
    Hessian at u of the height v -> <f(v) - f(u), N>, differenced at 36
    points around u: h_kk from u +- s e_k, and h_kl from the second
    difference along e_k + e_l, which is h_kk + 2 h_kl + h_ll.  Each chart
    point is evaluated once per call: without a jacobian, the tangent
    differences and the Hessian's diagonal read the same points u +- s e_k,
    37 points in all.  The gallery judges the negative control by its angle
    alone and takes only its unit normals, so the control reaches this path
    from the tests, not from the CLI.
    """
    u = np.asarray(u, dtype=float)
    points: dict[bytes, ProductPoint] = {}

    def chart(v: np.ndarray) -> ProductPoint:
        key = v.tobytes()
        if key not in points:
            points[key] = imm.chart(v)
        return points[key]

    tangents, tangent_gram = _tangents(replace(imm, chart=chart), u)
    n = unit_normal(imm, u, hint=hint, basis=tangents)
    if basis is None:
        basis = gram_schmidt(tangents)
        basis_coords = _factor_coords(basis, n)
    else:
        basis = tuple(basis(n) if callable(basis) else basis)
        basis_coords = _check_orthonormal(basis, n)

    pair = _product_pairing(imm.kappa1, imm.kappa2)
    tangent_coords = _factor_coords(tangents, n)
    gram = np.array([[pair(a, b) for b in tangent_coords] for a in basis_coords])
    # coeff[i] expresses basis[i] in the coordinate tangents
    coeff = np.linalg.solve(tangent_gram, gram.T).T

    # the factor forms against the normal's factor coordinates, read once
    normal = (n.first.xs, n.second.xs)

    def normal_part(first: np.ndarray, second: np.ndarray) -> float:
        return pair((first.tolist(), second.tolist()), normal)

    p1, p2 = n.first.base.xs, n.second.base.xs

    def height(v: np.ndarray) -> float:
        q = chart(v)
        return pair(([a - b for a, b in zip(q.first.xs, p1)], [a - b for a, b in zip(q.second.xs, p2)]), normal)

    def second_difference(s: float) -> np.ndarray:
        e = s * np.eye(3)
        h = np.empty((3, 3))
        for k in range(3):
            h[k, k] = (height(u + e[k]) + height(u - e[k])) / s**2
            for l in range(k):
                d = e[k] + e[l]
                h[k, l] = h[l, k] = ((height(u + d) + height(u - d)) / s**2 - h[k, k] - h[l, l]) / 2.0
        return h

    def closed_hessian() -> np.ndarray:
        h = np.empty((3, 3))
        for (k, l), partial in zip(HESSIAN_PAIRS, imm.hessian(u)):
            h[k, l] = h[l, k] = normal_part(*partial)
        return h

    h = closed_hessian() if imm.hessian is not None else _richardson(second_difference)
    a = coeff @ h @ coeff.T
    a = 0.5 * (a + a.T)
    return ShapeRecord(A=a, basis=basis, normal=n, kappa1=imm.kappa1, kappa2=imm.kappa2, C=angle_of_normal(n))


def ricci(x: ProductVector, rec: ShapeRecord) -> float:
    """Ricci curvature Ric(X, X) of the hypersurface, evaluated literally.

    Combines the two curvature blocks of the ambient product with the mean
    curvature and shape operator terms; X must be tangent to the hypersurface
    and is expanded in the record's basis for the A-action.  Each pairing is
    product_metric's bit for bit, on factor coordinates read once after one
    same-base check of X and of each basis vector against the normal.
    """
    k1, k2, c = rec.kappa1, rec.kappa2, rec.C
    n = rec.normal
    pair = _product_pairing(k1, k2)
    xs, *basis = _factor_coords([x, *rec.basis], n)
    normal = (n.first.xs, n.second.xs)
    pxs = (xs[0], [-v for v in xs[1]])
    xx = pair(xs, xs)
    xpx = pair(xs, pxs)
    pxn = pair(pxs, normal)
    t1 = k1 / 4.0 * ((1.0 - c) * xx + (1.0 - c) * xpx + pxn**2)
    t2 = k2 / 4.0 * ((1.0 + c) * xx - (1.0 + c) * xpx + pxn**2)
    comps = np.array([pair(xs, e) for e in basis])
    ax = rec.A @ comps
    return t1 + t2 + rec.H * float(comps @ ax) - float(ax @ ax)
