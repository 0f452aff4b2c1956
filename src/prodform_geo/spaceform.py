"""Two-dimensional model spaces of curvature -1, 0, +1.

The sphere and the hyperbolic plane are handled in their standard embeddings
(unit sphere in R^3, upper hyperboloid sheet in Minkowski R^3), the flat case
directly in R^2.  Geodesics, parallel transport and the rotation operator J
are all closed form, so long flows stay on-manifold up to a cheap
re-projection.

The stability pair (S, C) solves f'' + delta f = 0 with (f(0), f'(0)) equal
to (0, 1) and (1, 0), so S' = C and C' = -delta S.  It gives the Jacobi
fields of the parallel flow and every curve of constant geodesic curvature
k, whose unit tangent solves T'' + (kappa + k^2) T = 0; the geodesic from p
with velocity v is C p + S v at delta = kappa <v, v>.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

KAPPAS = (-1, 0, 1)

#: inputs violating tangency/quadric constraints by more than this are rejected
CONSTRAINT_TOL = 1e-8

#: tangency defects at or below this (times the coordinate scale) are roundoff
ROUNDOFF_TOL = 64.0 * float(np.finfo(float).eps)

#: sphere defects summed in Python floats at or below this (times the scale)
#: are accepted without the ambient form; see _tangent_check
FILTER_TOL = 32.0 * float(np.finfo(float).eps)


class GeometryError(ValueError):
    """Invalid or incompatible geometric inputs."""


class DegeneratePointError(GeometryError):
    """An immersion loses rank at the requested parameter value."""


def euclid_form(a, b) -> float:
    return float(np.dot(a, b))


def _floats(a) -> list[float]:
    return np.asarray(a, dtype=float).tolist()


def lorentz_form(a, b) -> float:
    """Minkowski pairing -a1*b1 + a2*b2 + a3*b3 on raw triples."""
    a0, a1, a2 = _floats(a)
    b0, b1, b2 = _floats(b)
    return -a0 * b0 + a1 * b1 + a2 * b2


def form(kappa: int, a, b) -> float:
    """Ambient bilinear form of the embedding space for curvature ``kappa``."""
    if kappa == -1:
        return lorentz_form(a, b)
    return euclid_form(a, b)


def lorentz_cross(a, b) -> np.ndarray:
    """Lorentzian cross product of raw triples.

    Returns (a3*b2 - a2*b3, a3*b1 - a1*b3, a1*b2 - a2*b1).
    """
    a0, a1, a2 = _floats(a)
    b0, b1, b2 = _floats(b)
    return np.array([a2 * b1 - a1 * b2, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0])


def _quadric_value(kappa: int, coords: np.ndarray) -> float:
    # positive on the relevant sheet for kappa = -1
    if kappa == 1:
        return float(np.dot(coords, coords))
    return float(coords[0] ** 2 - coords[1] ** 2 - coords[2] ** 2)


@dataclass(frozen=True)
class ModelPoint:
    """Point of the curvature-``kappa`` model space in embedding coordinates."""

    kappa: int
    coords: np.ndarray

    def __post_init__(self):
        if self.kappa not in KAPPAS:
            raise GeometryError(f"kappa must be in {KAPPAS}, got {self.kappa}")
        coords = np.asarray(self.coords, dtype=float)
        object.__setattr__(self, "coords", coords)
        dim = 2 if self.kappa == 0 else 3
        if coords.shape != (dim,):
            raise GeometryError(
                f"kappa={self.kappa} point needs {dim} coordinates, got shape {coords.shape}"
            )
        if self.kappa == 0:
            if not (math.isfinite(coords[0]) and math.isfinite(coords[1])):
                raise GeometryError(f"flat point coordinates must be finite, got {coords.tolist()}")
            return
        q = _quadric_value(self.kappa, coords)
        # written so that a non-finite coordinate, which makes q NaN or inf, fails too
        if not abs(q - 1.0) <= CONSTRAINT_TOL:
            raise GeometryError(
                f"coordinates violate the kappa={self.kappa} quadric: q={q!r}"
            )
        if self.kappa == -1 and coords[0] <= 0:
            raise GeometryError("hyperboloid points must have positive first coordinate")
        # the coordinates as Python floats and max(1, max|x_i|), the point's
        # share of every tangency scale; not fields, so equality, repr and
        # hashing ignore them
        xs = coords.tolist()
        x0, x1, x2 = xs
        object.__setattr__(self, "_xs", xs)
        object.__setattr__(self, "_scale", max(1.0, abs(x0), abs(x1), abs(x2)))


def _tangent_check(base: ModelPoint, coords) -> tuple[np.ndarray, bool]:
    """Tangent coordinates at ``base`` and whether they are the given ones.

    Violations above ``CONSTRAINT_TOL`` are rejected, smaller ones above
    ``ROUNDOFF_TOL`` are projected away.
    """
    coords = np.asarray(coords, dtype=float)
    if coords.shape != base.coords.shape:
        raise GeometryError("vector and base point dimensions differ")
    xs = coords.tolist()
    if not all(map(math.isfinite, xs)):
        raise GeometryError(f"tangent vector coordinates must be finite, got {xs}")
    kappa = base.kappa
    if kappa == 0:
        return coords, True
    # the maximum of Python floats is exact, so the scale is the one a numpy
    # reduction would give, bit for bit
    x0, x1, x2 = xs
    scale = max(1.0, abs(x0), abs(x1), abs(x2)) * base._scale
    p0, p1, p2 = base._xs
    if kappa == -1:
        # lorentz_form(base.coords, coords), on the floats already at hand
        t = -p0 * x0 + p1 * x1 + p2 * x2
    else:
        # A floating-point filter (Shewchuk 1997): two evaluations of a
        # 3-term dot product differ by at most 2 gamma_3 sum|p_i x_i|
        # <= 9 eps scale (Higham 2002, 3.1), so at or below FILTER_TOL
        # the np.dot defect is below ROUNDOFF_TOL and the vector is
        # accepted either way; every other case takes the np.dot defect.
        t = p0 * x0 + p1 * x1 + p2 * x2
        if not abs(t) <= FILTER_TOL * scale:
            t = euclid_form(base.coords, coords)
    if abs(t) > CONSTRAINT_TOL * scale:
        raise GeometryError(f"vector is not tangent at its base point (defect {t!r})")
    # defects at roundoff level are left alone so that negation,
    # scaling and addition of tangent vectors stay bitwise exact
    if abs(t) <= ROUNDOFF_TOL * scale:
        return coords, True
    # <p, p> = kappa on the quadric, so 1/<p,p> = kappa
    return coords - kappa * t * base.coords, False


@dataclass(frozen=True, init=False)
class ModelVector:
    """Tangent vector at a :class:`ModelPoint`.

    Construction enforces tangency through ``_tangent_check``.  A vector it
    left unchanged is settled and negates without a second check: rounding
    to nearest is symmetric under a change of sign (Higham 2002, 2.2), so
    the defect of -c is exactly -t, at the same scale, and every decision of
    the check comes out the same.
    """

    base: ModelPoint
    coords: np.ndarray

    def __init__(self, base: ModelPoint, coords):
        coords, settled = _tangent_check(base, coords)
        # the instance dict of a frozen dataclass, written directly; _settled
        # is not a field, so equality, repr and hashing ignore it
        self.__dict__.update(base=base, coords=coords, _settled=settled)

    @property
    def kappa(self) -> int:
        return self.base.kappa

    def __add__(self, other: "ModelVector") -> "ModelVector":
        _require_same_base(self, other)
        return ModelVector(self.base, self.coords + other.coords)

    def __sub__(self, other: "ModelVector") -> "ModelVector":
        _require_same_base(self, other)
        return ModelVector(self.base, self.coords - other.coords)

    def __neg__(self) -> "ModelVector":
        if not self._settled:
            return ModelVector(self.base, -self.coords)
        v = object.__new__(ModelVector)
        v.__dict__.update(self.__dict__, coords=-self.coords)
        return v

    def scale(self, a: float) -> "ModelVector":
        return ModelVector(self.base, a * self.coords)

    def norm(self) -> float:
        return math.sqrt(max(metric(self, self), 0.0))


def _same_point(p: ModelPoint, q: ModelPoint) -> bool:
    """Whether p and q are the same point up to 1e-9 in each coordinate."""
    if p is q:
        return True
    return p.kappa == q.kappa and bool(np.max(np.abs(p.coords - q.coords)) <= 1e-9)


def _require_same_base(u: ModelVector, v: ModelVector) -> None:
    if not _same_point(u.base, v.base):
        raise GeometryError("vectors live at different base points")


def metric(u: ModelVector, v: ModelVector) -> float:
    """Riemannian inner product of two tangent vectors at a shared point.

    Euclidean for curvature 0 and 1, the Minkowski pairing for curvature -1
    (positive definite on tangent vectors of the hyperboloid).
    """
    _require_same_base(u, v)
    return form(u.kappa, u.coords, v.coords)


def _zero_pairing(kappa: int, x: np.ndarray) -> float:
    """form(kappa, x, 0): +0.0 from np.dot, and the Lorentz pairing's own signed zero."""
    if kappa != -1:
        return 0.0
    x0, x1, x2 = x.tolist()
    return -x0 * 0.0 + x1 * 0.0 + x2 * 0.0


def zero_vector(p: ModelPoint) -> ModelVector:
    return ModelVector(p, np.zeros_like(p.coords))


def tangent_project(p: ModelPoint, coords) -> np.ndarray:
    """Orthogonal projection of raw coordinates onto the tangent space at p."""
    coords = np.asarray(coords, dtype=float)
    if p.kappa == 0:
        return coords
    t = form(p.kappa, p.coords, coords)
    return coords - p.kappa * t * p.coords


def complex_structure(v: ModelVector) -> ModelVector:
    """Quarter-turn rotation J of a tangent vector.

    Flat case: J(x1, x2) = (-x2, x1).  Sphere: p x v.  Hyperbolic plane:
    the Lorentzian cross product of p and v.  J is an isometry with J^2 = -Id.
    """
    p = v.base
    if v.kappa == 0:
        return ModelVector(p, np.array([-v.coords[1], v.coords[0]]))
    if v.kappa == 1:
        # p x v with the products and differences np.cross performs
        a0, a1, a2 = p.coords.tolist()
        b0, b1, b2 = v.coords.tolist()
        return ModelVector(p, np.array([a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0]))
    return ModelVector(p, lorentz_cross(p.coords, v.coords))


def _renormalized(kappa: int, coords: np.ndarray) -> np.ndarray:
    if kappa == 0:
        return coords
    return coords / math.sqrt(_quadric_value(kappa, coords))


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


def _geodesic(p: ModelPoint, v: ModelVector, l: float, velocity: bool = False):
    """End point C p + S v at delta = kappa <v, v>, and the velocity -delta S p + C v if asked.

    The velocity comes as raw coordinates, None unless asked for; a zero
    velocity stays at p, with velocity v.  The end point is re-projected onto
    the quadric to suppress drift in long flows.
    """
    _require_vector_at(p, v)
    vv = max(form(p.kappa, v.coords, v.coords), 0.0)
    if vv == 0.0:
        return p, v.coords.copy()
    delta = p.kappa * vv
    s, c = stability_functions(delta, l)
    q = ModelPoint(p.kappa, _renormalized(p.kappa, c * p.coords + s * v.coords))
    return q, (-delta * s * p.coords + c * v.coords) if velocity else None


def exp_map(p: ModelPoint, v: ModelVector, l: float) -> ModelPoint:
    """Point at arc parameter ``l`` along the geodesic from p with velocity v.

    The velocity may have any norm, including zero (which returns p).
    """
    return _geodesic(p, v, l)[0]


def geodesic_velocity(p: ModelPoint, v: ModelVector, l: float) -> ModelVector:
    """Velocity of the geodesic at parameter ``l``; same norm as v for all l."""
    return ModelVector(*_geodesic(p, v, l, velocity=True))


def parallel_transport(p: ModelPoint, v: ModelVector, l: float, w: ModelVector) -> ModelVector:
    """Transport ``w`` from p along the geodesic with initial velocity v.

    Closed form: the component beta v of w along the geodesic, with
    beta = <w, v>/<v, v>, rides with the velocity, and the orthogonal
    component w - beta v is constant in embedding coordinates.
    """
    _require_vector_at(p, w)
    q, velocity = _geodesic(p, v, l, velocity=True)
    vv = form(p.kappa, v.coords, v.coords)
    beta = form(p.kappa, w.coords, v.coords) / vv if vv > 0.0 else 0.0
    return ModelVector(q, beta * velocity + (w.coords - beta * v.coords))


def _require_vector_at(p: ModelPoint, v: ModelVector) -> None:
    if not _same_point(v.base, p):
        raise GeometryError("vector is not based at the given point")


def tangent_frame(p: ModelPoint) -> tuple[ModelVector, ModelVector]:
    """Orthonormal tangent frame (a, Ja) at p.

    Any such frame differs from any other by a rotation, so constructions
    that only depend on the frame's orientation class are frame-independent.
    """
    if p.kappa == 0:
        return (
            ModelVector(p, np.array([1.0, 0.0])),
            ModelVector(p, np.array([0.0, 1.0])),
        )
    best = None
    best_norm = -1.0
    for axis in np.eye(3):
        cand = tangent_project(p, axis)
        n = form(p.kappa, cand, cand)
        if n > best_norm:
            best_norm = n
            best = cand
    a = ModelVector(p, best / math.sqrt(best_norm))
    return a, complex_structure(a)


def random_point(kappa: int, rng: np.random.Generator) -> ModelPoint:
    """Random model point; plumbing for seeded verification sweeps."""
    if kappa == 0:
        return ModelPoint(0, rng.normal(size=2))
    if kappa == 1:
        x = rng.normal(size=3)
        return ModelPoint(1, x / np.linalg.norm(x))
    y = rng.normal(size=2)
    return ModelPoint(-1, np.array([math.sqrt(1.0 + y @ y), y[0], y[1]]))


def random_tangent(p: ModelPoint, rng: np.random.Generator, scale: float = 1.0) -> ModelVector:
    dim = 2 if p.kappa == 0 else 3
    return ModelVector(p, tangent_project(p, scale * rng.normal(size=dim)))
