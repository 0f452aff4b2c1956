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
from typing import Sequence

import numpy as np

KAPPAS = (-1, 0, 1)

#: inputs violating tangency/quadric constraints by more than this are rejected
CONSTRAINT_TOL = 1e-8

class GeometryError(ValueError):
    """Invalid or incompatible geometric inputs."""


class DegeneratePointError(GeometryError):
    """An immersion loses rank at the requested parameter value."""


def _floats(a) -> list[float]:
    return np.asarray(a, dtype=float).tolist()


def _lorentz(a, b) -> float:
    """Minkowski pairing -a1*b1 + a2*b2 + a3*b3 on triples of Python floats."""
    a0, a1, a2 = a
    b0, b1, b2 = b
    return -a0 * b0 + a1 * b1 + a2 * b2


def _euclid(a, b) -> float:
    """Euclidean pairing a1*b1 + a2*b2 (+ a3*b3) on pairs or triples of Python floats."""
    if len(a) == 2:
        a0, a1 = a
        b0, b1 = b
        return a0 * b0 + a1 * b1
    a0, a1, a2 = a
    b0, b1, b2 = b
    return a0 * b0 + a1 * b1 + a2 * b2


def _pairing(kappa: int):
    """The ambient form of the curvature-``kappa`` factor on coordinates as
    Python floats (``ndarray.tolist()``): the Lorentz pairing for -1, the
    Euclidean one for 0 and 1, each a sum of products taken left to right.

    Every pairing of factor coordinates goes through it.  <p, p> = kappa on
    the model space, so kappa <p, p> is each quadric; on the hyperboloid it
    is x0*x0 - x1*x1 - x2*x2 summed left to right, up to the sign of a zero.
    """
    return _lorentz if kappa == -1 else _euclid


def form(kappa: int, a, b) -> float:
    """Ambient bilinear form of the embedding space for curvature ``kappa``, on raw coordinates."""
    return _pairing(kappa)(_floats(a), _floats(b))


def _cross(kappa: int, a, b) -> list[float]:
    """Cross product of triples of Python floats: Euclidean for kappa = 1,
    with the products and differences np.cross performs, else Lorentzian."""
    a0, a1, a2 = a
    b0, b1, b2 = b
    if kappa == 1:
        return [a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0]
    return [a2 * b1 - a1 * b2, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0]


@dataclass(frozen=True, init=False)
class ModelPoint:
    """Point of the curvature-``kappa`` model space in embedding coordinates.

    Construction checks the point once, on its coordinates as Python floats:
    the quadric is kappa <p, p>, through the factor form ``_pairing``.  A
    coordinate too large to square makes it inf or NaN, which fails the
    quadric check as any other violation does.
    """

    kappa: int
    coords: np.ndarray

    def __init__(self, kappa: int, coords):
        if kappa not in KAPPAS:
            raise GeometryError(f"kappa must be in {KAPPAS}, got {kappa}")
        coords = np.asarray(coords, dtype=float)
        dim = 2 if kappa == 0 else 3
        if coords.shape != (dim,):
            raise GeometryError(f"kappa={kappa} point needs {dim} coordinates, got shape {coords.shape}")
        xs = coords.tolist()
        # fields set with object.__setattr__, not through the instance dict,
        # which would slow every later read of them
        object.__setattr__(self, "kappa", kappa)
        object.__setattr__(self, "coords", coords)
        if kappa == 0:
            if not (math.isfinite(xs[0]) and math.isfinite(xs[1])):
                raise GeometryError(f"flat point coordinates must be finite, got {xs}")
            return
        q = kappa * _pairing(kappa)(xs, xs)
        # written so that a non-finite coordinate, which makes q NaN or inf, fails too
        if not abs(q - 1.0) <= CONSTRAINT_TOL:
            raise GeometryError(f"coordinates violate the kappa={kappa} quadric: q={q!r}")
        x0, x1, x2 = xs
        if kappa == -1 and x0 <= 0:
            raise GeometryError("hyperboloid points must have positive first coordinate")
        # the coordinates as Python floats and max(1, max|x_i|), the point's
        # share of every tangency scale; not fields, so equality, repr and
        # hashing ignore them
        object.__setattr__(self, "_xs", xs)
        object.__setattr__(self, "_scale", max(1.0, abs(x0), abs(x1), abs(x2)))


def _tangent_check(base: ModelPoint, coords) -> np.ndarray:
    """Tangent coordinates at ``base``, kept as given.

    The defect is <p, v> in the factor form ``_pairing``, on the point's and
    the vector's Python floats.  A defect above ``CONSTRAINT_TOL`` times the
    scale is rejected, as a point that far off its quadric is.
    """
    coords = np.asarray(coords, dtype=float)
    if coords.shape != base.coords.shape:
        raise GeometryError("vector and base point dimensions differ")
    xs = coords.tolist()
    if not all(map(math.isfinite, xs)):
        raise GeometryError(f"tangent vector coordinates must be finite, got {xs}")
    kappa = base.kappa
    if kappa == 0:
        return coords
    # the maximum of Python floats is exact, so the scale is the one a numpy
    # reduction would give, bit for bit
    x0, x1, x2 = xs
    scale = max(1.0, abs(x0), abs(x1), abs(x2)) * base._scale
    t = _pairing(kappa)(base._xs, xs)
    if abs(t) > CONSTRAINT_TOL * scale:
        raise GeometryError(f"vector is not tangent at its base point (defect {t!r})")
    return coords


@dataclass(frozen=True, init=False)
class ModelVector:
    """Tangent vector at a :class:`ModelPoint`.

    Construction enforces tangency through ``_tangent_check``, which keeps the
    coordinates as given or rejects them.
    """

    base: ModelPoint
    coords: np.ndarray

    def __init__(self, base: ModelPoint, coords):
        # the instance dict of a frozen dataclass, written directly
        self.__dict__.update(base=base, coords=_tangent_check(base, coords))

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
        """-v without a second check: rounding to nearest is symmetric under a
        change of sign (Higham 2002, 2.2), so the defect of -c is exactly -t,
        at the same scale, and the check decides the same."""
        v = object.__new__(ModelVector)
        v.__dict__.update(base=self.base, coords=-self.coords)
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
    return _pairing(u.kappa)(u.coords.tolist(), v.coords.tolist())


def zero_vector(p: ModelPoint) -> ModelVector:
    return ModelVector(p, np.zeros(p.coords.shape))


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
    if p.kappa == 0:
        return ModelVector(p, np.array([-v.coords[1], v.coords[0]]))
    return ModelVector(p, np.array(_cross(p.kappa, p._xs, v.coords.tolist())))


def _renormalized(kappa: int, coords: np.ndarray) -> np.ndarray:
    if kappa == 0:
        return coords
    xs = coords.tolist()
    return coords / math.sqrt(kappa * _pairing(kappa)(xs, xs))


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
    x = v.coords.tolist()
    vv = max(_pairing(p.kappa)(x, x), 0.0)
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


def geodesic_transport(
    p: ModelPoint, v: ModelVector, l: float, ws: Sequence[ModelVector] = ()
) -> tuple[tuple[ModelVector, ...], ModelVector]:
    """Each of ``ws`` transported from p along the geodesic with initial velocity v, and the velocity there.

    One geodesic carries every vector.  Closed form: the component beta v of
    w along the geodesic, with beta = <w, v>/<v, v>, rides with the velocity,
    and the orthogonal component w - beta v is constant in embedding
    coordinates.
    """
    for w in ws:
        _require_vector_at(p, w)
    q, velocity = _geodesic(p, v, l, velocity=True)
    pair = _pairing(p.kappa)
    x = v.coords.tolist()
    vv = pair(x, x)
    moved = []
    for w in ws:
        beta = pair(w.coords.tolist(), x) / vv if vv > 0.0 else 0.0
        moved.append(ModelVector(q, beta * velocity + (w.coords - beta * v.coords)))
    return tuple(moved), ModelVector(q, velocity)


def parallel_transport(p: ModelPoint, v: ModelVector, l: float, w: ModelVector) -> ModelVector:
    """Transport ``w`` from p along the geodesic with initial velocity v."""
    return geodesic_transport(p, v, l, (w,))[0][0]


def _require_vector_at(p: ModelPoint, v: ModelVector) -> None:
    if not _same_point(v.base, p):
        raise GeometryError("vector is not based at the given point")


def tangent_frame(p: ModelPoint) -> tuple[ModelVector, ModelVector]:
    """Orthonormal tangent frame (a, Ja) at p.

    a is the unit tangent projection of the coordinate axis with the longest
    projection, the first one on a tie.  Any such frame differs from any other
    by a rotation, so constructions that only depend on the frame's
    orientation class are frame-independent.
    """
    if p.kappa == 0:
        return (
            ModelVector(p, np.array([1.0, 0.0])),
            ModelVector(p, np.array([0.0, 1.0])),
        )
    kappa, xs = p.kappa, p._xs
    pair = _pairing(kappa)
    best = None
    best_norm = -1.0
    for i in range(3):
        # tangent_project(p, e_i) on the point's floats: form(kappa, p, e_i)
        # is exactly -p_0 (Lorentz, i = 0) or p_i, and a zero of either sign
        # projects e_i to the same coordinates
        kt = kappa * (-xs[0] if kappa == -1 and i == 0 else xs[i])
        cand = [(1.0 if j == i else 0.0) - kt * x for j, x in enumerate(xs)]
        n = pair(cand, cand)
        if n > best_norm:
            best_norm = n
            best = cand
    scale = math.sqrt(best_norm)
    a = ModelVector(p, [x / scale for x in best])
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


def random_tangent(p: ModelPoint, rng: np.random.Generator) -> ModelVector:
    dim = 2 if p.kappa == 0 else 3
    return ModelVector(p, tangent_project(p, rng.normal(size=dim)))
