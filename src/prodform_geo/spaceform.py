"""Two-dimensional model spaces of curvature -1, 0, +1.

The sphere and the hyperbolic plane are handled in their standard embeddings
(unit sphere in R^3, upper hyperboloid sheet in Minkowski R^3), the flat case
directly in R^2.  Geodesics, parallel transport and the rotation operator J
are all closed form, so long flows stay on-manifold up to a cheap
re-projection.  A point and a tangent vector are each stored as their checked
coordinates ``xs``, a list of Python floats, and every operation here reads
and forms those floats; their ``coords`` ndarray is derived from them.

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
    Python floats: the Lorentz pairing for -1, the Euclidean one for 0 and 1,
    each a sum of products taken left to right.

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


def _python_floats(coords) -> bool:
    """Whether ``coords`` is a list of Python floats, which
    ``np.asarray(coords, dtype=float).tolist()`` would return unchanged."""
    if type(coords) is not list:
        return False
    # a loop, not all() over a generator, which costs twice as much here
    for x in coords:
        if type(x) is not float:
            return False
    return True


@dataclass(frozen=True, init=False)
class ModelPoint:
    """Point of the curvature-``kappa`` model space, stored as its checked
    embedding coordinates ``xs``, a list of Python floats that nothing may
    change.

    A list of Python floats is copied and checked as given; any other input
    is converted as ``np.asarray(coords, dtype=float)`` converts it.
    Construction checks the point once, on those floats: the quadric is
    kappa <p, p>, through the factor form ``_pairing``.  A coordinate too
    large to square makes it inf or NaN, which fails the quadric check as any
    other violation does.  ``coords`` is an ndarray formed from ``xs`` on
    each read.
    """

    kappa: int
    xs: list[float]

    def __init__(self, kappa: int, coords):
        if kappa not in KAPPAS:
            raise GeometryError(f"kappa must be in {KAPPAS}, got {kappa}")
        dim = 2 if kappa == 0 else 3
        if _python_floats(coords):
            # a copy, so that the caller's list cannot move the checked point
            xs = coords[:]
            shape = (len(xs),)
        else:
            array = np.asarray(coords, dtype=float)
            xs = array.tolist()
            shape = array.shape
        if shape != (dim,):
            raise GeometryError(f"kappa={kappa} point needs {dim} coordinates, got shape {shape}")
        if kappa == 0:
            if not (math.isfinite(xs[0]) and math.isfinite(xs[1])):
                raise GeometryError(f"flat point coordinates must be finite, got {xs}")
        else:
            q = kappa * _pairing(kappa)(xs, xs)
            # written so that a non-finite coordinate, which makes q NaN or inf, fails too
            if not abs(q - 1.0) <= CONSTRAINT_TOL:
                raise GeometryError(f"coordinates violate the kappa={kappa} quadric: q={q!r}")
            if kappa == -1 and xs[0] <= 0:
                raise GeometryError("hyperboloid points must have positive first coordinate")
        # the instance dict of a frozen dataclass, written directly; _scale,
        # max(1, max|x_i|), is the point's share of every tangency scale, not
        # a field, so equality, repr and hashing ignore it
        self.__dict__.update(kappa=kappa, xs=xs, _scale=max(1.0, *map(abs, xs)))

    @property
    def coords(self) -> np.ndarray:
        return np.array(self.xs)


def _tangent_check(base: ModelPoint, coords) -> list[float]:
    """Tangent coordinates at ``base`` as a list of Python floats, kept as given.

    A list of Python floats is taken as it is, not copied; any other input
    is converted as ``np.asarray(coords, dtype=float)`` converts it.  The
    defect is <p, v> in the factor form ``_pairing``, on the point's and the
    vector's floats.  A defect above ``CONSTRAINT_TOL`` times the scale is
    rejected, as a point that far off its quadric is.
    """
    if not _python_floats(coords):
        array = np.asarray(coords, dtype=float)
        # a scalar or nested input has no length to match the point's
        coords = array.tolist() if array.ndim == 1 else []
    if len(coords) != len(base.xs):
        raise GeometryError("vector and base point dimensions differ")
    if not all(map(math.isfinite, coords)):
        raise GeometryError(f"tangent vector coordinates must be finite, got {coords}")
    kappa = base.kappa
    if kappa == 0:
        return coords
    # the maximum of Python floats is exact, so the scale is the one a numpy
    # reduction would give, bit for bit
    x0, x1, x2 = coords
    scale = max(1.0, abs(x0), abs(x1), abs(x2)) * base._scale
    t = _pairing(kappa)(base.xs, coords)
    if abs(t) > CONSTRAINT_TOL * scale:
        raise GeometryError(f"vector is not tangent at its base point (defect {t!r})")
    return coords


@dataclass(frozen=True, init=False)
class ModelVector:
    """Tangent vector at a :class:`ModelPoint`, stored as its checked
    coordinates ``xs``, a list of Python floats that nothing may change.

    Construction enforces tangency through ``_tangent_check``, which keeps the
    coordinates as given or rejects them; ``coords`` is an ndarray formed
    from ``xs`` on each read.
    """

    base: ModelPoint
    xs: list[float]

    def __init__(self, base: ModelPoint, coords):
        # the instance dict of a frozen dataclass, written directly
        self.__dict__.update(base=base, xs=_tangent_check(base, coords))

    @property
    def coords(self) -> np.ndarray:
        return np.array(self.xs)

    @property
    def kappa(self) -> int:
        return self.base.kappa

    def __add__(self, other: "ModelVector") -> "ModelVector":
        _require_same_base(self, other)
        return ModelVector(self.base, [a + b for a, b in zip(self.xs, other.xs)])

    def __sub__(self, other: "ModelVector") -> "ModelVector":
        _require_same_base(self, other)
        return ModelVector(self.base, [a - b for a, b in zip(self.xs, other.xs)])

    def __neg__(self) -> "ModelVector":
        """-v without a second check: rounding to nearest is symmetric under a
        change of sign (Higham 2002, 2.2), so the defect of -c is exactly -t,
        at the same scale, and the check decides the same."""
        v = object.__new__(ModelVector)
        v.__dict__.update(base=self.base, xs=[-x for x in self.xs])
        return v

    def scale(self, a: float) -> "ModelVector":
        return ModelVector(self.base, [a * x for x in self.xs])

    def norm(self) -> float:
        return math.sqrt(max(metric(self, self), 0.0))


def _same_point(p: ModelPoint, q: ModelPoint) -> bool:
    """Whether p and q are the same point up to 1e-9 in each coordinate."""
    if p is q:
        return True
    return p.kappa == q.kappa and max(abs(a - b) for a, b in zip(p.xs, q.xs)) <= 1e-9


def _require_same_base(u: ModelVector, v: ModelVector) -> None:
    if not _same_point(u.base, v.base):
        raise GeometryError("vectors live at different base points")


def metric(u: ModelVector, v: ModelVector) -> float:
    """Riemannian inner product of two tangent vectors at a shared point.

    Euclidean for curvature 0 and 1, the Minkowski pairing for curvature -1
    (positive definite on tangent vectors of the hyperboloid).
    """
    _require_same_base(u, v)
    return _pairing(u.kappa)(u.xs, v.xs)


def zero_vector(p: ModelPoint) -> ModelVector:
    return ModelVector(p, [0.0] * len(p.xs))


def _project(p: ModelPoint, xs: Sequence[float]) -> Sequence[float]:
    """``tangent_project`` on Python floats: xs - kappa <p, xs> p."""
    if p.kappa == 0:
        return xs
    kt = p.kappa * _pairing(p.kappa)(p.xs, xs)
    return [x - kt * y for x, y in zip(xs, p.xs)]


def tangent_project(p: ModelPoint, coords) -> np.ndarray:
    """Orthogonal projection of raw coordinates onto the tangent space at p."""
    return np.array(_project(p, _floats(coords)))


def complex_structure(v: ModelVector) -> ModelVector:
    """Quarter-turn rotation J of a tangent vector.

    Flat case: J(x1, x2) = (-x2, x1).  Sphere: p x v.  Hyperbolic plane:
    the Lorentzian cross product of p and v.  J is an isometry with J^2 = -Id.
    """
    p, xs = v.base, v.xs
    if p.kappa == 0:
        return ModelVector(p, [-xs[1], xs[0]])
    return ModelVector(p, _cross(p.kappa, p.xs, xs))


def _renormalized(kappa: int, xs: list[float]) -> list[float]:
    if kappa == 0:
        return xs
    r = math.sqrt(kappa * _pairing(kappa)(xs, xs))
    return [x / r for x in xs]


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

    The velocity comes as Python floats, None unless asked for; a zero
    velocity stays at p, with velocity v.  The end point is re-projected onto
    the quadric to suppress drift in long flows.
    """
    _require_vector_at(p, v)
    x = v.xs
    vv = max(_pairing(p.kappa)(x, x), 0.0)
    if vv == 0.0:
        return p, x
    delta = p.kappa * vv
    s, c = stability_functions(delta, l)
    q = ModelPoint(p.kappa, _renormalized(p.kappa, [c * a + s * b for a, b in zip(p.xs, x)]))
    return q, [-delta * s * a + c * b for a, b in zip(p.xs, x)] if velocity else None


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
    x = v.xs
    vv = pair(x, x)
    moved = []
    for w in ws:
        beta = pair(w.xs, x) / vv if vv > 0.0 else 0.0
        moved.append(ModelVector(q, [beta * a + (b - beta * c) for a, b, c in zip(velocity, w.xs, x)]))
    return tuple(moved), ModelVector(q, velocity)


def parallel_transport(p: ModelPoint, v: ModelVector, l: float, w: ModelVector) -> ModelVector:
    """Transport ``w`` from p along the geodesic with initial velocity v."""
    return geodesic_transport(p, v, l, (w,))[0][0]


def _require_vector_at(p: ModelPoint, v: ModelVector) -> None:
    if not _same_point(v.base, p):
        raise GeometryError("vector is not based at the given point")


#: the coordinate axes of the embedding space, projected for the first frame leg
_AXES = ([1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0])


def _frame_legs(p: ModelPoint) -> tuple[list[float], list[float]]:
    """The coordinates of ``tangent_frame(p)`` as new lists of Python floats, unchecked.

    A caller that hands out a vector built from them checks that vector.
    """
    if p.kappa == 0:
        return [1.0, 0.0], [0.0, 1.0]
    pair = _pairing(p.kappa)
    # the longest projection, the first of equal lengths as max keeps it
    best = _project(p, _AXES[0])
    longest = pair(best, best)
    for axis in _AXES[1:]:
        c = _project(p, axis)
        length = pair(c, c)
        if length > longest:
            best, longest = c, length
    scale = math.sqrt(longest)
    a = [x / scale for x in best]
    return a, _cross(p.kappa, p.xs, a)


def tangent_frame(p: ModelPoint) -> tuple[ModelVector, ModelVector]:
    """Orthonormal tangent frame (a, Ja) at p, each leg checked.

    a is the unit tangent projection of the coordinate axis with the longest
    projection, the first one on a tie.  Any such frame differs from any other
    by a rotation, so constructions that only depend on the frame's
    orientation class are frame-independent.
    """
    a, ja = _frame_legs(p)
    return ModelVector(p, a), ModelVector(p, ja)


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
    return ModelVector(p, _project(p, rng.normal(size=len(p.xs)).tolist()))
