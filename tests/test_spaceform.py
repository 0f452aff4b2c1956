import dataclasses
import math
import types
import warnings
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

from prodform_geo import spaceform
from prodform_geo.spaceform import (
    CONSTRAINT_TOL,
    GeometryError,
    ModelPoint,
    ModelVector,
    _cross,
    complex_structure,
    exp_map,
    form,
    geodesic_transport,
    metric,
    parallel_transport,
    point_from_normals,
    random_point,
    random_tangent,
    tangent_from_normals,
    tangent_frame,
    tangent_project,
    zero_vector,
)


def sphere_point(x, y, z):
    return ModelPoint(1, np.array([x, y, z], dtype=float))


def hyper_point(x, y, z):
    return ModelPoint(-1, np.array([x, y, z], dtype=float))


def scaled_tangent(p, rng, scale):
    """A random tangent at p whose normal draw is scaled before the projection."""
    return ModelVector(p, tangent_project(p, scale * rng.normal(size=2 if p.kappa == 0 else 3)))


class TestMetric:
    def test_unit_vector_on_sphere(self):
        p = sphere_point(1, 0, 0)
        v = ModelVector(p, [0.0, 1.0, 0.0])
        assert metric(v, v) == 1.0

    def test_spacelike_vector_on_hyperboloid(self):
        p = hyper_point(1, 0, 0)
        v = ModelVector(p, [0.0, 1.0, 0.0])
        assert metric(v, v) == 1.0

    def test_raw_lorentz_form(self):
        # not tangent vectors; exercises the bilinear form itself
        assert form(-1, [1, 1, 0], [1, 0, 0]) == -1.0

    def test_mismatched_base_points_rejected(self):
        p = sphere_point(1, 0, 0)
        q = sphere_point(0, 1, 0)
        u = ModelVector(p, [0.0, 1.0, 0.0])
        v = ModelVector(q, [1.0, 0.0, 0.0])
        with pytest.raises(GeometryError):
            metric(u, v)

    def test_mismatched_kappa_rejected(self):
        u = ModelVector(sphere_point(1, 0, 0), [0.0, 1.0, 0.0])
        v = ModelVector(hyper_point(1, 0, 0), [0.0, 1.0, 0.0])
        with pytest.raises(GeometryError):
            metric(u, v)


class TestLorentzCross:
    def test_printed_formula(self):
        assert _cross(-1, [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]) == [0.0, 0.0, 1.0]

    def test_self_cross_vanishes(self):
        rng = np.random.default_rng(0)
        a = rng.normal(size=3).tolist()
        assert _cross(-1, a, a) == [0.0, 0.0, 0.0]

    def test_second_substitution(self):
        # direct substitution: (a3 b2 - a2 b3, a3 b1 - a1 b3, a1 b2 - a2 b1)
        assert _cross(-1, [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]) == [-1.0, 0.0, 0.0]


class TestComplexStructure:
    def test_flat_quarter_turn(self):
        p = ModelPoint(0, [3.0, 4.0])
        v = ModelVector(p, [1.0, 0.0])
        assert np.array_equal(complex_structure(v).coords, [0.0, 1.0])

    def test_sphere_cross_product(self):
        p = sphere_point(0, 0, 1)
        v = ModelVector(p, [1.0, 0.0, 0.0])
        assert np.allclose(complex_structure(v).coords, [0.0, 1.0, 0.0])

    def test_hyperboloid_lorentz_cross(self):
        p = hyper_point(1, 0, 0)
        v = ModelVector(p, [0.0, 1.0, 0.0])
        assert np.allclose(complex_structure(v).coords, [0.0, 0.0, 1.0])

    @pytest.mark.parametrize("kappa", [-1, 0, 1])
    def test_isometry_and_square(self, kappa):
        rng = np.random.default_rng(11)
        for _ in range(50):
            p = random_point(kappa, rng)
            v = random_tangent(p, rng)
            jv = complex_structure(v)
            assert abs(metric(jv, jv) - metric(v, v)) < 1e-12 * max(1.0, metric(v, v))
            jjv = complex_structure(jv)
            assert np.max(np.abs(jjv.coords + v.coords)) < 1e-12 * max(1.0, v.norm())

    def test_tangency_violation_rejected(self):
        p = sphere_point(1, 0, 0)
        with pytest.raises(GeometryError):
            ModelVector(p, [1.0, 1.0, 0.0])


class TestExpMap:
    def test_quarter_great_circle(self):
        p = sphere_point(1, 0, 0)
        v = ModelVector(p, [0.0, 1.0, 0.0])
        assert np.allclose(exp_map(p, v, math.pi / 2).coords, [0.0, 1.0, 0.0], atol=1e-15)

    def test_hyperbola_geodesic(self):
        p = hyper_point(1, 0, 0)
        v = ModelVector(p, [0.0, 1.0, 0.0])
        for t in (0.3, 1.7, -2.2):
            assert np.allclose(
                exp_map(p, v, t).coords, [math.cosh(t), math.sinh(t), 0.0], atol=1e-13
            )

    def test_flat_line(self):
        p = ModelPoint(0, [1.0, 2.0])
        v = ModelVector(p, [3.0, 0.0])
        assert np.array_equal(exp_map(p, v, 2.0).coords, [7.0, 2.0])

    def test_zero_velocity_stays_put(self):
        p = sphere_point(0, 1, 0)
        assert exp_map(p, zero_vector(p), 5.0) is p

    @pytest.mark.parametrize("kappa", [-1, 1])
    def test_quadric_constraint_after_flow(self, kappa):
        rng = np.random.default_rng(5)
        for _ in range(30):
            p = random_point(kappa, rng)
            v = scaled_tangent(p, rng, 0.8)
            q = exp_map(p, v, float(rng.uniform(-1.5, 1.5)))
            value = form(kappa, q.coords, q.coords)
            assert abs(value - kappa) < 1e-12

    @pytest.mark.parametrize("kappa", [-1, 0, 1])
    def test_velocity_norm_constant(self, kappa):
        rng = np.random.default_rng(6)
        p = random_point(kappa, rng)
        v = random_tangent(p, rng)
        v = v.scale(0.8 / v.norm())  # the flow operates on near-unit normals
        n0 = metric(v, v)
        for l in (0.0, 0.4, 1.2, -1.5):
            w = geodesic_transport(p, v, l)[1]
            assert abs(metric(w, w) - n0) < 1e-12 * max(1.0, n0)

    @pytest.mark.parametrize("kappa", [-1, 0, 1])
    def test_group_property(self, kappa):
        rng = np.random.default_rng(7)
        for _ in range(20):
            p = random_point(kappa, rng)
            v = scaled_tangent(p, rng, 0.6)
            s, t = rng.uniform(-1.5, 1.5, size=2)
            mid = exp_map(p, v, s)
            w = geodesic_transport(p, v, s)[1]
            two_step = exp_map(mid, w, t)
            one_step = exp_map(p, v, s + t)
            assert np.max(np.abs(two_step.coords - one_step.coords)) < 1e-10


class TestGeodesicVelocity:
    def test_flat_constant(self):
        p = ModelPoint(0, [0.0, 0.0])
        v = ModelVector(p, [2.0, -1.0])
        for l in (0.0, 1.0, 3.5):
            assert np.array_equal(geodesic_transport(p, v, l)[1].coords, [2.0, -1.0])

    def test_great_circle_derivative(self):
        p = sphere_point(1, 0, 0)
        v = ModelVector(p, [0.0, 1.0, 0.0])
        assert np.allclose(
            geodesic_transport(p, v, math.pi / 2)[1].coords, [-1.0, 0.0, 0.0], atol=1e-15
        )

    def test_hyperboloid_derivative(self):
        p = hyper_point(1, 0, 0)
        v = ModelVector(p, [0.0, 1.0, 0.0])
        t = 0.9
        assert np.allclose(
            geodesic_transport(p, v, t)[1].coords, [math.sinh(t), math.cosh(t), 0.0], atol=1e-13
        )


class TestParallelTransport:
    @pytest.mark.parametrize("kappa", [-1, 0, 1])
    def test_preserves_inner_products(self, kappa):
        rng = np.random.default_rng(8)
        for _ in range(20):
            p = random_point(kappa, rng)
            v = scaled_tangent(p, rng, 0.7)
            w1 = random_tangent(p, rng)
            w2 = random_tangent(p, rng)
            l = float(rng.uniform(-1.5, 1.5))
            t1 = parallel_transport(p, v, l, w1)
            t2 = parallel_transport(p, v, l, w2)
            assert abs(metric(t1, t2) - metric(w1, w2)) < 1e-12 * max(
                1.0, abs(metric(w1, w2))
            )

    @pytest.mark.parametrize("kappa", [-1, 1])
    def test_velocity_transports_to_velocity(self, kappa):
        rng = np.random.default_rng(9)
        p = random_point(kappa, rng)
        v = scaled_tangent(p, rng, 0.5)
        l = 1.3
        moved = parallel_transport(p, v, l, v)
        assert np.max(np.abs(moved.coords - geodesic_transport(p, v, l)[1].coords)) < 1e-12


class TestGeodesicOverflow:
    """cosh(1000) is past the largest float: the geodesics say so with a GeometryError."""

    @pytest.mark.parametrize(
        "run",
        [
            lambda p, v: exp_map(p, v, 1000.0),
            lambda p, v: geodesic_transport(p, v, 1000.0),
            lambda p, v: parallel_transport(p, v, 1000.0, v),
        ],
        ids=["exp_map", "geodesic_transport", "parallel_transport"],
    )
    def test_hyperboloid_overflow_is_a_geometry_error(self, run):
        p = hyper_point(1, 0, 0)
        v = ModelVector(p, [0.0, 1.0, 0.0])
        with pytest.raises(GeometryError, match="l = 1000.0"):
            run(p, v)


class TestConstraintEnforcement:
    @pytest.mark.parametrize("kappa", [-1, 1])
    def test_small_tangency_defect_kept(self, kappa):
        # a defect of 1e-10 times the scale is within CONSTRAINT_TOL, so the
        # coordinates are kept bit for bit, as a point near its quadric is
        rng = np.random.default_rng(31 + kappa)
        for _ in range(20):
            p = random_point(kappa, rng)
            w = scaled_tangent(p, rng, 10.0 ** rng.uniform(-3, 3)).coords
            scale = max(1.0, float(np.max(np.abs(w)))) * max(1.0, float(np.max(np.abs(p.coords))))
            # <p, p> = kappa, so w + d p has defect kappa d
            coords = w + 1e-10 * scale * p.coords
            v = ModelVector(p, coords)
            assert abs(form(kappa, p.coords, v.coords)) > 0.5e-10 * scale
            assert v.coords.tobytes() == coords.tobytes()

    def test_large_tangency_defect_rejected(self):
        p = sphere_point(1, 0, 0)
        with pytest.raises(GeometryError):
            ModelVector(p, [1e-3, 1.0, 0.0])

    def test_off_quadric_point_rejected(self):
        with pytest.raises(GeometryError):
            ModelPoint(1, [1.1, 0.0, 0.0])
        with pytest.raises(GeometryError):
            ModelPoint(-1, [-1.0, 0.0, 0.0])

    @pytest.mark.parametrize(
        "kappa, coords",
        [
            (0, [math.nan, 0.0]),
            (0, [0.0, math.inf]),
            (1, [math.nan, 0.0, 0.0]),
            (-1, [1.0, math.nan, 0.0]),
        ],
    )
    def test_non_finite_point_rejected(self, kappa, coords):
        with pytest.raises(GeometryError):
            ModelPoint(kappa, coords)

    @pytest.mark.parametrize(
        "point, coords",
        [
            ((0.0, 0.0, 1.0), [math.nan, 0.0, 0.0]),
            ((0.0, 0.0, 1.0), [math.inf, 0.0, 0.0]),
        ],
    )
    def test_non_finite_vector_rejected_on_sphere(self, point, coords):
        with pytest.raises(GeometryError, match="finite"):
            ModelVector(sphere_point(*point), coords)

    @pytest.mark.parametrize(
        "point, coords",
        [
            ((1.0, 0.0, 0.0), [0.0, math.nan, 0.0]),
            ((1.0, 0.0, 0.0), [0.0, math.inf, 0.0]),
        ],
    )
    def test_non_finite_vector_rejected_on_hyperboloid(self, point, coords):
        with pytest.raises(GeometryError, match="finite"):
            ModelVector(hyper_point(*point), coords)

    @pytest.mark.parametrize("coords", [[math.nan, 0.0], [math.inf, 1.0]])
    def test_non_finite_vector_rejected_in_plane(self, coords):
        with pytest.raises(GeometryError, match="finite"):
            ModelVector(ModelPoint(0, [0.5, -2.0]), coords)

    def test_tangent_frame_is_orthonormal(self):
        rng = np.random.default_rng(10)
        for kappa in (-1, 0, 1):
            p = random_point(kappa, rng)
            a, b = tangent_frame(p)
            assert abs(metric(a, a) - 1) < 1e-12
            assert abs(metric(b, b) - 1) < 1e-12
            assert abs(metric(a, b)) < 1e-12


# The expressions ModelVector, the Lorentz form and the Lorentz cross product
# evaluated with numpy reductions and numpy scalars before they moved to Python
# floats.  The Euclidean form is written out as its products summed left to
# right, as the factor form sums them, no longer as np.dot.  Every decision and
# every coordinate of the float versions must match them bit for bit.

def reference_form(kappa, a, b):
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if kappa == -1:
        return float(-a[0] * b[0] + a[1] * b[1] + a[2] * b[2])
    total = a[0] * b[0]
    for i in range(1, a.size):
        total = total + a[i] * b[i]
    return float(total)


def reference_cross(a, b):
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return np.array(
        [
            a[2] * b[1] - a[1] * b[2],
            a[2] * b[0] - a[0] * b[2],
            a[0] * b[1] - a[1] * b[0],
        ]
    )


def reference_vector(base, coords):
    """("reject" | "accept", coordinates) as the numpy version decides."""
    coords = np.asarray(coords, dtype=float)
    kappa = base.kappa
    if kappa == 0:
        return "accept", coords
    t = reference_form(kappa, base.coords, coords)
    scale = max(1.0, float(np.max(np.abs(coords)))) * max(
        1.0, float(np.max(np.abs(base.coords)))
    )
    if abs(t) > 1e-8 * scale:
        return "reject", None
    return "accept", coords


def constructed(base, coords):
    try:
        v = ModelVector(base, coords)
    except GeometryError:
        return "reject", None
    return "accept", v.coords


def defect_candidates(p, rng):
    """Tangents at p with normal defects near roundoff level and just below
    and above CONSTRAINT_TOL."""
    out = []
    for _ in range(8):
        w = scaled_tangent(p, rng, 10.0 ** rng.uniform(-3, 3)).coords
        out.append(w)
        if p.kappa == 0:
            continue
        scale = max(1.0, float(np.max(np.abs(w)))) * max(1.0, float(np.max(np.abs(p.coords))))
        for threshold in (64.0 * np.finfo(float).eps, 1e-8):
            for factor in (0.45, 0.5, 0.55, 0.99, 1.01, 2.0):
                # <p, p> = kappa, so w + d p has defect kappa d
                out.append(w + factor * threshold * scale * p.coords)
    return out


def reference_vector_outcome(base, coords):
    """The coordinate bytes of the vector stored as
    ``np.asarray(coords, dtype=float)``, or the error it was rejected with."""
    coords = np.asarray(coords, dtype=float)
    if coords.shape != base.coords.shape:
        raise GeometryError("vector and base point dimensions differ")
    if not np.all(np.isfinite(coords)):
        raise GeometryError(f"tangent vector coordinates must be finite, got {coords.tolist()}")
    if reference_vector(base, coords)[0] == "reject":
        t = reference_form(base.kappa, base.coords, coords)
        raise GeometryError(f"vector is not tangent at its base point (defect {t!r})")
    return coords.tobytes()


#: a point of each factor, a tangent there and an integer tangent there
BOUNDARY_BASES = {
    1: ([0.6, 0.8, 0.0], [0.8, -0.6, 0.25], [4, -3, 7]),
    -1: ([1.25, 0.75, 0.0], [0.6, 1.0, 0.3], [3, 5, 2]),
    0: ([0.5, -2.0], [0.8, -0.6], [1, -2]),
}

#: each input kind built from (point, tangent, integer tangent)
BOUNDARY_INPUTS = {
    "list": lambda p, t, n: list(t),
    "tuple": lambda p, t, n: tuple(t),
    "ndarray": lambda p, t, n: np.array(t),
    "float32 ndarray": lambda p, t, n: np.array(t, dtype=np.float32),
    "np.float64 list": lambda p, t, n: [np.float64(x) for x in t],
    "int list": lambda p, t, n: list(n),
    "int ndarray": lambda p, t, n: np.array(n),
    "Fraction list": lambda p, t, n: [Fraction(str(x)) for x in t],
    "Decimal list": lambda p, t, n: [Decimal(str(x)) for x in t],
    "mixed list": lambda p, t, n: [Fraction(str(t[0])), np.float64(t[1]), *t[2:]],
    "nan": lambda p, t, n: [math.nan, *t[1:]],
    "inf": lambda p, t, n: [*t[:-1], math.inf],
    "-inf ndarray": lambda p, t, n: np.array([-math.inf, *t[1:]]),
    "Decimal NaN": lambda p, t, n: [Decimal("NaN"), *t[1:]],
    "short": lambda p, t, n: list(t[:-1]),
    "long": lambda p, t, n: [*t, 0.0],
    "empty": lambda p, t, n: [],
    "scalar": lambda p, t, n: 0.5,
    "nested": lambda p, t, n: [list(t)],
    "column": lambda p, t, n: [[x] for x in t],
    "ragged": lambda p, t, n: [list(t), [1.0]],
    "non-tangent": lambda p, t, n: [x + 1e-3 * y for x, y in zip(t, p)],
}


class TestFloatValidationEquivalence:
    @pytest.mark.parametrize("kappa", [-1, 0, 1])
    @pytest.mark.parametrize("kind", list(BOUNDARY_INPUTS))
    def test_every_input_kind_matches_reference(self, kappa, kind):
        point, tangent, integers = BOUNDARY_BASES[kappa]
        base = ModelPoint(kappa, point)
        coords = BOUNDARY_INPUTS[kind](point, tangent, integers)
        want = outcome(lambda: reference_vector_outcome(base, coords))
        got = outcome(lambda: ModelVector(base, coords))
        if want[0] != "ok":
            assert got == want
            return
        v = got[1]
        assert v.coords.tobytes() == want[1]
        assert type(v.xs) is list and all(type(x) is float for x in v.xs)

    @pytest.mark.parametrize("kappa", [-1, 0, 1])
    def test_decisions_and_coordinates_match_reference(self, kappa):
        rng = np.random.default_rng(2024 + kappa)
        seen = set()
        for _ in range(60):
            p = random_point(kappa, rng)
            for coords in defect_candidates(p, rng):
                want, want_coords = reference_vector(p, coords)
                got, got_coords = constructed(p, coords)
                assert got == want
                if want != "reject":
                    assert np.array_equal(got_coords, want_coords)
                seen.add(want)
        assert seen == ({"accept"} if kappa == 0 else {"accept", "reject"})

    @pytest.mark.parametrize("kappa", [-1, 1])
    def test_forms_match_reference(self, kappa):
        rng = np.random.default_rng(77)
        for _ in range(200):
            a, b = rng.normal(size=(2, 3)) * 10.0 ** rng.uniform(-3, 3)
            assert form(kappa, a, b) == reference_form(kappa, a, b)
            assert np.array_equal(_cross(-1, a.tolist(), b.tolist()), reference_cross(a, b))

    def test_sphere_complex_structure_is_numpy_cross(self):
        rng = np.random.default_rng(78)
        for _ in range(200):
            p = random_point(1, rng)
            v = scaled_tangent(p, rng, 10.0 ** rng.uniform(-3, 3))
            want = ModelVector(p, np.cross(p.coords, v.coords))
            assert np.array_equal(complex_structure(v).coords, want.coords)


def negation_candidates(p, rng):
    """Vectors at p: defect_candidates, and for a pole of the quadric or the
    flat origin, coordinates with -0.0 entries."""
    out = defect_candidates(p, rng)
    if p.kappa == 0 or np.count_nonzero(p.coords) == 1:
        dim = p.coords.size
        out += [np.full(dim, -0.0), np.array([-0.0, 1.5, -0.0][:dim]), np.array([-2.5, -0.0, -0.0][:dim])]
    return out


class TestNegation:
    """A vector negates without a second check; the result must be what the
    check gives."""

    POINTS = {
        -1: [hyper_point(1.0, 0.0, 0.0)],
        0: [ModelPoint(0, [0.0, 0.0])],
        1: [sphere_point(0.0, 0.0, 1.0), sphere_point(1.0, 0.0, 0.0)],
    }

    @pytest.mark.parametrize("kappa", [-1, 0, 1])
    def test_negation_is_the_checked_negation(self, kappa, monkeypatch):
        rng = np.random.default_rng(90 + kappa)
        points = self.POINTS[kappa] + [random_point(kappa, rng) for _ in range(40)]
        original = spaceform._tangent_check
        calls = []

        def counting(base, coords):
            calls.append(coords)
            return original(base, coords)

        monkeypatch.setattr(spaceform, "_tangent_check", counting)
        for p in points:
            for coords in negation_candidates(p, rng):
                try:
                    v = ModelVector(p, coords)
                except GeometryError:
                    continue
                want = ModelVector(p, -np.asarray(coords))
                calls.clear()
                minus = -v
                assert calls == []
                assert minus.base is p
                assert minus.coords.tobytes() == want.coords.tobytes()
                assert (-minus).coords.tobytes() == v.coords.tobytes()

    @pytest.mark.parametrize("kappa", [-1, 1])
    def test_defects_below_the_tolerance_negate_exactly(self, kappa):
        rng = np.random.default_rng(95 + kappa)
        for _ in range(100):
            p = random_point(kappa, rng)
            w = scaled_tangent(p, rng, 10.0 ** rng.uniform(-3, 3)).coords
            scale = max(1.0, float(np.max(np.abs(w)))) * max(1.0, float(np.max(np.abs(p.coords))))
            t = form(kappa, p.coords, w)
            # defects just under CONSTRAINT_TOL
            for factor in (0.3, 0.45, 0.55, 0.9):
                # <p, p> = kappa, so w + d p has defect t + kappa d
                coords = w + kappa * (factor * CONSTRAINT_TOL * scale - t) * p.coords
                v = ModelVector(p, coords)
                assert v.coords.tobytes() == coords.tobytes()
                assert (-v).coords.tobytes() == ModelVector(p, -coords).coords.tobytes()
                assert (-(-v)).coords.tobytes() == v.coords.tobytes()

    def test_fields_and_repr_show_the_stored_floats(self):
        p = sphere_point(0.0, 0.0, 1.0)
        v = ModelVector(p, [1.0, -0.0, 0.0])
        assert [f.name for f in dataclasses.fields(ModelVector)] == ["base", "xs"]
        assert (-v).xs == [-1.0, 0.0, -0.0]
        for u in (v, -v):
            assert type(u.xs) is list and all(type(x) is float for x in u.xs)
            assert repr(u) == f"ModelVector(base={p!r}, xs={u.xs!r})"
            assert u.coords.tobytes() == np.array(u.xs).tobytes()


# ModelPoint's checks as a __post_init__ on numpy arrays and scalars, before
# they ran once on the point's Python floats, and its storage as that version
# kept it: the coordinate ndarray, with the floats and their scale beside it.
# The quadric is written out as kappa <p, p> with the products summed left to
# right on Python floats, as the factor form sums them, no longer as np.dot
# (sphere) or numpy's scalar powers (hyperboloid).  Every verdict and message
# of the stored-float version must match it, and its xs, _scale and derived
# coords must be the reference's bit for bit.


def reference_point(kappa, coords):
    """The point as the numpy version checked and stored it: kappa, the
    ``coords`` ndarray, and the coordinates ``xs`` as Python floats with
    their ``_scale``."""
    self = types.SimpleNamespace(kappa=kappa, coords=coords)
    if self.kappa not in spaceform.KAPPAS:
        raise GeometryError(f"kappa must be in {spaceform.KAPPAS}, got {self.kappa}")
    coords = self.coords = np.asarray(self.coords, dtype=float)
    dim = 2 if self.kappa == 0 else 3
    if coords.shape != (dim,):
        raise GeometryError(f"kappa={self.kappa} point needs {dim} coordinates, got shape {coords.shape}")
    if self.kappa == 0:
        if not (math.isfinite(coords[0]) and math.isfinite(coords[1])):
            raise GeometryError(f"flat point coordinates must be finite, got {coords.tolist()}")
        x0, x1 = self.xs = coords.tolist()
        self._scale = max(1.0, abs(x0), abs(x1))
        return self
    c0, c1, c2 = coords.tolist()
    if self.kappa == 1:
        q = c0 * c0 + c1 * c1 + c2 * c2
    else:
        # x0*x0 - x1*x1 - x2*x2 up to the sign of a zero
        q = -(-c0 * c0 + c1 * c1 + c2 * c2)
    if not abs(q - 1.0) <= spaceform.CONSTRAINT_TOL:
        raise GeometryError(f"coordinates violate the kappa={self.kappa} quadric: q={q!r}")
    if self.kappa == -1 and coords[0] <= 0:
        raise GeometryError("hyperboloid points must have positive first coordinate")
    x0, x1, x2 = self.xs = coords.tolist()
    self._scale = max(1.0, abs(x0), abs(x1), abs(x2))
    return self


def outcome(fn):
    """("ok", value) or (exception type, message), with numpy's warnings raised."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            return "ok", fn()
        except Exception as exc:  # the exception is the outcome compared
            return type(exc), str(exc)


def float_bytes(xs):
    """A list of Python floats by its bytes, signed zeros apart."""
    assert type(xs) is list and all(type(x) is float for x in xs)
    return np.array(xs).tobytes()


def assert_same_point(kappa, coords):
    want = outcome(lambda: reference_point(kappa, coords))
    got = outcome(lambda: ModelPoint(kappa, coords))
    if want[0] != "ok":
        assert got == want
        return
    assert got[0] == "ok"
    p, ref = got[1], want[1]
    assert sorted(vars(p)) == ["_scale", "kappa", "xs"]
    assert (type(p.kappa), p.kappa) == (type(ref.kappa), ref.kappa)
    assert float_bytes(p.xs) == float_bytes(ref.xs)
    assert p._scale.hex() == ref._scale.hex()
    assert (p.coords.dtype, p.coords.shape, p.coords.tobytes()) == (ref.coords.dtype, ref.coords.shape, ref.coords.tobytes())
    # the fields are kappa and xs: repr shows the floats, == compares them
    # (the ndarray field made p == twin raise ValueError), and hashing still
    # raises TypeError, now on the list
    assert repr(p) == f"ModelPoint(kappa={kappa!r}, xs={ref.xs!r})"
    twin = ModelPoint(kappa, np.array(coords, dtype=float))
    assert outcome(lambda: p == p) == outcome(lambda: p == twin) == ("ok", True)
    assert outcome(lambda: hash(p)) == (TypeError, "unhashable type: 'list'")


def on_sphere_with_quadric(x, q):
    """x scaled so that its np.dot quadric is about q."""
    x = np.asarray(x, dtype=float)
    return x * math.sqrt(q / float(np.dot(x, x)))


def on_hyperboloid_with_quadric(y, q):
    """The point over y in the (x1, x2) plane with x0^2 - |y|^2 about q."""
    y0, y1 = y
    return np.array([math.sqrt(q + y0 * y0 + y1 * y1), y0, y1])


def straddling_sphere_points(bound):
    """Sphere points whose float sum and np.dot quadric fall on opposite
    sides of 1 + bound, for each order of the two."""
    rng = np.random.default_rng(5)
    found = {}
    while len(found) < 2:
        x = on_sphere_with_quadric(rng.normal(size=3), 1.0 + bound)
        for k in range(-6, 7):
            y = x.copy()
            y[0] += k * math.ulp(x[0])
            x0, x1, x2 = y.tolist()
            inside_sum = abs(x0 * x0 + x1 * x1 + x2 * x2 - 1.0) <= bound
            inside_dot = abs(float(np.dot(y, y)) - 1.0) <= bound
            if inside_sum != inside_dot:
                found.setdefault(inside_sum, y)
    return list(found.values())


class TestPointChecksMatchReference:
    TOL = 1e-8

    @pytest.mark.parametrize(
        "kappa, coords",
        [
            (2, [1.0, 0.0, 0.0]),
            (0.5, [1.0, 0.0]),
            (-2, [1.0, 0.0, 0.0]),
            (1, [1.0, 0.0]),
            (0, [1.0, 0.0, 0.0]),
            (-1, [[1.0, 0.0, 0.0]]),
            (-1, 1.0),
            (-1, [-math.sqrt(1.25), 0.5, 0.0]),
            (-1, [-1.0, 0.0, 0.0]),
            (-1, [-0.0, 0.0, 0.0]),
            (1, [1.1, 0.0, 0.0]),
            (-1, [1e200, 0.0, 0.0]),
            (-1, [1e200, 1e200, 0.0]),
            (1, [1e200, 0.0, 0.0]),
            (-1, [math.inf, math.inf, 0.0]),
        ],
    )
    def test_rejections(self, kappa, coords):
        assert_same_point(kappa, coords)

    @pytest.mark.parametrize("kappa", [-1, 0, 1])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_coordinates(self, kappa, bad):
        base = [1.0, 0.0] if kappa == 0 else [1.0, 0.0, 0.0]
        for i in range(len(base)):
            coords = list(base)
            coords[i] = bad
            assert_same_point(kappa, coords)

    @pytest.mark.parametrize("factor", [0.5, 0.999, 1.001, 2.0])
    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_quadric_just_inside_and_outside(self, factor, sign):
        rng = np.random.default_rng(int(1000 * factor) + int(sign))
        q = 1.0 + sign * factor * self.TOL
        for _ in range(50):
            assert_same_point(1, on_sphere_with_quadric(rng.normal(size=3), q))
            assert_same_point(-1, on_hyperboloid_with_quadric(rng.normal(size=2), q))

    def test_sphere_points_straddling_half_the_constraint(self):
        for coords in straddling_sphere_points(0.5 * self.TOL):
            assert_same_point(1, coords)
            # within CONSTRAINT_TOL by either sum, so accepted
            ModelPoint(1, coords)

    @pytest.mark.parametrize(
        "coords",
        [
            # numpy's x0**2 - x1**2 - x2**2 is just below 1 + 1e-8, the float sum just above it
            [36.076694163313825, 18.276407873645326, 31.088595609635327],
            # and the other way round
            [3.313081794749694, 2.9886075242841557, -1.0221232971094942],
        ],
    )
    def test_hyperboloid_quadric_near_the_constraint(self, coords):
        assert_same_point(-1, coords)

    @pytest.mark.parametrize(
        "kappa, coords, q",
        [
            # too large to square: the quadric is inf or NaN, with no numpy warning
            (1, [1e200, 0.0, 0.0], "inf"),
            (-1, [1e200, 0.0, 0.0], "inf"),
            (-1, [1e200, 1e200, 0.0], "nan"),
            (-1, [math.inf, math.inf, 0.0], "nan"),
            # sphere points on either side of 1 + 1e-8 by the float sum,
            # found where np.dot put them on the other side
            (1, [0.3456726009065299, 0.9340102445763498, 0.09019604209133655], None),
            (1, [-0.5107937461838787, 0.8528742771826341, 0.10814446902009696], "1.0000000100000002"),
            # hyperboloid points on either side of 1 + 1e-8 by the float sum
            # and on the other side by numpy's powers
            (-1, [36.076694163313825, 18.276407873645326, 31.088595609635327], "1.000000010000008"),
            (-1, [3.313081794749694, 2.9886075242841557, -1.0221232971094942], None),
        ],
    )
    def test_float_form_verdicts(self, kappa, coords, q):
        got = outcome(lambda: ModelPoint(kappa, coords))
        if q is None:
            assert got[0] == "ok"
        else:
            assert got == (GeometryError, f"coordinates violate the kappa={kappa} quadric: q={q}")

    @pytest.mark.parametrize("kappa", [-1, 0, 1])
    def test_random_points(self, kappa):
        rng = np.random.default_rng(300 + kappa)
        for _ in range(1000):
            coords = random_point(kappa, rng).coords
            if kappa == 0:
                coords = coords * 10.0 ** rng.uniform(-3, 3)
            assert_same_point(kappa, coords)

    @pytest.mark.parametrize(
        "kappa, coords",
        [
            (0, [-0.0, -0.0]),
            (0, [-0.0, 3.0]),
            (1, [-0.0, -0.0, 1.0]),
            (1, [-1.0, -0.0, 0.0]),
            (-1, [1.0, -0.0, -0.0]),
            (-1, [math.sqrt(2.0), -0.0, -1.0]),
            (1.0, [0.0, 1.0, -0.0]),
        ],
    )
    def test_negative_zero_coordinates(self, kappa, coords):
        assert_same_point(kappa, coords)
        assert_same_point(kappa, np.array(coords))


class TestPointsOwnTheirFloats:
    """A point keeps a copy of a list of Python floats it is given, so a
    later change to that list moves no checked point."""

    @pytest.mark.parametrize(
        "kappa, coords, moved",
        [(1, [0.0, 0.0, 1.0], 5.0), (-1, [1.0, 0.0, 0.0], 5.0), (0, [0.5, -2.0], math.nan)],
    )
    def test_a_change_to_the_input_list_moves_no_point(self, kappa, coords, moved):
        c = list(coords)
        p = ModelPoint(kappa, c)
        c[-1] = moved
        assert p.xs is not c
        assert float_bytes(p.xs) == float_bytes(coords)
        assert p.coords.tobytes() == np.array(coords).tobytes()
        # still on its quadric (or finite), and a tangent there is judged at the checked point
        assert_same_point(kappa, p.xs)
        w = [0.0, 1.0] if kappa == 0 else [0.0, 1.0, 0.0]
        assert ModelVector(p, w).xs == w
        if kappa:
            with pytest.raises(GeometryError, match="not tangent"):
                ModelVector(p, coords)

    def test_fields_and_repr_show_the_stored_floats(self):
        p = ModelPoint(1, [-0.0, 0.0, 1.0])
        assert [f.name for f in dataclasses.fields(ModelPoint)] == ["kappa", "xs"]
        assert repr(p) == "ModelPoint(kappa=1, xs=[-0.0, 0.0, 1.0])"
        assert p.coords.tobytes() == np.array([-0.0, 0.0, 1.0]).tobytes()
        # the ndarray is formed on each read, so writing to it moves nothing
        p.coords[2] = 5.0
        assert p.xs == [-0.0, 0.0, 1.0]


class TestVectorsOwnTheirFloats:
    """A vector keeps a copy of a list of Python floats it is given, as a
    point does, so a later change to that list moves no checked vector."""

    def test_a_change_to_the_input_list_moves_no_vector(self):
        c = [0.0, 1.0, 0.0]
        v = ModelVector(ModelPoint(1, [0.0, 0.0, 1.0]), c)
        c[2] = 5.0
        assert v.xs == [0.0, 1.0, 0.0]
        assert v.xs is not c

    @pytest.mark.parametrize("kappa, coords", [(1, [0.0, 1.0, 0.0]), (-1, [0.0, 1.0, 0.0]), (0, [0.5, -2.0])])
    def test_the_check_returns_a_copy(self, kappa, coords):
        p = ModelPoint(kappa, [1.0, 0.0, 0.0] if kappa == -1 else [0.0, 0.0, 1.0] if kappa else [0.0, 0.0])
        xs = spaceform._tangent_check(p, coords)
        assert xs == coords and xs is not coords


# The fused checks against the verdicts and literal messages of the ordered
# tests alone: wrong lengths, non-finite coordinates, and tangency defects
# one ulp either side of CONSTRAINT_TOL times the scale (the bound itself is
# accepted).  On (0, 0, 1) and (1, 0, 0) the defect of the rows below is
# exactly their coordinate d; a vector 4.0 long has scale 4, beyond the
# point's share of it, 1.
_UP, _DOWN = (lambda x: math.nextafter(x, math.inf)), (lambda x: math.nextafter(x, 0.0))
_B1, _B4 = CONSTRAINT_TOL, CONSTRAINT_TOL * 4.0
_LENGTH = (GeometryError, "vector and base point dimensions differ")
_DEFECT = "vector is not tangent at its base point (defect {})"
_FINITE = "tangent vector coordinates must be finite, got {}"

FUSED_VECTOR_TABLE = {
    1: (
        [0.0, 0.0, 1.0],
        [
            ([0.5, 0.0], _LENGTH),
            (0.5, _LENGTH),
            (np.array([[0.5, 0.0, 0.0]]), _LENGTH),
            ([math.nan, 0.5, 0.0], (GeometryError, _FINITE.format("[nan, 0.5, 0.0]"))),
            ([0.5, math.inf, 0.0], (GeometryError, _FINITE.format("[0.5, inf, 0.0]"))),
            ([0.5, 0.0, -math.inf], (GeometryError, _FINITE.format("[0.5, 0.0, -inf]"))),
            ([0.5, 0.0, _DOWN(_B1)], "ok"),
            ([0.5, 0.0, _B1], "ok"),
            ([0.5, 0.0, _UP(_B1)], (GeometryError, _DEFECT.format("1.0000000000000002e-08"))),
            ([4.0, 0.0, _DOWN(_B4)], "ok"),
            ([4.0, 0.0, _UP(_B4)], (GeometryError, _DEFECT.format("4.000000000000001e-08"))),
        ],
    ),
    -1: (
        [1.0, 0.0, 0.0],
        [
            ([0.0, 0.5], _LENGTH),
            (0.5, _LENGTH),
            (np.array([[0.0, 0.5, 0.0]]), _LENGTH),
            ([0.0, math.nan, 0.5], (GeometryError, _FINITE.format("[0.0, nan, 0.5]"))),
            ([math.inf, 0.5, 0.0], (GeometryError, _FINITE.format("[inf, 0.5, 0.0]"))),
            ([0.0, 0.5, -math.inf], (GeometryError, _FINITE.format("[0.0, 0.5, -inf]"))),
            ([-_DOWN(_B1), 0.5, 0.0], "ok"),
            ([-_B1, 0.5, 0.0], "ok"),
            ([-_UP(_B1), 0.5, 0.0], (GeometryError, _DEFECT.format("1.0000000000000002e-08"))),
            ([_DOWN(_B4), 4.0, 0.0], "ok"),
            ([_UP(_B4), 4.0, 0.0], (GeometryError, _DEFECT.format("-4.000000000000001e-08"))),
        ],
    ),
    0: (
        [0.5, -2.0],
        [
            ([0.5, 0.0, 0.0], _LENGTH),
            (0.5, _LENGTH),
            (np.array([[0.5, 0.0]]), _LENGTH),
            ([math.nan, 0.5], (GeometryError, _FINITE.format("[nan, 0.5]"))),
            ([0.5, math.inf], (GeometryError, _FINITE.format("[0.5, inf]"))),
            ([-math.inf, 0.5], (GeometryError, _FINITE.format("[-inf, 0.5]"))),
            ([1e300, -1e300], "ok"),
        ],
    ),
}

#: the quadric one float either side of its bound, q = 1 +- CONSTRAINT_TOL,
#: as (0, 0, z) on the sphere and (z, 0, 0) on the hyperboloid, both q = z*z
_QUADRIC_Z = [
    (1.000000005, None),
    (1.0000000050000002, "1.0000000100000004"),
    (0.999999995, None),
    (0.9999999949999999, "0.9999999899999998"),
]
_QUADRIC = "coordinates violate the kappa={} quadric: q={}"

FUSED_POINT_TABLE = [
    *((1, [0.0, 0.0, z], "ok" if q is None else (GeometryError, _QUADRIC.format(1, q))) for z, q in _QUADRIC_Z),
    *((-1, [z, 0.0, 0.0], "ok" if q is None else (GeometryError, _QUADRIC.format(-1, q))) for z, q in _QUADRIC_Z),
    (1, [0.0, 1.0], (GeometryError, "kappa=1 point needs 3 coordinates, got shape (2,)")),
    (1, 1.0, (GeometryError, "kappa=1 point needs 3 coordinates, got shape ()")),
    (1, np.array([[0.0, 0.0, 1.0]]), (GeometryError, "kappa=1 point needs 3 coordinates, got shape (1, 3)")),
    (1, [0.0, math.inf, 0.0], (GeometryError, _QUADRIC.format(1, "inf"))),
    (-1, [-1.0, 0.0, 0.0], (GeometryError, "hyperboloid points must have positive first coordinate")),
    (-1, [1.0, math.nan, 0.0], (GeometryError, _QUADRIC.format(-1, "nan"))),
    (-1, [math.inf, 0.0, 0.0], (GeometryError, _QUADRIC.format(-1, "inf"))),
    (0, [0.5, 0.0, 0.0], (GeometryError, "kappa=0 point needs 2 coordinates, got shape (3,)")),
    (0, 2.0, (GeometryError, "kappa=0 point needs 2 coordinates, got shape ()")),
    (0, np.array([[0.5, 0.0]]), (GeometryError, "kappa=0 point needs 2 coordinates, got shape (1, 2)")),
    (0, [0.5, math.nan], (GeometryError, "flat point coordinates must be finite, got [0.5, nan]")),
    (0, [-math.inf, 0.5], (GeometryError, "flat point coordinates must be finite, got [-inf, 0.5]")),
]


class TestFusedChecksTable:
    @pytest.mark.parametrize(
        "kappa, coords, want",
        [(kappa, coords, want) for kappa, (_, rows) in FUSED_VECTOR_TABLE.items() for coords, want in rows],
    )
    def test_vector(self, kappa, coords, want):
        base = ModelPoint(kappa, FUSED_VECTOR_TABLE[kappa][0])
        got = outcome(lambda: ModelVector(base, coords))
        if want == "ok":
            assert got[0] == "ok" and float_bytes(got[1].xs) == float_bytes(coords)
        else:
            assert got == want

    @pytest.mark.parametrize("kappa, coords, want", FUSED_POINT_TABLE)
    def test_point(self, kappa, coords, want):
        got = outcome(lambda: ModelPoint(kappa, coords))
        if want == "ok":
            assert got[0] == "ok" and float_bytes(got[1].xs) == float_bytes(coords)
        else:
            assert got == want


@pytest.mark.parametrize("kappa", [-1, 0, 1])
def test_random_points_are_the_numpy_draws_bitwise(kappa):
    """random_point on Python floats gives the coordinates its numpy form
    gave; random_point and random_tangent are point_from_normals and
    tangent_from_normals on the normals they draw, bit for bit, also where
    those normals are row slices of a 2-D block at odd offsets."""
    rng, twin = np.random.default_rng(60 + kappa), np.random.default_rng(60 + kappa)
    for _ in range(500):
        if kappa == 0:
            want = twin.normal(size=2)
        elif kappa == 1:
            x = twin.normal(size=3)
            want = x / np.linalg.norm(x)
        else:
            y = twin.normal(size=2)
            want = np.array([math.sqrt(1.0 + y @ y), y[0], y[1]])
        assert float_bytes(random_point(kappa, rng).xs) == want.tobytes()

    n_point, n_tangent = (3 if kappa == 1 else 2), (2 if kappa == 0 else 3)
    rng, twin = np.random.default_rng(70 + kappa), np.random.default_rng(70 + kappa)
    # a row: one normal no one uses, the point's, then the tangent's
    block = twin.normal(size=(500, 1 + n_point + n_tangent))
    for row in block:
        rng.normal(size=1)
        p = random_point(kappa, rng)
        v = random_tangent(p, rng)
        q = point_from_normals(kappa, row[1 : 1 + n_point])
        w = tangent_from_normals(q, row[1 + n_point :])
        assert float_bytes(p.xs) == float_bytes(q.xs)
        assert float_bytes(v.xs) == float_bytes(w.xs)
