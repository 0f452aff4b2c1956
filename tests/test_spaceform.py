import math

import numpy as np
import pytest

from prodform_geo.spaceform import (
    GeometryError,
    ModelPoint,
    ModelVector,
    complex_structure,
    exp_map,
    form,
    geodesic_velocity,
    lorentz_cross,
    lorentz_form,
    metric,
    parallel_transport,
    random_point,
    random_tangent,
    tangent_frame,
    zero_vector,
)


def sphere_point(x, y, z):
    return ModelPoint(1, np.array([x, y, z], dtype=float))


def hyper_point(x, y, z):
    return ModelPoint(-1, np.array([x, y, z], dtype=float))


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
        assert lorentz_form([1, 1, 0], [1, 0, 0]) == -1.0

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
        assert np.array_equal(lorentz_cross([1, 0, 0], [0, 1, 0]), [0.0, 0.0, 1.0])

    def test_self_cross_vanishes(self):
        rng = np.random.default_rng(0)
        a = rng.normal(size=3)
        assert np.array_equal(lorentz_cross(a, a), np.zeros(3))

    def test_second_substitution(self):
        # direct substitution: (a3 b2 - a2 b3, a3 b1 - a1 b3, a1 b2 - a2 b1)
        assert np.array_equal(lorentz_cross([0, 1, 0], [0, 0, 1]), [-1.0, 0.0, 0.0])


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
            v = random_tangent(p, rng, scale=0.8)
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
            w = geodesic_velocity(p, v, l)
            assert abs(metric(w, w) - n0) < 1e-12 * max(1.0, n0)

    @pytest.mark.parametrize("kappa", [-1, 0, 1])
    def test_group_property(self, kappa):
        rng = np.random.default_rng(7)
        for _ in range(20):
            p = random_point(kappa, rng)
            v = random_tangent(p, rng, scale=0.6)
            s, t = rng.uniform(-1.5, 1.5, size=2)
            mid = exp_map(p, v, s)
            w = geodesic_velocity(p, v, s)
            two_step = exp_map(mid, w, t)
            one_step = exp_map(p, v, s + t)
            assert np.max(np.abs(two_step.coords - one_step.coords)) < 1e-10


class TestGeodesicVelocity:
    def test_flat_constant(self):
        p = ModelPoint(0, [0.0, 0.0])
        v = ModelVector(p, [2.0, -1.0])
        for l in (0.0, 1.0, 3.5):
            assert np.array_equal(geodesic_velocity(p, v, l).coords, [2.0, -1.0])

    def test_great_circle_derivative(self):
        p = sphere_point(1, 0, 0)
        v = ModelVector(p, [0.0, 1.0, 0.0])
        assert np.allclose(
            geodesic_velocity(p, v, math.pi / 2).coords, [-1.0, 0.0, 0.0], atol=1e-15
        )

    def test_hyperboloid_derivative(self):
        p = hyper_point(1, 0, 0)
        v = ModelVector(p, [0.0, 1.0, 0.0])
        t = 0.9
        assert np.allclose(
            geodesic_velocity(p, v, t).coords, [math.sinh(t), math.cosh(t), 0.0], atol=1e-13
        )


class TestParallelTransport:
    @pytest.mark.parametrize("kappa", [-1, 0, 1])
    def test_preserves_inner_products(self, kappa):
        rng = np.random.default_rng(8)
        for _ in range(20):
            p = random_point(kappa, rng)
            v = random_tangent(p, rng, scale=0.7)
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
        v = random_tangent(p, rng, scale=0.5)
        l = 1.3
        moved = parallel_transport(p, v, l, v)
        assert np.max(np.abs(moved.coords - geodesic_velocity(p, v, l).coords)) < 1e-12


class TestConstraintEnforcement:
    def test_small_tangency_defect_projected(self):
        p = sphere_point(1, 0, 0)
        v = ModelVector(p, [1e-10, 1.0, 0.0])
        assert abs(form(1, p.coords, v.coords)) < 1e-15

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

    def test_tangent_frame_is_orthonormal(self):
        rng = np.random.default_rng(10)
        for kappa in (-1, 0, 1):
            p = random_point(kappa, rng)
            a, b = tangent_frame(p)
            assert abs(metric(a, a) - 1) < 1e-12
            assert abs(metric(b, b) - 1) < 1e-12
            assert abs(metric(a, b)) < 1e-12
