import dataclasses
import math

import numpy as np
import pytest

from prodform_geo import spaceform
from prodform_geo.spaceform import (
    FILTER_TOL,
    ROUNDOFF_TOL,
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


class TestGeodesicOverflow:
    """cosh(1000) is past the largest float: the geodesics say so with a GeometryError."""

    @pytest.mark.parametrize(
        "run",
        [
            lambda p, v: exp_map(p, v, 1000.0),
            lambda p, v: geodesic_velocity(p, v, 1000.0),
            lambda p, v: parallel_transport(p, v, 1000.0, v),
        ],
        ids=["exp_map", "geodesic_velocity", "parallel_transport"],
    )
    def test_hyperboloid_overflow_is_a_geometry_error(self, run):
        p = hyper_point(1, 0, 0)
        v = ModelVector(p, [0.0, 1.0, 0.0])
        with pytest.raises(GeometryError, match="l = 1000.0"):
            run(p, v)


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


# The expressions ModelVector, lorentz_form and lorentz_cross evaluated with
# numpy reductions and numpy scalars before they moved to Python floats.  Every
# decision and every coordinate of the float versions must match them bit for
# bit.

REFERENCE_ROUNDOFF = 64.0 * np.finfo(float).eps


def reference_form(kappa, a, b):
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if kappa == -1:
        return float(-a[0] * b[0] + a[1] * b[1] + a[2] * b[2])
    return float(np.dot(a, b))


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
    """("reject" | "accept" | "project", coordinates) as the numpy version decides."""
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
    if abs(t) > REFERENCE_ROUNDOFF * scale:
        return "project", coords - kappa * t * base.coords
    return "accept", coords


def constructed(base, coords):
    try:
        v = ModelVector(base, coords)
    except GeometryError:
        return "reject", None
    return ("accept" if np.array_equal(v.coords, coords) else "project"), v.coords


def defect_candidates(p, rng):
    """Tangents at p with normal defects just below and above both thresholds."""
    out = []
    for _ in range(8):
        w = random_tangent(p, rng, scale=10.0 ** rng.uniform(-3, 3)).coords
        out.append(w)
        if p.kappa == 0:
            continue
        scale = max(1.0, float(np.max(np.abs(w)))) * max(1.0, float(np.max(np.abs(p.coords))))
        for threshold in (REFERENCE_ROUNDOFF, 1e-8):
            # 0.45 to 0.55 of the roundoff threshold straddle FILTER_TOL
            for factor in (0.45, 0.5, 0.55, 0.99, 1.01, 2.0):
                # <p, p> = kappa, so w + d p has defect kappa d
                out.append(w + factor * threshold * scale * p.coords)
    return out


class TestFloatValidationEquivalence:
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
        assert seen == ({"accept"} if kappa == 0 else {"accept", "project", "reject"})

    @pytest.mark.parametrize("kappa", [-1, 1])
    def test_forms_match_reference(self, kappa):
        rng = np.random.default_rng(77)
        for _ in range(200):
            a, b = rng.normal(size=(2, 3)) * 10.0 ** rng.uniform(-3, 3)
            assert form(kappa, a, b) == reference_form(kappa, a, b)
            assert np.array_equal(lorentz_cross(a, b), reference_cross(a, b))

    def test_sphere_complex_structure_is_numpy_cross(self):
        rng = np.random.default_rng(78)
        for _ in range(200):
            p = random_point(1, rng)
            v = random_tangent(p, rng, scale=10.0 ** rng.uniform(-3, 3))
            want = ModelVector(p, np.cross(p.coords, v.coords))
            assert np.array_equal(complex_structure(v).coords, want.coords)


class TestSphereTangencyFilter:
    """ModelVector takes a sphere defect in Python floats first and recomputes
    it with np.dot only above FILTER_TOL; the bound below makes that safe."""

    EPS = float(np.finfo(float).eps)

    def test_summation_orders_agree_within_the_bound(self):
        # any two evaluations of a 3-term dot product differ by at most
        # 2 gamma_3 sum|a_i b_i| (Higham 2002, 3.1), below 9 eps sum|a_i b_i|
        rng = np.random.default_rng(80)
        pairs = [rng.normal(size=(2, 3)) * 10.0 ** rng.uniform(-3, 3, size=(2, 1)) for _ in range(500)]
        for _ in range(500):
            # heavy cancellation: b is a projected onto the plane orthogonal to a
            a, c = rng.normal(size=(2, 3)) * 10.0 ** rng.uniform(-3, 3, size=(2, 1))
            pairs.append((a, c - (a @ c) / (a @ a) * a))
        for a, b in pairs:
            a0, a1, a2 = a.tolist()
            b0, b1, b2 = b.tolist()
            fast = a0 * b0 + a1 * b1 + a2 * b2
            bound = 9.0 * self.EPS * float(np.sum(np.abs(a * b)))
            assert abs(fast - float(np.dot(a, b))) <= bound
        # sum|p_i v_i| <= 3 scale, so even this bound keeps np.dot's defect
        # below ROUNDOFF_TOL wherever the Python sum is within FILTER_TOL
        assert FILTER_TOL + 3.0 * 9.0 * self.EPS < ROUNDOFF_TOL

    def test_only_defects_above_the_filter_reach_the_ambient_form(self, monkeypatch):
        rng = np.random.default_rng(81)
        points = [random_point(1, rng) for _ in range(200)]
        clean = [random_tangent(p, rng, scale=10.0 ** rng.uniform(-3, 3)).coords for p in points]
        calls = []
        original = spaceform.euclid_form

        def counting(a, b):
            calls.append((a, b))
            return original(a, b)

        monkeypatch.setattr(spaceform, "euclid_form", counting)
        for p, w in zip(points, clean):
            assert np.array_equal(ModelVector(p, w).coords, w)
        assert calls == []
        for p, w in zip(points, clean):
            scale = max(1.0, float(np.max(np.abs(w)))) * max(1.0, float(np.max(np.abs(p.coords))))
            defective = w + 2.0 * ROUNDOFF_TOL * scale * p.coords
            assert not np.array_equal(ModelVector(p, defective).coords, defective)
        assert len(calls) == len(points)


def negation_candidates(p, rng):
    """Vectors at p: defect_candidates, and for a pole of the quadric or the
    flat origin, coordinates with -0.0 entries."""
    out = defect_candidates(p, rng)
    if p.kappa == 0 or np.count_nonzero(p.coords) == 1:
        dim = p.coords.size
        out += [np.full(dim, -0.0), np.array([-0.0, 1.5, -0.0][:dim]), np.array([-2.5, -0.0, -0.0][:dim])]
    return out


class TestSettledNegation:
    """A vector whose check left its coordinates as given is settled and
    negates without a second check; the result must be what the check gives."""

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
        seen = set()
        for p in points:
            for coords in negation_candidates(p, rng):
                try:
                    v = ModelVector(p, coords)
                except GeometryError:
                    continue
                assert v._settled == np.array_equal(v.coords, coords)
                want = ModelVector(p, -v.coords)
                calls.clear()
                minus = -v
                checks = len(calls)
                assert minus.base is p
                assert minus.coords.tobytes() == want.coords.tobytes()
                if v._settled:
                    assert checks == 0
                    assert minus._settled
                    assert (-minus).coords.tobytes() == v.coords.tobytes()
                else:
                    # an unsettled vector negates through the check
                    assert checks == 1
                seen.add(v._settled)
        assert seen == ({True} if kappa == 0 else {True, False})

    @pytest.mark.parametrize("kappa", [-1, 1])
    def test_defects_below_roundoff_stay_settled(self, kappa):
        rng = np.random.default_rng(95 + kappa)
        for _ in range(100):
            p = random_point(kappa, rng)
            w = random_tangent(p, rng, scale=10.0 ** rng.uniform(-3, 3)).coords
            scale = max(1.0, float(np.max(np.abs(w)))) * max(1.0, float(np.max(np.abs(p.coords))))
            t = form(kappa, p.coords, w)
            # defects just under ROUNDOFF_TOL, and on both sides of FILTER_TOL
            for factor in (0.3, 0.45, 0.55, 0.9):
                # <p, p> = kappa, so w + d p has defect t + kappa d
                coords = w + kappa * (factor * ROUNDOFF_TOL * scale - t) * p.coords
                v = ModelVector(p, coords)
                assert v._settled and v.coords.tobytes() == coords.tobytes()
                assert (-v).coords.tobytes() == ModelVector(p, -coords).coords.tobytes()
                assert (-(-v)).coords.tobytes() == v.coords.tobytes()

    def test_fields_and_repr_are_unchanged(self):
        p = sphere_point(0.0, 0.0, 1.0)
        v = ModelVector(p, [1.0, -0.0, 0.0])
        assert [f.name for f in dataclasses.fields(ModelVector)] == ["base", "coords"]
        for u in (v, -v):
            assert repr(u) == f"ModelVector(base={p!r}, coords={u.coords!r})"


@pytest.mark.parametrize("kappa", [-1, 0, 1])
def test_zero_pairing_is_the_form_with_zero(kappa):
    rng = np.random.default_rng(99)
    dim = 2 if kappa == 0 else 3
    rows = [-np.arange(1.0, dim + 1.0), np.full(dim, -0.0), np.full(dim, 0.0)]
    rows += [rng.normal(size=dim) for _ in range(20)] + [-np.abs(rng.normal(size=dim)) for _ in range(20)]
    for x in rows:
        want = form(kappa, x, np.zeros(dim))
        got = spaceform._zero_pairing(kappa, x)
        assert math.copysign(1.0, got) == math.copysign(1.0, want) and got == want
        if kappa != -1:
            # np.dot of all-negative coordinates with zeros is +0.0, not -0.0
            assert math.copysign(1.0, got) == 1.0
