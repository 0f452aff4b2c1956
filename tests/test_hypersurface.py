import functools
import math
from dataclasses import replace

import numpy as np
import pytest

from prodform_geo import hypersurface, jacobi, spaceform
from prodform_geo.ambient import (
    ProductPoint,
    ProductVector,
    product_metric,
    product_structure,
    random_product_point,
    random_product_tangent,
)
from prodform_geo.classify import (
    ExampleSpec,
    FAMILY_CURVE_X_FACTOR,
    FAMILY_FACTOR_X_CURVE,
    FAMILY_PSI,
    build_control,
    build_example,
    gallery_specs,
)
from prodform_geo.hypersurface import (
    Immersion,
    ShapeRecord,
    angle_of_normal,
    gram_schmidt,
    ricci,
    shape_operator,
    tangent_basis,
    unit_normal,
)
from prodform_geo.jacobi import flow_frame, frame_shape_at
from prodform_geo.spaceform import (
    DegeneratePointError,
    GeometryError,
    ModelPoint,
    ModelVector,
    complex_structure,
    form,
    random_point,
    tangent_frame,
    tangent_project,
    zero_vector,
)


def psi_immersion(c=0.25):
    return build_example(ExampleSpec(family=FAMILY_PSI, c=c))


def psi_without_jacobian(c=0.25):
    analytic = psi_immersion(c)
    return Immersion(
        kappa1=analytic.kappa1,
        kappa2=analytic.kappa2,
        chart=analytic.chart,
        jacobian=None,
        name="psi-fd",
    )


def counting(fn, calls):
    """``fn``, appending the positional arguments of each call to ``calls``."""

    def counted(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)

    return counted


def reference_tangent_frame(p):
    """``tangent_frame`` as the projection loop over the coordinate axes in
    numpy, kept as the bitwise reference."""
    if p.kappa == 0:
        return ModelVector(p, np.array([1.0, 0.0])), ModelVector(p, np.array([0.0, 1.0]))
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


def ruled_point(t, r, c=0.25):
    """psi's hyperbolic point at (t, r): cosh(t sqrt c) g + sinh(t sqrt c) n on
    the horocycle g = ((2 + r^2)/2, r, r^2/2) and its normal n, written with
    r itself as a coordinate, so that a zero r keeps its sign."""
    g = np.array([(2.0 + r * r) / 2.0, r, r * r / 2.0])
    n = np.array([r * r / 2.0, r, (-2.0 + r * r) / 2.0])
    return ModelPoint(-1, math.cosh(t * math.sqrt(c)) * g + math.sinh(t * math.sqrt(c)) * n)


def frame_test_points():
    """Random sphere and hyperboloid points, and points whose zero coordinates carry a sign."""
    rng = np.random.default_rng(19)
    points = [random_point(kappa, rng) for kappa in (1, -1) for _ in range(200)]
    points += [ModelPoint(-1, [1.0, 0.0, 0.0]), ModelPoint(1, [0.0, 0.0, 1.0])]
    points += [ModelPoint(-1, [1.0, -0.0, -0.0]), ModelPoint(1, [-0.0, 0.0, -1.0]), ModelPoint(1, [0.0, -1.0, -0.0])]
    # the ruled example's horocycle at r = 0 (and -0.0), flowed both ways
    points += [ruled_point(t, r) for t in (-0.5, 0.0, 0.5) for r in (0.0, -0.0)]
    return points


def test_tangent_frame_matches_reference_bitwise():
    for p in frame_test_points():
        for leg, ref in zip(tangent_frame(p), reference_tangent_frame(p), strict=True):
            assert leg.coords.tobytes() == ref.coords.tobytes()


def test_frame_legs_are_tangent_frames_legs_bitwise():
    for p in [*frame_test_points(), ModelPoint(0, [0.5, -2.0]), ModelPoint(0, [-0.0, 0.0])]:
        legs = spaceform._frame_legs(p)
        for xs, leg in zip(legs, tangent_frame(p), strict=True):
            assert type(xs) is list and all(type(x) is float for x in xs)
            assert np.array(xs).tobytes() == leg.coords.tobytes()
            assert spaceform._tangent_check(p, xs) is xs


@pytest.mark.parametrize(
    "spec",
    [ExampleSpec(family=FAMILY_PSI, c=0.25), ExampleSpec(family=FAMILY_CURVE_X_FACTOR, kappa1=1, kappa2=-1, k=1.0)],
    ids=["psi-H2", "curve-S2"],
)
def test_unit_normal_checks_its_legs_through_the_normal(spec, monkeypatch):
    """A first leg pushed off its tangent plane, a + 0.1 p, reaches the normal's
    first factor part, whose check rejects it: the legs are checked there.
    At the origin of the box that part is along Ja alone, so the grid's other
    points are taken."""
    imm = build_example(spec)
    legs = spaceform._frame_legs

    def pushed(p):
        a, ja = legs(p)
        return ([x + 0.1 * y for x, y in zip(a, p.xs)] if p is first else a), ja

    for u in GRID[1:]:
        basis = tangent_basis(imm, u)
        first = basis[0].first.base
        checked = []
        monkeypatch.setattr(spaceform, "_tangent_check", counting(spaceform._tangent_check, checked))
        monkeypatch.setattr(hypersurface, "_frame_legs", pushed)
        with pytest.raises(GeometryError, match="not tangent at its base point"):
            unit_normal(imm, u, basis=basis)
        # the one vector built, and rejected, is the normal's first part
        assert [args[0] for args in checked] == [first]
        monkeypatch.undo()
        assert_same_bits(unit_normal(imm, u, basis=basis), frame_unit_normal(imm, u))


def ambient_frame(p):
    """Orthonormal frame (a,0), (Ja,0), (0,b), (0,Jb) of the ambient tangent space."""
    a1, a2 = reference_tangent_frame(p.first)
    b1, b2 = reference_tangent_frame(p.second)
    z1 = zero_vector(p.first)
    z2 = zero_vector(p.second)
    return (
        ProductVector(a1, z2),
        ProductVector(a2, z2),
        ProductVector(z1, b1),
        ProductVector(z1, b2),
    )


def test_ambient_frame_is_orthonormal():
    rng = np.random.default_rng(15)
    for kappas in [(1, -1), (1, 0), (-1, 0)]:
        p = random_product_point(*kappas, rng)
        frame = ambient_frame(p)
        gram = np.array([[product_metric(a, b) for b in frame] for a in frame])
        assert np.max(np.abs(gram - np.eye(4))) < 1e-12


def frame_unit_normal(imm, u, hint=None):
    """The unit normal from product_metric against ambient_frame, kept as the bitwise reference."""
    basis = tangent_basis(imm, u)
    frame = ambient_frame(basis[0].base)
    m = np.array([[product_metric(t, f) for f in frame] for t in basis])
    cols = [0, 1, 2, 3]
    rows = m.tolist()
    n = np.empty(4)
    for j in cols:
        keep = [c for c in cols if c != j]
        n[j] = (-1.0) ** (j + 1) * hypersurface._det3([[row[c] for c in keep] for row in rows])
    n /= np.linalg.norm(n)
    normal = ProductVector(
        frame[0].first.scale(n[0]) + frame[1].first.scale(n[1]),
        frame[2].second.scale(n[2]) + frame[3].second.scale(n[3]),
    )
    if hint is not None and product_metric(normal, hint) < 0.0:
        normal = -normal
    return normal


def assert_same_bits(n, ref):
    """Equal factor coordinates, down to the sign of each zero."""
    assert n.first.coords.tobytes() == ref.first.coords.tobytes()
    assert n.second.coords.tobytes() == ref.second.coords.tobytes()


def flat_jacobian_immersion(vectors, points=None):
    """A flat x flat immersion whose jacobian is the given (first, second) coordinate pairs,
    the k-th pair based at ``points[k]`` (the origin of both factors by default)."""
    points = points or [(np.zeros(2), np.zeros(2))] * 3

    def chart(u):
        return ProductPoint(ModelPoint(0, points[0][0]), ModelPoint(0, points[0][1]))

    def jacobian(u):
        return tuple(
            ProductVector(ModelVector(ModelPoint(0, p), x), ModelVector(ModelPoint(0, q), y))
            for (p, q), (x, y) in zip(points, vectors)
        )

    return Immersion(kappa1=0, kappa2=0, chart=chart, jacobian=jacobian)


def geodesic_times_hyperbolic_plane(c=-0.5):
    """H^2 x H^2: a geodesic of the first factor times the graph chart of the second."""
    s = math.sqrt(1.0 - c * c)

    def points(u):
        t, a, b = u
        p = np.array([math.cosh(t), c * math.sinh(t), -s * math.sinh(t)])
        q = np.array([math.sqrt(1.0 + a * a + b * b), a, b])
        return ModelPoint(-1, p), ModelPoint(-1, q)

    def jacobian(u):
        t, a, b = u
        p, q = points(u)
        return (
            ProductVector(ModelVector(p, [math.sinh(t), c * math.cosh(t), -s * math.cosh(t)]), zero_vector(q)),
            ProductVector(zero_vector(p), ModelVector(q, [a / q.coords[0], 1.0, 0.0])),
            ProductVector(zero_vector(p), ModelVector(q, [b / q.coords[0], 0.0, 1.0])),
        )

    return Immersion(kappa1=-1, kappa2=-1, chart=lambda u: ProductPoint(*points(u)), jacobian=jacobian)


GRID = [
    np.array([0.0, 0.0, 0.0]),
    np.array([0.5, -0.5, 0.5]),
    np.array([-1.0, 1.0, -1.0]),
    np.array([0.3, 0.9, -0.7]),
]


class TestTangentBasis:
    def test_affine_graph_has_constant_basis(self):
        def chart(u):
            return ProductPoint(
                ModelPoint(0, [u[0], u[1]]), ModelPoint(0, [u[2], 0.5 * u[0]])
            )

        imm = Immersion(kappa1=0, kappa2=0, chart=chart)
        first = tangent_basis(imm, np.zeros(3))
        second = tangent_basis(imm, np.array([0.4, -0.7, 0.9]))
        for a, b in zip(first, second):
            assert np.allclose(a.first.coords, b.first.coords, atol=1e-9)
            assert np.allclose(a.second.coords, b.second.coords, atol=1e-9)

    def test_psi_s_direction(self):
        imm = psi_immersion()
        _, _, ds = tangent_basis(imm, np.zeros(3))
        assert np.array_equal(ds.first.coords, [0.0, 0.0, 0.0])
        assert np.array_equal(ds.second.coords, [1.0, 0.0])

    def test_finite_differences_match_analytic_jacobian(self):
        analytic = psi_immersion()
        numeric = psi_without_jacobian()
        for u in GRID:
            ta = tangent_basis(analytic, u)
            tn = tangent_basis(numeric, u)
            for a, b in zip(ta, tn):
                assert np.max(np.abs(a.first.coords - b.first.coords)) < 1e-12
                assert np.max(np.abs(a.second.coords - b.second.coords)) < 1e-12

    def test_degenerate_immersion_detected(self):
        def chart(u):
            # ignores u3 entirely
            return ProductPoint(
                ModelPoint(0, [u[0], u[1]]), ModelPoint(0, [u[0] - u[1], 0.0])
            )

        imm = Immersion(kappa1=0, kappa2=0, chart=chart)
        # tangent_basis's rank check is the only one: the normal and the
        # shape operator must reach it
        for build in (tangent_basis, unit_normal, shape_operator):
            with pytest.raises(DegeneratePointError):
                build(imm, np.zeros(3))

    def test_degenerate_jacobian_reports_sigma_min(self):
        a, b = 0.6, 0.8
        imm = flat_jacobian_immersion(
            [((a, b), (0.0, 0.0)), ((-b, a), (0.0, 0.0)), ((0.0, 0.0), (3e-7 * a, 3e-7 * b))]
        )
        message = r"^immersion is degenerate at u=\[0\.5, 0\.0, -0\.5\] \(sigma_min ~ 3\.000e-07\)$"
        for build in (tangent_basis, unit_normal, shape_operator):
            with pytest.raises(DegeneratePointError, match=message):
                build(imm, np.array([0.5, 0.0, -0.5]))

    def test_rank_certificate_agrees_with_eigvalsh(self):
        # Grams with chosen eigenvalues: the smallest at RANK_TOL**2 (1 -+ 1e-3),
        # at 1e-6 and at 1, or two negative ones, and traces up to 1e4
        tol = hypersurface.RANK_TOL**2
        rng = np.random.default_rng(31)
        for smallest in (tol * (1.0 - 1e-3), tol * (1.0 + 1e-3), 1e-6, 1.0, None):
            for trace in (3.0, 30.0, 1e3, 1e4):
                for _ in range(100):
                    if smallest is None:
                        a, b = rng.uniform(0.0, 1.0, size=2)
                        eigenvalues = [-a, -b, trace + a + b]
                    else:
                        rest = trace - smallest
                        middle = smallest + rng.uniform() * (rest / 2.0 - smallest)
                        eigenvalues = [smallest, middle, rest - middle]
                    q = np.linalg.qr(rng.normal(size=(3, 3)))[0]
                    g = q @ np.diag(eigenvalues) @ q.T
                    g = (g + g.T) / 2.0
                    by_eigvalsh = min(np.linalg.eigvalsh(g)) >= tol
                    certified = hypersurface._clearly_full_rank(g.tolist())
                    # _check_rank's verdict: the certificate, else eigvalsh
                    assert (certified or by_eigvalsh) == by_eigvalsh
                    if smallest == 1.0:
                        assert certified

    @pytest.mark.parametrize("factor", [0, 1])
    @pytest.mark.parametrize("moved", [1, 2])
    def test_jacobian_at_different_base_points_rejected(self, factor, moved):
        points = [[np.zeros(2), np.zeros(2)] for _ in range(3)]
        points[moved][factor] = np.array([0.0, 1e-6])
        imm = flat_jacobian_immersion(
            [((1.0, 0.0), (0.0, 0.0)), ((0.0, 1.0), (0.0, 0.0)), ((0.0, 0.0), (1.0, 0.0))], points
        )
        for build in (tangent_basis, unit_normal, shape_operator):
            with pytest.raises(GeometryError, match="^vectors live at different base points$"):
                build(imm, np.zeros(3))


class TestUnitNormal:
    def test_great_circle_times_factor(self):
        spec = ExampleSpec(family=FAMILY_CURVE_X_FACTOR, kappa1=1, kappa2=-1, k=0.0)
        imm = build_example(spec)
        n = unit_normal(imm, np.array([0.3, 0.1, -0.2]))
        # the great circle lies in the plane x3 = 0, so the normal is +-e3
        assert abs(abs(n.first.coords[2]) - 1.0) < 1e-12
        assert np.array_equal(n.second.coords, [0.0, 0.0, 0.0])

    def test_orthogonal_to_tangents_and_unit(self):
        imm = psi_immersion()
        for u in GRID:
            n = unit_normal(imm, u)
            assert abs(product_metric(n, n) - 1.0) < 1e-10
            for t in tangent_basis(imm, u):
                assert abs(product_metric(n, t)) < 1e-10 * max(1.0, t.norm())

    def test_component_norms_split_by_angle(self):
        imm = psi_immersion()
        from prodform_geo.spaceform import metric

        for u in GRID:
            n = unit_normal(imm, u)
            c = angle_of_normal(n)
            assert abs(metric(n.first, n.first) - (1.0 + c) / 2.0) < 1e-10
            assert abs(metric(n.second, n.second) - (1.0 - c) / 2.0) < 1e-10

    def test_psi_normal_matches_analytic_form(self):
        c = 0.25
        imm = psi_immersion(c)
        sign = None
        for u in GRID:
            t, r, _ = u
            n = unit_normal(imm, u)
            gamma = np.array([(2.0 + r * r) / 2.0, r, r * r / 2.0])
            normal = np.array([r * r / 2.0, r, (-2.0 + r * r) / 2.0])
            u1 = math.sinh(t * math.sqrt(c)) * gamma + math.cosh(t * math.sqrt(c)) * normal
            expected_first = math.sqrt(1.0 - c) * u1
            expected_second = -math.sqrt(c) * np.array([0.0, 1.0])
            if sign is None:
                overlap = float(
                    n.first.coords @ expected_first + n.second.coords @ expected_second
                )
                sign = 1.0 if overlap > 0 else -1.0
            assert np.max(np.abs(n.first.coords - sign * expected_first)) < 1e-9
            assert np.max(np.abs(n.second.coords - sign * expected_second)) < 1e-9

    def test_orientation_is_deterministic(self):
        imm = psi_immersion()
        u = GRID[1]
        n1 = unit_normal(imm, u)
        n2 = unit_normal(imm, u)
        assert np.array_equal(n1.first.coords, n2.first.coords)

    def test_hint_flips_sign(self):
        imm = psi_immersion()
        u = GRID[1]
        n = unit_normal(imm, u)
        flipped = unit_normal(imm, u, hint=-n)
        assert np.array_equal(flipped.first.coords, -n.first.coords)

    @pytest.mark.parametrize("spec", gallery_specs(), ids=lambda spec: build_example(spec).name)
    def test_gallery_normals_match_frame_reference_bitwise(self, spec):
        imm = build_example(spec)
        for u in imm.grid(3):
            assert_same_bits(unit_normal(imm, u), frame_unit_normal(imm, u))

    # a chart with no jacobian, psi at C = 1 - 2c = 0.9999999, a chart where
    # a zero leg adds the Lorentz pairing's -0.0 to another -0.0, and two
    # flowed charts, whose every point is a normal of the base immersion
    @pytest.mark.parametrize(
        "imm",
        [
            build_control(psi_immersion()),
            psi_immersion(c=5e-8),
            geodesic_times_hyperbolic_plane(),
            jacobi.parallel_immersion(psi_immersion(), 0.1),
            jacobi.parallel_immersion(
                build_example(ExampleSpec(family=FAMILY_CURVE_X_FACTOR, kappa1=1, kappa2=0, k=1.0)), 0.1
            ),
        ],
        ids=["control", "psi-C~1", "H2xH2", "flowed-psi", "flowed-curve"],
    )
    def test_normals_match_frame_reference_bitwise(self, imm):
        for u in imm.grid(3):
            ref = frame_unit_normal(imm, u)
            assert_same_bits(unit_normal(imm, u), ref)
            flipped = frame_unit_normal(imm, u, hint=-ref)
            assert np.array_equal(flipped.first.coords, -ref.first.coords)
            assert_same_bits(unit_normal(imm, u, hint=-ref), flipped)


class TestAngleFunction:
    def test_curve_times_factor_has_angle_one(self):
        imm = build_example(
            ExampleSpec(family=FAMILY_CURVE_X_FACTOR, kappa1=1, kappa2=0, k=1.0)
        )
        for u in GRID:
            assert angle_of_normal(unit_normal(imm, u)) == 1.0

    def test_factor_times_curve_has_angle_minus_one(self):
        imm = build_example(
            ExampleSpec(family=FAMILY_FACTOR_X_CURVE, kappa1=1, kappa2=0, k=1.0)
        )
        for u in GRID:
            assert angle_of_normal(unit_normal(imm, u)) == -1.0

    def test_psi_angle_constant(self):
        c_target = 1.0 - 2.0 * 0.25
        imm = psi_immersion(0.25)
        values = [angle_of_normal(unit_normal(imm, u)) for u in GRID]
        assert max(abs(v - c_target) for v in values) < 1e-10


class TestShapeOperator:
    def test_circle_times_factor_principal_curvatures(self):
        k = 0.5
        imm = build_example(
            ExampleSpec(family=FAMILY_CURVE_X_FACTOR, kappa1=1, kappa2=-1, k=k)
        )
        rec = shape_operator(imm, GRID[1])
        pcs = np.sort(np.abs(rec.principal_curvatures()))
        assert np.max(np.abs(pcs - np.array([0.0, 0.0, k]))) < 1e-9

    def test_geodesic_times_factor_is_totally_geodesic(self):
        imm = build_example(
            ExampleSpec(family=FAMILY_CURVE_X_FACTOR, kappa1=-1, kappa2=0, k=0.0)
        )
        rec = shape_operator(imm, GRID[3])
        assert np.max(np.abs(rec.A)) < 1e-12
        assert abs(rec.H) < 1e-12 and abs(rec.K) < 1e-12

    def test_trace_identity_links_invariants(self):
        imm = psi_immersion()
        for u in GRID:
            rec = shape_operator(imm, u)
            lhs = 2.0 * (rec.H12 + rec.H13 + rec.H23)
            rhs = (
                rec.rho
                - (rec.kappa1 + rec.kappa2)
                + (rec.kappa1 - rec.kappa2) * rec.C
            )
            assert abs(lhs - rhs) < 1e-13

    def test_basis_covariance_under_rotation(self):
        imm = psi_immersion()
        u = GRID[1]
        tangents = tangent_basis(imm, u)
        basis = gram_schmidt(tangents)
        rec = shape_operator(imm, u, basis=basis)
        rng = np.random.default_rng(3)
        r, _ = np.linalg.qr(rng.normal(size=(3, 3)))
        rotated = tuple(
            basis[0].scale(r[0, i]) + basis[1].scale(r[1, i]) + basis[2].scale(r[2, i])
            for i in range(3)
        )
        rec_rot = shape_operator(imm, u, basis=rotated)
        assert np.max(np.abs(rec_rot.A - r.T @ rec.A @ r)) < 1e-13

    def test_non_orthonormal_basis_rejected(self):
        imm = psi_immersion()
        u = GRID[1]
        t = tangent_basis(imm, u)
        with pytest.raises(GeometryError):
            shape_operator(imm, u, basis=t)

    def test_basis_with_normal_part_rejected(self):
        # orthonormal, but the first leg leans 1e-4 toward the normal
        imm = psi_immersion()
        u = GRID[1]
        n = unit_normal(imm, u)
        e1, e2, e3 = flow_frame(n)
        tilted = (e1 + n.scale(1e-4)).scale(1.0 / math.sqrt(1.0 + 1e-8))
        with pytest.raises(GeometryError, match="not tangent"):
            shape_operator(imm, u, basis=(tilted, e2, e3), hint=n)

    def test_jacobian_free_chart_matches_analytic(self):
        analytic = psi_immersion()
        numeric = psi_without_jacobian()
        for u in GRID:
            gap = np.max(np.abs(shape_operator(numeric, u).A - shape_operator(analytic, u).A))
            assert gap < 1e-9

    def test_one_unit_normal_call_per_shape(self, monkeypatch):
        # one tangent basis and one unit normal per shape, also in the flow
        # frame; tangent_basis and shape_operator both build the basis through
        # _tangents, and jacobi binds unit_normal at import, so both names are counted
        calls = {"_tangents": [], "unit_normal": []}
        for name, seen in calls.items():
            monkeypatch.setattr(hypersurface, name, counting(getattr(hypersurface, name), seen))
        monkeypatch.setattr(jacobi, "unit_normal", hypersurface.unit_normal)
        for shape in (shape_operator, frame_shape_at):
            for seen in calls.values():
                seen.clear()
            shape(psi_immersion(), GRID[1])
            assert {name: len(seen) for name, seen in calls.items()} == {
                "_tangents": 1,
                "unit_normal": 1,
            }, shape.__name__

    def test_jacobian_free_shape_evaluates_each_chart_point_once(self):
        # u, u +- s e_k at three steps (shared by the tangents and the
        # Hessian's diagonal), and u +- s (e_k + e_l) for the three pairs
        # k < l at three steps
        calls = []
        imm = build_control(psi_immersion())
        shape_operator(replace(imm, chart=counting(imm.chart, calls)), GRID[1])
        assert len(calls) == 37
        assert len({args[0].tobytes() for args in calls}) == 37

    def test_record_enforces_symmetry(self):
        imm = psi_immersion()
        rec = shape_operator(imm, GRID[0])
        with pytest.raises(GeometryError):
            ShapeRecord(
                A=rec.A + np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]]),
                basis=rec.basis,
                normal=rec.normal,
                kappa1=rec.kappa1,
                kappa2=rec.kappa2,
                C=rec.C,
            )

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_record_rejects_non_finite_entry(self, bad):
        rec = shape_operator(psi_immersion(), GRID[0])
        a = rec.A.copy()
        a[1, 1] = bad
        with pytest.raises(GeometryError):
            ShapeRecord(
                A=a,
                basis=rec.basis,
                normal=rec.normal,
                kappa1=rec.kappa1,
                kappa2=rec.kappa2,
                C=rec.C,
            )


def reference_check_orthonormal(basis, n):
    """``_check_orthonormal`` on product_metric, kept as the reference."""
    gram = np.array([[product_metric(a, b) for b in basis] for a in basis])
    if float(np.max(np.abs(gram - np.eye(3)))) > hypersurface.ORTHONORMAL_TOL:
        raise GeometryError("supplied basis is not orthonormal within 1e-8")
    if max(abs(product_metric(b, n)) for b in basis) > hypersurface.ORTHONORMAL_TOL:
        raise GeometryError("supplied basis is not tangent within 1e-8")


def outcome(fn, *args):
    """None if ``fn`` returns, else the type and message of the GeometryError it raises."""
    try:
        fn(*args)
    except GeometryError as err:
        return type(err), str(err)
    return None


#: a jacobian chart, psi, the negative control and a flowed chart, each with no closed hessian
PAIRING_IMMERSIONS = [
    replace(build_example(ExampleSpec(family=FAMILY_CURVE_X_FACTOR, kappa1=1, kappa2=-1, k=0.5)), hessian=None),
    replace(psi_immersion(), hessian=None),
    build_control(psi_immersion()),
    jacobi.parallel_immersion(psi_immersion(), 0.1),
]
PAIRING_IDS = ["curve-s2h2", "psi", "control", "flowed-psi"]


class TestFactorCoordinatePairings:
    @pytest.mark.parametrize("imm", PAIRING_IMMERSIONS, ids=PAIRING_IDS)
    @pytest.mark.parametrize("frame", ["flow", "gram-schmidt"])
    def test_basis_tangent_gram_matches_product_metric_bitwise(self, monkeypatch, imm, frame):
        # the Gram of the basis against the coordinate tangents is the right
        # side of the solve for coeff; it must be product_metric's bit for bit
        seen = []
        solve = np.linalg.solve
        monkeypatch.setattr(hypersurface.np.linalg, "solve", lambda a, b: seen.append(b) or solve(a, b))
        for u in imm.grid(2):
            seen.clear()
            rec = shape_operator(imm, u, basis=flow_frame if frame == "flow" else None)
            tangents = tangent_basis(imm, u)
            ref = np.array([[product_metric(a, b) for b in tangents] for a in rec.basis])
            (right,) = seen
            assert right.T.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("imm", PAIRING_IMMERSIONS, ids=PAIRING_IDS)
    def test_check_orthonormal_matches_reference(self, imm):
        # the same verdicts and messages, and the Gram's coordinates are the basis'
        for u in imm.grid(2):
            n = unit_normal(imm, u)
            e1, e2, e3 = flow_frame(n)
            other = unit_normal(imm, -u if np.any(u) else u + 0.5)
            cases = [
                (e1, e2, e3),
                (e1.scale(1.0 + 2e-8), e2, e3),
                (e1.scale(1.0 + 5e-9), e2, e3),
                ((e1 + n.scale(1e-4)).scale(1.0 / math.sqrt(1.0 + 1e-8)), e2, e3),
                (e1, e2, e3.scale(-1.0)),
                (e1, e2, other),
            ]
            for basis in cases:
                assert outcome(hypersurface._check_orthonormal, basis, n) == outcome(
                    reference_check_orthonormal, basis, n
                )
            coords = hypersurface._check_orthonormal((e1, e2, e3), n)
            pair = hypersurface._product_pairing(imm.kappa1, imm.kappa2)
            for a, x in zip((e1, e2, e3), coords):
                for b, y in zip((e1, e2, e3, n), [*coords, *hypersurface._factor_coords((n,), n)]):
                    assert np.float64(pair(x, y)).tobytes() == np.float64(product_metric(a, b)).tobytes()


def differenced_jacobian(imm, u, k, l):
    """d_k of the l-th jacobian column, a Richardson central difference of its raw coordinates."""

    def column(v):
        t = imm.jacobian(v)[l]
        return np.concatenate((t.first.coords, t.second.coords))

    step = np.eye(3)[k]
    return hypersurface._richardson(lambda s: (column(u + s * step) - column(u - s * step)) / (2.0 * s))


#: a change of parameters v -> M v with det M > 0 and no zero entry
REPARAMETRIZATION = np.array([[0.8, 0.3, -0.2], [0.25, 0.7, 0.35], [-0.15, 0.4, 0.9]])


def reparametrized(imm, m):
    """``imm`` as v -> chart(m v), with the chain rule's jacobian and no hessian."""

    def jacobian(v):
        t = imm.jacobian(m @ v)
        return tuple(t[0].scale(m[0, j]) + t[1].scale(m[1, j]) + t[2].scale(m[2, j]) for j in range(3))

    return replace(imm, chart=lambda v: imm.chart(m @ v), jacobian=jacobian, hessian=None)


class TestClosedHessian:
    @pytest.mark.parametrize("spec", gallery_specs(), ids=lambda spec: spec.label())
    def test_matches_differenced_jacobian(self, spec):
        # an oracle for the formulas that does not involve the normal; each
        # mixed partial is compared with both orders of differentiation
        imm = build_example(spec)
        for u in imm.grid(3):
            for (k, l), (first, second) in zip(hypersurface.HESSIAN_PAIRS, imm.hessian(u)):
                closed = np.concatenate((first, second))
                for i, j in ((k, l), (l, k)):
                    assert np.max(np.abs(closed - differenced_jacobian(imm, u, i, j))) < 1e-8, (u, k, l)

    @pytest.mark.parametrize("spec", gallery_specs(), ids=lambda spec: spec.label())
    def test_shape_matches_difference_scheme(self, spec):
        imm = build_example(spec)
        differenced = replace(imm, hessian=None)
        for u in imm.grid(3):
            closed = frame_shape_at(imm, u)[2]
            assert np.max(np.abs(closed.A - frame_shape_at(differenced, u)[2].A)) < 1e-10

    @pytest.mark.parametrize("spec", gallery_specs(), ids=lambda spec: spec.label())
    def test_reparametrized_shape_mixes_every_pair(self, spec):
        # in each example's own chart the height's mixed partials vanish;
        # after v -> M v all three are nonzero wherever the shape is, and
        # det M > 0 keeps the orientation, and with it the normal and the
        # flow frame
        imm = build_example(spec)
        moved = reparametrized(imm, REPARAMETRIZATION)
        for v in imm.grid(3):
            v = 0.5 * v
            closed = frame_shape_at(imm, REPARAMETRIZATION @ v)[2]
            assert np.max(np.abs(closed.A - frame_shape_at(moved, v)[2].A)) < 1e-10

    @pytest.mark.parametrize(
        "spec",
        [
            ExampleSpec(family=FAMILY_CURVE_X_FACTOR, kappa1=1, kappa2=-1, k=0.5),
            ExampleSpec(family=FAMILY_FACTOR_X_CURVE, kappa1=-1, kappa2=0, k=2.0),
            ExampleSpec(family=FAMILY_PSI),
        ],
        ids=lambda spec: spec.label(),
    )
    def test_closed_shape_differences_no_chart_point(self, spec):
        # the jacobian builds its own points, so the chart is called only for
        # the differenced heights: 18 on the diagonal and 18 off it
        imm = build_example(spec)
        for hessian, expected in ((imm.hessian, 0), (None, 36)):
            calls = []
            shape_operator(replace(imm, chart=counting(imm.chart, calls), hessian=hessian), GRID[1])
            assert len(calls) == expected


def reference_angle_of_normal(n):
    """``angle_of_normal`` on product_metric, kept as the bitwise reference."""
    return product_metric(product_structure(n), n) / product_metric(n, n)


def reference_ricci(x, rec):
    """``ricci`` on product_metric, kept as the bitwise reference."""
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


def same_float(a, b):
    """Equal down to the sign of a zero."""
    return np.float64(a).tobytes() == np.float64(b).tobytes()


@functools.cache
def gallery_records():
    """The flow-frame shape record of every point of grid(2), for the 25
    gallery examples and the negative control."""
    immersions = [build_example(spec) for spec in gallery_specs()] + [build_control(psi_immersion())]
    return [frame_shape_at(imm, u)[2] for imm in immersions for u in imm.grid(2)]


def random_records(kappas, seed):
    """Records with random normals, bases, shapes and angles at random product
    points: ricci and angle_of_normal read no more of a record than these fields."""
    rng = np.random.default_rng(seed)
    for _ in range(20):
        p = random_product_point(*kappas, rng)
        n, *basis = (random_product_tangent(p, rng) for _ in range(4))
        a = rng.uniform(-2.0, 2.0, size=(3, 3))
        yield ShapeRecord(
            A=a + a.T, basis=tuple(basis), normal=n, kappa1=kappas[0], kappa2=kappas[1], C=rng.uniform(-1.0, 1.0)
        ), random_product_tangent(p, rng)


class TestFactorCoordinateRicciAndAngle:
    def test_gallery_records_match_product_metric_bitwise(self):
        records = gallery_records()
        assert len(records) == (len(gallery_specs()) + 1) * 2**3
        for rec in records:
            c_ref = reference_angle_of_normal(rec.normal)
            assert same_float(angle_of_normal(rec.normal), c_ref) and same_float(rec.C, c_ref)
            for e in rec.basis:
                assert same_float(ricci(e, rec), reference_ricci(e, rec))

    @pytest.mark.parametrize("kappas", [(1, -1), (1, 0), (-1, 0)])
    def test_random_tangents_match_product_metric_bitwise(self, kappas):
        for rec, x in random_records(kappas, seed=11):
            for y in (x, -x, x.scale(0.0), *rec.basis):
                assert same_float(ricci(y, rec), reference_ricci(y, rec))
            assert same_float(angle_of_normal(x), reference_angle_of_normal(x))

    def test_vector_at_a_foreign_base_point_is_rejected(self):
        rec, other = gallery_records()[:2]
        for x in (other.basis[0], other.normal):
            for fn in (ricci, reference_ricci):
                with pytest.raises(GeometryError, match="different base points"):
                    fn(x, rec)


class TestRicci:
    def test_zero_vector_gives_zero(self):
        imm = psi_immersion()
        rec = shape_operator(imm, GRID[0])
        p = rec.normal.base
        zero = ProductVector(zero_vector(p.first), zero_vector(p.second))
        assert ricci(zero, rec) == 0.0

    def test_trace_recovers_scalar_curvature(self):
        for spec in (
            ExampleSpec(family=FAMILY_PSI, c=0.25),
            ExampleSpec(family=FAMILY_CURVE_X_FACTOR, kappa1=1, kappa2=-1, k=1.0),
            ExampleSpec(family=FAMILY_FACTOR_X_CURVE, kappa1=-1, kappa2=0, k=2.0),
        ):
            imm = build_example(spec)
            for u in GRID[:2]:
                rec = shape_operator(imm, u)
                trace = sum(ricci(e, rec) for e in rec.basis)
                assert abs(trace - rec.rho) < 1e-8

    def test_matches_independent_evaluation(self):
        # flat shape operator, balanced normal: re-evaluate the display inline
        imm = psi_immersion(0.5)  # C = 0
        u = GRID[1]
        tangents = tangent_basis(imm, u)
        basis = gram_schmidt(tangents)
        n = unit_normal(imm, u)
        c = angle_of_normal(n)
        rec = shape_operator(imm, u, basis=basis)
        zero_a = ShapeRecord(
            A=np.zeros((3, 3)),
            basis=rec.basis,
            normal=n,
            kappa1=imm.kappa1,
            kappa2=imm.kappa2,
            C=c,
        )
        rng = np.random.default_rng(4)
        w = rng.normal(size=3)
        x = basis[0].scale(w[0]) + basis[1].scale(w[1]) + basis[2].scale(w[2])

        px = product_structure(x)
        xx = product_metric(x, x)
        xpx = product_metric(x, px)
        pxn = product_metric(px, n)
        expected = imm.kappa1 / 4.0 * ((1 - c) * xx + (1 - c) * xpx + pxn**2)
        expected += imm.kappa2 / 4.0 * ((1 + c) * xx - (1 + c) * xpx + pxn**2)
        assert abs(ricci(x, zero_a) - expected) < 1e-12 * max(1.0, abs(expected))
