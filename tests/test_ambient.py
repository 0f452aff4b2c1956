import math
import struct

import numpy as np
import pytest

from prodform_geo.ambient import (
    ProductPoint,
    ProductVector,
    complex_structures,
    curvature_tensor,
    product_exp,
    product_metric,
    product_structure,
    random_product_point,
    random_product_tangent,
)
from prodform_geo.spaceform import (
    KAPPAS,
    GeometryError,
    ModelPoint,
    ModelVector,
    geodesic_transport,
    parallel_transport,
    random_tangent,
    zero_vector,
)

PAIRS = [(1, -1), (1, 0), (-1, 0)]


def flat_pair_vector(x1, x2):
    p = ProductPoint(ModelPoint(0, [0.0, 0.0]), ModelPoint(0, [0.0, 0.0]))
    return ProductVector(
        ModelVector(p.first, np.asarray(x1, dtype=float)),
        ModelVector(p.second, np.asarray(x2, dtype=float)),
    )


class TestProductStructure:
    def test_first_factor_fixed(self):
        x = flat_pair_vector([2.0, 1.0], [0.0, 0.0])
        px = product_structure(x)
        assert np.array_equal(px.first.coords, [2.0, 1.0])
        assert np.array_equal(px.second.coords, [0.0, 0.0])

    def test_second_factor_flipped(self):
        x = flat_pair_vector([0.0, 0.0], [3.0, -1.0])
        px = product_structure(x)
        assert np.array_equal(px.second.coords, [-3.0, 1.0])

    @pytest.mark.parametrize("kappas", PAIRS)
    def test_involution_exact(self, kappas):
        rng = np.random.default_rng(1)
        p = random_product_point(*kappas, rng)
        x = random_product_tangent(p, rng)
        ppx = product_structure(product_structure(x))
        assert np.array_equal(ppx.first.coords, x.first.coords)
        assert np.array_equal(ppx.second.coords, x.second.coords)

    @pytest.mark.parametrize("kappas", PAIRS)
    def test_symmetric_exact(self, kappas):
        rng = np.random.default_rng(2)
        p = random_product_point(*kappas, rng)
        x = random_product_tangent(p, rng)
        y = random_product_tangent(p, rng)
        assert product_metric(product_structure(x), y) == product_metric(
            product_structure(y), x
        )

    @pytest.mark.parametrize("kappas", PAIRS)
    def test_metric_preserving(self, kappas):
        rng = np.random.default_rng(3)
        p = random_product_point(*kappas, rng)
        x = random_product_tangent(p, rng)
        y = random_product_tangent(p, rng)
        lhs = product_metric(product_structure(x), product_structure(y))
        assert abs(lhs - product_metric(x, y)) < 1e-12 * max(1.0, abs(product_metric(x, y)))


class TestComplexStructures:
    def test_flat_pair(self):
        x = flat_pair_vector([1.0, 0.0], [1.0, 0.0])
        j1x, j2x = complex_structures(x)
        assert np.array_equal(j1x.first.coords, [0.0, 1.0])
        assert np.array_equal(j1x.second.coords, [0.0, 1.0])
        assert np.array_equal(j2x.first.coords, [0.0, 1.0])
        assert np.array_equal(j2x.second.coords, [0.0, -1.0])

    @pytest.mark.parametrize("kappas", PAIRS)
    def test_p_equals_minus_j1_j2(self, kappas):
        rng = np.random.default_rng(4)
        for _ in range(25):
            p = random_product_point(*kappas, rng)
            x = random_product_tangent(p, rng)
            _, j2x = complex_structures(x)
            m = -complex_structures(j2x)[0]
            px = product_structure(x)
            gap = max(
                float(np.max(np.abs(m.first.coords - px.first.coords))),
                float(np.max(np.abs(m.second.coords - px.second.coords))),
            )
            assert gap < 1e-12

    @pytest.mark.parametrize("kappas", PAIRS)
    def test_isometry(self, kappas):
        rng = np.random.default_rng(5)
        p = random_product_point(*kappas, rng)
        x = random_product_tangent(p, rng)
        j1x, j2x = complex_structures(x)
        for jx in (j1x, j2x):
            assert abs(product_metric(jx, jx) - product_metric(x, x)) < 1e-12 * max(
                1.0, product_metric(x, x)
            )


class TestCurvatureTensor:
    def test_vanishes_on_zero_argument(self):
        rng = np.random.default_rng(6)
        p = random_product_point(1, -1, rng)
        y, z, w = (random_product_tangent(p, rng) for _ in range(3))
        assert curvature_tensor(ProductVector(zero_vector(p.first), zero_vector(p.second)), y, z, w) == 0.0

    @pytest.mark.parametrize("kappas", PAIRS)
    def test_first_factor_sectional_value(self, kappas):
        rng = np.random.default_rng(7)
        p = random_product_point(*kappas, rng)
        a = random_tangent(p.first, rng)
        a = a.scale(1.0 / a.norm())
        x = ProductVector(a, zero_vector(p.second))
        from prodform_geo.spaceform import complex_structure

        y = ProductVector(complex_structure(a), zero_vector(p.second))
        assert abs(curvature_tensor(x, y, y, x) - kappas[0]) < 1e-12

    @pytest.mark.parametrize("kappas", PAIRS)
    def test_mixed_plane_is_flat(self, kappas):
        rng = np.random.default_rng(8)
        p = random_product_point(*kappas, rng)
        a = random_tangent(p.first, rng)
        b = random_tangent(p.second, rng)
        x = ProductVector(a.scale(1.0 / a.norm()), zero_vector(p.second))
        y = ProductVector(zero_vector(p.first), b.scale(1.0 / b.norm()))
        assert abs(curvature_tensor(x, y, y, x)) < 1e-12

    @pytest.mark.parametrize("kappas", PAIRS)
    def test_algebraic_symmetries(self, kappas):
        rng = np.random.default_rng(9)
        for _ in range(20):
            p = random_product_point(*kappas, rng)
            x, y, z, w = (random_product_tangent(p, rng) for _ in range(4))
            r = curvature_tensor(x, y, z, w)
            assert abs(r + curvature_tensor(y, x, z, w)) < 1e-12 * max(1.0, abs(r))
            assert abs(r + curvature_tensor(x, y, w, z)) < 1e-12 * max(1.0, abs(r))
            assert abs(r - curvature_tensor(z, w, x, y)) < 1e-12 * max(1.0, abs(r))
            bianchi = (
                curvature_tensor(x, y, z, w)
                + curvature_tensor(y, z, x, w)
                + curvature_tensor(z, x, y, w)
            )
            assert abs(bianchi) < 1e-12 * max(1.0, abs(r))


def reference_curvature_tensor(x, y, z, w):
    """The literal form curvature_tensor had while it rebuilt each sum where it
    was used; the shared sums must give the same value bit for bit."""
    k1 = x.base.kappa1
    k2 = x.base.kappa2
    pw = product_structure(w)
    pz = product_structure(z)
    term1 = (
        product_metric(x, pw + w) * product_metric(y, pz + z)
        - product_metric(x, pz + z) * product_metric(y, pw + w)
    )
    term2 = (
        product_metric(x, pw - w) * product_metric(y, pz - z)
        - product_metric(x, pz - z) * product_metric(y, pw - w)
    )
    return k1 / 4.0 * term1 + k2 / 4.0 * term2


def _bits(r: float) -> bytes:
    return struct.pack("<d", r)


def _with_defect(v: ProductVector) -> ProductVector:
    """v with a normal defect of 1e-12 times the scale added to each curved
    factor, within CONSTRAINT_TOL, so that its check keeps it."""
    factors = []
    for f in (v.first, v.second):
        if f.kappa != 0:
            scale = max(1.0, float(np.max(np.abs(f.coords)))) * max(1.0, float(np.max(np.abs(f.base.coords))))
            f = ModelVector(f.base, f.coords + 1e-12 * scale * f.base.coords)
        factors.append(f)
    return ProductVector(*factors)


# the three cases first, then every other pair of curvatures
@pytest.mark.parametrize("kappas", PAIRS + [(k1, k2) for k1 in KAPPAS for k2 in KAPPAS if (k1, k2) not in PAIRS])
def test_curvature_tensor_matches_reference(kappas):
    rng = np.random.default_rng(12)
    for _ in range(40):
        p = random_product_point(*kappas, rng)
        x, y, z, w = (random_product_tangent(p, rng) for _ in range(4))
        # the single-factor vectors of the identities command's sectional checks
        a = ProductVector(random_tangent(p.first, rng), zero_vector(p.second))
        b = ProductVector(zero_vector(p.first), random_tangent(p.second, rng))
        ja, jb = complex_structures(a)[0], complex_structures(b)[0]
        for x_, y_, z_, w_ in ((x, y, z, w), (a, ja, ja, a), (b, jb, jb, b), (a, b, b, a), (x, b, a, w)):
            for args in ((x_, y_, z_, w_), (x_, y_, _with_defect(z_), _with_defect(w_))):
                assert _bits(curvature_tensor(*args)) == _bits(reference_curvature_tensor(*args))


@pytest.mark.parametrize("kappas", PAIRS)
def test_curvature_tensor_rejects_mixed_points_as_the_reference_does(kappas):
    rng = np.random.default_rng(13)
    p, q = (random_product_point(*kappas, rng) for _ in range(2))
    x, y, z = (random_product_tangent(p, rng) for _ in range(3))
    # w at another point, or at another point of the second factor only
    for elsewhere in (q, ProductPoint(p.first, q.second)):
        w = random_product_tangent(elsewhere, rng)
        with pytest.raises(GeometryError) as got:
            curvature_tensor(x, y, z, w)
        with pytest.raises(GeometryError) as want:
            reference_curvature_tensor(x, y, z, w)
        assert str(got.value) == str(want.value)


def test_curvature_tensor_checks_the_four_base_pairs_of_the_reference():
    # flat points in steps of 0.6e-9 along the cycle of checked pairs x-w, w-y,
    # y-z, z-x; points one step apart are the same point within 1e-9
    rng = np.random.default_rng(14)
    cycle = "xwyz"
    origin = ModelPoint(0, [0.0, 0.0])

    def vectors_at(steps, factor):
        out = []
        for name in "xyzw":
            shifted = ModelPoint(0, [0.6e-9 * steps[name], 0.0])
            points = (shifted, origin) if factor == 0 else (origin, shifted)
            out.append(ProductVector(*(ModelVector(q, rng.normal(size=2)) for q in points)))
        return out

    for factor in (0, 1):
        # only the pair closing the cycle, three steps apart, is not the same point
        for r in range(4):
            args = vectors_at({cycle[(i + r) % 4]: i for i in range(4)}, factor)
            with pytest.raises(GeometryError) as got:
                curvature_tensor(*args)
            with pytest.raises(GeometryError) as want:
                reference_curvature_tensor(*args)
            assert str(got.value) == str(want.value)
        # x and y two steps apart are never paired, so nothing is raised
        args = vectors_at({"x": 0, "w": 1, "z": 1, "y": 2}, factor)
        assert _bits(curvature_tensor(*args)) == _bits(reference_curvature_tensor(*args))


def test_curvature_tensor_builds_no_vectors(monkeypatch):
    rng = np.random.default_rng(15)
    p = random_product_point(1, -1, rng)
    x, y, z, w = (random_product_tangent(p, rng) for _ in range(4))
    with_defect = _with_defect(w)
    built = []
    original = ModelVector.__init__

    def counting(self, base, coords):
        built.append(base)
        original(self, base, coords)

    monkeypatch.setattr(ModelVector, "__init__", counting)
    curvature_tensor(x, y, z, w)
    curvature_tensor(x, y, z, with_defect)
    assert built == []


# Velocity and transport along a product geodesic, factor by factor; only
# these tests use them, so they live here.


def product_velocity(p: ProductPoint, x: ProductVector, l: float) -> ProductVector:
    """Velocity of the product geodesic at parameter ``l``."""
    return ProductVector(
        geodesic_transport(p.first, x.first, l)[1],
        geodesic_transport(p.second, x.second, l)[1],
    )


def product_transport(p: ProductPoint, x: ProductVector, l: float, w: ProductVector) -> ProductVector:
    """Parallel transport of ``w`` along the product geodesic with velocity x."""
    return ProductVector(
        parallel_transport(p.first, x.first, l, w.first),
        parallel_transport(p.second, x.second, l, w.second),
    )


class TestProductExp:
    def test_zero_parameter(self):
        rng = np.random.default_rng(10)
        p = random_product_point(1, 0, rng)
        x = random_product_tangent(p, rng)
        q = product_exp(p, x, 0.0)
        assert np.allclose(q.first.coords, p.first.coords, atol=1e-15)
        assert np.allclose(q.second.coords, p.second.coords, atol=1e-15)

    def test_stationary_second_component(self):
        rng = np.random.default_rng(11)
        p = random_product_point(1, -1, rng)
        x = ProductVector(random_tangent(p.first, rng), zero_vector(p.second))
        q = product_exp(p, x, 0.7)
        assert np.array_equal(q.second.coords, p.second.coords)

    def test_mixed_speed_factor_geodesics(self):
        p = ProductPoint(ModelPoint(1, [1.0, 0.0, 0.0]), ModelPoint(0, [0.0, 0.0]))
        s = 1.0 / math.sqrt(2.0)
        x = ProductVector(
            ModelVector(p.first, [0.0, s, 0.0]), ModelVector(p.second, [s, 0.0])
        )
        q = product_exp(p, x, math.pi * math.sqrt(2.0) / 2.0)
        assert np.allclose(q.first.coords, [0.0, 1.0, 0.0], atol=1e-15)
        assert np.allclose(q.second.coords, [math.pi / 2.0, 0.0], atol=1e-15)

    @pytest.mark.parametrize("kappas", PAIRS)
    def test_velocity_norm_preserved_componentwise(self, kappas):
        rng = np.random.default_rng(12)
        p = random_product_point(*kappas, rng)
        x = random_product_tangent(p, rng).scale(0.8)
        from prodform_geo.spaceform import metric

        for l in (0.5, -1.2):
            v = product_velocity(p, x, l)
            assert abs(metric(v.first, v.first) - metric(x.first, x.first)) < 1e-12
            assert abs(metric(v.second, v.second) - metric(x.second, x.second)) < 1e-12


class TestParallelTransport:
    @pytest.mark.parametrize("kappas", PAIRS)
    def test_commutes_with_product_structure(self, kappas):
        rng = np.random.default_rng(13)
        p = random_product_point(*kappas, rng)
        x = random_product_tangent(p, rng).scale(0.7)
        w = random_product_tangent(p, rng)
        l = 0.9
        lhs = product_transport(p, x, l, product_structure(w))
        rhs = product_structure(product_transport(p, x, l, w))
        assert np.array_equal(lhs.first.coords, rhs.first.coords)
        assert np.array_equal(lhs.second.coords, rhs.second.coords)

    @pytest.mark.parametrize("kappas", PAIRS)
    def test_preserves_gram_matrix(self, kappas):
        rng = np.random.default_rng(14)
        p = random_product_point(*kappas, rng)
        x = random_product_tangent(p, rng).scale(0.6)
        ws = [random_product_tangent(p, rng) for _ in range(3)]
        l = -1.1
        moved = [product_transport(p, x, l, w) for w in ws]
        for i in range(3):
            for j in range(3):
                assert abs(
                    product_metric(moved[i], moved[j]) - product_metric(ws[i], ws[j])
                ) < 1e-12 * max(1.0, abs(product_metric(ws[i], ws[j])))
