import decimal
import math
from dataclasses import replace
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

from prodform_geo import jacobi, spaceform
from prodform_geo.ambient import ProductVector, product_metric
from prodform_geo.classify import (
    CaseId,
    ExampleSpec,
    FAMILY_CURVE_X_FACTOR,
    FAMILY_FACTOR_X_CURVE,
    FAMILY_PSI,
    build_example,
)
from prodform_geo.cli import exact_derivatives, random_frame_shape
from prodform_geo.hypersurface import ORTHONORMAL_TOL, SYMMETRY_TOL, angle_of_normal, gram_schmidt, unit_normal
from prodform_geo.jacobi import (
    FRAME_EPS,
    CaseParams,
    FocalPointError,
    FrameShape,
    TaylorSeries,
    UnsupportedCaseError,
    detq_closed_form,
    detq_derivative_formula,
    detq_derivatives,
    detq_taylor,
    flow_frame,
    formula_orders,
    frame_shape_at,
    parallel_immersion,
    parallel_mean_curvature,
    parallel_shape,
    q_matrix,
    q_matrix_prime,
    stability_functions,
    stability_series,
    transported_frame,
)
from prodform_geo.spaceform import GeometryError, complex_structure, tangent_frame, zero_vector


def random_exact_shape(case, rng, den=100):
    """Entries in [-2, 2] and |C| < 0.95 on the 1/den grid."""
    entries = [Fraction(int(n), den) for n in rng.integers(-2 * den, 2 * den + 1, size=6)]
    c_max = (95 * den - 1) // 100
    c = Fraction(int(rng.integers(-c_max, c_max + 1)), den)
    a11, a22, a33, a12, a13, a23 = entries
    a = ((a11, a12, a13), (a12, a22, a23), (a13, a23, a33))
    return FrameShape(A=a, kappa1=case.kappa1, kappa2=case.kappa2, C=c)


def as_fractions(fs):
    """The same shape with every entry and C at its exact value as a Fraction."""
    a = tuple(tuple(Fraction(x) for x in row) for row in fs.A)
    return FrameShape(A=a, kappa1=fs.kappa1, kappa2=fs.kappa2, C=Fraction(fs.C))


class TestTaylorSeries:
    def test_exact_geometric_series_inverse(self):
        one_plus = TaylorSeries([Fraction(1), Fraction(1)], order=8)
        alternating = TaylorSeries([Fraction((-1) ** k) for k in range(9)])
        product = one_plus * alternating
        assert product.coeffs == [Fraction(1)] + [Fraction(0)] * 8

    def test_derivative_at_zero(self):
        s = TaylorSeries([Fraction(5), Fraction(0), Fraction(1, 2), Fraction(1, 6)])
        assert s.derivative_at_zero(2) == Fraction(1)
        assert s.derivative_at_zero(3) == Fraction(1)

    def test_evaluation(self):
        s = TaylorSeries([1.0, 1.0, 0.5, 1.0 / 6.0])
        assert abs(s(0.1) - math.exp(0.1)) < 1e-5  # order-3 truncation


class TestStabilityFunctions:
    def test_defined_once_in_spaceform(self):
        assert stability_functions is spaceform.stability_functions

    def test_zero_branch(self):
        assert stability_functions(0.0, 3.0) == (3.0, 1.0)

    def test_positive_branch(self):
        s, c = stability_functions(1.0, math.pi / 2.0)
        assert abs(s - 1.0) < 1e-15 and abs(c) < 1e-15

    def test_negative_branch(self):
        t = 0.7
        s, c = stability_functions(-1.0, t)
        assert abs(s - math.sinh(t)) < 1e-15
        assert abs(c - math.cosh(t)) < 1e-15

    @pytest.mark.parametrize("l", [800.0, -800.0])
    def test_overflow_names_the_flow_distance(self, l):
        # cosh(800) is past the largest float
        with pytest.raises(GeometryError, match=f"l = {l!r}"):
            stability_functions(-1.0, l)

    @pytest.mark.parametrize("delta", [-1.3, -0.2, 0.0, 0.4, 1.7])
    def test_series_matches_functions(self, delta):
        s_ser, c_ser = stability_series(delta, order=16)
        for l in (0.05, -0.3, 0.5):
            s, c = stability_functions(delta, l)
            assert abs(s_ser(l) - s) < 1e-12
            assert abs(c_ser(l) - c) < 1e-12

    def test_series_exact_on_fractions(self):
        s, c = stability_series(Fraction(1, 2), order=6)
        assert s.coeffs[1] == 1
        assert s.coeffs[3] == Fraction(-1, 12)  # -delta/3!
        assert c.coeffs[2] == Fraction(-1, 4)  # -delta/2!
        assert c.coeffs[4] == Fraction(1, 96)  # delta^2/4!

    @pytest.mark.parametrize("delta", ["0.5", "-1.25", "0", "-0"])
    def test_series_stays_decimal(self, delta):
        # each coefficient is the exact one rounded once, by the division
        # by its factorial, in the default context
        s, c = stability_series(Decimal(delta), order=8)
        s_exact, c_exact = stability_series(Fraction(delta), order=8)
        for got, exact, slots in ((s, s_exact, range(1, 9, 2)), (c, c_exact, range(0, 9, 2))):
            for k in slots:
                assert isinstance(got.coeffs[k], Decimal)
                assert got.coeffs[k] == Decimal(exact.coeffs[k].numerator) / exact.coeffs[k].denominator

    @pytest.mark.parametrize("delta", [-1.3, -0.2, 0.0, -0.0, 0.4, 1.7])
    def test_float_series_unchanged(self, delta):
        s, c = stability_series(delta, order=12)
        power = 1.0  # the float start the power had before it followed delta's ring
        for m in range(7):
            assert c.coeffs[2 * m] == power / math.factorial(2 * m)
            if 2 * m + 1 <= 12:
                assert s.coeffs[2 * m + 1] == power / math.factorial(2 * m + 1)
            power = power * (-delta)
        assert all(type(x) is float for x in s.coeffs[1::2] + c.coeffs[::2])


class TestCaseParams:
    def test_deltas_follow_angle(self):
        cp = CaseParams(1, -1, 0.5)
        assert cp.delta1 == 1 * 1.5 / 2
        assert cp.delta2 == -1 * 0.5 / 2

    def test_deltas_exact_on_fractions(self):
        cp = CaseParams(1, -1, Fraction(1, 3))
        assert cp.delta1 == Fraction(2, 3)
        assert cp.delta2 == Fraction(-1, 3)

    def test_angle_range_enforced(self):
        with pytest.raises(GeometryError):
            CaseParams(1, 0, 1.5)

    def test_non_finite_angle_rejected(self):
        with pytest.raises(GeometryError):
            CaseParams(1, -1, float("nan"))


class TestFrameShape:
    @pytest.mark.parametrize(
        "a",
        [
            ((math.nan, 0, 0), (0, 1, 0), (0, 0, 1)),
            ((math.inf, 0, 0), (0, 1, 0), (0, 0, 1)),
            ((1, math.nan, 0), (math.nan, 1, 0), (0, 0, 1)),
        ],
    )
    def test_non_finite_entry_rejected(self, a):
        with pytest.raises(GeometryError):
            FrameShape(A=a, kappa1=1, kappa2=-1, C=0.2)

    def test_case_built_once(self):
        fs = FrameShape(A=((1, 0, 0), (0, 1, 0), (0, 0, 1)), kappa1=1, kappa2=-1, C=Decimal("0.2"))
        assert fs.case is fs.case
        assert replace(fs, C=Decimal("0.3")).case.C == Decimal("0.3")


NUMBER_TYPES = [float, np.float64, Fraction, Decimal]


def old_shape_accepted(a):
    """The finite-and-symmetric test before each entry was judged in its own type."""
    for i in range(3):
        for j in range(i, 3):
            x, y = a[i][j], a[j][i]
            if not (-math.inf < x < math.inf and (x == y or abs(x - y) <= SYMMETRY_TOL)):
                return False
    return True


def old_angle_accepted(c):
    """The angle test of CaseParams before it compared C in its own type."""
    return math.isfinite(c) and abs(c) <= 1 + 1e-12


class TestValidationAcrossNumberTypes:
    """Shapes and angle values are accepted or rejected as before, in every number type."""

    @staticmethod
    def matrix(num, a00, a01, a10):
        zero, one = num("0"), num("1")
        return ((num(a00), num(a01), zero), (num(a10), one, zero), (zero, zero, one))

    def shape(self, num, *entries):
        return FrameShape(A=self.matrix(num, *entries), kappa1=1, kappa2=-1, C=num("0.2"))

    @pytest.mark.parametrize("num", NUMBER_TYPES)
    @pytest.mark.parametrize(
        "a00, a01, a10",
        [
            ("1e300", "0", "0"),
            ("1e400", "0", "0"),  # a float infinity, a huge exact number
            ("-1e400", "2", "2"),
            ("0.5", "0", "1e-8"),
            ("0.5", "0", "0.9e-8"),
            ("0.5", "0", "1.1e-8"),
            ("0.5", "1e-8", "0"),
            # just below and just above the binary value 1.0000000000000000209e-8
            # of the float tolerance: a float parse rounds both onto it
            ("0.5", "0", "1.00000000000000002e-8"),
            ("0.5", "0", "1.00000000000000003e-8"),
            ("0.5", "-1.00000000000000003e-8", "0"),
        ],
    )
    def test_finite_decisions_unchanged(self, num, a00, a01, a10):
        a = self.matrix(num, a00, a01, a10)
        if old_shape_accepted(a):
            assert self.shape(num, a00, a01, a10).A == a
        else:
            with pytest.raises(GeometryError):
                self.shape(num, a00, a01, a10)

    @pytest.mark.parametrize(
        "num, bad",
        [(num, bad) for num in (float, np.float64) for bad in ("nan", "inf", "-inf")]
        # a Decimal NaN traps in an ordering comparison, and a signaling one in ==
        + [(Decimal, bad) for bad in ("NaN", "sNaN", "-sNaN", "Infinity", "-Infinity")],
    )
    @pytest.mark.parametrize("where", [("bad", "0", "0"), ("0", "bad", "bad"), ("0", "0", "bad"), ("0", "bad", "0")])
    def test_non_finite_rejected(self, num, bad, where):
        with pytest.raises(GeometryError):
            self.shape(num, *(bad if w == "bad" else w for w in where))

    @pytest.mark.parametrize("num", NUMBER_TYPES)
    @pytest.mark.parametrize(
        "c", ["0.949", "-1", "1.000000000001", "1.0000000000010001", "1.00000000000101", "-1.5", "1e300"]
    )
    def test_angle_decisions_unchanged(self, num, c):
        if old_angle_accepted(num(c)):
            assert CaseParams(1, -1, num(c)).C == num(c)
        else:
            with pytest.raises(GeometryError):
                CaseParams(1, -1, num(c))

    @pytest.mark.parametrize("num", [float, np.float64, Decimal])
    @pytest.mark.parametrize("c", ["nan", "inf", "-inf"])
    def test_non_finite_angle_rejected(self, num, c):
        with pytest.raises(GeometryError):
            CaseParams(1, -1, num(c))

    @pytest.mark.parametrize("c", ["sNaN", "1e400", "-1e400"])
    def test_exact_angle_out_of_float_range_rejected(self, c):
        # float(Decimal("sNaN")) raises and 1e400 overflows a float, so neither
        # has a float-era decision to compare with
        with pytest.raises(GeometryError):
            CaseParams(1, -1, Decimal(c))


class TestAdaptedFrame:
    def _psi_frame(self, c):
        imm = build_example(ExampleSpec(family=FAMILY_PSI, c=c))
        u = np.array([0.2, -0.3, 0.4])
        n = unit_normal(imm, u)
        angle, v = angle_of_normal(n)
        return n, angle, v

    def test_orthonormal_gram_matrix(self):
        n, c, v = self._psi_frame(0.25)
        frame = flow_frame(n)
        gram = np.array([[product_metric(a, b) for b in frame] for a in frame])
        assert np.max(np.abs(gram - np.eye(3))) < 1e-10

    def test_balanced_case_denominators(self):
        from prodform_geo.ambient import complex_structures

        n, c, v = self._psi_frame(0.5)  # C = 0
        assert abs(c) < 1e-12
        j1n, j2n = complex_structures(n)
        assert abs(product_metric(j1n + j2n, j1n + j2n) - 2.0) < 1e-10
        assert abs(product_metric(j1n - j2n, j1n - j2n) - 2.0) < 1e-10

    def test_tangent_to_hypersurface(self):
        n, c, v = self._psi_frame(0.25)
        for e in flow_frame(n):
            assert abs(product_metric(e, n)) < 1e-10

    def test_degenerate_angle_rejected(self):
        imm = build_example(
            ExampleSpec(family=FAMILY_CURVE_X_FACTOR, kappa1=1, kappa2=0, k=1.0)
        )
        n = unit_normal(imm, np.zeros(3))
        c, _ = angle_of_normal(n)
        assert 1.0 - c * c < FRAME_EPS
        # the flow frame covers the degenerate case and stays orthonormal
        frame = flow_frame(n)
        gram = np.array([[product_metric(a, b) for b in frame] for a in frame])
        assert np.max(np.abs(gram - np.eye(3))) < 1e-12

    @pytest.mark.parametrize("strip", [0.9999999, 1e-7])
    def test_flow_frame_orthonormal_near_degenerate_angle(self, strip):
        # 0 < 1 - C^2 < FRAME_EPS: the fallback legs J N1, J N2 need scaling,
        # and the other factor's pair loses its small normal part
        n, c, v = self._psi_frame(strip)
        assert 0.0 < 1.0 - c * c < FRAME_EPS
        frame = flow_frame(n)
        gram = np.array([[product_metric(a, b) for b in frame] for a in frame])
        assert np.max(np.abs(gram - np.eye(3))) <= ORTHONORMAL_TOL
        assert max(abs(product_metric(e, n)) for e in frame) < 1e-12


def reference_degenerate_flow_frame(n):
    """``flow_frame`` where 1 - C^2 < FRAME_EPS, as written with one branch per sign of C."""
    c, _ = angle_of_normal(n)
    p = n.base
    if c > 0.0:
        jn1 = complex_structure(n.first)
        b1, b2 = tangent_frame(p.second)
        e1 = ProductVector(zero_vector(p.first), b1)
        e3 = ProductVector(zero_vector(p.first), b2)
        if c != 1.0:
            jn1 = jn1.scale(1.0 / math.sqrt((1.0 + c) / 2.0))
            e1, e3 = gram_schmidt([e - n.scale(product_metric(e, n)) for e in (e1, e3)])
        e2 = ProductVector(jn1, zero_vector(p.second))
    else:
        jn2 = complex_structure(n.second)
        a1, a2 = tangent_frame(p.first)
        e1 = ProductVector(a1, zero_vector(p.second))
        e2 = ProductVector(a2, zero_vector(p.second))
        if c != -1.0:
            jn2 = jn2.scale(1.0 / math.sqrt((1.0 - c) / 2.0))
            e1, e2 = gram_schmidt([e - n.scale(product_metric(e, n)) for e in (e1, e2)])
        e3 = ProductVector(zero_vector(p.first), jn2)
    return e1, e2, e3


def frame_bytes(frame):
    return [(e.first.coords.tobytes(), e.second.coords.tobytes()) for e in frame]


class TestFlowFrameDegenerateBranch:
    """The one C -> +-1 branch equals the two mirrored branches it replaced, bit for bit."""

    @pytest.mark.parametrize(
        "spec, angle",
        [
            (ExampleSpec(family=FAMILY_CURVE_X_FACTOR, kappa1=1, kappa2=-1, k=1.0), 1.0),
            (ExampleSpec(family=FAMILY_FACTOR_X_CURVE, kappa1=-1, kappa2=0, k=0.5), -1.0),
        ],
    )
    def test_exact_degenerate_angle(self, spec, angle):
        imm = build_example(spec)
        for u in imm.grid(3):
            n = unit_normal(imm, u)
            assert angle_of_normal(n)[0] == angle
            assert frame_bytes(flow_frame(n)) == frame_bytes(reference_degenerate_flow_frame(n))

    @pytest.mark.parametrize("strip", [1e-7, 0.9999999])
    def test_near_degenerate_strip(self, strip):
        imm = build_example(ExampleSpec(family=FAMILY_PSI, c=strip))
        for u in imm.grid(3):
            n = unit_normal(imm, u)
            c = angle_of_normal(n)[0]
            assert 0.0 < 1.0 - c * c < FRAME_EPS and (c > 0.0) == (strip < 0.5)
            assert frame_bytes(flow_frame(n)) == frame_bytes(reference_degenerate_flow_frame(n))


class TestQMatrix:
    def test_identity_at_zero(self):
        rng = np.random.default_rng(0)
        fs = random_frame_shape(CaseId.S2xH2, rng, exact=False)
        assert np.array_equal(q_matrix(fs, fs.case, 0.0), np.eye(3))

    def test_zero_shape_gives_diagonal(self):
        cp = CaseParams(1, -1, 0.3)
        fs = FrameShape(A=((0, 0, 0), (0, 0, 0), (0, 0, 0)), kappa1=1, kappa2=-1, C=0.3)
        l = 0.7
        s1, c1 = stability_functions(cp.delta1, l)
        s2, c2 = stability_functions(cp.delta2, l)
        assert np.allclose(q_matrix(fs, cp, l), np.diag([1.0, c1, c2]), atol=1e-15)

    @pytest.mark.parametrize("case", list(CaseId))
    def test_determinant_equals_closed_form(self, case):
        rng = np.random.default_rng(1)
        for _ in range(200):
            fs = random_frame_shape(case, rng, exact=False)
            l = float(rng.uniform(-0.5, 0.5))
            direct = float(np.linalg.det(q_matrix(fs, fs.case, l)))
            assert abs(direct - detq_closed_form(fs, fs.case, l)) < 1e-12

    def test_prime_matches_divided_difference(self):
        rng = np.random.default_rng(2)
        fs = random_frame_shape(CaseId.S2xR2, rng, exact=False)
        cp = fs.case
        l, h = 0.3, 1e-6
        numeric = (q_matrix(fs, cp, l + h) - q_matrix(fs, cp, l - h)) / (2 * h)
        assert np.max(np.abs(numeric - q_matrix_prime(fs, cp, l))) < 1e-8


class TestDetqClosedForm:
    def test_value_one_at_zero(self):
        rng = np.random.default_rng(3)
        fs = random_frame_shape(CaseId.H2xR2, rng, exact=False)
        assert detq_closed_form(fs, fs.case, 0.0) == 1.0

    def test_zero_shape_balanced_angle(self):
        fs = FrameShape(A=((0, 0, 0), (0, 0, 0), (0, 0, 0)), kappa1=1, kappa2=-1, C=0.0)
        cp = fs.case
        for l in (0.2, -0.6, 1.1):
            expected = math.cos(l / math.sqrt(2.0)) * math.cosh(l / math.sqrt(2.0))
            assert abs(detq_closed_form(fs, cp, l) - expected) < 1e-14

    def test_derivative_matches_divided_difference(self):
        rng = np.random.default_rng(4)
        fs = random_frame_shape(CaseId.S2xH2, rng, exact=False)
        cp = fs.case
        l, h = 0.25, 1e-6
        numeric = (detq_closed_form(fs, cp, l + h) - detq_closed_form(fs, cp, l - h)) / (2 * h)
        assert abs(numeric - jacobi.detq_and_slope(fs, cp, l)[1]) < 1e-9


def reference_value_and_slope(fs, cp, l):
    """det Q and its l-derivative as written out term by term before the (g, h) table."""
    s1, c1 = stability_functions(cp.delta1, l)
    s2, c2 = stability_functions(cp.delta2, l)
    a = fs.A
    value = (
        (1.0 - l * a[0][0]) * c1 * c2
        + (-a[1][1] + l * fs.H12) * s1 * c2
        + (-a[2][2] + l * fs.H13) * c1 * s2
        + (fs.H23 - l * fs.K) * s1 * s2
    )
    d1 = float(cp.delta1)
    d2 = float(cp.delta2)
    s1, c1 = stability_functions(d1, l)
    s2, c2 = stability_functions(d2, l)
    t1 = -a[0][0] * c1 * c2 + (1.0 - l * a[0][0]) * (-d1 * s1 * c2 - d2 * c1 * s2)
    t2 = fs.H12 * s1 * c2 + (-a[1][1] + l * fs.H12) * (c1 * c2 - d2 * s1 * s2)
    t3 = fs.H13 * c1 * s2 + (-a[2][2] + l * fs.H13) * (-d1 * s1 * s2 + c1 * c2)
    t4 = -fs.K * s1 * s2 + (fs.H23 - l * fs.K) * (c1 * s2 + s1 * c2)
    return value, t1 + t2 + t3 + t4


def reference_taylor(fs, cp, order=12):
    s1, c1 = stability_series(cp.delta1, order)
    s2, c2 = stability_series(cp.delta2, order)
    a = fs.A

    def lin(a0, a1):
        return TaylorSeries([a0, a1], order)

    return (
        lin(1, -a[0][0]) * c1 * c2
        + lin(-a[1][1], fs.H12) * s1 * c2
        + lin(-a[2][2], fs.H13) * c1 * s2
        + lin(fs.H23, -fs.K) * s1 * s2
    )


FLOW_DISTANCES = (0.0, 0.3, -0.3, 1.0, -1.0, 3.0, -3.0, 14.5, -14.5, 20.0, -20.0)


class TestSingleExpansion:
    """The (g, h) table gives the values of the written-out expansions, bit for bit."""

    @pytest.mark.parametrize("case", list(CaseId))
    def test_value_and_slope_on_float_shapes(self, case):
        rng = np.random.default_rng(40)
        shapes = [random_frame_shape(case, rng, exact=False) for _ in range(50)]
        shapes.append(FrameShape(A=((0.0, 0.0, 0.0),) * 3, kappa1=case.kappa1, kappa2=case.kappa2, C=0.0))
        for fs in shapes:
            for l in FLOW_DISTANCES:
                want = [float(x).hex() for x in reference_value_and_slope(fs, fs.case, l)]
                assert [float(x).hex() for x in jacobi.detq_and_slope(fs, fs.case, l)] == want
                assert detq_closed_form(fs, fs.case, l).hex() == want[0]

    def test_negative_zero_slope_kept(self):
        # a zero diagonal with det A > 0: each term of the slope at l = 0 is -0.0
        fs = FrameShape(A=((0.0, 1.0, 1.0), (1.0, 0.0, 1.0), (1.0, 1.0, 0.0)), kappa1=1, kappa2=0, C=0.0)
        want = [x.hex() for x in reference_value_and_slope(fs, fs.case, 0.0)]
        assert want[1] == (-0.0).hex()
        assert [x.hex() for x in jacobi.detq_and_slope(fs, fs.case, 0.0)] == want

    @pytest.mark.parametrize("case", list(CaseId))
    def test_taylor_on_fraction_and_decimal_draws(self, case):
        rng = np.random.default_rng(41)
        for _ in range(10):
            for fs in (random_exact_shape(case, rng), random_frame_shape(case, rng, exact=True)):
                got = detq_taylor(fs, fs.case).coeffs
                assert [repr(x) for x in got] == [repr(x) for x in reference_taylor(fs, fs.case).coeffs]


class TestParallelShape:
    def test_recovers_initial_shape_at_zero(self):
        rng = np.random.default_rng(5)
        fs = random_frame_shape(CaseId.S2xH2, rng, exact=False)
        cp = fs.case
        a_0 = parallel_shape(q_matrix(fs, cp, 0.0), q_matrix_prime(fs, cp, 0.0))
        assert np.max(np.abs(a_0 - np.array(fs.A, dtype=float))) < 1e-14

    @pytest.mark.parametrize("case", list(CaseId))
    def test_trace_equals_log_derivative(self, case):
        rng = np.random.default_rng(6)
        for _ in range(100):
            fs = random_frame_shape(case, rng, exact=False)
            cp = fs.case
            l = float(rng.uniform(-0.4, 0.4))
            if abs(detq_closed_form(fs, cp, l)) < 1e-3:
                continue
            a_l = parallel_shape(q_matrix(fs, cp, l), q_matrix_prime(fs, cp, l))
            h_flow = parallel_mean_curvature(*jacobi.detq_and_slope(fs, cp, l), l)
            assert abs(float(np.trace(a_l)) - h_flow) < 1e-10 * max(1.0, abs(h_flow))

    def test_focal_point_raises(self):
        # det Q = (1 - 2 l) for this data, singular at l = 1/2
        fs = FrameShape(A=((2, 0, 0), (0, 0, 0), (0, 0, 0)), kappa1=1, kappa2=0, C=0.0)
        cp = fs.case
        with pytest.raises(FocalPointError):
            parallel_shape(q_matrix(fs, cp, 0.5), q_matrix_prime(fs, cp, 0.5))
        with pytest.raises(FocalPointError):
            parallel_mean_curvature(*jacobi.detq_and_slope(fs, cp, 0.5), 0.5)

    def test_overflowed_det_q_is_not_a_focal_point(self):
        # C_delta(709) = cosh(709) is a float, but det Q = (1 - 709) cosh(709) is not
        fs = FrameShape(A=((1.0, 0.0, 0.0), (0.0, 0.0, 0.0), (0.0, 0.0, 0.0)), kappa1=-1, kappa2=0, C=1.0)
        with pytest.raises(GeometryError, match="l = 709.0") as raised:
            parallel_mean_curvature(*jacobi.detq_and_slope(fs, fs.case, 709.0), 709.0)
        assert not isinstance(raised.value, FocalPointError)


class TestParallelImmersion:
    def test_zero_flow_is_identity(self):
        imm = build_example(ExampleSpec(family=FAMILY_PSI, c=0.25))
        flowed = parallel_immersion(imm, 0.0)
        u = np.array([0.3, 0.2, -0.6])
        assert np.allclose(flowed.chart(u).first.coords, imm.chart(u).first.coords, atol=1e-14)
        assert np.allclose(flowed.chart(u).second.coords, imm.chart(u).second.coords, atol=1e-14)

    def test_flow_starts_from_the_normal_base_point(self):
        # the jacobian already gives the base point: no chart call is needed
        imm = build_example(ExampleSpec(family=FAMILY_PSI, c=0.25))
        calls = []

        def counted(u):
            calls.append(u)
            return imm.chart(u)

        charted = replace(imm, chart=counted)
        u = np.array([0.3, 0.2, -0.6])
        parallel_immersion(charted, 0.1).chart(u)
        transported_frame(charted, u, 0.1)
        assert calls == []

    def test_circle_radius_flows_linearly(self):
        imm = build_example(
            ExampleSpec(family=FAMILY_FACTOR_X_CURVE, kappa1=1, kappa2=0, k=1.0)
        )
        u = np.array([0.1, -0.2, 0.5])
        # the unit circle starts at the origin along (1, 0) and turns towards
        # J(1, 0) = (0, 1), about that point
        centre = np.array([0.0, 1.0])
        radii = []
        for l in (0.15, -0.15):
            q = parallel_immersion(imm, l).chart(u)
            radii.append(float(np.linalg.norm(q.second.coords - centre)))
        # the two opposite flows bracket the unit circle by exactly +-0.15
        assert abs(sum(radii) - 2.0) < 1e-12
        assert abs(abs(radii[0] - radii[1]) - 0.3) < 1e-12

    def test_overflowing_flow_is_a_geometry_error(self):
        # the normal's hyperbolic part has norm sqrt(0.75), and cosh(866) overflows
        chart = parallel_immersion(build_example(ExampleSpec(family=FAMILY_PSI, c=0.25)), 1000.0).chart
        with pytest.raises(GeometryError, match="l = 1000.0"):
            chart(np.array([0.1, -0.2, 0.5]))

    def test_angle_invariant_under_flow(self):
        specs = (
            ExampleSpec(family=FAMILY_PSI, c=0.25),
            ExampleSpec(family=FAMILY_CURVE_X_FACTOR, kappa1=1, kappa2=-1, k=0.5),
            ExampleSpec(family=FAMILY_FACTOR_X_CURVE, kappa1=-1, kappa2=0, k=2.0),
        )
        u = np.array([0.2, 0.4, -0.1])
        for spec in specs:
            imm = build_example(spec)
            base_c, _ = angle_of_normal(unit_normal(imm, u))
            for l in (0.1, -0.1, 0.2, -0.2):
                flowed = parallel_immersion(imm, l)
                c_l, _ = angle_of_normal(unit_normal(flowed, u))
                assert abs(c_l - base_c) < 1e-8

    def test_transported_frame_stays_orthonormal(self):
        imm = build_example(ExampleSpec(family=FAMILY_PSI, c=0.25))
        u = np.array([0.5, -0.5, 0.5])
        for l in (0.1, -0.2):
            frame_l, n_l = transported_frame(imm, u, l)
            gram = np.array([[product_metric(a, b) for b in frame_l] for a in frame_l])
            assert np.max(np.abs(gram - np.eye(3))) < 1e-8
            for e in frame_l:
                assert abs(product_metric(e, n_l)) < 1e-8

    # psi (H2 x R2, adapted frame) and a curve example at C = 1 (zero legs)
    FRAME_EXAMPLES = (
        ExampleSpec(family=FAMILY_PSI, c=0.25),
        ExampleSpec(family=FAMILY_CURVE_X_FACTOR, kappa1=1, kappa2=0, k=1.0),
    )

    @pytest.mark.parametrize("spec", FRAME_EXAMPLES, ids=lambda spec: spec.family)
    def test_transported_frame_takes_one_geodesic_per_factor(self, spec, monkeypatch):
        calls = []
        geodesic = spaceform._geodesic

        def counted(*args, **kwargs):
            calls.append(args)
            return geodesic(*args, **kwargs)

        monkeypatch.setattr(spaceform, "_geodesic", counted)
        transported_frame(build_example(spec), np.array([0.3, 0.2, -0.6]), 0.1)
        assert len(calls) == 2

    @pytest.mark.parametrize("spec", FRAME_EXAMPLES, ids=lambda spec: spec.family)
    def test_transported_frame_matches_one_transport_per_leg(self, spec):
        def transport(p, v, l, w):
            # parallel_transport as one closed form per vector
            q, velocity = spaceform._geodesic(p, v, l, velocity=True)
            vv = spaceform.form(p.kappa, v.coords, v.coords)
            beta = spaceform.form(p.kappa, w.coords, v.coords) / vv if vv > 0.0 else 0.0
            return spaceform.ModelVector(q, beta * velocity + (w.coords - beta * v.coords))

        def velocity(p, v, l):
            return spaceform.ModelVector(*spaceform._geodesic(p, v, l, velocity=True))

        imm = build_example(spec)
        for u in imm.grid(3):
            n = unit_normal(imm, u)
            p = n.base
            for l in (-0.2, 0.1, 1.0):
                want = [
                    ProductVector(transport(p.first, n.first, l, e.first), transport(p.second, n.second, l, e.second))
                    for e in flow_frame(n)
                ]
                want.append(ProductVector(velocity(p.first, n.first, l), velocity(p.second, n.second, l)))
                frame_l, n_l = transported_frame(imm, u, l)
                for got, ref in zip((*frame_l, n_l), want, strict=True):
                    for g, r in ((got.first, ref.first), (got.second, ref.second)):
                        assert g.coords.tobytes() == r.coords.tobytes()
                        assert g.base.coords.tobytes() == r.base.coords.tobytes()


class TestDetqTaylor:
    def test_constant_coefficient_is_one(self):
        rng = np.random.default_rng(7)
        fs = random_exact_shape(CaseId.S2xH2, rng)
        series = detq_taylor(fs, fs.case)
        assert series.coeffs[0] == 1

    def test_linear_coefficient_is_minus_mean_curvature(self):
        rng = np.random.default_rng(8)
        for case in CaseId:
            fs = random_exact_shape(case, rng)
            series = detq_taylor(fs, fs.case)
            assert series.coeffs[1] == -fs.H

    def test_second_derivative_display(self):
        rng = np.random.default_rng(9)
        for case in CaseId:
            fs = random_exact_shape(case, rng)
            series = detq_taylor(fs, fs.case)
            k1, k2, c = fs.kappa1, fs.kappa2, fs.C
            expected = fs.rho - Fraction(3 * (k1 + k2), 2) + Fraction(k1 - k2, 2) * c
            assert series.derivative_at_zero(2) == expected


def series_derivatives(fs, order=12):
    series = detq_taylor(fs, fs.case, order)
    return {k: series.derivative_at_zero(k) for k in range(order + 1)}


class TestDetqDerivatives:
    """The integer Leibniz oracle equals the series engine exactly."""

    @pytest.mark.parametrize("case", list(CaseId))
    def test_equals_series_on_cli_grid(self, case):
        rng = np.random.default_rng(13)
        for _ in range(200):
            fs = random_exact_shape(case, rng, den=1000)
            assert detq_derivatives(fs, fs.case, range(13)) == series_derivatives(fs)

    @pytest.mark.parametrize("den", [3, 7])
    @pytest.mark.parametrize("case", list(CaseId))
    def test_equals_series_off_grid(self, case, den):
        rng = np.random.default_rng(14)
        for _ in range(30):
            fs = random_exact_shape(case, rng, den=den)
            assert detq_derivatives(fs, fs.case, range(13)) == series_derivatives(fs)

    @pytest.mark.parametrize("case", list(CaseId))
    def test_zero_shape(self, case):
        zero = ((Fraction(0),) * 3,) * 3
        fs = FrameShape(A=zero, kappa1=case.kappa1, kappa2=case.kappa2, C=Fraction(1, 5))
        assert detq_derivatives(fs, fs.case, range(13)) == series_derivatives(fs)

    @pytest.mark.parametrize("c", [1, -1])
    @pytest.mark.parametrize("case", list(CaseId))
    def test_degenerate_angle(self, case, c):
        # C = 1 makes delta2 = 0 and C = -1 makes delta1 = 0
        rng = np.random.default_rng(15)
        for _ in range(10):
            fs = replace(random_exact_shape(case, rng, den=1000), C=Fraction(c))
            assert detq_derivatives(fs, fs.case, range(13)) == series_derivatives(fs)

    def test_float_entries_taken_exactly(self):
        fs = random_frame_shape(CaseId.S2xH2, np.random.default_rng(16), exact=False)
        got = detq_derivatives(fs, fs.case, range(13))
        assert {k: Fraction(v) for k, v in got.items()} == series_derivatives(as_fractions(fs))

    @pytest.mark.parametrize("case", list(CaseId))
    def test_decimal_shape_equals_its_fractions(self, case):
        rng = np.random.default_rng(21)
        for _ in range(100):
            fs = random_frame_shape(case, rng, exact=True)
            exact = as_fractions(fs)
            got = detq_derivatives(fs, fs.case, range(13))
            assert got == detq_derivatives(exact, exact.case, range(13)) == series_derivatives(exact)

    def test_requested_orders_only(self):
        fs = random_exact_shape(CaseId.S2xR2, np.random.default_rng(17))
        assert set(detq_derivatives(fs, fs.case, (4, 10))) == {4, 10}
        with pytest.raises(ValueError):
            detq_derivatives(fs, fs.case, (-1,))


class TestDerivativeFormulas:
    def test_first_order_is_minus_h(self):
        cp = CaseParams(1, -1, 0.2)
        assert detq_derivative_formula(1, cp, H=1.75) == -1.75

    def test_second_order_flat_second_factor(self):
        cp = CaseParams(1, 0, 0.4)
        value = detq_derivative_formula(2, cp, rho=2.0, H12=0.3, H13=0.7)
        assert abs(value - (2.0 - 1.5 + 0.2)) < 1e-15

    @pytest.mark.parametrize("case", list(CaseId))
    def test_exact_match_with_series_oracle(self, case):
        rng = np.random.default_rng(10)
        orders = (1, 2, 4, 6, 10) if case is CaseId.S2xH2 else (1, 2, 4, 6)
        for _ in range(60):
            fs = random_exact_shape(case, rng)
            cp = fs.case
            series = detq_taylor(fs, cp, order=12)
            for k in orders:
                formula = detq_derivative_formula(
                    k, cp, H=fs.H, rho=fs.rho, H12=fs.H12, H13=fs.H13
                )
                assert series.derivative_at_zero(k) == formula

    @pytest.mark.parametrize("case", list(CaseId))
    def test_float_inputs_match_to_tolerance(self, case):
        rng = np.random.default_rng(11)
        orders = (1, 2, 4, 6, 10) if case is CaseId.S2xH2 else (1, 2, 4, 6)
        for _ in range(60):
            fs = random_frame_shape(case, rng, exact=False)
            cp = fs.case
            series = detq_taylor(fs, cp, order=12)
            for k in orders:
                oracle = series.derivative_at_zero(k)
                formula = detq_derivative_formula(
                    k, cp, H=fs.H, rho=fs.rho, H12=fs.H12, H13=fs.H13
                )
                assert abs(oracle - formula) < 1e-10 * max(1.0, abs(oracle))

    def test_orders_without_closed_form_rejected(self):
        cp = CaseParams(1, -1, 0.1)
        for k in (3, 5, 7, 8, 9, 11):
            with pytest.raises((UnsupportedCaseError, GeometryError)):
                detq_derivative_formula(k, cp, H=1.0, rho=1.0, H12=0.0, H13=0.0)

    def test_order_ten_needs_sphere_times_hyperbolic(self):
        cp = CaseParams(1, 0, 0.1)
        with pytest.raises(UnsupportedCaseError):
            detq_derivative_formula(10, cp, rho=1.0, H12=0.0, H13=0.0)

    @pytest.mark.parametrize(
        "kappas, orders",
        [((1, -1), (1, 2, 4, 6, 10)), ((1, 0), (1, 2, 4, 6)), ((-1, 0), (1, 2, 4, 6))],
    )
    def test_formula_orders(self, kappas, orders):
        assert formula_orders(*kappas) == orders
        cp = CaseParams(*kappas, 0.1)
        for k in set(range(-1, 13)) - set(orders):
            with pytest.raises(UnsupportedCaseError):
                detq_derivative_formula(k, cp, H=1.0, rho=1.0, H12=0.0, H13=0.0)


class TestDecimalClosedForms:
    """The closed forms evaluated in the trapped decimal context equal the oracle."""

    @staticmethod
    def assert_exact(fs, case):
        orders = (1, 2, 4, 6, 10) if case is CaseId.S2xH2 else (1, 2, 4, 6)
        closed, _ = exact_derivatives(fs, orders)
        assert {k: Fraction(v) for k, v in closed.items()} == detq_derivatives(fs, fs.case, orders)

    @pytest.mark.parametrize("case", list(CaseId))
    def test_equals_oracle_on_cli_grid(self, case):
        rng = np.random.default_rng(18)
        for _ in range(200):
            self.assert_exact(random_frame_shape(case, rng, exact=True), case)

    @pytest.mark.parametrize("c", [Decimal("0.949"), Decimal("-0.949")])
    @pytest.mark.parametrize("case", list(CaseId))
    def test_extreme_grid_angle(self, case, c):
        rng = np.random.default_rng(19)
        for _ in range(10):
            self.assert_exact(replace(random_frame_shape(case, rng, exact=True), C=c), case)

    @pytest.mark.parametrize("case", list(CaseId))
    def test_zero_shape(self, case):
        zero = ((Decimal(0),) * 3,) * 3
        self.assert_exact(FrameShape(A=zero, kappa1=case.kappa1, kappa2=case.kappa2, C=Decimal("0.2")), case)

    def test_off_grid_entry_raises_inexact(self):
        # a 30-digit entry is exact as a Decimal, but its square in rho needs 60 digits
        fs = random_frame_shape(CaseId.S2xH2, np.random.default_rng(20), exact=True)
        a = [list(row) for row in fs.A]
        a[0][0] = Decimal("0." + "3" * 30)
        with pytest.raises(decimal.Inexact):
            exact_derivatives(replace(fs, A=tuple(map(tuple, a))), (1, 2))


class TestJacobiAgainstNumericFlow:
    def test_flowed_shape_operator_matches(self):
        from prodform_geo.hypersurface import shape_operator

        imm = build_example(ExampleSpec(family=FAMILY_PSI, c=0.25))
        u = np.array([0.3, -0.2, 0.4])
        fs, cp, _ = frame_shape_at(imm, u)
        for l in (0.1, -0.2):
            a_jacobi = parallel_shape(q_matrix(fs, cp, l), q_matrix_prime(fs, cp, l))
            flowed = parallel_immersion(imm, l)
            frame_l, n_l = transported_frame(imm, u, l)
            rec_l = shape_operator(flowed, u, basis=frame_l, hint=n_l)
            assert np.max(np.abs(a_jacobi - rec_l.A)) < 1e-8
