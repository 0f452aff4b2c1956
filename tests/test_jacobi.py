import decimal
import math
from dataclasses import replace
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

import prodform_geo
from prodform_geo import hypersurface, jacobi, spaceform
from prodform_geo.ambient import ProductVector, product_exp, product_metric, product_structure
from prodform_geo.classify import (
    CaseId,
    ExampleSpec,
    FAMILY_CURVE_X_FACTOR,
    FAMILY_FACTOR_X_CURVE,
    FAMILY_PSI,
    build_example,
    gallery_specs,
)
from prodform_geo.cli import exact_derivatives, random_frame_shape
from prodform_geo.hypersurface import ORTHONORMAL_TOL, SYMMETRY_TOL, ShapeRecord, angle_of_normal, unit_normal
from prodform_geo.jacobi import (
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
from prodform_geo.spaceform import GeometryError


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
    def test_shape_classes_live_in_hypersurface(self):
        # jacobi and the package re-export the one definition of each
        assert jacobi.FrameShape is prodform_geo.FrameShape is hypersurface.FrameShape
        assert jacobi.CaseParams is hypersurface.CaseParams

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
        assert (fs.case.kappa1, fs.case.kappa2, fs.case.C) == (1, -1, Decimal("0.2"))
        other = replace(fs, C=Decimal("0.3"))
        assert other.case.C == Decimal("0.3") and other.case is not fs.case and fs.case.C == Decimal("0.2")
        # the angle is checked when the shape is built, not when its case is first read
        with pytest.raises(GeometryError, match=r"angle value must lie in \[-1, 1\], got Decimal\('1\.5'\)"):
            replace(fs, C=Decimal("1.5"))


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


#: the messages of the shape and angle checks, spelled out
NOT_3X3 = "shape matrix must be 3 x 3"
NOT_FINITE_SYMMETRIC = "shape matrix must be finite and symmetric within 1e-08"
ANGLE_OUT = "angle value must lie in [-1, 1], got "

ALL_KINDS = (float, np.float64, int, Fraction, Decimal)
REAL_KINDS = (float, np.float64, Fraction, Decimal)

ABOVE_SYMMETRY_TOL = math.nextafter(SYMMETRY_TOL, math.inf)
BELOW_SYMMETRY_TOL = math.nextafter(SYMMETRY_TOL, 0.0)
ANGLE_BOUND = 1 + 1e-12

#: 1e-40 above the angle bound and above SYMMETRY_TOL, in Decimals of up to 80
#: digits: a Decimal operation in the default 28-digit context rounds them
#: onto the bound, and one in a context that traps Inexact raises
_PREC_80 = decimal.Context(prec=80)
DECIMAL_ANGLE_JUST_OUT = _PREC_80.add(Decimal(ANGLE_BOUND), Decimal("1e-40"))
DECIMAL_GAP_JUST_OUT = _PREC_80.add(Decimal(SYMMETRY_TOL), Decimal("1e-40"))


def _identity_with(slot, value):
    rows = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    i, j = slot
    rows[i][j] = value
    return rows


def assert_geometry_error(build, message):
    """``build()`` raises a GeometryError itself, not a subclass, with exactly ``message``."""
    with pytest.raises(GeometryError) as err:
        build()
    assert type(err.value) is GeometryError and str(err.value) == message


def _shape_table():
    """(label, number kinds, rows, None if accepted or the message of the GeometryError)."""
    table = [
        ("identity", ALL_KINDS, [[1, 0, 0], [0, 1, 0], [0, 0, 1]], None),
        ("symmetric", ALL_KINDS, [[2, -1, 0], [-1, 0, 1], [0, 1, -2]], None),
        ("two-rows", ALL_KINDS, [[1, 0, 0], [0, 1, 0]], NOT_3X3),
        ("four-rows", ALL_KINDS, [[1, 0, 0], [0, 1, 0], [0, 0, 1], [0, 0, 0]], NOT_3X3),
        ("short-row", ALL_KINDS, [[1, 0, 0], [0, 1], [0, 0, 1]], NOT_3X3),
        ("long-row", ALL_KINDS, [[1, 0, 0], [0, 1, 0], [0, 0, 1, 0]], NOT_3X3),
        ("ragged-and-non-finite", (float, Decimal), [[1, 0, 0], ["nan", 1], [0, 0, 1]], NOT_3X3),
        ("asymmetric-by-one", ALL_KINDS, [[1, 0, 0], [1, 1, 0], [0, 0, 1]], NOT_FINITE_SYMMETRIC),
    ]
    for slot in [(i, j) for i in range(3) for j in range(3)]:
        for bad in ("nan", "inf", "-inf", "sNaN"):
            kinds = (Decimal,) if bad == "sNaN" else (float, np.float64, Decimal)
            table.append((f"{bad}-at-{slot}", kinds, _identity_with(slot, bad), NOT_FINITE_SYMMETRIC))
    for slot in ((0, 1), (0, 2), (1, 2), (1, 0), (2, 0), (2, 1)):
        # an off-diagonal gap one float below, at and one float above SYMMETRY_TOL, either sign
        for gap, verdict in (
            (BELOW_SYMMETRY_TOL, None),
            (SYMMETRY_TOL, None),
            (ABOVE_SYMMETRY_TOL, NOT_FINITE_SYMMETRIC),
        ):
            for x in (gap, -gap):
                table.append((f"gap-{x!r}-at-{slot}", REAL_KINDS, _identity_with(slot, x), verdict))
        just_out = _identity_with(slot, DECIMAL_GAP_JUST_OUT)
        table.append((f"gap-just-out-at-{slot}", (Decimal,), just_out, NOT_FINITE_SYMMETRIC))
    return [
        pytest.param(num, rows, verdict, id=f"{label}-{num.__name__}")
        for label, kinds, rows, verdict in table
        for num in kinds
    ]


def _angle_table():
    """(number kind, C, None if accepted or the message of the GeometryError)."""
    table = []
    for c in (0.0, 0.5, 1.0, math.nextafter(ANGLE_BOUND, 0.0), ANGLE_BOUND):
        table += [(num, num(x), None) for num in REAL_KINDS for x in (c, -c)]
    for c in (math.nextafter(ANGLE_BOUND, math.inf), 2.0, 1e300):
        table += [(num, num(x), ANGLE_OUT + repr(num(x))) for num in REAL_KINDS for x in (c, -c)]
    table += [(int, c, None) for c in (-1, 0, 1)] + [(int, c, ANGLE_OUT + repr(c)) for c in (-2, 2, 10**400)]
    table += [(num, num(x), ANGLE_OUT + repr(num(x))) for num in (float, np.float64) for x in ("nan", "inf", "-inf")]
    table += [(Decimal, Decimal(x), ANGLE_OUT + repr(Decimal(x))) for x in ("NaN", "sNaN", "Infinity", "-Infinity")]
    # copy_negate, since unary minus rounds to the context
    just_out = (DECIMAL_ANGLE_JUST_OUT, DECIMAL_ANGLE_JUST_OUT.copy_negate())
    table += [(Decimal, c, ANGLE_OUT + repr(c)) for c in just_out]
    return table


def _entries(num, rows):
    """``rows`` in the number kind ``num``: floats at their exact value, strings parsed."""
    return tuple(tuple(x if isinstance(x, num) else num(x) for x in row) for row in rows)


class TestShapeAndAngleTable:
    """Floats meet a fused test first and the ordered tests behind it; every
    other number kind meets the ordered tests alone, which judge a Decimal
    without rounding it.  Each input keeps its stored ``A`` or its exception
    class and literal message."""

    @pytest.mark.parametrize("num, rows, verdict", _shape_table())
    def test_shape(self, num, rows, verdict):
        a = _entries(num, rows)
        if verdict is None:
            assert FrameShape(A=a, kappa1=1, kappa2=-1, C=0.25).A is a
        else:
            assert_geometry_error(lambda: FrameShape(A=a, kappa1=1, kappa2=-1, C=0.25), verdict)

    @pytest.mark.parametrize("num, c, verdict", _angle_table(), ids=lambda v: getattr(v, "__name__", repr(v)[:40]))
    def test_angle(self, num, c, verdict):
        a = ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0))
        if verdict is None:
            assert CaseParams(1, -1, c).C is c
            assert FrameShape(A=a, kappa1=1, kappa2=-1, C=c).case.C is c
        else:
            assert_geometry_error(lambda: CaseParams(1, -1, c), verdict)
            # a FrameShape checks its angle when it is built
            assert_geometry_error(lambda: FrameShape(A=a, kappa1=1, kappa2=-1, C=c), verdict)

    @pytest.mark.parametrize("cls", [FrameShape, ShapeRecord])
    @pytest.mark.parametrize(
        "a",
        [[1.0, 2.0, 3.0], np.zeros(3), 5.0, [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], 5.0]],
        ids=["flat-list", "flat-array", "scalar", "scalar-row"],
    )
    def test_what_has_no_rows_is_not_3x3(self, cls, a):
        # a record's own fields, its basis and normal, are not checked
        extra = {"basis": (), "normal": None} if cls is ShapeRecord else {}
        assert_geometry_error(lambda: cls(A=a, kappa1=1, kappa2=-1, C=0.0, **extra), NOT_3X3)

    def test_decimals_just_out_are_rejected_where_inexact_traps(self):
        a = _entries(Decimal, _identity_with((1, 0), DECIMAL_GAP_JUST_OUT))
        with decimal.localcontext() as ctx:
            ctx.traps[decimal.Inexact] = True
            c = DECIMAL_ANGLE_JUST_OUT
            assert_geometry_error(lambda: CaseParams(1, -1, c), ANGLE_OUT + repr(c))
            assert_geometry_error(lambda: FrameShape(A=a, kappa1=1, kappa2=-1, C=0.25), NOT_FINITE_SYMMETRIC)

    def test_other_rows_are_copied_into_tuples(self):
        rows = [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]
        for a in (rows, tuple(rows), np.array(rows).tolist(), [tuple(row) for row in rows]):
            fs = FrameShape(A=a, kappa1=1, kappa2=-1, C=0.5)
            assert fs.A == ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0))
            assert type(fs.A) is tuple and all(type(row) is tuple for row in fs.A)

    @pytest.mark.parametrize(
        "a, verdict",
        [
            (((1.5, 1e-9, 0), (0, 1.5, 0.0), (0.0, 0.0, 1.5)), None),
            (((1.5, 2e-8, 0), (0, 1.5, 0.0), (0.0, 0.0, 1.5)), NOT_FINITE_SYMMETRIC),
            (((Decimal(1), 0, 0), (0, 1, 0), (0, 0, Decimal("NaN"))), NOT_FINITE_SYMMETRIC),
            (((Fraction(1, 3), 0.0, 0), (0, 1, 0), (0, 0, 1)), None),
            # an unequal pair of a Decimal and a float or a Fraction is judged exactly
            (((1.0, Decimal("0.25"), 0), (0.5, 1, 0), (0, 0, 1)), NOT_FINITE_SYMMETRIC),
            (((1.0, Decimal("0.25"), 0), (0.250000005, 1, 0), (0, 0, 1)), None),
            (((1, Decimal("0.25"), 0), (Fraction(1, 2), 1, 0), (0, 0, 1)), NOT_FINITE_SYMMETRIC),
            (((1, Decimal("0.25"), 0), (Fraction(1, 4) + Fraction(1, 10**8), 1, 0), (0, 0, 1)), None),
        ],
        ids=[
            "float-int-near",
            "float-int-far",
            "decimal-int-nan",
            "fraction-float-int",
            "decimal-float-far",
            "decimal-float-near",
            "decimal-fraction-far",
            "decimal-fraction-at-tol",
        ],
    )
    def test_mixed_kinds_meet_the_ordered_tests(self, a, verdict):
        if verdict is None:
            assert FrameShape(A=a, kappa1=1, kappa2=-1, C=0.25).A is a
        else:
            assert_geometry_error(lambda: FrameShape(A=a, kappa1=1, kappa2=-1, C=0.25), verdict)


class TestAdaptedFrame:
    def _psi_frame(self, c):
        imm = build_example(ExampleSpec(family=FAMILY_PSI, c=c))
        u = np.array([0.2, -0.3, 0.4])
        n = unit_normal(imm, u)
        return n, angle_of_normal(n)

    def test_orthonormal_gram_matrix(self):
        n, c = self._psi_frame(0.25)
        frame = flow_frame(n)
        gram = np.array([[product_metric(a, b) for b in frame] for a in frame])
        assert np.max(np.abs(gram - np.eye(3))) < 1e-10

    def test_balanced_case_denominators(self):
        from prodform_geo.ambient import complex_structures

        n, c = self._psi_frame(0.5)  # C = 0
        assert abs(c) < 1e-12
        j1n, j2n = complex_structures(n)
        assert abs(product_metric(j1n + j2n, j1n + j2n) - 2.0) < 1e-10
        assert abs(product_metric(j1n - j2n, j1n - j2n) - 2.0) < 1e-10

    def test_tangent_to_hypersurface(self):
        n, c = self._psi_frame(0.25)
        for e in flow_frame(n):
            assert abs(product_metric(e, n)) < 1e-10

    def test_degenerate_angle_rejected(self):
        imm = build_example(
            ExampleSpec(family=FAMILY_CURVE_X_FACTOR, kappa1=1, kappa2=0, k=1.0)
        )
        n = unit_normal(imm, np.zeros(3))
        c = angle_of_normal(n)
        assert 1.0 - c * c < 1e-6
        # the flow frame covers the degenerate case and stays orthonormal
        frame = flow_frame(n)
        gram = np.array([[product_metric(a, b) for b in frame] for a in frame])
        assert np.max(np.abs(gram - np.eye(3))) < 1e-12

    @pytest.mark.parametrize("strip", [0.9999999, 1e-7])
    def test_flow_frame_orthonormal_near_degenerate_angle(self, strip):
        # 0 < 1 - C^2 < 1e-6: one factor part of the normal is short, and its
        # unit direction is that short part scaled up
        n, c = self._psi_frame(strip)
        assert 0.0 < 1.0 - c * c < 1e-6
        frame = flow_frame(n)
        gram = np.array([[product_metric(a, b) for b in frame] for a in frame])
        assert np.max(np.abs(gram - np.eye(3))) <= ORTHONORMAL_TOL
        assert max(abs(product_metric(e, n)) for e in frame) < 1e-12


#: every curve example (C = +-1, a factor part of the normal is zero) and psi
#: from C -> 1 through C = 0 to C -> -1
FRAME_SPECS = [spec for spec in gallery_specs() if spec.family != FAMILY_PSI] + [
    ExampleSpec(family=FAMILY_PSI, c=c) for c in (1e-300, 1e-7, 0.25, 0.5, 0.9999999, 0.9999999999999999)
]


class TestFlowFrameStructure:
    @pytest.mark.parametrize("spec", FRAME_SPECS, ids=lambda spec: spec.label())
    def test_orthonormal_tangent_split_by_factor(self, spec):
        imm = build_example(spec)
        for u in imm.grid(3):
            n = unit_normal(imm, u)
            frame = e1, e2, e3 = flow_frame(n)
            gram = np.array([[product_metric(a, b) for b in frame] for a in frame])
            assert np.max(np.abs(gram - np.eye(3))) <= 1e-12
            assert max(abs(product_metric(e, n)) for e in frame) <= 1e-12
            # e2 lies in the first factor and e3 in the second
            assert not e2.second.coords.any() and not e3.first.coords.any()
            c = angle_of_normal(n)
            assert isinstance(c, float)
            if 1.0 - c * c >= 1e-6:
                # e1 is V/|V|, V = PN - CN, where |V|^2 = 1 - C^2
                v = (product_structure(n) - n.scale(c)).scale(1.0 / math.sqrt(1.0 - c * c))
                for got, want in ((e1.first, v.first), (e1.second, v.second)):
                    assert np.max(np.abs(got.coords - want.coords)) <= 1e-12


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

    def test_exact_entries_give_the_float_matrices(self):
        # q_matrix and q_matrix_prime read every entry as its float
        fs = random_exact_shape(CaseId.S2xH2, np.random.default_rng(4))
        floats = FrameShape(A=np.array(fs.A, dtype=float).tolist(), kappa1=1, kappa2=-1, C=float(fs.C))
        for build in (q_matrix, q_matrix_prime):
            assert build(fs, floats.case, 0.3).tobytes() == build(floats, floats.case, 0.3).tobytes()

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

    @staticmethod
    def _random_pairs(count):
        rng = np.random.default_rng(11)
        pairs = []
        for i in range(count):
            fs = random_frame_shape(list(CaseId)[i % 3], rng, exact=False)
            l = float(rng.uniform(-0.4, 0.4))
            pairs.append((q_matrix(fs, fs.case, l), q_matrix_prime(fs, fs.case, l)))
        return pairs

    def test_stack_equals_each_matrix_alone(self):
        pairs = self._random_pairs(300)
        stacked = parallel_shape(np.array([q for q, _ in pairs]), np.array([qp for _, qp in pairs]))
        assert stacked.shape == (300, 3, 3)
        assert stacked.tobytes() == b"".join(parallel_shape(q, qp).tobytes() for q, qp in pairs)
        # a (2, 150, 3, 3) stack too
        nested = parallel_shape(
            np.array([q for q, _ in pairs]).reshape(2, 150, 3, 3),
            np.array([qp for _, qp in pairs]).reshape(2, 150, 3, 3),
        )
        assert nested.tobytes() == stacked.tobytes()

    def test_one_focal_matrix_in_a_stack_raises(self):
        qs, q_primes = (list(m) for m in zip(*self._random_pairs(5)))
        # det Q = (1 - 2 l) for this data, singular at l = 1/2
        fs = FrameShape(A=((2, 0, 0), (0, 0, 0), (0, 0, 0)), kappa1=1, kappa2=0, C=0.0)
        qs[3], q_primes[3] = q_matrix(fs, fs.case, 0.5), q_matrix_prime(fs, fs.case, 0.5)
        with pytest.raises(FocalPointError, match=r"^det Q = 0\.000e\+00 at stacked matrix 3: focal point reached$"):
            parallel_shape(np.array(qs), np.array(q_primes))

    def test_one_matrix_value_and_message(self):
        for q, q_prime in self._random_pairs(20):
            assert parallel_shape(q, q_prime).tobytes() == (-q_prime @ np.linalg.inv(q)).tobytes()
        fs = FrameShape(A=((2, 0, 0), (0, 0, 0), (0, 0, 0)), kappa1=1, kappa2=0, C=0.0)
        l = 0.5 - 1e-12
        q = q_matrix(fs, fs.case, l)
        det = float(np.linalg.det(q))
        assert 0.0 < det < jacobi.FOCAL_TOL
        with pytest.raises(FocalPointError) as raised:
            parallel_shape(q, q_matrix_prime(fs, fs.case, l))
        assert str(raised.value) == f"det Q = {det:.3e}: focal point reached"

    def test_overflowed_det_q_is_not_a_focal_point(self):
        # C_delta(709) = cosh(709) is a float, but det Q = (1 - 709) cosh(709) is not
        fs = FrameShape(A=((1.0, 0.0, 0.0), (0.0, 0.0, 0.0), (0.0, 0.0, 0.0)), kappa1=-1, kappa2=0, C=1.0)
        with pytest.raises(GeometryError, match="l = 709.0") as raised:
            parallel_mean_curvature(*jacobi.detq_and_slope(fs, fs.case, 709.0), 709.0)
        assert not isinstance(raised.value, FocalPointError)


def reference_parallel_chart(imm, l):
    """``parallel_immersion``'s chart before it became a normal graph, kept as the reference."""

    def chart(u):
        n = unit_normal(imm, u)
        return product_exp(n.base, n, l)

    return chart


class TestParallelImmersion:
    def test_names_carry_l_exactly(self):
        imm = build_example(ExampleSpec(family=FAMILY_PSI, c=0.25))
        assert parallel_immersion(imm, 0.1).name == "psi(c=0.25)|flow l=0.1"
        assert parallel_immersion(imm, -0.2).name == "psi(c=0.25)|flow l=-0.2"
        assert parallel_immersion(imm, 0.1000001).name == "psi(c=0.25)|flow l=0.1000001"
        assert parallel_immersion(imm, 1.0).name == "psi(c=0.25)|flow l=1"

    @pytest.mark.parametrize(
        "spec",
        [
            ExampleSpec(family=FAMILY_PSI, c=0.25),
            ExampleSpec(family=FAMILY_FACTOR_X_CURVE, kappa1=1, kappa2=0, k=1.0),
        ],
        ids=["psi", "s2r2-circle"],
    )
    def test_normal_graph_chart_matches_reference_bitwise(self, spec):
        # the two examples of acceptance criterion 6, at its flow steps
        imm = build_example(spec)
        for l in (0.1, -0.1, 0.2, -0.2):
            flowed = parallel_immersion(imm, l)
            assert flowed.name == f"{imm.name}|flow l={l:g}"
            assert flowed.jacobian is None and flowed.hessian is None
            ref = reference_parallel_chart(imm, l)
            for u in imm.grid(3):
                p, q = flowed.chart(u), ref(u)
                assert p.first.coords.tobytes() == q.first.coords.tobytes()
                assert p.second.coords.tobytes() == q.second.coords.tobytes()

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
            base_c = angle_of_normal(unit_normal(imm, u))
            for l in (0.1, -0.1, 0.2, -0.2):
                flowed = parallel_immersion(imm, l)
                c_l = angle_of_normal(unit_normal(flowed, u))
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
            return spaceform.ModelVector(q, beta * np.array(velocity) + (w.coords - beta * v.coords))

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


class TestOneShapePerPoint:
    def test_frame_shape_at_checks_the_shape_once(self, monkeypatch):
        calls = []
        original = FrameShape._set_shape

        def counted(fs, a):
            calls.append(a)
            return original(fs, a)

        monkeypatch.setattr(FrameShape, "_set_shape", counted)
        imm = build_example(ExampleSpec(family=FAMILY_PSI, c=0.25))
        fs, cp, rec = frame_shape_at(imm, np.array([0.3, -0.2, 0.4]))
        assert len(calls) == 1
        assert fs is rec and cp is rec.case
        assert type(rec.A) is tuple and all(type(x) is float for row in rec.A for x in row)


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
