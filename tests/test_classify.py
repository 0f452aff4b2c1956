import math
from dataclasses import replace

import numpy as np
import pytest

from prodform_geo import classify, jacobi
from prodform_geo.classify import (
    AlphaRecord,
    CaseId,
    ExampleSpec,
    FAMILY_CURVE_X_FACTOR,
    FAMILY_FACTOR_X_CURVE,
    FAMILY_PSI,
    build_control,
    build_example,
    case_alphas,
    constancy_polynomial,
    constant_curvature_curve,
    fermi_chart,
    gallery_specs,
    invariants_from_alphas,
    isoparametric_report,
    known_geometry,
)
from prodform_geo.cli import RunConfig
from prodform_geo.hypersurface import shape_operator
from prodform_geo.jacobi import flow_mean_curvature, frame_shape_at
from prodform_geo.spaceform import (
    KAPPAS,
    GeometryError,
    ModelPoint,
    ModelVector,
    complex_structure,
    form,
    zero_vector,
)

#: the l samples of a default gallery run
L_VALUES = RunConfig(command="gallery").l_values


class TestCaseAlphas:
    def test_sphere_hyperbolic_all_zero_inputs(self):
        ar = case_alphas(CaseId.S2xH2, 0.0, 0.0, 0.0, 0.0)
        assert ar.alpha1 == 0.0
        assert ar.alpha2 == -1.0
        assert ar.alpha3 == 0.0
        assert ar.alpha4 == 0.0

    def test_sphere_flat_first_combination(self):
        c, rho = 0.3, 1.2
        ar = case_alphas(CaseId.S2xR2, c, rho, 0.5, 0.7)
        assert abs(ar.alpha1 - ((-3 + c) / 2 + rho)) < 1e-15
        assert ar.alpha4 is None

    def test_hyperbolic_flat_first_combination(self):
        c, rho = -0.4, 0.9
        ar = case_alphas(CaseId.H2xR2, c, rho, 0.5, 0.7)
        assert abs(ar.alpha1 - ((3 - c) / 2 + rho)) < 1e-15


class TestInvariantsFromAlphas:
    def test_sphere_hyperbolic_rho(self):
        ar = AlphaRecord(alpha1=2.0, alpha2=0.3, alpha3=-0.4, alpha4=1.0)
        solved = invariants_from_alphas(CaseId.S2xH2, ar, 0.25)
        assert solved.rho == 2.0 - 0.25

    def test_sphere_flat_rho(self):
        ar = AlphaRecord(alpha1=1.0, alpha2=0.0, alpha3=0.0)
        solved = invariants_from_alphas(CaseId.S2xR2, ar, 0.5)
        assert abs(solved.rho - (1.0 + 1.5 - 0.25)) < 1e-15
        assert solved.H12 is None

    @pytest.mark.parametrize("case", list(CaseId))
    def test_round_trip(self, case):
        rng = np.random.default_rng(0)
        for _ in range(200):
            c = float(rng.uniform(-0.9, 0.9))
            rho = float(rng.uniform(-3, 3))
            h13 = float(rng.uniform(-3, 3))
            h12 = float(rng.uniform(-3, 3)) if case is CaseId.S2xH2 else 0.0
            ar = case_alphas(case, c, rho, h12, h13)
            solved = invariants_from_alphas(case, ar, c)
            assert abs(solved.rho - rho) < 1e-10 * max(1.0, abs(rho))
            assert abs(solved.H13 - h13) < 1e-10 * max(1.0, abs(h13))
            if case is CaseId.S2xH2:
                assert abs(solved.H12 - h12) < 1e-10 * max(1.0, abs(h12))

    def test_degenerate_denominator_named(self):
        ar = AlphaRecord(alpha1=1.0, alpha2=1.0, alpha3=1.0, alpha4=1.0)
        with pytest.raises(GeometryError, match="1-C"):
            invariants_from_alphas(CaseId.S2xH2, ar, 1.0)
        with pytest.raises(GeometryError, match=r"1\+C"):
            invariants_from_alphas(CaseId.S2xR2, AlphaRecord(1.0, 1.0, 1.0), -1.0)

    @pytest.mark.parametrize("C", [math.nan, math.inf, -math.inf, 1.5, -1.5])
    @pytest.mark.parametrize("case", list(CaseId))
    def test_angle_outside_its_range_rejected(self, case, C):
        with pytest.raises(GeometryError, match="angle value"):
            invariants_from_alphas(case, AlphaRecord(1.0, 1.0, 1.0, 1.0), C)
        with pytest.raises(GeometryError, match="angle value"):
            case_alphas(case, C, 0.5, 0.5, 0.5)

    @pytest.mark.parametrize("case", list(CaseId))
    def test_reverse_round_trip_from_alphas(self, case):
        # start from the combinations, solve, re-evaluate; the flat-factor
        # systems determine only two invariants, so their third combination
        # is dependent and only the independent ones round-trip
        rng = np.random.default_rng(5)
        for _ in range(100):
            c = float(rng.uniform(-0.9, 0.9))
            ar = AlphaRecord(
                alpha1=float(rng.uniform(-3, 3)),
                alpha2=float(rng.uniform(-3, 3)),
                alpha3=float(rng.uniform(-3, 3)),
                alpha4=0.0 if case is CaseId.S2xH2 else None,
            )
            solved = invariants_from_alphas(case, ar, c)
            h12 = solved.H12 if solved.H12 is not None else 0.0
            back = case_alphas(case, c, solved.rho, h12, solved.H13)
            assert abs(back.alpha1 - ar.alpha1) < 1e-10 * max(1.0, abs(ar.alpha1))
            assert abs(back.alpha2 - ar.alpha2) < 1e-10 * max(1.0, abs(ar.alpha2))
            if case is CaseId.S2xH2:
                assert abs(back.alpha3 - ar.alpha3) < 1e-10 * max(1.0, abs(ar.alpha3))


class TestConstancyPolynomial:
    def test_all_zero_alphas_flat_case(self):
        poly = constancy_polynomial(CaseId.S2xR2, AlphaRecord(0.0, 0.0, 0.0))
        assert poly.coefficients == (0.0, 0.0, 0.0, 1)

    def test_all_zero_alphas_sphere_hyperbolic(self):
        poly = constancy_polynomial(
            CaseId.S2xH2, AlphaRecord(0.0, 0.0, 0.0, alpha4=0.0)
        )
        assert poly.coefficients == (0.0, 4.0, 0.0, 0.0)

    def test_missing_alpha4_rejected(self):
        with pytest.raises(GeometryError):
            constancy_polynomial(CaseId.S2xH2, AlphaRecord(1.0, 1.0, 1.0))

    def test_linear_and_cubic_coefficients_cannot_both_vanish(self):
        # the angle coefficient is 4 a2 + 4 and the cubic one 16 a2
        rng = np.random.default_rng(1)
        alphas = list(rng.uniform(-5, 5, size=50)) + [0.0, -1.0]
        for a2 in alphas:
            poly = constancy_polynomial(
                CaseId.S2xH2, AlphaRecord(0.0, float(a2), 0.0, alpha4=0.0)
            )
            assert abs(poly.coefficients[1]) + abs(poly.coefficients[3]) > 0

    @pytest.mark.parametrize("case", list(CaseId))
    def test_annihilates_the_generating_angle(self, case):
        rng = np.random.default_rng(2)
        for _ in range(300):
            c0 = float(rng.uniform(-0.9, 0.9))
            rho = float(rng.uniform(-3, 3))
            h13 = float(rng.uniform(-3, 3))
            h12 = float(rng.uniform(-3, 3)) if case is CaseId.S2xH2 else 0.0
            ar = case_alphas(case, c0, rho, h12, h13)
            poly = constancy_polynomial(case, ar)
            residual = abs(poly.evaluate_at_angle(c0))
            assert residual < 1e-8 * max(abs(x) for x in poly.coefficients)


class TestConstantCurvatureCurves:
    @pytest.mark.parametrize("kappa", [-1, 0, 1])
    @pytest.mark.parametrize("k", [0.0, 0.5, 1.0, 2.0])
    def test_unit_speed(self, kappa, k):
        curve = constant_curvature_curve(kappa, k)
        for t in (-1.0, 0.0, 0.7):
            _, _, dgamma = curve(t, 1)
            speed = form(kappa, dgamma, dgamma)
            assert abs(speed - 1.0) < 1e-12

    @pytest.mark.parametrize("kappa", [-1, 1])
    @pytest.mark.parametrize("k", [0.0, 0.5, 1.0, 2.0])
    def test_stays_on_quadric(self, kappa, k):
        curve = constant_curvature_curve(kappa, k)
        for t in (-1.3, 0.0, 2.1):
            gamma, _ = curve(t)
            assert abs(form(kappa, gamma, gamma) - kappa) < 1e-12

    @pytest.mark.parametrize("kappa", [-1, 0, 1])
    @pytest.mark.parametrize("k", [0.0, 0.5, 1.0, 2.0])
    def test_turns_towards_j_by_k(self, kappa, k):
        # <gamma'', J gamma'> = k, with gamma'' a central difference of dgamma
        # and the closed gamma''
        curve = constant_curvature_curve(kappa, k)
        h = 1e-4
        for t in (-1.3, 0.0, 0.7, 2.1):
            accel = (np.array(curve(t + h, 1)[2]) - np.array(curve(t - h, 1)[2])) / (2.0 * h)
            gamma, _, dgamma, ddgamma = curve(t, 2)
            j_velocity = complex_structure(ModelVector(ModelPoint(kappa, gamma), dgamma))
            assert abs(form(kappa, accel, j_velocity.coords) - k) < 1e-6
            assert abs(form(kappa, ddgamma, j_velocity.coords) - k) < 1e-12

    def test_negative_curvature_rejected(self):
        with pytest.raises(GeometryError):
            constant_curvature_curve(0, -1.0)

    @pytest.mark.parametrize("kappa", [-1, 0, 1])
    def test_curvature_overflowing_delta_rejected(self, kappa):
        # delta = kappa + k^2 is inf, and the stability pair would take its root
        with pytest.raises(GeometryError, match="overflows"):
            constant_curvature_curve(kappa, 1e200)

    @pytest.mark.parametrize("kappa", [-1, 0, 1])
    def test_largest_finite_delta_builds(self, kappa):
        # k^2 = 1e308 is still a float: the curve starts at the origin or
        # (1, 0, 0) with a finite velocity
        curve = constant_curvature_curve(kappa, 1e154)
        assert curve(0.0)[0] == ([1.0, 0.0, 0.0] if kappa else [0.0, 0.0])
        assert np.all(np.isfinite(curve(0.5, 1)[2]))

    @pytest.mark.parametrize(
        "kappa1, kappa2, k",
        [(-1, 0, 0.999), (-1, 0, 1.001), (0, -1, 1e-3), (0, 1, 1e-3)],
        ids=["H2xR2-0.999", "H2xR2-1.001", "R2xH2-1e-3", "R2xS2-1e-3"],
    )
    def test_differenced_shape_keeps_digits_near_zero_delta(self, kappa1, kappa2, k):
        # near delta = kappa + k^2 = 0 the chart's 1 - C cancels, and the
        # difference scheme (flowed charts, the control) multiplies the
        # chart's rounding by about 1/STEP^2
        spec = ExampleSpec(family=FAMILY_CURVE_X_FACTOR, kappa1=kappa1, kappa2=kappa2, k=k)
        imm = replace(build_example(spec), hessian=None)
        for u in imm.grid(2):
            curvatures = shape_operator(imm, u).principal_curvatures()
            assert abs(max(abs(curvatures)) - k) < 1e-10, u


#: curve curvatures of the normal and focal tests: either side of the
#: horocycle k = 1, and circles of small radius
NORMAL_CURVATURES = (0.3, 0.5, 0.999, 1.0, 1.001, 2.0, 3.0, 10.0)


class TestCurveNormal:
    @pytest.mark.parametrize("kappa", [-1, 0, 1])
    @pytest.mark.parametrize("k", NORMAL_CURVATURES)
    def test_unit_and_orthogonal(self, kappa, k):
        curve = constant_curvature_curve(kappa, k)
        for t in np.linspace(-1.0, 1.0, 21).tolist():
            gamma, nu, dgamma = curve(t, 1)
            assert abs(form(kappa, nu, nu) - 1.0) <= 2.5e-15
            assert abs(form(kappa, nu, dgamma)) <= 1.2e-15
            if kappa:
                # the point is a vector of the ambient space only on a quadric
                assert abs(form(kappa, nu, gamma)) <= 1.2e-15

    @pytest.mark.parametrize("kappa", [-1, 0, 1])
    @pytest.mark.parametrize("k", NORMAL_CURVATURES)
    def test_normal_is_j_of_the_velocity(self, kappa, k):
        curve = constant_curvature_curve(kappa, k)
        for t in np.linspace(-1.0, 1.0, 21).tolist():
            gamma, nu, dgamma = curve(t, 1)
            j_velocity = complex_structure(ModelVector(ModelPoint(kappa, gamma), dgamma))
            assert np.max(np.abs(np.array(nu) - j_velocity.coords)) <= 1.6e-15

    @pytest.mark.parametrize("kappa", [-1, 0, 1])
    @pytest.mark.parametrize("k", NORMAL_CURVATURES)
    def test_normal_turns_back_by_k(self, kappa, k):
        # nu' = -k gamma', with nu' Richardson-extrapolated from central differences
        curve = constant_curvature_curve(kappa, k)
        h = 1e-3

        def difference(step: float, t: float) -> np.ndarray:
            return (np.array(curve(t + step)[1]) - np.array(curve(t - step)[1])) / (2.0 * step)

        for t in np.linspace(-1.0, 1.0, 21).tolist():
            dnu = (4.0 * difference(h, t) - difference(2.0 * h, t)) / 3.0
            want = -k * np.array(curve(t, 1)[2])
            # one Richardson round leaves about h^4 k^5 / 30 of truncation and eps / h of rounding
            assert np.max(np.abs(dnu - want)) <= 1e-11 + h**4 * k**5 / 10.0

    def test_horocycle_and_its_normal_by_hand(self):
        # psi's curve: the horocycle ((2 + r^2)/2, r, r^2/2) with -nu = (r^2/2, r, (r^2 - 2)/2)
        curve = constant_curvature_curve(-1, 1.0)
        for r in np.linspace(-3, 3, 25).tolist():
            gamma, nu = curve(r)
            assert gamma == [(2.0 + r * r) / 2.0, r, r * r / 2.0]
            assert [-x for x in nu] == [r * r / 2.0, r, (r * r - 2.0) / 2.0]


class TestFermiChart:
    @pytest.mark.parametrize("kappa", [-1, 0, 1])
    @pytest.mark.parametrize("k", [0.0, 0.5, 1.0, 2.0])
    def test_partials_match_differences(self, kappa, k):
        # F's first and second partials against central differences of F and
        # of its first partials, at |b| below every focal distance 1/k,
        # arccot k, arcoth k of these curves
        partials, second_partials = fermi_chart(kappa, k)
        h = 1e-5

        def difference(i, a, b, da, db):
            """The central difference of F (i = 0), F_a (1) or F_b (2) along (da, db)."""
            return (np.array(partials(a + da, b + db)[i]) - np.array(partials(a - da, b - db)[i])) / (2.0 * h)

        for a, b in ((0.0, 0.0), (0.7, -0.3), (-1.2, 0.2)):
            f, fa, fb = partials(a, b)
            if kappa:
                assert abs(form(kappa, f, f) - kappa) < 1e-12
            faa, fab, fbb = second_partials(a, b)
            for i, (da, db), want in (
                (0, (h, 0.0), fa),
                (0, (0.0, h), fb),
                (1, (h, 0.0), faa),
                (1, (0.0, h), fab),
                (2, (0.0, h), fbb),
            ):
                assert np.max(np.abs(difference(i, a, b, da, db) - want)) < 1e-9


class TestBuildExample:
    def test_psi_base_point(self):
        imm = build_example(ExampleSpec(family=FAMILY_PSI, c=0.25))
        p = imm.chart(np.zeros(3))
        assert np.array_equal(p.first.coords, [1.0, 0.0, 0.0])
        assert np.array_equal(p.second.coords, [0.0, 0.0])

    def test_psi_requires_strip_constant_in_range(self):
        with pytest.raises(GeometryError):
            ExampleSpec(family=FAMILY_PSI, c=1.5)
        with pytest.raises(GeometryError):
            ExampleSpec(family=FAMILY_PSI, c=0.0)

    @pytest.mark.parametrize("family", [FAMILY_CURVE_X_FACTOR, FAMILY_FACTOR_X_CURVE])
    def test_distinct_curvatures_give_distinct_names(self, family):
        # k to 6 digits named the H2 circle k = 1.0000001 after the horocycle k = 1;
        # the gallery's k = 0, 0.5, 1 and 2 keep their short names
        ks = (0.0, 0.5, 1.0, 2.0, 1.0000001, 1.0 + 2.0**-52, 1234567.0, 1e-20, 1e20)
        names = [ExampleSpec(family=family, kappa1=-1, kappa2=0, k=k).label() for k in ks]
        assert len(set(names)) == len(ks)
        side = "first" if family == FAMILY_CURVE_X_FACTOR else "second"
        assert names[:5] == [f"curve(k={k},{side})x(-1,0)" for k in ("0", "0.5", "1", "2", "1.0000001")]

    @pytest.mark.parametrize(
        "family, field, value",
        [
            (FAMILY_CURVE_X_FACTOR, "k", math.nan),
            (FAMILY_FACTOR_X_CURVE, "k", math.inf),
            (FAMILY_PSI, "c", math.nan),
        ],
    )
    def test_non_finite_parameter_rejected(self, family, field, value):
        with pytest.raises(GeometryError, match=f"{field} must be finite"):
            ExampleSpec(family=family, **{field: value})

    @pytest.mark.parametrize("family", [FAMILY_CURVE_X_FACTOR, FAMILY_FACTOR_X_CURVE])
    @pytest.mark.parametrize("field, value", [("kappa1", 5), ("kappa1", 1.5), ("kappa2", 7)])
    def test_curvature_tag_outside_space_forms_rejected(self, family, field, value):
        with pytest.raises(GeometryError, match=f"{field} must be one of"):
            ExampleSpec(family=family, **{field: value})

    def test_psi_wrong_product_rejected(self):
        with pytest.raises(GeometryError):
            ExampleSpec(family=FAMILY_PSI, kappa1=1, kappa2=0)

    def test_families_need_distinct_curvatures(self):
        with pytest.raises(GeometryError):
            ExampleSpec(family=FAMILY_CURVE_X_FACTOR, kappa1=1, kappa2=1)

    def test_unknown_family_rejected(self):
        with pytest.raises(GeometryError):
            ExampleSpec(family="spiral")

    @pytest.mark.parametrize("kappas", [(1, -1), (1, 0), (-1, 0)])
    def test_factor_order_only_swaps_the_factors(self, kappas):
        k1, k2 = kappas
        for k in (0.0, 0.5, 1.0, 2.0):
            first = build_example(ExampleSpec(family=FAMILY_CURVE_X_FACTOR, kappa1=k1, kappa2=k2, k=k))
            second = build_example(ExampleSpec(family=FAMILY_FACTOR_X_CURVE, kappa1=k2, kappa2=k1, k=k))
            for u in first.grid(3):
                p, q = first.chart(u), second.chart(u)
                assert np.array_equal(p.first.coords, q.second.coords)
                assert np.array_equal(p.second.coords, q.first.coords)
                for x, y in zip(first.jacobian(u), second.jacobian(u)):
                    assert np.array_equal(x.first.coords, y.second.coords)
                    assert np.array_equal(x.second.coords, y.first.coords)

    def test_psi_lands_on_product(self):
        imm = build_example(ExampleSpec(family=FAMILY_PSI, c=0.7))
        for u in imm.grid(3):
            p = imm.chart(u)
            assert abs(form(-1, p.first.coords, p.first.coords) + 1.0) < 1e-12


def reference_psi(u, c):
    """psi's chart point and jacobian written on numpy arrays, with the
    horocycle, its normal and cosh, sinh of t sqrt(c) formed for each."""
    t, r, s = u.tolist()
    sc = math.sqrt(c)
    g = np.array([(2.0 + r * r) / 2.0, r, r * r / 2.0])
    n = np.array([r * r / 2.0, r, (-2.0 + r * r) / 2.0])
    ch, sh = math.cosh(t * sc), math.sinh(t * sc)
    p = ModelPoint(-1, ch * g + sh * n)
    q = ModelPoint(0, np.array([s, t * math.sqrt(1.0 - c)]))
    dgdr = np.array([r, 1.0, r])
    return (p, q), (
        (ModelVector(p, sc * (sh * g + ch * n)), ModelVector(q, np.array([0.0, math.sqrt(1.0 - c)]))),
        (ModelVector(p, (ch + sh) * dgdr), zero_vector(q)),
        (zero_vector(p), ModelVector(q, np.array([1.0, 0.0]))),
    )


def same_coords(got: np.ndarray, want: np.ndarray, bitwise: bool) -> bool:
    """Equal bit for bit, or value for value when ``bitwise`` is False."""
    return got.tobytes() == want.tobytes() if bitwise else np.array_equal(got, want)


@pytest.mark.parametrize("c", [1e-7, 0.25, 0.5, 0.9])
def test_psi_chart_and_jacobian_match_the_array_reference_bitwise(c, monkeypatch):
    calls = []
    curve = classify.constant_curvature_curve

    def counted_curve(kappa, k):
        frame = curve(kappa, k)
        return lambda *args: calls.append(args) or frame(*args)

    monkeypatch.setattr(classify, "constant_curvature_curve", counted_curve)
    imm = build_example(ExampleSpec(family=FAMILY_PSI, c=c))
    axis = (-1.0, -0.3, -0.0, 0.0, 0.7)
    for u in (np.array([t, r, s]) for t in axis for r in axis for s in (-0.5, 0.0)):
        # at r = +-0 the curve adds p0's +0.0 to the coordinate the reference
        # takes r for, so only there a zero may carry another sign
        bitwise = u[1] != 0.0
        (p, q), want = reference_psi(u, c)
        point = imm.chart(u)
        assert same_coords(point.first.coords, p.coords, bitwise)
        assert point.second.coords.tobytes() == q.coords.tobytes()
        del calls[:]
        got = imm.jacobian(u)
        # one curve frame per jacobian: the point and both partials share it
        assert len(calls) == 1
        for x, (a, b) in zip(got, want):
            assert same_coords(x.first.base.coords, p.coords, bitwise)
            assert same_coords(x.first.coords, a.coords, bitwise)
            assert x.second.coords.tobytes() == b.coords.tobytes()


#: curve curvatures off the gallery's GALLERY_CURVATURES: either side of the
#: horocycle k = 1, and circles of small radius
OFF_GALLERY_SPECS = [
    ExampleSpec(family=family, kappa1=kappa1, kappa2=kappa2, k=k)
    for kappa1 in KAPPAS
    for kappa2 in KAPPAS
    if kappa1 != kappa2
    for family in (FAMILY_CURVE_X_FACTOR, FAMILY_FACTOR_X_CURVE)
    for k in (0.3, 0.999, 1.001, 3.0, 10.0)
] + [ExampleSpec(family=FAMILY_PSI, c=c) for c in (1e-6, 0.01, 0.5, 0.9, 0.999999)]


#: every curve example with a focal point: a curve of the flat plane or the
#: sphere with k > 0, or a circle (k > 1) of the hyperbolic plane
FOCAL_SPECS = [
    ExampleSpec(family=family, kappa1=kappa1, kappa2=kappa2, k=k)
    for kappa1 in KAPPAS
    for kappa2 in KAPPAS
    if kappa1 != kappa2
    for family in (FAMILY_CURVE_X_FACTOR, FAMILY_FACTOR_X_CURVE)
    for k in NORMAL_CURVATURES
    if (kappa1 if family == FAMILY_CURVE_X_FACTOR else kappa2) != -1 or k > 1.0
]


def first_focal_distance(spec: ExampleSpec) -> float:
    """Where C - k S of the curve's factor first vanishes: 1/k, arccot k or arcoth k."""
    kappa = spec.kappa1 if spec.family == FAMILY_CURVE_X_FACTOR else spec.kappa2
    if kappa == 0:
        return 1.0 / spec.k
    return math.atan(1.0 / spec.k) if kappa == 1 else math.atanh(1.0 / spec.k)


class TestKnownGeometry:
    def test_gap_is_signed(self):
        known = known_geometry(ExampleSpec(family=FAMILY_FACTOR_X_CURVE, kappa1=1, kappa2=0, k=2.0))
        assert known.C == -1.0
        assert known.principal_curvatures == (0.0, 0.0, 2.0)
        assert known.principal_gap([0.0, 2.0, 0.0]) == 0.0
        assert known.principal_gap([0.0, 2.0, 1e-3]) == 1e-3
        # a negated measurement is no match: sorted, -k meets 0 and 0 meets k
        assert known.principal_gap([0.0, 0.0, -2.0]) == 2.0

    def test_every_curve_spec_with_a_focal_point_is_counted(self):
        assert len(FOCAL_SPECS) == 80

    @pytest.mark.parametrize("spec", FOCAL_SPECS, ids=ExampleSpec.label)
    def test_focal_point_lies_at_positive_l(self, spec):
        # det Q = C - k S of the curve's factor first vanishes at l = d > 0,
        # and at no l in [-1.01 d, 0]
        d = first_focal_distance(spec)
        imm = build_example(spec)
        for u in imm.grid(2):
            fs, cp, _ = frame_shape_at(imm, u)
            assert flow_mean_curvature(fs, cp, 1.01 * d) is None, u
            assert flow_mean_curvature(fs, cp, 0.99 * d) is not None, u
            assert flow_mean_curvature(fs, cp, -1.01 * d) is not None, u

    @pytest.mark.parametrize("spec", OFF_GALLERY_SPECS, ids=ExampleSpec.label)
    def test_measured_shape_matches_known_geometry(self, spec):
        known = known_geometry(spec)
        imm = build_example(spec)
        for u in imm.grid(3):
            rec = shape_operator(imm, u)
            assert abs(rec.C - known.C) <= 1e-12, u
            assert known.principal_gap(rec.principal_curvatures()) <= 1e-12 * max(1.0, spec.k), u


def _max_deviation(rep) -> float:
    """Largest deviation from the grid mean over the angle, principal curvatures and H(l)."""
    stats = [rep.angle, *rep.principal, *rep.mean_curvature.values()]
    return max(s.max_dev for s in stats)


class TestIsoparametricReport:
    def test_circle_times_factor_passes(self):
        imm = build_example(
            ExampleSpec(family=FAMILY_FACTOR_X_CURVE, kappa1=1, kappa2=0, k=1.0)
        )
        rep = isoparametric_report(imm, grid=imm.grid(3), l_samples=L_VALUES)
        assert _max_deviation(rep) <= 1e-5
        assert rep.focal_events == 0
        assert abs(abs(rep.angle.mean) - 1.0) < 1e-12
        pcs = sorted(abs(s.mean) for s in rep.principal)
        assert np.allclose(pcs, [0.0, 0.0, 1.0], atol=1e-6)

    def test_psi_passes_with_expected_angle(self):
        imm = build_example(ExampleSpec(family=FAMILY_PSI, c=0.25))
        rep = isoparametric_report(imm, grid=imm.grid(3), l_samples=L_VALUES)
        assert _max_deviation(rep) <= 1e-5
        assert rep.focal_events == 0
        assert abs(rep.angle.mean - 0.5) < 1e-8
        assert rep.angle.max_dev < 1e-8

    def test_control_fails(self):
        imm = build_control(build_example(ExampleSpec(family=FAMILY_PSI, c=0.25)))
        rep = isoparametric_report(imm, imm.grid(3), l_samples=L_VALUES)
        assert rep.angle.max_dev > 1e-3

    def test_one_expansion_evaluation_per_sample(self, monkeypatch):
        # each (point, l) evaluates S and C of both factors once and reads K once
        stability_calls, k_reads = [], []
        original_stability, original_k = jacobi.stability_functions, jacobi.FrameShape.K

        def counted_stability(*args):
            stability_calls.append(args)
            return original_stability(*args)

        def counted_k(fs):
            k_reads.append(fs)
            return original_k.fget(fs)

        monkeypatch.setattr(jacobi, "stability_functions", counted_stability)
        monkeypatch.setattr(jacobi.FrameShape, "K", property(counted_k))
        imm = build_example(ExampleSpec(family=FAMILY_PSI, c=0.25))
        rep = isoparametric_report(imm, imm.grid(2), l_samples=(0.1, -0.2, 0.5, 1.0))
        assert rep.focal_events == 0
        assert len(stability_calls) == 2 * 2**3 * 4
        assert len(k_reads) == 2**3 * 4

    def test_focal_samples_are_left_out_of_h_statistics(self):
        # a curvature-2 circle focalizes at distance 1/2 along its normal;
        # past that point the closed det Q = 1 - 2 l is negative, and still focal
        imm = build_example(
            ExampleSpec(family=FAMILY_FACTOR_X_CURVE, kappa1=1, kappa2=0, k=2.0)
        )
        rep = isoparametric_report(imm, grid=imm.grid(2), l_samples=(-0.5, 0.5, 0.7, -0.1))
        assert [[h is None for h in hs] for hs in rep.h_values] == [[False, True, True, False]] * 2**3
        assert rep.focal_events == 2 * 2**3
        assert set(rep.mean_curvature) == {-0.5, -0.1}

    def test_gallery_covers_all_cases(self):
        specs = gallery_specs()
        pairs = {(s.kappa1, s.kappa2) for s in specs}
        assert pairs == {(1, -1), (1, 0), (-1, 0)}
        families = {s.family for s in specs}
        assert families == {FAMILY_CURVE_X_FACTOR, FAMILY_FACTOR_X_CURVE, FAMILY_PSI}

    def test_full_gallery_passes_at_default_grid(self, default_gallery):
        report, reports = default_gallery
        assert report.all_passed
        for spec in gallery_specs():
            rep = reports[spec.label()]
            # run_gallery's default curvature tolerance
            assert _max_deviation(rep) <= 1e-6, f"{rep.name}: {rep}"
            assert rep.grid_points == 5**3
            assert rep.focal_events == 0
