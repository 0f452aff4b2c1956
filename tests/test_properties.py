"""Property-based tests, run when hypothesis is installed."""

from decimal import Decimal
from fractions import Fraction

import pytest

from prodform_geo.classify import (
    CaseId,
    SolvedInvariants,
    case_alphas,
    constancy_polynomial,
    invariants_from_alphas,
)
from prodform_geo.cli import exact_derivatives
from prodform_geo.jacobi import FrameShape

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402


@pytest.mark.parametrize("case", list(CaseId))
@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(
    numerators=st.lists(st.integers(-2000, 2000), min_size=6, max_size=6),
    c=st.integers(-949, 949),
)
def test_closed_forms_equal_oracle_on_the_grid(case, numerators, c):
    """Any shape on the 1/1000 grid of the exact draws, not only the seeded ones."""
    a11, a22, a33, a12, a13, a23 = (Decimal(n).scaleb(-3) for n in numerators)
    a = ((a11, a12, a13), (a12, a22, a23), (a13, a23, a33))
    fs = FrameShape(A=a, kappa1=case.kappa1, kappa2=case.kappa2, C=Decimal(c).scaleb(-3))
    orders = (1, 2, 4, 6, 10) if case is CaseId.S2xH2 else (1, 2, 4, 6)
    closed, oracle = exact_derivatives(fs, orders)
    assert {k: Fraction(v) for k, v in closed.items()} == oracle


@pytest.mark.parametrize("case", list(CaseId))
@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(
    c=st.integers(-999, 999),
    invariants=st.lists(st.integers(-3000, 3000), min_size=3, max_size=3),
)
def test_case_system_round_trip_and_cubic_on_the_grid(case, c, invariants):
    """Solving a case system gives back its invariants, and its cubic vanishes at C, exactly."""
    C = Fraction(c, 1000)
    rho, H12, H13 = (Fraction(m, 1000) for m in invariants)
    ar = case_alphas(case, C, rho, H12, H13)
    want = SolvedInvariants(rho=rho, H13=H13, H12=H12 if case is CaseId.S2xH2 else None)
    assert invariants_from_alphas(case, ar, C) == want
    poly = constancy_polynomial(case, ar)
    assert poly.evaluate_at_angle(C) == 0
    assert any(poly.coefficients)
