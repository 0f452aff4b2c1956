"""Property-based tests, run when hypothesis is installed."""

from decimal import Decimal
from fractions import Fraction

import pytest

from prodform_geo.classify import CaseId
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
