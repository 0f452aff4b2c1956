"""Mutant table: each check of ``cases`` can fail, and only its own.

The paper's finiteness step (C is a root of a cubic with constant
coefficients that are not all zero) is judged by the ``cases`` checks alone.
Each row plants one fault in a function that ``cli`` calls, runs ``cases``
and names the checks that must fail: one in each of the three cases.
"""

from dataclasses import replace
from unittest import mock

import pytest

from prodform_geo import cli
from prodform_geo.classify import CaseId, ConstancyPolynomial, constancy_polynomial, invariants_from_alphas

CASES_ARGV = ["cases", "--samples", "50"]


def _in_every_case(check: str) -> set[str]:
    return {f"{case.value}.{check}" for case in CaseId}


def _constant_coefficient_off(case, ar):
    poly = constancy_polynomial(case, ar)
    c0, *rest = poly.coefficients
    return replace(poly, coefficients=(c0 * (1.0 + 1e-6) + 1e-9, *rest))


def _variable_swapped(case, ar):
    poly = constancy_polynomial(case, ar)
    return replace(poly, variable="1+C" if poly.variable == "C" else "C")


def _coefficients_zero(case, ar):
    return ConstancyPolynomial(coefficients=(0.0,) * 4, variable="C")


def _rho_off(case, ar, C):
    solved = invariants_from_alphas(case, ar, C)
    return replace(solved, rho=solved.rho * (1.0 + 1e-9))


#: (mutant, patched ``cli`` attribute, argv, the checks that must fail)
MUTANTS = [
    (_constant_coefficient_off, "constancy_polynomial", CASES_ARGV, _in_every_case("cubic_annihilates_angle")),
    (_variable_swapped, "constancy_polynomial", CASES_ARGV, _in_every_case("cubic_annihilates_angle")),
    (_coefficients_zero, "constancy_polynomial", CASES_ARGV, _in_every_case("coefficients_nonvanishing")),
    (_rho_off, "invariants_from_alphas", CASES_ARGV, _in_every_case("invariants_round_trip")),
]


def _failing_checks(argv) -> set[str]:
    report = cli.run(cli.build_config(cli._build_parser().parse_args(argv)))
    return {check.name for check in report.checks if not check.passed}


def test_unpatched_run_passes():
    assert _failing_checks(CASES_ARGV) == set()


@pytest.mark.parametrize(
    "mutant, attribute, argv, expected", MUTANTS, ids=[row[0].__name__.strip("_") for row in MUTANTS]
)
def test_mutant_fails_exactly_its_checks(mutant, attribute, argv, expected):
    with mock.patch.object(cli, attribute, mutant):
        assert _failing_checks(argv) == expected
