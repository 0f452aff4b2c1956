"""Mutant table: a check of the CLI can fail, and only its own.

Each row plants one fault in a function that ``cli`` calls, runs one command
and names the checks that must fail: one or more in each of the three cases,
one in each gallery example, or the gallery's negative control.  The
paper's finiteness step (C is a root of a cubic with constant coefficients
that are not all zero) is judged by the ``cases`` checks alone.
"""

from dataclasses import replace
from decimal import Decimal
from unittest import mock

import numpy as np
import pytest

from prodform_geo import cli
from prodform_geo.ambient import curvature_tensor
from prodform_geo.classify import (
    CaseId,
    ConstancyPolynomial,
    build_example,
    constancy_polynomial,
    gallery_specs,
    invariants_from_alphas,
)
from prodform_geo.hypersurface import ricci, unit_normal
from prodform_geo.jacobi import detq_and_slope, detq_derivative_formula

CASES_ARGV = ["cases", "--samples", "50"]
IDENTITIES_ARGV = ["identities", "--samples", "50"]
DETQ_ARGV = ["detq", "--samples", "50"]
GALLERY_ARGV = ["gallery", "--grid", "2"]


def _in_every_case(*checks: str) -> set[str]:
    return {f"{case.value}.{check}" for case in CaseId for check in checks}


def _in_every_example(check: str) -> set[str]:
    return {f"{build_example(spec).name}.{check}" for spec in gallery_specs()}


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


def _curvature_off(x, y, z, w):
    return curvature_tensor(x, y, z, w) + 1e-9


def _product_structure_identity(x):
    return x


def _slope_off(fsf, cpf, l):
    det, slope = detq_and_slope(fsf, cpf, l)
    return det, slope + 1e-9


def _ricci_off(e, rec):
    return ricci(e, rec) + 1e-6


def _order_2_off(k, cp, **invariants):
    value = detq_derivative_formula(k, cp, **invariants)
    return value + Decimal("0.000001") if k == 2 else value


def _normal_at_origin(imm, u):
    return unit_normal(imm, np.zeros(3))


#: (mutant, patched ``cli`` attribute, argv, the checks that must fail)
MUTANTS = [
    (_constant_coefficient_off, "constancy_polynomial", CASES_ARGV, _in_every_case("cubic_annihilates_angle")),
    (_variable_swapped, "constancy_polynomial", CASES_ARGV, _in_every_case("cubic_annihilates_angle")),
    (_coefficients_zero, "constancy_polynomial", CASES_ARGV, _in_every_case("coefficients_nonvanishing")),
    (_rho_off, "invariants_from_alphas", CASES_ARGV, _in_every_case("invariants_round_trip")),
    (
        _curvature_off,
        "curvature_tensor",
        IDENTITIES_ARGV,
        _in_every_case("sectional_first", "sectional_second", "sectional_mixed"),
    ),
    (
        _product_structure_identity,
        "product_structure",
        IDENTITIES_ARGV,
        _in_every_case("p_eq_minus_j1j2", "p_eq_minus_j2j1"),
    ),
    (_slope_off, "detq_and_slope", DETQ_ARGV, _in_every_case("trace_vs_log_derivative")),
    (_order_2_off, "detq_derivative_formula", DETQ_ARGV, _in_every_case("derivative_order_2")),
    (_ricci_off, "ricci", GALLERY_ARGV, _in_every_example("ricci_trace_vs_scalar")),
    (_normal_at_origin, "unit_normal", GALLERY_ARGV, {"psi_negative_control_fails"}),
]


def _failing_checks(argv) -> set[str]:
    report = cli.run(cli.build_config(cli._build_parser().parse_args(argv)))
    return {check.name for check in report.checks if not check.passed}


@pytest.mark.parametrize("argv", [CASES_ARGV, IDENTITIES_ARGV, DETQ_ARGV, GALLERY_ARGV], ids=lambda argv: argv[0])
def test_unpatched_run_passes(argv):
    assert _failing_checks(argv) == set()


@pytest.mark.parametrize(
    "mutant, attribute, argv, expected", MUTANTS, ids=[row[0].__name__.strip("_") for row in MUTANTS]
)
def test_mutant_fails_exactly_its_checks(mutant, attribute, argv, expected):
    with mock.patch.object(cli, attribute, mutant):
        assert _failing_checks(argv) == expected
