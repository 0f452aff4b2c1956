"""Mutant table: a check of the CLI can fail, and only its own.

Each row plants one fault in a function that ``cli`` calls, runs one command
and names the checks that must fail: one or more in each of the three cases,
one in each gallery example, or the gallery's negative control.  Every
check of ``cases``, ``identities``, ``detq`` and ``gallery`` is some row's
target.  The paper's finiteness step (C is a root of a cubic with constant
coefficients that are not all zero) is judged by the ``cases`` checks alone.
"""

import decimal
from dataclasses import replace
from decimal import Decimal
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest

from prodform_geo import cli
from prodform_geo.ambient import ProductVector, complex_structures, curvature_tensor, product_metric, product_structure
from prodform_geo.classify import (
    FAMILY_PSI,
    CaseId,
    ConstancyPolynomial,
    build_example,
    constancy_polynomial,
    gallery_specs,
    invariants_from_alphas,
    known_geometry,
)
from prodform_geo.hypersurface import ricci, unit_normal
from prodform_geo.jacobi import (
    detq_and_slope_from_pairs,
    detq_derivative_formula,
    detq_derivatives,
    parallel_shape,
    q_rows,
)

CASES_ARGV = ["cases", "--samples", "50"]
IDENTITIES_ARGV = ["identities", "--samples", "50"]
DETQ_ARGV = ["detq", "--samples", "50"]
GALLERY_ARGV = ["gallery", "--grid", "2"]


def _in_every_case(*checks: str) -> set[str]:
    return {f"{case.value}.{check}" for case in CaseId for check in checks}


def _in_every_example(check: str, keep=lambda spec: True) -> set[str]:
    return {f"{build_example(spec).name}.{check}" for spec in gallery_specs() if keep(spec)}


def _curved(spec) -> bool:
    """A principal curvature is nonzero: psi, or a curve with k > 0."""
    return spec.family == FAMILY_PSI or spec.k > 0.0


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


class _Image(ProductVector):
    """A vector that a mutant below returned, tagged with the map that made it."""

    def __init__(self, v, by):
        super().__init__(v.first, v.second)
        object.__setattr__(self, "by", by)


def _product_structure_idempotent(x):
    # P leaves its own image alone, so P P = P: only P applied twice shows it
    return x if getattr(x, "by", None) == "P" else _Image(product_structure(x), "P")


def _complex_structure_off_on_its_image(index):
    # J1 (index 0) or J2 (index 1) is off by 1e-9 on its own image only, so only its square shows it
    def mutant(x):
        pair = list(complex_structures(x))
        if getattr(x, "by", None) == index:
            pair[index] = pair[index].scale(1.0 + 1e-9)
        return tuple(_Image(v, i) for i, v in enumerate(pair))

    mutant.__name__ = f"_j{index + 1}_off_on_its_image"
    return mutant


def _metric_first_leaning(x, y):
    # a term in X alone: <X, Y> is no longer symmetric, but P keeps X's first part
    return product_metric(x, y) + 1e-9 * float(x.first.coords[0])


def _metric_cross_term(x, y):
    # an antisymmetric term across the factors, odd under X2 -> -X2: <PX, Y>
    # stays symmetric in X and Y, but <PX, PY> moves off <X, Y>
    cross = x.first.coords[0] * y.second.coords[0] - x.second.coords[0] * y.first.coords[0]
    return product_metric(x, y) + 1e-9 * float(cross)


def _slope_off(*args):
    det, slope = detq_and_slope_from_pairs(*args)
    return det, slope + 1e-9


def _ricci_off(e, rec):
    return ricci(e, rec) + 1e-6


def _order_off(order):
    # one closed form off by 1e-6 of its size, at least 1e-6
    def mutant(k, cp, **invariants):
        value = detq_derivative_formula(k, cp, **invariants)
        return value + max(1, abs(value)) * Decimal("0.000001") if k == order else value

    mutant.__name__ = f"_order_{order}_off"
    return mutant


def _order_4_off_by_1e_30(k, cp, **invariants):
    # the closed order-4 form off by a factor of 1 + 1e-30, which no float
    # sees: only an exact judge of the line can
    value = detq_derivative_formula(k, cp, **invariants)
    if k != 4:
        return value
    wide = decimal.Context(prec=100)
    return wide.multiply(value, wide.add(1, Decimal("1e-30")))


def _oracle_order_off(order):
    # the exact oracle's value at one order off by 1e-6 of its size, at least 1e-6
    def mutant(fs, cp, orders):
        values = detq_derivatives(fs, cp, orders)
        if order in values:
            values[order] += max(1, abs(values[order])) * Fraction(1, 10**6)
        return values

    mutant.__name__ = f"_oracle_order_{order}_off"
    return mutant


def _detq_and_slope_scaled(*args):
    # det Q and its slope off by the same factor: the log derivative cannot see it
    det, slope = detq_and_slope_from_pairs(*args)
    return det * (1.0 + 1e-9), slope * (1.0 + 1e-9)


def _q_row_reads_s2(a, l, s1, c1, s2, c2):
    # Q's (2, 3) entry takes the second factor's S where the first's belongs
    first, (q21, q22, _), third = q_rows(a, l, s1, c1, s2, c2)
    return first, (q21, q22, -a[1][2] * s2), third


def _stack_rolled(q, q_prime):
    # each A_l of a block lands one sample later: the stack and its samples out of step
    return np.roll(parallel_shape(q, q_prime), 1, axis=0)


def _normal_at_origin(imm, u):
    return unit_normal(imm, np.zeros(3))


def _known_angle_off(spec):
    known = known_geometry(spec)
    return replace(known, C=known.C + 1e-6)


def _known_largest_curvature_off(spec):
    known = known_geometry(spec)
    *rest, largest = known.principal_curvatures
    return replace(known, principal_curvatures=(*rest, largest + 1e-5))


def _known_curvatures_negated(spec):
    known = known_geometry(spec)
    return replace(known, principal_curvatures=tuple(sorted(-x for x in known.principal_curvatures)))


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
    (_product_structure_idempotent, "product_structure", IDENTITIES_ARGV, _in_every_case("p_involution")),
    (_metric_first_leaning, "product_metric", IDENTITIES_ARGV, _in_every_case("p_symmetric")),
    (_metric_cross_term, "product_metric", IDENTITIES_ARGV, _in_every_case("p_isometry")),
    (_complex_structure_off_on_its_image(0), "complex_structures", IDENTITIES_ARGV, _in_every_case("j1_squared")),
    (_complex_structure_off_on_its_image(1), "complex_structures", IDENTITIES_ARGV, _in_every_case("j2_squared")),
    (_slope_off, "detq_and_slope_from_pairs", DETQ_ARGV, _in_every_case("trace_vs_log_derivative")),
    (_detq_and_slope_scaled, "detq_and_slope_from_pairs", DETQ_ARGV, _in_every_case("detq_matrix_vs_closed_form")),
    (
        _q_row_reads_s2,
        "q_rows",
        DETQ_ARGV,
        _in_every_case("detq_matrix_vs_closed_form", "trace_vs_log_derivative"),
    ),
    (_stack_rolled, "parallel_shape", DETQ_ARGV, _in_every_case("trace_vs_log_derivative")),
    *(
        (_order_off(k), "detq_derivative_formula", DETQ_ARGV, _in_every_case(f"derivative_order_{k}"))
        for k in (1, 2, 4, 6)
    ),
    (_order_off(10), "detq_derivative_formula", DETQ_ARGV, {f"{CaseId.S2xH2.value}.derivative_order_10"}),
    (_order_4_off_by_1e_30, "detq_derivative_formula", DETQ_ARGV, _in_every_case("derivative_order_4")),
    *(
        (_oracle_order_off(k), "detq_derivatives", DETQ_ARGV, _in_every_case(f"derivative_order_{k}"))
        for k in (1, 2, 4, 6)
    ),
    (_oracle_order_off(10), "detq_derivatives", DETQ_ARGV, {f"{CaseId.S2xH2.value}.derivative_order_10"}),
    (_known_angle_off, "known_geometry", GALLERY_ARGV, _in_every_example("angle_constancy")),
    (_known_largest_curvature_off, "known_geometry", GALLERY_ARGV, _in_every_example("curvature_constancy")),
    (_known_curvatures_negated, "known_geometry", GALLERY_ARGV, _in_every_example("curvature_constancy", _curved)),
    (_ricci_off, "ricci", GALLERY_ARGV, _in_every_example("ricci_trace_vs_scalar")),
    (_normal_at_origin, "unit_normal", GALLERY_ARGV, {"psi_negative_control_fails"}),
]


def _checks(argv):
    return cli.run(cli.build_config(cli._build_parser().parse_args(argv))).checks


def _failing_checks(argv) -> set[str]:
    return {check.name for check in _checks(argv) if not check.passed}


@pytest.mark.parametrize("argv", [CASES_ARGV, IDENTITIES_ARGV, DETQ_ARGV, GALLERY_ARGV], ids=lambda argv: argv[0])
def test_unpatched_run_passes(argv):
    assert _failing_checks(argv) == set()


@pytest.mark.parametrize(
    "mutant, attribute, argv, expected", MUTANTS, ids=[row[0].__name__.strip("_") for row in MUTANTS]
)
def test_mutant_fails_exactly_its_checks(mutant, attribute, argv, expected):
    with mock.patch.object(cli, attribute, mutant):
        assert _failing_checks(argv) == expected


def test_every_gallery_check_has_a_mutant():
    covered = set().union(*(expected for *_, expected in MUTANTS))
    for argv, count in ((GALLERY_ARGV, 76), (CASES_ARGV, 9), (IDENTITIES_ARGV, 30), (DETQ_ARGV, 19)):
        names = {check.name for check in _checks(argv)}
        assert len(names) == count
        assert names <= covered
