"""Verification toolkit for hypersurface geometry in products of model spaces."""

__version__ = "0.1.0"

from .spaceform import (
    DegeneratePointError,
    GeometryError,
    ModelPoint,
    ModelVector,
    complex_structure,
    exp_map,
    geodesic_velocity,
    lorentz_cross,
    metric,
    parallel_transport,
)
from .ambient import (
    ProductPoint,
    ProductVector,
    complex_structures,
    curvature_tensor,
    product_exp,
    product_metric,
    product_structure,
)
from .hypersurface import (
    Immersion,
    ShapeRecord,
    ricci,
    shape_operator,
    tangent_basis,
    unit_normal,
)
from .jacobi import (
    CaseParams,
    FocalPointError,
    FrameDegenerateError,
    FrameShape,
    TaylorSeries,
    UnsupportedCaseError,
    adapted_frame,
    detq_closed_form,
    detq_derivative_formula,
    detq_derivatives,
    detq_taylor,
    parallel_immersion,
    parallel_shape,
    q_matrix,
    stability_functions,
)
from .classify import (
    AlphaRecord,
    CaseId,
    ExampleSpec,
    IsoparametricReport,
    build_example,
    case_alphas,
    constancy_polynomial,
    invariants_from_alphas,
    isoparametric_report,
    solve_polynomial,
)

__all__ = [name for name in dir() if not name.startswith("_")]
