"""Per-call timings and exact work counts on fixed, seeded inputs.

The inputs do not depend on the workload or its seed, so every traced run
reports the same probes and two commits are compared on identical calls.
Each function is warmed up on all of its inputs before it is timed.
"""

from __future__ import annotations

import dataclasses
import statistics
import time

import numpy as np

from prodform_geo import ambient, classify, cli, hypersurface, jacobi, spaceform

PROBE_SEED = 20230927
#: each probe times whole passes over its inputs until both minima are met
MIN_PASSES = 5
MIN_SECONDS = 0.2

#: gallery settings of the shapes-per-point count: 12 examples, 8 points each
COUNT_GALLERY_FAMILY = classify.FAMILY_FACTOR_X_CURVE
COUNT_GALLERY_GRID = 2


def _per_call_us(fn, inputs) -> float:
    """Median over passes of the mean microseconds per call."""
    for args in inputs:
        fn(*args)
    passes = []
    spent = 0.0
    while len(passes) < MIN_PASSES or spent < MIN_SECONDS:
        t0 = time.perf_counter()
        for args in inputs:
            fn(*args)
        dt = time.perf_counter() - t0
        spent += dt
        passes.append(dt / len(inputs))
    return statistics.median(passes) * 1e6


def _charted_inputs(rng):
    """Gallery immersions with analytic jacobians, at seeded parameter points."""
    specs = (
        classify.ExampleSpec(family=classify.FAMILY_CURVE_X_FACTOR, kappa1=1, kappa2=-1, k=1.0),
        classify.ExampleSpec(family=classify.FAMILY_FACTOR_X_CURVE, kappa1=1, kappa2=0, k=0.5),
        classify.ExampleSpec(family=classify.FAMILY_PSI, c=0.25),
    )
    return [
        (classify.build_example(spec), rng.uniform(-0.8, 0.8, size=3))
        for spec in specs
        for _ in range(2)
    ]


def _flowed_inputs(rng):
    imm = classify.build_example(classify.ExampleSpec(family=classify.FAMILY_PSI, c=0.25))
    return [(jacobi.parallel_immersion(imm, 0.1), rng.uniform(-0.7, 0.7, size=3)) for _ in range(2)]


def _detq_sample(fs):
    """One sample of the CLI's exact derivative check, arguments included."""
    cp = fs.case
    orders = (1, 2, 4, 6, 10) if (fs.kappa1, fs.kappa2) == (1, -1) else (1, 2, 4, 6)
    for k in orders:
        jacobi.detq_derivative_formula(k, cp, H=fs.H, rho=fs.rho, H12=fs.H12, H13=fs.H13)


def time_calls() -> dict[str, float]:
    """Microseconds per call of each layer's hot functions."""
    rng = np.random.default_rng(PROBE_SEED)
    kappas = (1, -1, 0)
    geodesics = []
    for i in range(24):
        p = spaceform.random_point(kappas[i % 3], rng)
        geodesics.append(
            (p, spaceform.random_tangent(p, rng), float(rng.uniform(-1.0, 1.0)), spaceform.random_tangent(p, rng))
        )
    cases = list(classify.CaseId)
    tangents = []
    for i in range(24):
        case = cases[i % 3]
        p = ambient.random_product_point(case.kappa1, case.kappa2, rng)
        tangents.append(tuple(ambient.random_product_tangent(p, rng) for _ in range(4)))
    charted = _charted_inputs(rng)
    flowed = _flowed_inputs(rng)
    floats = [
        (cli.random_frame_shape(cases[i % 3], rng, exact=False), float(rng.uniform(-0.4, 0.4)))
        for i in range(24)
    ]
    exact = [cli.random_frame_shape(cases[i % 3], rng, exact=True) for i in range(12)]

    return {
        "spaceform.exp_map.us": _per_call_us(
            lambda p, v, l, w: spaceform.exp_map(p, v, l), geodesics
        ),
        "spaceform.parallel_transport.us": _per_call_us(spaceform.parallel_transport, geodesics),
        "ambient.product_metric.us": _per_call_us(
            lambda x, y, z, w: ambient.product_metric(x, y), tangents
        ),
        "ambient.curvature_tensor.us": _per_call_us(ambient.curvature_tensor, tangents),
        "hypersurface.tangent_basis.us": _per_call_us(hypersurface.tangent_basis, charted),
        "hypersurface.unit_normal.us": _per_call_us(hypersurface.unit_normal, charted),
        "hypersurface.shape_operator.us": _per_call_us(hypersurface.shape_operator, charted),
        "hypersurface.shape_operator_flowed.us": _per_call_us(hypersurface.shape_operator, flowed),
        "jacobi.q_matrix.us": _per_call_us(lambda fs, l: jacobi.q_matrix(fs, fs.case, l), floats),
        "jacobi.detq_closed_form.us": _per_call_us(
            lambda fs, l: jacobi.detq_closed_form(fs, fs.case, l), floats
        ),
        "jacobi.detq_taylor.us": _per_call_us(
            lambda fs: jacobi.detq_taylor(fs, fs.case, order=12), [(fs,) for fs in exact]
        ),
        "jacobi.detq_derivative_formula.us": _per_call_us(_detq_sample, [(fs,) for fs in exact]),
    }


def _since(start: dict[str, int], tracer) -> dict[str, int]:
    return {n: c - start.get(n, 0) for n, c in tracer.calls().items()}


def count_work(tracer) -> dict[str, float]:
    """Exact counts per shape operator and per gallery grid point.

    Needs ``tracer`` installed; the counts are read from its spans, and the
    chart evaluations from a counting copy of the flowed immersion.  The spans
    recorded here stay in the tracer.
    """
    rng = np.random.default_rng(PROBE_SEED)
    charted = _charted_inputs(rng)
    start = tracer.calls()
    for imm, u in charted:
        hypersurface.shape_operator(imm, u)
    calls = _since(start, tracer)
    normals_per_shape = calls["hypersurface.unit_normal"] / calls["hypersurface.shape_operator"]

    charts = 0

    def counted(chart):
        def chart_call(u):
            nonlocal charts
            charts += 1
            return chart(u)

        return chart_call

    flowed = _flowed_inputs(rng)
    for imm, u in flowed:
        hypersurface.shape_operator(dataclasses.replace(imm, chart=counted(imm.chart)), u)
    charts_per_shape = charts / len(flowed)

    start = tracer.calls()
    argv = ["gallery", "--family", COUNT_GALLERY_FAMILY, "--grid", str(COUNT_GALLERY_GRID)]
    cli.run(cli.build_config(cli._build_parser().parse_args(argv)))
    examples = [s for s in classify.gallery_specs() if s.family == COUNT_GALLERY_FAMILY]
    points = len(examples) * COUNT_GALLERY_GRID**3
    shapes_per_point = _since(start, tracer)["hypersurface.shape_operator"] / points
    return {
        "hypersurface.normals_per_shape": normals_per_shape,
        "hypersurface.charts_per_shape": charts_per_shape,
        "hypersurface.shapes_per_point": shapes_per_point,
    }
