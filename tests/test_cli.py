import csv
import json
import math
import os
import stat
import struct
from decimal import Decimal
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest

from prodform_geo import classify, cli, hypersurface, jacobi, spaceform
from prodform_geo.ambient import (
    complex_structures,
    curvature_tensor,
    product_metric,
    product_structure,
    random_product_point,
    random_product_tangent,
)
from prodform_geo.classify import (
    FAMILY_PSI,
    CaseId,
    ExampleSpec,
    StatSummary,
    build_control,
    build_example,
    gallery_specs,
    isoparametric_report,
)
from prodform_geo.hypersurface import angle_of_normal, unit_normal
from prodform_geo.spaceform import GeometryError
from prodform_geo.cli import (
    CASES,
    ConfigError,
    ErrorTracker,
    RunConfig,
    build_config,
    main,
    render_csv,
    render_json,
    run,
    _build_parser,
)


def make_config(**kwargs):
    defaults = dict(command="identities", samples=25, seed=1)
    defaults.update(kwargs)
    return RunConfig(**defaults)


class TestRunConfig:
    def test_rejects_zero_samples(self):
        with pytest.raises(ConfigError):
            make_config(samples=0).validate()

    def test_rejects_unknown_case(self):
        with pytest.raises(ConfigError):
            make_config(case="r2r2").validate()

    def test_rejects_bad_tolerance(self):
        with pytest.raises(ConfigError):
            make_config(tol=-1e-9).validate()

    def test_rejects_negative_seed(self):
        with pytest.raises(ConfigError):
            make_config(seed=-1).validate()

    def test_rejects_negative_curve_curvature(self):
        with pytest.raises(ConfigError):
            make_config(k=-1.0).validate()

    def test_case_selection(self):
        assert [c.value for c in make_config().selected_cases()] == list(CASES)
        assert [c.value for c in make_config(case="s2r2").selected_cases()] == ["s2r2"]


class TestErrorTracker:
    def test_record_scales_by_the_larger_value_or_one(self):
        t = ErrorTracker("x", "a", 1.0)
        t.record(4.0, 2.0)
        assert (t.max_abs, t.max_rel) == (2.0, 0.5)
        t = ErrorTracker("x", "a", 1.0)
        t.record(-0.25, 0.5)
        assert (t.max_abs, t.max_rel) == (0.75, 0.75)

    def test_record_abs_relative_error_is_the_absolute_one(self):
        t = ErrorTracker("x", "a", 1.0)
        t.record_abs(-3.0)
        t.record_abs(2.0)
        assert (t.max_abs, t.max_rel) == (3.0, 3.0)

    @pytest.mark.parametrize("judge_abs, judged", [(False, 0.5), (True, 2.0)])
    def test_check_judges_its_maximum_at_the_tolerance(self, judge_abs, judged):
        for tol, passed in ((judged, True), (math.nextafter(judged, 0.0), False)):
            t = ErrorTracker("s2h2.x", "anchor.x", tol, judge_abs=judge_abs)
            t.record(4.0, 2.0)  # abs 2, rel 0.5
            assert t.check(7) == cli.CheckResult(
                name="s2h2.x", anchor="anchor.x", samples=7, max_abs_err=2.0, max_rel_err=0.5, passed=passed
            )

    @pytest.mark.parametrize("judge_abs", [False, True])
    def test_recorded_nan_fails(self, judge_abs):
        nan = float("nan")
        for first, then in ((nan, 1.0), (1.0, nan)):
            t = ErrorTracker("x", "a", 1e300, judge_abs=judge_abs)
            t.record_abs(first)
            t.record_abs(then)
            t.record(2.0, 1.0)
            result = t.check(3)
            assert math.isnan(result.max_abs_err) and math.isnan(result.max_rel_err)
            assert not result.passed
        t = ErrorTracker("x", "a", 1e300, judge_abs=judge_abs)
        t.record(nan, 1.0)
        t.record(2.0, 1.0)
        assert not t.check(1).passed


class TestCommands:
    def test_identities_all_pass(self):
        report = run(make_config(command="identities", samples=40, seed=3))
        assert report.all_passed
        names = {c.name for c in report.checks}
        assert "s2h2.p_involution" in names
        assert "h2r2.sectional_mixed" in names

    @pytest.mark.parametrize("case", list(CASES))
    def test_identities_checks_every_vector_it_builds(self, case, monkeypatch):
        # every vector but a negation passes _tangent_check, and a sample
        # builds 20 of them
        original = spaceform._tangent_check
        calls = []

        def counting(base, coords):
            calls.append(coords)
            return original(base, coords)

        monkeypatch.setattr(spaceform, "_tangent_check", counting)
        assert run(make_config(command="identities", case=case, samples=1, seed=1)).all_passed
        assert len(calls) == 20

    @pytest.mark.parametrize("samples", [1, 2 * cli.IDENTITIES_BLOCK + 3])
    def test_identities_draws_a_block_at_a_time(self, samples, monkeypatch):
        # a sample's normals: per factor, its point's (3 on the sphere, 2
        # elsewhere), then x, y and the unit factor vector, one per coordinate
        widths = {"s2h2": 3 + 2 + 3 * (3 + 3), "s2r2": 3 + 2 + 3 * (3 + 2), "h2r2": 2 + 2 + 3 * (3 + 2)}
        block = cli.IDENTITIES_BLOCK
        default_rng = np.random.default_rng
        generators = []

        class Counting:
            def __init__(self, seed):
                self.rng = default_rng(seed)
                self.sizes = []
                generators.append(self)

            def normal(self, size=None):
                self.sizes.append(size)
                return self.rng.normal(size=size)

        # each sample's point still goes through cli's name, which perfbench's
        # identities workload cuts its runs on
        points = []

        def counting_points(*args):
            points.append(args)
            return random_product_point(*args)

        monkeypatch.setattr(np.random, "default_rng", Counting)
        monkeypatch.setattr(cli, "random_product_point", counting_points)
        assert run(make_config(command="identities", samples=samples, seed=2)).all_passed
        assert len(points) == len(CASES) * samples
        assert len(generators) == len(CASES)
        for case, generator in zip(CASES, generators):
            assert len(generator.sizes) == -(-samples // block)
            assert all(rows <= block and width == widths[case] for rows, width in generator.sizes)
            assert sum(rows for rows, _ in generator.sizes) == samples

    def test_detq_all_pass(self):
        report = run(make_config(command="detq", samples=25, seed=7))
        assert report.all_passed
        derivative_checks = [c for c in report.checks if ".derivative_order_" in c.name]
        # orders 1, 2, 4, 6 in every case and order 10 on S2xH2
        assert len(derivative_checks) == 13
        assert all(c.max_abs_err == 0.0 for c in derivative_checks)

    def test_detq_evaluates_the_expansion_once_per_float_sample(self, monkeypatch):
        calls = []
        original = jacobi.detq_and_slope_from_pairs

        def counted(*args):
            calls.append(args)
            return original(*args)

        # the module's own callers and cli's imported name
        monkeypatch.setattr(jacobi, "detq_and_slope_from_pairs", counted)
        monkeypatch.setattr(cli, "detq_and_slope_from_pairs", counted)
        report = run(make_config(command="detq", samples=1000, seed=1))
        assert report.all_passed
        # one float sample per case and draw
        assert len(calls) == 3 * 1000

    def test_detq_evaluates_each_stability_pair_once_per_float_sample(self, monkeypatch):
        calls = []
        original = spaceform.stability_functions

        def counted(*args):
            calls.append(args)
            return original(*args)

        # detq_and_slope's name in jacobi and run_detq's in cli
        monkeypatch.setattr(jacobi, "stability_functions", counted)
        monkeypatch.setattr(cli, "stability_functions", counted)
        assert run(make_config(command="detq", samples=100, seed=1)).all_passed
        # both pairs once, for the closed expansion and for Q and Q' alike
        assert len(calls) == 2 * 3 * 100

    @staticmethod
    def _per_sample_detq(cfg):
        """``run_detq`` as one matrix per float sample: det, A_l and its trace of each Q alone."""
        checks = []
        tol, tol_matrix = cfg.tolerance("detq"), cfg.tolerance("detq_matrix")
        for case in cfg.selected_cases():
            orders = jacobi.formula_orders(case.kappa1, case.kappa2)
            rng = np.random.default_rng(cfg.seed)
            tag = case.value
            derivative = {k: ErrorTracker(f"{tag}.derivative_order_{k}", "", tol) for k in orders}
            det_tracker = ErrorTracker(f"{tag}.detq_matrix_vs_closed_form", "", tol_matrix, judge_abs=True)
            trace_tracker = ErrorTracker(f"{tag}.trace_vs_log_derivative", "", tol)
            for _ in range(cfg.samples):
                closed, oracle = cli.exact_derivatives(cli.random_frame_shape(case, rng, exact=True), orders)
                for k in orders:
                    derivative[k].record(float(closed[k]), float(oracle[k]))
                fsf = cli.random_frame_shape(case, rng, exact=False)
                cpf = fsf.case
                l = float(rng.uniform(-0.4, 0.4))
                q = jacobi.q_matrix(fsf, cpf, l)
                det_closed, slope = jacobi.detq_and_slope(fsf, cpf, l)
                det_tracker.record_abs(float(np.linalg.det(q)) - det_closed)
                if abs(det_closed) > 1e-3:
                    trace = float(np.trace(jacobi.parallel_shape(q, jacobi.q_matrix_prime(fsf, cpf, l))))
                    trace_tracker.record(trace, jacobi.parallel_mean_curvature(det_closed, slope, l))
            checks += [t.check(cfg.samples) for t in (*derivative.values(), det_tracker, trace_tracker)]
        return checks

    @pytest.mark.parametrize("seed", [1, 7])
    @pytest.mark.parametrize("samples", [1, 2 * cli.DETQ_BLOCK + 1])
    def test_detq_blocks_equal_one_matrix_per_sample(self, seed, samples):
        cfg = make_config(command="detq", samples=samples, seed=seed)
        got, want = run(cfg).checks, self._per_sample_detq(cfg)

        def errors(checks):
            return [(c.name, c.max_abs_err.hex(), c.max_rel_err.hex(), c.passed) for c in checks]

        assert len(got) == 19
        assert errors(got) == errors(want)

    def test_detq_report_bytes_do_not_depend_on_the_block_size(self, monkeypatch):
        cfg = make_config(command="detq", samples=40, seed=7)
        reference = render_json(run(cfg))
        for size in (1, 7):
            monkeypatch.setattr(cli, "DETQ_BLOCK", size)
            assert render_json(run(cfg)) == reference

    @pytest.mark.parametrize("exact", [True, False])
    def test_frame_shape_draws_do_not_depend_on_the_case(self, exact):
        # what lets run_detq draw a sample once for every case
        shapes, states = [], []
        for case in CaseId:
            rng = np.random.default_rng(5)
            fs = cli.random_frame_shape(case, rng, exact)
            assert (fs.kappa1, fs.kappa2) == (case.kappa1, case.kappa2)
            shapes.append((fs.A, fs.C))
            states.append(rng.bit_generator.state)
        assert shapes == [shapes[0]] * 3
        assert states == [states[0]] * 3

    @pytest.mark.parametrize("seed", [2, 11])
    def test_detq_lines_of_a_case_equal_its_own_run(self, seed):
        def errors(checks, tag):
            return [
                (c.name, c.max_abs_err.hex(), c.max_rel_err.hex(), c.passed)
                for c in checks
                if c.name.startswith(f"{tag}.")
            ]

        every = run(make_config(command="detq", samples=300, seed=seed)).checks
        for tag in CASES:
            alone = run(make_config(command="detq", case=tag, samples=300, seed=seed)).checks
            assert errors(every, tag) == errors(alone, tag)
            assert len(errors(alone, tag)) == len(alone)

    @pytest.mark.parametrize("case", [None, "h2r2"])
    def test_detq_draws_each_sample_once(self, case, monkeypatch):
        # perfbench cuts the detq-oracle run on calls of cli.random_frame_shape
        calls = []
        original = cli.random_frame_shape

        def counted(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(cli, "random_frame_shape", counted)
        assert run(make_config(command="detq", case=case, samples=30, seed=4)).all_passed
        # one exact and one float shape per sample, whatever the cases
        assert len(calls) == 2 * 30

    def test_cases_all_pass(self):
        report = run(make_config(command="cases", samples=50, seed=9))
        assert report.all_passed

    def test_gallery_psi_angle_value(self):
        report = run(
            make_config(command="gallery", family="psi", c=0.25, grid=2, samples=1)
        )
        assert report.all_passed
        angle = next(c for c in report.checks if c.name.endswith("angle_constancy"))
        assert angle.max_abs_err < 1e-8  # grid mean within 1e-8 of 1 - 2c

    def test_gallery_c_sets_psi_and_its_control(self, monkeypatch):
        built = []
        original = cli.build_control
        monkeypatch.setattr(cli, "build_control", lambda imm: built.append(imm.name) or original(imm))
        report = run(make_config(command="gallery", case="h2r2", c=0.5, grid=2))
        assert "psi(c=0.5).angle_constancy" in {c.name for c in report.checks}
        assert built == ["psi(c=0.5)"]

    def test_gallery_case_selects_examples(self):
        report = run(make_config(command="gallery", case="s2r2", grid=2))
        # no psi and so no negative control, whose check name has no example part
        examples = {c.name.rsplit(".", 1)[0] for c in report.checks}
        assert examples == {s.label() for s in gallery_specs() if (s.kappa1, s.kappa2) == (1, 0)}

    def test_gallery_grid_2_check_count(self):
        # three checks per example and the negative control's one: the
        # benchmark's gallery workload expects exactly this count
        report = run(make_config(command="gallery", grid=2))
        assert len(report.checks) == 3 * len(gallery_specs()) + 1 == 76
        assert report.all_passed

    def test_gallery_builds_one_shape_operator_per_point(self, monkeypatch):
        # the negative control is judged by its angle alone, so it takes one
        # unit normal per point and no shape operator
        shapes, normals = [], []

        def counted(fn, names):
            def wrapper(imm, *args, **kwargs):
                names.append(imm.name)
                return fn(imm, *args, **kwargs)

            return wrapper

        # every module-level name the gallery could call them by
        monkeypatch.setattr(jacobi, "shape_operator", counted(jacobi.shape_operator, shapes))
        monkeypatch.setattr(cli, "shape_operator", counted(cli.shape_operator, shapes))
        monkeypatch.setattr(cli, "unit_normal", counted(cli.unit_normal, normals))
        run(make_config(command="gallery", family="psi", grid=2))
        assert shapes == ["psi(c=0.25)"] * 2**3
        assert normals == ["psi(c=0.25)|control"] * 2**3

    @pytest.mark.parametrize("c", [0.25, 0.9999999], ids=["default", "C~-1"])
    def test_control_angle_matches_its_isoparametric_report_bitwise(self, c):
        # the control's former path, its whole isoparametric report, kept as the reference
        imm = build_control(build_example(ExampleSpec(family=FAMILY_PSI, c=c)))
        grid = imm.grid(2)
        ref = isoparametric_report(imm, grid, l_samples=RunConfig(command="gallery").l_values)
        values = [angle_of_normal(unit_normal(imm, u)) for u in grid]
        assert np.array(values).tobytes() == np.array([rec.C for rec in ref.records]).tobytes()
        got = StatSummary.of(values)
        assert got.mean == ref.angle.mean and got.max_dev == ref.angle.max_dev

        report = run(make_config(command="gallery", family="psi", c=c, grid=2))
        control = next(check for check in report.checks if check.name == "psi_negative_control_fails")
        assert control.samples == ref.grid_points == 2**3
        assert control.max_abs_err == control.max_rel_err == ref.angle.max_dev
        assert control.passed

    @pytest.mark.parametrize("grid", [2, 3])
    @pytest.mark.parametrize("c", [1e-12, 1e-3, 0.25, 0.9999999])
    def test_psi_and_its_control_pass_at_every_strip_constant(self, c, grid):
        # a control that moved C by a multiple of c failed at small c
        report = run(make_config(command="gallery", family="psi", c=c, grid=grid))
        assert report.all_passed
        control = next(check for check in report.checks if check.name == "psi_negative_control_fails")
        assert control.samples == grid**3

    def test_control_at_zero_amplitude_fails(self, monkeypatch):
        # at amplitude 0 the control is psi itself, whose angle is constant
        monkeypatch.setattr(classify, "CONTROL_AMPLITUDE", 0.0)
        report = run(make_config(command="gallery", family="psi", grid=3))
        control = next(check for check in report.checks if check.name == "psi_negative_control_fails")
        assert not control.passed
        assert control.max_abs_err < 1e-12

    def test_flow_produces_rows(self):
        report = run(
            make_config(
                command="flow",
                family="factor_x_curve",
                case="s2r2",
                k=1.0,
                grid=2,
                l_values=(0.1,),
            )
        )
        assert report.rows
        row = report.rows[0]
        assert set(row) == {"u1", "u2", "u3", "l", "H", "C", "k1", "k2", "k3"}

    def test_flow_records_focal_point_and_continues(self):
        # a curvature-2 circle focalizes at distance 1/2 on one side
        report = run(
            make_config(
                command="flow",
                family="factor_x_curve",
                case="s2r2",
                k=2.0,
                grid=2,
                l_values=(0.5, -0.5),
            )
        )
        assert report.all_passed  # the dump itself is not a failure
        assert any(row["H"] is None for row in report.rows)
        assert any(row["H"] is not None for row in report.rows)
        (dump,) = report.checks
        assert dump.max_abs_err == sum(row["H"] is None for row in report.rows)

    def test_flow_rows_come_from_the_isoparametric_report(self, monkeypatch):
        reports = []
        original = cli.isoparametric_report

        def capture(*args, **kwargs):
            reports.append(original(*args, **kwargs))
            return reports[-1]

        monkeypatch.setattr(cli, "isoparametric_report", capture)
        report = run(make_config(command="flow", grid=2, l_values=(0.1,)))
        (rep,) = reports
        assert rep.l_samples == (0.0, 0.1)
        assert [row["H"] for row in report.rows] == [h for hs in rep.h_values for h in hs]
        assert [row["C"] for row in report.rows] == [rec.C for rec in rep.records for _ in range(2)]

    def test_flow_solves_for_principal_curvatures_once_per_point(self, monkeypatch):
        calls = 0
        original = hypersurface.ShapeRecord.principal_curvatures

        def counted(rec):
            nonlocal calls
            calls += 1
            return original(rec)

        monkeypatch.setattr(hypersurface.ShapeRecord, "principal_curvatures", counted)
        run(make_config(command="flow", grid=2))
        assert calls == 2**3

    def test_gallery_checks_one_shape_per_point(self, monkeypatch):
        calls = 0
        original = hypersurface.FrameShape._set_shape

        def counted(fs, a):
            nonlocal calls
            calls += 1
            return original(fs, a)

        monkeypatch.setattr(hypersurface.FrameShape, "_set_shape", counted)
        run(make_config(command="gallery", grid=2))
        # the negative control takes unit normals only
        assert calls == len(gallery_specs()) * 2**3 == 200

    def test_flow_keeps_repeated_l_values_in_order(self):
        report = run(make_config(command="flow", grid=2, l_values=(0.1, 0.1, -0.0)))
        ls = [row["l"] for row in report.rows]
        assert ls == [0.0, 0.1, 0.1, -0.0] * 2**3
        assert [math.copysign(1.0, l) for l in ls[:4]] == [1.0, 1.0, 1.0, -1.0]
        for point in range(2**3):
            first, second = report.rows[4 * point + 1 : 4 * point + 3]
            assert first == second


def list_form_vector_gap(x, y):
    """``cli._vector_gap`` as a max over one list of the gaps."""
    return max([abs(a - b) for u, v in ((x.first, y.first), (x.second, y.second)) for a, b in zip(u.xs, v.xs)])


def factor_pair(first, second):
    return SimpleNamespace(first=SimpleNamespace(xs=first), second=SimpleNamespace(xs=second))


INF, NAN = math.inf, math.nan
#: (x's first and second factor coordinates, y's), each giving the list form's result
VECTOR_GAP_TABLE = {
    "finite": (([0.5, -1.0, 2.0], [1.0, 3.0]), ([0.25, 1.0, 2.0], [1.0, 2.5])),
    "nan first in the first factor": (([NAN, 1.0, 0.0], [5.0, 0.0]), ([0.0, 3.0, 0.0], [0.0, 0.0])),
    "nan last in the first factor": (([0.0, 1.0, NAN], [5.0, 0.0]), ([0.0, 3.0, 0.0], [0.0, 0.0])),
    "nan first in the second factor": (([0.0, 1.0, 0.0], [NAN, 0.0]), ([0.0, 3.0, 0.0], [0.0, 0.0])),
    "nan last in the second factor": (([0.0, 1.0, 0.0], [5.0, NAN]), ([0.0, 3.0, 0.0], [0.0, 0.0])),
    "inf - inf first": (([INF, 1.0], [2.0, 0.0]), ([INF, 0.0], [0.0, 0.0])),
    "inf - inf last": (([1.0, 2.0], [0.0, INF]), ([0.0, 0.0], [0.0, INF])),
    "inf - -inf": (([1.0, INF], [0.0, 2.0]), ([0.0, -INF], [0.0, 0.0])),
    "signed zeros": (([-0.0, 0.0, -0.0], [0.0, -0.0]), ([0.0, -0.0, -0.0], [-0.0, 0.0])),
}


@pytest.mark.parametrize("x, y", VECTOR_GAP_TABLE.values(), ids=VECTOR_GAP_TABLE.keys())
def test_vector_gap_is_the_list_form(x, y):
    x, y = factor_pair(*x), factor_pair(*y)
    got, want = cli._vector_gap(x, y), list_form_vector_gap(x, y)
    assert struct.pack("<d", got) == struct.pack("<d", want)


def test_vector_gap_keeps_a_nan_only_where_it_comes_first():
    nan_first = factor_pair([NAN, 1.0], [0.0, 0.0]), factor_pair([0.0, 3.0], [0.0, 0.0])
    nan_later = factor_pair([0.0, 1.0], [NAN, 0.0]), factor_pair([0.0, 3.0], [0.0, 0.0])
    assert math.isnan(cli._vector_gap(*nan_first))
    assert cli._vector_gap(*nan_later) == 2.0


def reference_vector_gap(x, y):
    return max(
        float(np.max(np.abs(x.first.coords - y.first.coords))),
        float(np.max(np.abs(x.second.coords - y.second.coords))),
    )


def reference_identities(cfg):
    """``identities`` as it ran while each sample rebuilt P x, P y, the J pairs
    and -x where each was used, with numpy reductions for the vector gaps,
    and drew each vector's normals from the generator in a call of its own."""
    report = cli.VerificationReport(seed=cfg.seed, config=cli._config_echo(cfg))
    tol = cfg.tolerance("identities")
    for case in cfg.selected_cases():
        rng = np.random.default_rng(cfg.seed)
        trackers = {
            name: ErrorTracker(f"{case.value}.{name}", f"ambient.{name}", tol)
            for name in (
                "p_involution",
                "p_symmetric",
                "p_isometry",
                "p_eq_minus_j1j2",
                "p_eq_minus_j2j1",
                "j1_squared",
                "j2_squared",
                "sectional_first",
                "sectional_second",
                "sectional_mixed",
            )
        }
        for _ in range(cfg.samples):
            p = random_product_point(case.kappa1, case.kappa2, rng)
            x = random_product_tangent(p, rng)
            y = random_product_tangent(p, rng)

            ppx = product_structure(product_structure(x))
            trackers["p_involution"].record_abs(reference_vector_gap(ppx, x))
            trackers["p_symmetric"].record(
                product_metric(product_structure(x), y),
                product_metric(product_structure(y), x),
            )
            trackers["p_isometry"].record(
                product_metric(product_structure(x), product_structure(y)),
                product_metric(x, y),
            )
            j1x, j2x = complex_structures(x)
            mj1j2 = -complex_structures(j2x)[0]
            mj2j1 = -complex_structures(j1x)[1]
            px = product_structure(x)
            trackers["p_eq_minus_j1j2"].record_abs(reference_vector_gap(mj1j2, px))
            trackers["p_eq_minus_j2j1"].record_abs(reference_vector_gap(mj2j1, px))
            trackers["j1_squared"].record_abs(reference_vector_gap(complex_structures(j1x)[0], -x))
            trackers["j2_squared"].record_abs(reference_vector_gap(complex_structures(j2x)[1], -x))

            a, b = cli._unit_factor_vectors(p, rng)
            ja = complex_structures(a)[0]
            trackers["sectional_first"].record(curvature_tensor(a, ja, ja, a), float(case.kappa1))
            jb = complex_structures(b)[0]
            trackers["sectional_second"].record(curvature_tensor(b, jb, jb, b), float(case.kappa2))
            trackers["sectional_mixed"].record(curvature_tensor(a, b, b, a), 0.0)

        for tracker in trackers.values():
            report.add(tracker.check(cfg.samples))
    return report


class TestDeterminism:
    @pytest.mark.parametrize("seed", [4, 13])
    def test_identities_report_matches_reference_loop(self, seed):
        cfg = make_config(command="identities", samples=50, seed=seed)
        assert render_json(run(cfg)) == render_json(reference_identities(cfg))

    @pytest.mark.parametrize("samples", [1, cli.IDENTITIES_BLOCK - 1, cli.IDENTITIES_BLOCK, cli.IDENTITIES_BLOCK + 1, 2 * cli.IDENTITIES_BLOCK + 3])
    @pytest.mark.parametrize("seed", [4, 13])
    @pytest.mark.parametrize("case", list(CASES))
    def test_identities_blocks_match_per_vector_draws(self, case, seed, samples):
        cfg = make_config(command="identities", case=case, samples=samples, seed=seed)
        assert render_json(run(cfg)) == render_json(reference_identities(cfg))

    @pytest.mark.parametrize(
        "settings",
        [
            dict(command="detq", case="s2r2", samples=10, seed=42),
            dict(command="gallery", family="psi", grid=2),
            dict(command="flow", grid=2),
        ],
        ids=["detq", "gallery", "flow"],
    )
    def test_reports_are_byte_identical_for_fixed_seed(self, settings):
        cfg = make_config(**settings)
        body1 = render_json(run(cfg))
        body2 = render_json(run(cfg))
        assert body1 == body2

    def test_seed_changes_report(self):
        a = render_json(run(make_config(command="detq", case="s2r2", samples=10, seed=1)))
        b = render_json(run(make_config(command="detq", case="s2r2", samples=10, seed=2)))
        assert a != b


class TestExactDraw:
    @pytest.mark.parametrize("case", list(CaseId))
    def test_same_values_and_stream_as_fraction_draw(self, case):
        # the draw as it was when the exact shapes were Fractions
        rng, reference = np.random.default_rng(3), np.random.default_rng(3)
        for _ in range(1000):
            fs = cli.random_frame_shape(case, rng, exact=True)
            a11, a22, a33, a12, a13, a23 = (Fraction(int(n), 1000) for n in reference.integers(-2000, 2001, size=6))
            c = Fraction(int(reference.integers(-949, 950)), 1000)
            assert all(isinstance(x, Decimal) for row in fs.A for x in row) and isinstance(fs.C, Decimal)
            assert [[Fraction(x) for x in row] for row in fs.A] == [[a11, a12, a13], [a12, a22, a23], [a13, a23, a33]]
            assert Fraction(fs.C) == c
        assert rng.uniform() == reference.uniform()


class TestReportFormats:
    def test_json_schema_keys(self):
        report = run(make_config(command="cases", samples=10, seed=5))
        body = json.loads(render_json(report))
        assert set(body) >= {"version", "seed", "checks", "summary"}
        for check in body["checks"]:
            assert set(check) == {
                "name",
                "anchor",
                "samples",
                "max_abs_err",
                "max_rel_err",
                "pass",
            }
        summary = body["summary"]
        assert summary["total"] == summary["passed"] + summary["failed"]

    def test_csv_flow_columns(self):
        report = run(
            make_config(command="flow", family="psi", grid=2, l_values=(0.1, 0.2))
        )
        text = render_csv(report)
        header = text.splitlines()[0]
        assert header == "u1,u2,u3,l,H,C,k1,k2,k3"
        first = text.splitlines()[1].split(",")
        assert len(first) == 9

    def test_csv_check_rows_keep_names_with_commas(self):
        # curve example names such as curve(k=0,first)x(1,-1) hold commas
        report = run(make_config(command="gallery", grid=2))
        header, *rows = csv.reader(render_csv(report).splitlines())
        assert header == ["name", "samples", "max_abs_err", "max_rel_err", "pass"]
        assert all(len(row) == len(header) for row in rows)
        assert [row[0] for row in rows] == [check["name"] for check in json.loads(render_json(report))["checks"]]
        assert any("," in row[0] for row in rows)


class TestEntryPoint:
    def test_usage_error_exit_code(self, capsys):
        assert main(["identities", "--samples", "0"]) == 2
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flags",
        [["--tol", "nan"], ["--tol", "inf"], ["--l", "0.1,nan"], ["--l", "inf"], ["--k", "nan"]],
    )
    def test_non_finite_value_is_usage_error(self, capsys, flags):
        assert main(["detq", "--samples", "1", *flags]) == 2
        assert "finite" in capsys.readouterr().err

    def test_negative_k_is_usage_error(self, capsys):
        assert main(["flow", "--family", "curve_x_factor", "--k", "-1"]) == 2
        assert "--k must be finite and non-negative" in capsys.readouterr().err

    def test_negative_seed_is_usage_error(self, capsys):
        assert main(["detq", "--samples", "1", "--seed", "-1"]) == 2
        assert "error: --seed must be non-negative" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["--family", "curve_x_factor", "--k", "1e200"],
            ["--family", "factor_x_curve", "--case", "s2r2", "--k", "1e160"],
        ],
    )
    def test_curve_curvature_too_large_for_floats_stops_the_run(self, capsys, argv):
        # delta = kappa + k^2 overflows: one error line, exit 1, no traceback
        assert main(["flow", *argv, "--grid", "2"]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and "overflows" in captured.err
        assert captured.out == ""

    def test_geometric_failure_during_run_exit_code(self, capsys, monkeypatch):
        def fail(*args, **kwargs):
            raise GeometryError("injected failure")

        monkeypatch.setattr(cli, "isoparametric_report", fail)
        assert main(["gallery", "--family", "psi", "--grid", "2"]) == 1
        assert "error: injected failure" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["flow", "--l", "814"],
            ["flow", "--l", "900"],
            ["gallery", "--family", "psi", "--l", "815"],
            ["gallery", "--case", "s2h2", "--family", "factor_x_curve", "--l", "709"],
        ],
    )
    def test_flow_distance_too_large_for_floats_stops_the_run(self, capsys, tmp_path, argv):
        # H(l), or the cosh inside it, overflows before any check sees it
        out = tmp_path / "r.json"
        assert main([*argv, "--grid", "2", "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert "error: " in captured.err and f"l = {float(argv[-1])!r}" in captured.err
        assert "[PASS]" not in captured.err and captured.out == ""
        assert os.listdir(tmp_path) == []

    def test_horocycle_false_focal_crossing_stays_focal(self, tmp_path):
        # the horocycle's parallels keep H = 1 (det Q = e^-l): on the closed
        # shape the float det Q resolves it up to l = 15, while at l = 20 its
        # terms of size cosh l cancel below FOCAL_TOL and the sample is focal
        out = tmp_path / "r.json"
        argv = ["flow", "--case", "h2r2", "--family", "curve_x_factor", "--k", "1", "--grid", "2"]
        assert main([*argv, "--l", "14,14.5,15,20", "--out", str(out)]) == 0
        body = json.loads(out.read_text())
        rows = body["rows"]
        assert len(rows) == 5 * 2**3
        for row in rows:
            if row["l"] <= 15.0:
                assert abs(row["H"] - 1.0) < 1e-9, row
            else:
                assert row["H"] is None, row
        (dump,) = body["checks"]
        assert dump["name"].endswith(".flow_dump") and dump["max_abs_err"] == 8.0

    def test_negative_control_below_strip_limit_passes(self, capsys):
        assert main(["gallery", "--family", "psi", "--c", "0.9", "--grid", "2"]) == 0
        assert "[PASS] psi_negative_control_fails" in capsys.readouterr().err

    def test_negative_control_near_degenerate_angle_passes(self, capsys):
        # psi and its control near C = -1: the control is the normal graph of this psi
        assert main(["gallery", "--family", "psi", "--c", "0.9999999", "--grid", "2"]) == 0
        err = capsys.readouterr().err
        assert err.count("[PASS]") == 4
        assert "[PASS] psi_negative_control_fails" in err

    def test_gallery_case_without_its_family_is_usage_error(self, capsys):
        assert main(["gallery", "--case", "s2r2", "--family", "psi", "--grid", "2"]) == 2
        assert "error: gallery selection is empty" in capsys.readouterr().err

    @pytest.mark.parametrize("case", ["s2h2", "s2r2"])
    def test_flow_psi_outside_its_case_is_usage_error(self, capsys, case):
        assert main(["flow", "--family", "psi", "--case", case, "--grid", "2"]) == 2
        assert "error: psi lives in h2r2" in capsys.readouterr().err

    def test_flow_near_degenerate_angle_succeeds(self, capsys):
        assert main(["flow", "--c", "0.9999999", "--grid", "2"]) == 0
        assert "psi(c=0.9999999).flow_dump" in capsys.readouterr().err

    def test_success_exit_code(self, capsys, tmp_path):
        out = tmp_path / "report.json"
        code = main(
            ["cases", "--case", "h2r2", "--samples", "10", "--seed", "3", "--out", str(out)]
        )
        assert code == 0
        body = json.loads(out.read_text())
        assert body["summary"]["failed"] == 0

    def test_out_in_missing_directory_is_usage_error(self, tmp_path, capsys):
        out = tmp_path / "missing" / "r.json"
        assert main(["cases", "--samples", "1", "--out", str(out)]) == 2
        assert "error: --out directory" in capsys.readouterr().err
        assert not out.parent.exists()

    def test_out_naming_a_directory_is_usage_error(self, tmp_path, capsys):
        assert main(["cases", "--samples", "1", "--out", str(tmp_path)]) == 2
        assert "is a directory" in capsys.readouterr().err
        assert os.listdir(tmp_path) == []

    def test_atomic_write_leaves_no_tmp(self, tmp_path):
        out = tmp_path / "r.json"
        main(["cases", "--case", "s2r2", "--samples", "5", "--out", str(out)])
        assert os.listdir(tmp_path) == ["r.json"]

    def test_report_gets_the_mode_of_a_plain_file(self, tmp_path):
        old = os.umask(0o022)
        try:
            main(["cases", "--case", "s2r2", "--samples", "5", "--out", str(tmp_path / "r.json")])
            (tmp_path / "plain").write_text("")
        finally:
            os.umask(old)
        assert stat.S_IMODE(os.stat(tmp_path / "r.json").st_mode) == 0o644
        assert stat.S_IMODE(os.stat(tmp_path / "plain").st_mode) == 0o644

    def test_atomic_write_removes_tmp_when_rename_fails(self, tmp_path, monkeypatch):
        def refuse(src, dst):
            raise OSError("rename refused")

        monkeypatch.setattr(cli.os, "replace", refuse)
        with pytest.raises(OSError, match="rename refused"):
            cli._atomic_write(str(tmp_path / "r.json"), "{}\n")
        assert os.listdir(tmp_path) == []

    def test_config_file_with_flag_override(self, tmp_path):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("samples = 7\nseed = 11\ncase = s2r2\n")
        parser = _build_parser()
        args = parser.parse_args(
            ["detq", "--config", str(cfg_file), "--seed", "99"]
        )
        cfg = build_config(args)
        assert cfg.samples == 7  # from file
        assert cfg.seed == 99  # flag wins
        assert cfg.case == "s2r2"

    def test_unknown_config_key_rejected(self, tmp_path):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("simples = 7\n")
        parser = _build_parser()
        args = parser.parse_args(["detq", "--config", str(cfg_file)])
        with pytest.raises(ConfigError):
            build_config(args)

    def test_config_values_take_their_option_types(self, tmp_path):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("tol = 1e-9\ngrid = 3\nl = 0.1, -0.2\nformat = csv\nc = 0.5\n")
        args = _build_parser().parse_args(["gallery", "--config", str(cfg_file)])
        cfg = build_config(args)
        assert (cfg.tol, cfg.grid, cfg.l_values, cfg.fmt, cfg.c) == (1e-9, 3, (0.1, -0.2), "csv", 0.5)

    def test_badly_typed_config_value_is_usage_error(self, tmp_path, capsys):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("samples = many\n")
        args = _build_parser().parse_args(["detq", "--config", str(cfg_file)])
        with pytest.raises(ConfigError, match="config key samples"):
            build_config(args)
        assert main(["detq", "--config", str(cfg_file)]) == 2
        assert "error: config key samples" in capsys.readouterr().err

    def test_config_file_that_is_not_utf8_is_usage_error(self, tmp_path, capsys):
        cfg_file = tmp_path / "run.cfg"
        # a UTF-16 byte-order mark is not valid UTF-8
        cfg_file.write_bytes(b"\xff\xfes\x00a\x00")
        args = _build_parser().parse_args(["cases", "--config", str(cfg_file)])
        with pytest.raises(ConfigError, match="cannot read config file"):
            build_config(args)
        assert main(["cases", "--config", str(cfg_file)]) == 2
        assert "error: cannot read config file" in capsys.readouterr().err

    @pytest.mark.parametrize("line", ["config = other.cfg", "command = cases", "help = 1"])
    def test_config_key_that_sets_no_run_field_rejected(self, tmp_path, line):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text(line + "\n")
        args = _build_parser().parse_args(["detq", "--config", str(cfg_file)])
        with pytest.raises(ConfigError, match="unknown config key"):
            build_config(args)

    def test_l_values_parsing(self):
        parser = _build_parser()
        args = parser.parse_args(["flow", "--l", "0.1,-0.2,0.3"])
        cfg = build_config(args)
        assert cfg.l_values == (0.1, -0.2, 0.3)

    def test_l_values_starting_with_a_minus_sign(self, tmp_path):
        # argparse reads a separate "-0.2,..." as an option, so the list is
        # attached with "=" or given in a config file
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("l = -0.2,-0.1,0.1,0.2\n")
        for argv in (["flow", "--l=-0.2,-0.1,0.1,0.2"], ["flow", "--config", str(cfg_file)]):
            cfg = build_config(_build_parser().parse_args(argv))
            assert cfg.l_values == (-0.2, -0.1, 0.1, 0.2)
