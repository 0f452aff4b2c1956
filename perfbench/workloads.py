"""The four benchmark workloads.

A workload is built once per process (configuration and immersions) and then
run repeatedly.  Each run is the timed region: it computes the checks, renders
the report and writes it, as ``prodform-geo <command> --out PATH`` does.  The
tally outside the timed region verifies what the run produced.

Why these four (see BASELINE.md for the figures):

* ``detq-oracle`` -- mostly the exact Fraction series oracle; the geometry
  core is idle, so an oracle rewrite shows here and a core change must not.
* ``gallery`` -- every classified example on a 2 x 2 x 2 grid plus the
  negative control (always 5 x 5 x 5); dominated by finite-difference shape
  operators built from many small ``ModelVector`` objects.  No random input.
  The grid is the smallest the CLI accepts, so that a run repeats several
  times within a benchmark run.
* ``identities`` -- pointwise algebra on random tangents (curvature tensor,
  complex structures); single-vector spaceform/ambient calls, no charts.
* ``flow-numeric`` -- acceptance criterion 6: closed-form A_l against the
  shape operator of the flowed immersion, the only path with geodesics,
  transport and nested finite differences of a chart without a jacobian.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from prodform_geo import classify, cli, hypersurface, jacobi

#: criterion 6 fails unless every entry of A_l agrees to this bound
FLOW_GAP_BOUND = 1e-4
FLOW_STEPS = (-0.2, -0.1, 0.1, 0.2)
FLOW_SPECS = (
    classify.ExampleSpec(family=classify.FAMILY_PSI, c=0.25),
    classify.ExampleSpec(family=classify.FAMILY_FACTOR_X_CURVE, kappa1=1, kappa2=0, k=1.0),
)
#: parameter points are drawn inside the box where both flow examples are regular
FLOW_BOX = 0.7

GALLERY_GRID = 2
#: the negative control always runs on the default 5 x 5 x 5 grid
GALLERY_CONTROL_POINTS = 5**3

# (anchor prefix, layer, error field, tolerance); first match wins
ERROR_TOLERANCES = (
    ("ambient.", "ambient", "max_rel_err", cli.DEFAULT_TOLS["identities"]),
    ("jacobi.detq.matrix_equivalence", "jacobi", "max_abs_err", cli.DEFAULT_TOLS["detq_matrix"]),
    ("jacobi.detq.", "jacobi", "max_rel_err", cli.DEFAULT_TOLS["detq"]),
    ("hypersurface.ricci.trace", "hypersurface", "max_abs_err", cli.DEFAULT_TOLS["gallery_ricci"]),
    ("hypersurface.flowed_shape_operator", "hypersurface", "max_abs_err", FLOW_GAP_BOUND),
)
ERROR_LAYERS = ("ambient", "hypersurface", "jacobi")


class CliWorkload:
    """A CLI command at fixed settings; units are counted from the settings."""

    def __init__(self, argv: list[str], units: int, expected_checks: int, out: Path, cuts):
        self.cfg = cli.build_config(cli._build_parser().parse_args(argv))
        self.units = units
        self.expected_checks = expected_checks
        self.out = out
        self._cuts = cuts

    def cuts(self):
        """Functions whose calls cut a run into segments (see segments.py)."""
        return self._cuts

    def run(self) -> cli.VerificationReport:
        report = cli.run(self.cfg)
        cli._atomic_write(str(self.out), cli.render_json(report))
        return report


class FlowNumeric:
    """Closed-form A_l vs the numeric shape operator of the flowed immersion."""

    def __init__(self, seed: int, points: int, out: Path):
        rng = np.random.default_rng(seed)
        self.seed = seed
        self.examples = []
        for spec in FLOW_SPECS:
            imm = classify.build_example(spec)
            us = [rng.uniform(-FLOW_BOX, FLOW_BOX, size=3) for _ in range(points)]
            flowed = {l: jacobi.parallel_immersion(imm, l) for l in FLOW_STEPS}
            self.examples.append((imm, us, flowed))
        self.units = len(FLOW_SPECS) * points * len(FLOW_STEPS)
        self.expected_checks = self.units
        self.out = out

    def cuts(self):
        return ((jacobi, "transported_frame"), (hypersurface, "unit_normal"))

    def run(self) -> cli.VerificationReport:
        report = cli.VerificationReport(
            seed=self.seed, config={"workload": "flow-numeric", "steps": list(FLOW_STEPS)}
        )
        for imm, us, flowed in self.examples:
            for i, u in enumerate(us):
                fs, cp, _ = jacobi.frame_shape_at(imm, u)
                for l in FLOW_STEPS:
                    a_closed = jacobi.parallel_shape(
                        jacobi.q_matrix(fs, cp, l), jacobi.q_matrix_prime(fs, cp, l)
                    )
                    frame_l, n_l = jacobi.transported_frame(imm, u, l)
                    rec = hypersurface.shape_operator(flowed[l], u, basis=frame_l, hint=n_l)
                    gap = float(np.max(np.abs(a_closed - rec.A)))
                    report.add(
                        cli.CheckResult(
                            name=f"{imm.name}.u{i}.l={l:g}",
                            anchor="hypersurface.flowed_shape_operator",
                            samples=1,
                            max_abs_err=gap,
                            max_rel_err=gap,
                            passed=gap < FLOW_GAP_BOUND,
                        )
                    )
        cli._atomic_write(str(self.out), cli.render_json(report))
        return report


def build(name: str, seed: int, small: bool, out_dir: Path):
    """Set up one workload; ``small`` shrinks the sampled ones for the self-check."""
    out = out_dir / f"{name}.json"
    samples = 20 if small else 1000
    if name == "detq-oracle":
        argv = ["detq", "--samples", str(samples), "--seed", str(seed)]
        # five derivative orders on S2xH2, four elsewhere, plus two det Q checks per case
        return CliWorkload(
            argv, units=3 * samples, expected_checks=7 + 6 + 6, out=out, cuts=((cli, "random_frame_shape"),)
        )
    if name == "identities":
        argv = ["identities", "--samples", str(samples), "--seed", str(seed)]
        return CliWorkload(
            argv, units=3 * samples, expected_checks=3 * 10, out=out, cuts=((cli, "random_product_point"),)
        )
    if name == "gallery":
        examples = len(classify.gallery_specs())
        argv = ["gallery", "--grid", str(GALLERY_GRID), "--seed", str(seed)]
        return CliWorkload(
            argv,
            units=examples * GALLERY_GRID**3 + GALLERY_CONTROL_POINTS,
            expected_checks=3 * examples + 1,
            out=out,
            cuts=((classify, "frame_shape_at"), (cli, "shape_operator"), (hypersurface, "unit_normal")),
        )
    if name == "flow-numeric":
        return FlowNumeric(seed, points=1 if small else 8, out=out)
    raise KeyError(name)


def err_to_tol(report: cli.VerificationReport) -> dict[str, float]:
    """Largest error over tolerance per layer; 0.0 where no check belongs to it."""
    worst = dict.fromkeys(ERROR_LAYERS, 0.0)
    for check in report.checks:
        for prefix, layer, field_name, tol in ERROR_TOLERANCES:
            if check.anchor.startswith(prefix):
                worst[layer] = max(worst[layer], getattr(check, field_name) / tol)
                break
    return worst
