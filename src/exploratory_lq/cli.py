"""Command-line front end.

Reads a flat key=value model config, runs one workflow, and writes CSV
tables / JSON summaries plus a plain-text report.  Exit codes: 0 on
success, 1 for configuration errors, 2 for model-validation failures,
3 for numerical failures; every error names the violated condition on
standard error.  Outputs are byte-identical across repeated runs with
the same inputs.  ``--seed`` and ``--parallelism`` override ``sim.seed``
and ``sim.parallelism`` and meet the same checks in
:func:`config.sim_settings`; the parallelism must be >= 1 and has no
effect: paths are simulated serially.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import closed_form, config, moments, policy_eval, sde
from .constants import ABS_TOL
from .errors import ConfigError, ExploratoryLqError, ModelValidationError, NumericalError
from .model import (ASSUMPTION_BOUND, LqModel, check_model, clears_bound,
                    derived_coeffs, validate)

STOCHASTIC_COMMANDS = {"simulate", "evaluate", "cost", "exact-vs-euler", "moments"}

CONVERGENCE_DTS = (1e-2, 1e-3, 1e-4)
CONVERGENCE_HORIZON = 1.0
RESIDUAL_GRID = np.linspace(-10.0, 10.0, 41)


@dataclass
class RunSpec:
    """One resolved invocation: exactly one command, a validated-or-
    overridden model, simulation settings, and output destination."""

    command: str
    model: LqModel
    sim: dict
    out_dir: Path
    fmt: str = "csv"
    sweep: list = field(default_factory=list)
    override: bool = False
    assumption_ok: bool = True


def _fmt(x) -> str:
    """Full-precision, round-trippable text for floats."""
    if isinstance(x, float):
        return repr(x)
    return str(x)


def _write_json(path: Path, obj) -> None:
    path.write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n",
                    encoding="utf-8")


def _write_table(path_base: Path, fmt: str, header: list[str], rows: list[tuple]):
    if fmt == "json":
        path = path_base.with_suffix(".json")
        _write_json(path, [dict(zip(header, row)) for row in rows])
        return path
    path = path_base.with_suffix(".csv")
    lines = [",".join(header)]
    lines.extend(",".join(_fmt(v) for v in row) for row in rows)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def emit_report(solution: closed_form.Solution, *, assumption_ok: bool,
                mc_sections: list[str] | None = None) -> str:
    """Fixed-order plain-text summary of the closed-form solution.

    ``assumption_ok`` is the :func:`~exploratory_lq.model.check_model`
    verdict on the discount-rate bound; it decides both the bound's
    verdict and the UNVERIFIED stamp.  A bound the model need not meet
    is reported as not required.
    """
    model = solution.model
    record = solution.record()
    if not assumption_ok:
        verdict = "(VIOLATED)"
    elif clears_bound(model):
        verdict = "(satisfied)"
    else:
        verdict = "(not required: m = 0)"
    lines = [
        "model: " + " ".join(
            f"{name}={_fmt(getattr(model, name))}"
            for name in ("a", "b", "c", "d", "m", "n", "r", "p", "q", "rho", "lam")),
        f"assumption bound: {_fmt(record['assumption_bound'])} "
        f"vs rho={_fmt(model.rho)} {verdict}",
        f"value: k2={_fmt(record['k2'])} k1={_fmt(record['k1'])} k0={_fmt(record['k0'])}",
        "policy: slope={slope} intercept={intercept} variance={variance}".format(
            **{k: _fmt(v) for k, v in record["policy"].items()}),
        f"classical: alpha0={_fmt(record['alpha0'])}",
        f"exploration cost: {_fmt(record['cost'])}",
    ]
    for section in mc_sections or []:
        lines.append(section)
    if not assumption_ok:
        lines.append("UNVERIFIED (assumption violated)")
    return "\n".join(lines) + "\n"


def _solve(spec: RunSpec) -> closed_form.Solution:
    return closed_form.solve(spec.model, allow_assumption_violation=spec.override)


def _write_report(spec: RunSpec, solution: closed_form.Solution,
                  mc_sections: list[str] | None = None) -> None:
    report = emit_report(solution, assumption_ok=spec.assumption_ok,
                         mc_sections=mc_sections)
    (spec.out_dir / "report.txt").write_text(report, encoding="utf-8")
    sys.stdout.write(report)


def _cmd_solve(spec: RunSpec) -> None:
    sol = _solve(spec)
    _write_json(spec.out_dir / "solution.json", sol.record())
    _write_report(spec, sol)


def _cmd_residual(spec: RunSpec) -> None:
    sol = _solve(spec)
    rows = [
        (float(x),
         float(closed_form.hjb_residual(spec.model, sol.value, x, "exploratory")),
         float(closed_form.hjb_residual(spec.model, sol.classical_value, x,
                                        "classical")))
        for x in RESIDUAL_GRID
    ]
    path = _write_table(spec.out_dir / "residual", spec.fmt,
                        ["x", "exploratory_residual", "classical_residual"], rows)
    _write_report(spec, sol)
    sys.stdout.write(f"wrote {path}\n")


def _cmd_simulate(spec: RunSpec) -> None:
    batch = sde.simulate_exploratory(
        spec.model, _solve(spec).policy, spec.sim["x0"], spec.sim["grid"],
        spec.sim["seed"], spec.sim["n_paths"])
    with open(spec.out_dir / "trajectories.csv", "w", encoding="utf-8") as fh:
        batch.write_csv(fh)
    _write_json(spec.out_dir / "summary.json", batch.summary())
    sys.stdout.write(f"wrote {spec.out_dir / 'trajectories.csv'}\n")


def _mc_check(estimate: policy_eval.ValueEstimate,
              target: float) -> tuple[float, float]:
    """(|estimate - target|, tolerance 3 se + tail) of a Monte Carlo check."""
    return (abs(estimate.value - target),
            3.0 * estimate.std_error + estimate.truncation_bound)


def _mc_section(label: str, estimate: policy_eval.ValueEstimate,
                target: float) -> str:
    err, tol = _mc_check(estimate, target)
    verdict = "PASS" if err <= tol else "FAIL"
    return (f"{label}: estimate={_fmt(estimate.value)} target={_fmt(target)} "
            f"|err|={_fmt(err)} tol(3se+tail)={_fmt(tol)} {verdict}")


def _cmd_evaluate(spec: RunSpec) -> None:
    sol = _solve(spec)
    estimate = policy_eval.mc_value(
        spec.model, sol.policy, spec.sim["x0"], spec.sim["grid"], spec.sim["seed"],
        spec.sim["n_paths"], allow_assumption_violation=spec.override)
    target = sol.value(spec.sim["x0"])
    err, tol = _mc_check(estimate, target)
    _write_json(spec.out_dir / "evaluate.json", {
        "estimate": estimate.as_dict(),
        "closed_form_value": target,
        "abs_error": err,
        "tolerance_3se_plus_tail": tol,
        "within_tolerance": bool(err <= tol),
        "x0": spec.sim["x0"],
    })
    _write_report(spec, sol, [_mc_section("mc value", estimate, target)])


def _cmd_cost(spec: RunSpec) -> None:
    sol = _solve(spec)
    target = closed_form.exploration_cost(spec.model)
    estimate = policy_eval.mc_exploration_cost(
        spec.model, spec.sim["x0"], spec.sim["grid"], spec.sim["seed"],
        spec.sim["n_paths"], allow_assumption_violation=spec.override)
    _write_json(spec.out_dir / "cost.json", {
        "closed_form": target,
        "decomposition_check": sol.cost_decomposition(spec.sim["x0"]),
        "mc_estimate": estimate.as_dict(),
    })
    _write_report(spec, sol, [_mc_section("mc exploration cost", estimate, target)])


def _cmd_sweep(spec: RunSpec) -> None:
    points = closed_form.lambda_sweep(spec.model, spec.sweep,
                                      probe_x=spec.sim["x0"],
                                      allow_assumption_violation=spec.override)
    rows = [(p.lam, p.variance, p.value_gap, p.cost, p.mean_at_probe, p.probe_x)
            for p in points]
    path = _write_table(
        spec.out_dir / "sweep", spec.fmt,
        ["lambda", "variance", "value_gap", "cost", "mean_at_probe", "probe_x"],
        rows)
    _write_report(spec, _solve(spec))
    sys.stdout.write(f"wrote {path}\n")


def _cmd_exact_vs_euler(spec: RunSpec) -> None:
    model = spec.model
    if abs(model.d) <= ABS_TOL or abs(model.c) <= ABS_TOL:
        method = "d0" if abs(model.d) <= ABS_TOL else "c0"
        policy = sde.state_independent_policy(model)
        value = None
    else:
        method = "doss_saussman"
        sol = _solve(spec)
        value, policy = sol.value, sol.policy
    rows = []
    for dt in CONVERGENCE_DTS:
        grid = sde.PathGrid(dt=dt, n_steps=int(round(CONVERGENCE_HORIZON / dt)))
        euler = sde.simulate_exploratory(
            model, policy, spec.sim["x0"], grid, spec.sim["seed"],
            spec.sim["n_paths"], record_paths=False)
        exact = sde.exact_batch(
            model, spec.sim["x0"], grid, spec.sim["seed"], spec.sim["n_paths"],
            method=method, value=value)
        rows.append((dt, *sde.endpoint_errors(euler, exact), method,
                     spec.sim["n_paths"]))
    path = _write_table(
        spec.out_dir / "convergence", spec.fmt,
        ["dt", "rms_endpoint_error", "max_endpoint_error",
         "mean_endpoint_error", "method", "n_paths"], rows)
    sys.stdout.write(f"wrote {path}\n")


def _cmd_moments(spec: RunSpec) -> None:
    sol = _solve(spec)
    grid, x0 = spec.sim["grid"], spec.sim["x0"]
    coeffs = derived_coeffs(spec.model, sol.policy)
    case_tag = moments.classify_case(coeffs)[0]
    n_nodes = min(41, grid.n_steps + 1)
    nodes = np.unique(np.linspace(0, grid.n_steps, n_nodes).astype(int))
    batch = sde.simulate_exploratory(
        spec.model, sol.policy, x0, grid, spec.sim["seed"],
        spec.sim["n_paths"], record_paths=False, checkpoints=tuple(nodes))
    times = grid.times()[nodes]
    # One call per curve, so a near-band curve is a single RK4 pass.
    rows = [(t, float(n), float(m), float(m_hat), case_tag,
             *batch.checkpoint_stats(int(node)))
            for node, t, n, m, m_hat in zip(
                nodes, times, moments.mean_curve(coeffs, x0, times),
                moments.second_moment_curve(coeffs, x0, times),
                moments.second_moment_curve(
                    derived_coeffs(spec.model, sol.classical_policy), x0, times))]
    path = _write_table(
        spec.out_dir / "moments", spec.fmt,
        ["t", "n", "m", "m_hat", "case_tag",
         "mc_mean", "mc_m2", "mc_se_mean", "mc_se_m2"], rows)
    sys.stdout.write(f"wrote {path}\n")


_DISPATCH = {
    "solve": _cmd_solve,
    "residual": _cmd_residual,
    "simulate": _cmd_simulate,
    "evaluate": _cmd_evaluate,
    "cost": _cmd_cost,
    "sweep": _cmd_sweep,
    "exact-vs-euler": _cmd_exact_vs_euler,
    "moments": _cmd_moments,
}
COMMANDS = tuple(_DISPATCH)


def run(spec: RunSpec) -> int:
    """Execute one resolved RunSpec; returns the process exit status."""
    spec.out_dir.mkdir(parents=True, exist_ok=True)
    _DISPATCH[spec.command](spec)
    return 0


def build_spec(args, mapping: dict[str, str]) -> RunSpec:
    model = config.model_from_mapping(mapping)
    flags = {f"sim.{name}": str(value)
             for name, value in (("seed", args.seed), ("parallelism", args.parallelism))
             if value is not None}
    sim = config.sim_settings({**mapping, **flags})
    if args.command in STOCHASTIC_COMMANDS and sim["seed"] is None:
        raise ConfigError(
            f"command {args.command!r} is stochastic: provide --seed or sim.seed "
            "(no wall-clock default)")
    sweep = config.sweep_lambdas(mapping) if args.command == "sweep" else []
    validate(model, allow_assumption_violation=args.override_assumptions)
    return RunSpec(
        command=args.command,
        model=model,
        sim=sim,
        out_dir=Path(args.out),
        fmt=config.output_format(mapping),
        sweep=sweep,
        override=args.override_assumptions,
        assumption_ok=all(v.condition != ASSUMPTION_BOUND for v in check_model(model)),
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="explq",
        description="Entropy-regularized exploratory LQ control workflows")
    parser.add_argument("--config", required=True, help="key=value model config")
    parser.add_argument("--command", required=True, choices=COMMANDS)
    parser.add_argument("--seed", type=int, default=None,
                        help="64-bit seed; mandatory for stochastic commands")
    parser.add_argument("--out", default=".", help="output directory")
    parser.add_argument("--override-assumptions", action="store_true",
                        help="run despite a violated discount-rate bound; "
                             "results are marked UNVERIFIED")
    parser.add_argument("--parallelism", type=int, default=None,
                        help="accepted for compatibility; has no effect")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        mapping = config.load_config(args.config)
        spec = build_spec(args, mapping)
        return run(spec)
    except ConfigError as exc:
        sys.stderr.write(f"config error: {exc}\n")
        return 1
    except ModelValidationError as exc:
        sys.stderr.write(f"validation error: {exc}\n")
        return 2
    except NumericalError as exc:
        sys.stderr.write(f"numerical error: {exc}\n")
        return 3
    except ExploratoryLqError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 3


if __name__ == "__main__":
    sys.exit(main())
