"""Benchmark workloads: generated inputs, the jobs that consume them, and
the checks that every job's output must pass.

Every input is derived from the workload seed; the program sees only the
generated config files and jittered policies.  A workload is a fixed list
of jobs run in one process, one after the other (closed loop, one client,
``parallelism = 1``).  CLI jobs go through ``cli.main`` exactly as the
``explq`` entry point does; the sweep goes through ``policy_eval.mc_value``.

Each job is checked after it runs, outside the timed region:

* at ``DEFAULT_SEED`` the sha256 of the byte-pinned artifacts must equal
  the hashes in ``pinned.json`` (recorded by ``pin.py`` on the commit
  that defined the benchmark);
* at any seed the statistical verdicts must hold (tolerances as in the
  acceptance tests: 3 se + tail for values and cost, 4 se + slack for
  moments, empirical strong order >= 0.4).

Calls into the library are made through module attributes at call time
(``cli.main``, ``policy_eval.mc_value``), so the tracer's wrappers see them.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import json
import math
import os
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from exploratory_lq import cli, closed_form, config, moments, policy_eval, sde
from exploratory_lq.model import AffineGaussianPolicy, LqModel, derived_coeffs

DEFAULT_SEED = 1
X0 = 1.0

# State-dependent model with both noise channels (tests' DS_MODEL);
# Doss-Saussmann applies.
DS_MODEL = dict(a=0.0, b=1.0, c=0.5, d=1.0, m=1.0, n=2.0, r=0.0, p=0.0,
                q=0.0, rho=3.0, lam=0.2)
# Reference model S1 with c = 1e-7: b1 = 1e-7 lies in (CASE_TOL, NEAR_BAND],
# so every second-moment point takes the RK4 near-band fallback.
NEARBAND_MODEL = dict(a=0.0, b=1.0, c=1e-7, d=0.0, m=1.0, n=1.0, r=0.0,
                      p=0.0, q=0.0, rho=1.0, lam=0.2)


@dataclass(frozen=True)
class Job:
    """One unit of work: an ``explq`` command, or ``sweep`` (library)."""

    command: str
    model: dict
    sim: dict
    pinned: tuple = ()   # artifacts byte-compared at DEFAULT_SEED


def _mc(dt, n_steps, n_paths):
    return {"dt": dt, "n_steps": n_steps, "n_paths": n_paths, "x0": X0}


# Full-size job lists.  The evaluate/cost block is 4096 paths x 2000 steps
# at dt 1e-3: at dt 5e-3 the Euler bias of the value estimate on DS_MODEL
# is about 1.7 standard errors, so `within_tolerance` (3 se + tail, no
# discretization term) fails at roughly one seed in ten.
FULL = {
    "cli-simulate": (
        Job("simulate", DS_MODEL, _mc(1e-2, 1000, 1000),
            ("trajectories.csv", "summary.json")),
    ),
    "mc-verify": (
        Job("evaluate", DS_MODEL, _mc(1e-3, 2000, 4096), ("evaluate.json",)),
        Job("cost", DS_MODEL, _mc(1e-3, 2000, 4096)),
        Job("sweep", DS_MODEL, dict(_mc(2e-3, 1500, 1500), policies=16)),
    ),
    "oracle-check": (
        Job("exact-vs-euler", DS_MODEL, {"n_paths": 200, "x0": X0},
            ("convergence.csv",)),
        Job("moments", NEARBAND_MODEL, _mc(5e-4, 4000, 1000), ("moments.csv",)),
    ),
}

# The same jobs at tiny sizes: the warm-up pass of every run, and the
# benchmark's own tests.  exact-vs-euler keeps its three fixed grids.
TINY = {
    "cli-simulate": (
        Job("simulate", DS_MODEL, _mc(1e-2, 20, 8),
            ("trajectories.csv", "summary.json")),
    ),
    "mc-verify": (
        Job("evaluate", DS_MODEL, _mc(1e-3, 200, 64), ("evaluate.json",)),
        Job("cost", DS_MODEL, _mc(1e-3, 200, 64)),
        Job("sweep", DS_MODEL, dict(_mc(2e-3, 100, 64), policies=2)),
    ),
    "oracle-check": (
        Job("exact-vs-euler", DS_MODEL, {"n_paths": 4, "x0": X0},
            ("convergence.csv",)),
        Job("moments", NEARBAND_MODEL, _mc(5e-4, 4, 64), ("moments.csv",)),
    ),
}

WORKLOADS = tuple(FULL)


@dataclass
class Outcome:
    """What one job left behind: its output directory, return value, and
    error text if it raised or exited non-zero."""

    job: Job
    out_dir: Path
    value: object = None
    error: str | None = None


def _lq(fields: dict) -> LqModel:
    return LqModel(**fields)


def write_config(path: Path, job: Job) -> None:
    """key = value config for one CLI job (model block + sim block)."""
    keys = {field: key for key, field in config.MODEL_KEYS.items()}
    lines = [f"{keys[name]} = {value!r}" for name, value in job.model.items()]
    lines += [f"sim.{name} = {value!r}" for name, value in job.sim.items()]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def sweep_policies(seed: int, count: int) -> list[AffineGaussianPolicy]:
    """test_10-shaped jitter (+-20%) around the DS_MODEL optimum."""
    rng = np.random.default_rng(seed)
    _, opt = closed_form.exploratory_solution(_lq(DS_MODEL))
    return [AffineGaussianPolicy(
        opt.slope * rng.uniform(0.8, 1.2),
        opt.intercept + 0.2 * opt.std * rng.uniform(-1, 1),
        opt.variance * rng.uniform(0.8, 1.2)) for _ in range(count)]


class Workload:
    """One workload's job list with its inputs generated into ``work``."""

    def __init__(self, name: str, seed: int, work: Path, *, tiny: bool = False):
        if name not in FULL:
            raise ValueError(f"unknown workload {name!r}")
        self.seed = seed
        self.jobs = (TINY if tiny else FULL)[name]
        self.work = work
        work.mkdir(parents=True, exist_ok=True)
        self.policies = {}
        for i, job in enumerate(self.jobs):
            if job.command == "sweep":
                self.policies[i] = sweep_policies(seed, job.sim["policies"])
            else:
                write_config(self.config_path(i), job)

    def config_path(self, index: int) -> Path:
        return self.work / f"job{index}-{self.jobs[index].command}.cfg"

    def cli_argv(self, index: int, out_dir: Path) -> list[str]:
        return ["--config", str(self.config_path(index)),
                "--command", self.jobs[index].command,
                "--seed", str(self.seed), "--out", str(out_dir)]

    def run(self, out_root: Path) -> list[Outcome]:
        """Run every job once, in order; never raises for a job's failure."""
        outcomes = []
        for i, job in enumerate(self.jobs):
            out = Outcome(job, out_root / f"job{i}-{job.command}")
            try:
                if job.command == "sweep":
                    out.value = self._sweep(i)
                else:
                    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
                        status = cli.main(self.cli_argv(i, out.out_dir))
                    if status != 0:
                        out.error = f"explq exited with status {status}"
            except SystemExit as exc:      # argparse rejects its arguments
                out.error = f"explq exited with status {exc.code}"
            except Exception as exc:       # any raise is a failed operation
                out.error = f"{type(exc).__name__}: {exc}"
            outcomes.append(out)
        return outcomes

    def _sweep(self, index: int) -> list:
        sim = self.jobs[index].sim
        grid = sde.PathGrid(dt=sim["dt"], n_steps=sim["n_steps"])
        model = _lq(self.jobs[index].model)
        return [policy_eval.mc_value(model, pol, sim["x0"], grid,
                                     seed=self.seed + 1 + i, n_paths=sim["n_paths"])
                for i, pol in enumerate(self.policies[index])]

    def check(self, outcomes: list[Outcome], pins: dict | None) -> list[list[str]]:
        """Per job, the list of failed checks (empty when the job passed).

        ``pins`` maps job index (as a string) to {artifact: sha256}; it is
        applied only when the run uses DEFAULT_SEED.
        """
        failures = []
        for i, out in enumerate(outcomes):
            if out.error is not None:
                failures.append([out.error])
                continue
            try:
                problems = _CHECKS[out.job.command](out)
            except (OSError, ValueError, KeyError, ArithmeticError, csv.Error) as exc:
                problems = [f"unreadable output: {type(exc).__name__}: {exc}"]
            if pins is not None and self.seed == DEFAULT_SEED:
                for name, digest in pins.get(str(i), {}).items():
                    path = out.out_dir / name
                    got = sha256(path) if path.exists() else "missing"
                    if got != digest:
                        problems.append(f"{name}: sha256 {got} != pinned {digest}")
            failures.append([f"{out.job.command}: {p}" for p in problems])
        return failures

    def artifact_hashes(self, outcomes: list[Outcome]) -> dict:
        return {str(i): {name: sha256(out.out_dir / name) for name in out.job.pinned}
                for i, out in enumerate(outcomes) if out.job.pinned}


def sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def count_lines(path: Path) -> int:
    with open(path, "rb") as fh:
        return sum(block.count(b"\n") for block in iter(lambda: fh.read(1 << 20), b""))


def _read_json(path: Path):
    return json.loads(path.read_text(encoding="utf-8"))


def _read_csv(path: Path) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def _check_simulate(out: Outcome) -> list[str]:
    sim = out.job.sim
    problems = []
    rows = count_lines(out.out_dir / "trajectories.csv") - 1
    expected = sim["n_paths"] * (sim["n_steps"] + 1)
    if rows != expected:
        problems.append(f"trajectories.csv has {rows} rows, expected {expected}")
    summary = _read_json(out.out_dir / "summary.json")
    if summary["n_paths"] != sim["n_paths"] or summary["diverged"] != 0:
        problems.append(f"summary.json reports {summary}")
    model = _lq(out.job.model)
    _, policy = closed_form.exploratory_solution(model)
    target = moments.mean_curve(derived_coeffs(model, policy), sim["x0"],
                                sim["dt"] * sim["n_steps"])
    var = max(summary["m2_T"] - summary["mean_T"] ** 2, 0.0)
    se = math.sqrt(var / summary["n_paths"])
    if not abs(summary["mean_T"] - target) <= 4 * se + 1e-3:
        problems.append(f"mean_T {summary['mean_T']!r} vs moment oracle {target!r}")
    return problems


def _check_evaluate(out: Outcome) -> list[str]:
    report = _read_json(out.out_dir / "evaluate.json")
    problems = []
    if report["within_tolerance"] is not True:
        problems.append(f"within_tolerance is false: |err| {report['abs_error']!r} "
                        f"> {report['tolerance_3se_plus_tail']!r}")
    if report["estimate"]["n_paths"] != out.job.sim["n_paths"]:
        problems.append("evaluate.json n_paths differs from the config")
    value, _ = closed_form.exploratory_solution(_lq(out.job.model))
    if abs(report["closed_form_value"] - value(out.job.sim["x0"])) > 1e-12:
        problems.append("closed_form_value differs from V(x0)")
    return problems


def _check_cost(out: Outcome) -> list[str]:
    report = _read_json(out.out_dir / "cost.json")
    model = out.job.model
    target = model["lam"] / (2.0 * model["rho"])
    est = report["mc_estimate"]
    problems = []
    for key in ("closed_form", "decomposition_check"):
        if abs(report[key] - target) > 1e-12:
            problems.append(f"{key} {report[key]!r} != lam/(2 rho) {target!r}")
    tol = 3.0 * est["std_error"] + est["truncation_bound"]
    if not abs(est["value"] - target) <= tol:
        problems.append(f"mc estimate {est['value']!r} outside {target!r} +- {tol!r}")
    return problems


def _check_sweep(out: Outcome) -> list[str]:
    value, _ = closed_form.exploratory_solution(_lq(out.job.model))
    target = value(out.job.sim["x0"])
    problems = []
    if len(out.value) != out.job.sim["policies"]:
        problems.append(f"{len(out.value)} estimates for {out.job.sim['policies']} policies")
    for i, est in enumerate(out.value):
        excess = est.value - target - 3.0 * est.std_error - est.truncation_bound
        if not excess <= 0:
            problems.append(f"jittered policy {i} beats V(x0) by {excess!r}")
    return problems


def _check_exact_vs_euler(out: Outcome) -> list[str]:
    rows = _read_csv(out.out_dir / "convergence.csv")
    if len(rows) != len(cli.CONVERGENCE_DTS):
        return [f"convergence.csv has {len(rows)} rows"]
    problems = []
    if {r["method"] for r in rows} != {"doss_saussman"}:
        problems.append("convergence.csv method is not doss_saussman")
    errs = [float(r["rms_endpoint_error"]) for r in rows]
    dts = [float(r["dt"]) for r in rows]
    order = math.log(errs[0] / errs[-1]) / math.log(dts[0] / dts[-1])
    if not order >= 0.4:
        problems.append(f"empirical strong order {order!r} < 0.4")
    return problems


def _check_moments(out: Outcome) -> list[str]:
    rows = _read_csv(out.out_dir / "moments.csv")
    expected = 41 if out.job.sim["n_steps"] >= 40 else out.job.sim["n_steps"] + 1
    if len(rows) != expected:
        return [f"moments.csv has {len(rows)} rows, expected {expected}"]
    problems = []
    for k, row in enumerate(rows):
        v = {key: float(row[key]) for key in
             ("n", "m", "mc_mean", "mc_m2", "mc_se_mean", "mc_se_m2")}
        if not abs(v["mc_mean"] - v["n"]) <= 4 * v["mc_se_mean"] + 1e-3:
            problems.append(f"row {k}: mc_mean {v['mc_mean']!r} vs n {v['n']!r}")
        if not abs(v["mc_m2"] - v["m"]) <= 4 * v["mc_se_m2"] + 2e-3:
            problems.append(f"row {k}: mc_m2 {v['mc_m2']!r} vs m {v['m']!r}")
    return problems


_CHECKS = {
    "simulate": _check_simulate,
    "evaluate": _check_evaluate,
    "cost": _check_cost,
    "sweep": _check_sweep,
    "exact-vs-euler": _check_exact_vs_euler,
    "moments": _check_moments,
}


@dataclass
class Tally:
    """Jobs attempted and failed across a run, with the failure texts."""

    attempted: int = 0
    failed: int = 0
    messages: list = field(default_factory=list)

    def add(self, failures: list[list[str]]) -> None:
        self.attempted += len(failures)
        for problems in failures:
            if problems:
                self.failed += 1
                self.messages.extend(problems)
