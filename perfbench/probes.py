"""Fixed-shape layer probes for the traced run.

Each probe times one public call at a fixed input shape (the same on
every workload and commit), takes the median of a few repetitions, and
reports it per unit of work: ns per normal, ns per path-step, ns per CSV
row, us per moment point, and so on.  Shapes are listed in ``SHAPES`` and
printed with the results.
"""

from __future__ import annotations

import re
import statistics
import time
from pathlib import Path

import numpy as np
from scipy.special import ndtri

from exploratory_lq import cli, closed_form, config, moments, policy_eval, rng, sde
from exploratory_lq.model import LqModel, derived_coeffs

import workloads

DS = LqModel(**workloads.DS_MODEL)
NEARBAND = LqModel(**workloads.NEARBAND_MODEL)
S1 = LqModel(a=0, b=1, c=0, d=0, m=1, n=1, r=0, p=0, q=0, rho=1, lam=0.2)
# The tests' exact-path reference models for the c = 0 and d = 0 regimes.
C0_MODEL = LqModel(a=-1, b=1, c=0, d=1, m=0, n=2, r=0, p=0, q=1, rho=0.5, lam=1.0)
D0_MODEL = LqModel(a=0.2, b=1, c=0.8, d=0, m=0, n=1, r=0, p=0, q=-0.5,
                   rho=2, lam=0.3)

REPS = 3
SHAPES = {
    "normals": (256, 2000),          # paths x steps
    "euler": (1024, 500, 5e-3),      # paths x steps, dt; two 512-path chunks
    "exact": (1024, 500, 5e-3),
    "exact_ds": (200, 100, 1e-3),    # the exact-vs-euler path count
    "csv": (20, 999, 1e-2),          # 20 x 1000 rows
    "mc_value": (1500, 1500, 2e-3),  # one sweep policy
    "mc_cost": (1024, 500, 5e-3),
    "moment_points": 41,             # the moments command's node count
    "nearband_points": 2,
    "rk4_batch": 500,                # coefficient sets per RK4 call
    "sweep_lambdas": 40,
    "loops": 200,                    # calls per repetition of us-scale probes
}


def unit_of(name: str) -> str:
    """The time unit spelled in a probe's name, e.g. ``ms`` in
    ``moments.nearband_ms_per_point``."""
    return re.search(r"_(ns|us|ms|s)(?:_per_\w+)?$", name).group(1)


def _median_seconds(fn, reps: int = REPS) -> float:
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def _loop(fn, count: int):
    def run():
        for _ in range(count):
            fn()
    return run


def rng_probes(seed: int) -> dict[str, float]:
    paths, steps = SHAPES["normals"]
    n = paths * steps
    keys = [np.array([np.uint64(seed) ^ np.uint64(rng.STATE_STREAM), np.uint64(p)],
                     dtype=np.uint64) for p in range(paths)]
    raw = np.concatenate([np.random.Philox(key=k).random_raw(steps) for k in keys])
    # The documented transform of rng: u = ((raw >> 11) + 0.5) * 2**-53.
    u = ((raw >> np.uint64(11)).astype(np.float64) + 0.5) * 2.0 ** -53
    return {
        "rng.normal_ns": _median_seconds(
            lambda: rng.normal_block(seed, 0, paths, steps)) / n * 1e9,
        "rng.philox_ns": _median_seconds(
            lambda: [np.random.Philox(key=k).random_raw(steps) for k in keys]) / n * 1e9,
        "rng.ndtri_ns": _median_seconds(lambda: ndtri(u)) / n * 1e9,
    }


def sde_probes(seed: int, work: Path) -> dict[str, float]:
    value, policy = closed_form.exploratory_solution(DS)
    paths, steps, dt = SHAPES["euler"]
    grid = sde.PathGrid(dt=dt, n_steps=steps)
    per_step = 1e9 / (paths * steps)

    def euler(**kw):
        return _median_seconds(lambda: sde.simulate_exploratory(
            DS, policy, 1.0, grid, seed, paths, **kw)) * per_step

    out = {
        "sde.euler_ns_per_path_step": euler(record_paths=False),
        "sde.euler_par2_ns_per_path_step": euler(record_paths=False, parallelism=2),
        "sde.euler_discounted_ns_per_path_step": euler(
            record_paths=False, discount_rate=DS.rho),
        "sde.euler_action_ns_per_path_step": euler(
            record_paths=False, discount_rate=DS.rho, action_noise=True),
        "sde.euler_recorded_ns_per_path_step": euler(record_paths=True),
    }
    paths, steps, dt = SHAPES["exact"]
    grid = sde.PathGrid(dt=dt, n_steps=steps)
    for method, model in (("c0", C0_MODEL), ("d0", D0_MODEL)):
        out[f"sde.exact_{method}_ns_per_path_step"] = _median_seconds(
            lambda: sde.exact_batch(model, 1.0, grid, seed, paths, method=method)
        ) * 1e9 / (paths * steps)
    paths, steps, dt = SHAPES["exact_ds"]
    grid = sde.PathGrid(dt=dt, n_steps=steps)
    out["sde.exact_ds_ns_per_path_step"] = _median_seconds(
        lambda: sde.exact_batch(DS, 1.0, grid, seed, paths,
                                method="doss_saussman", value=value)
    ) * 1e9 / (paths * steps)

    paths, steps, dt = SHAPES["csv"]
    batch = sde.simulate_exploratory(
        DS, policy, 1.0, sde.PathGrid(dt=dt, n_steps=steps), seed, paths)
    target = work / "probe-trajectories.csv"

    def write():
        with open(target, "w", encoding="utf-8") as fh:
            batch.write_csv(fh)

    out["sde.write_csv_ns_per_row"] = _median_seconds(write) * 1e9 / (paths * (steps + 1))
    target.unlink()
    return out


def policy_eval_probes(seed: int) -> dict[str, float]:
    _, policy = closed_form.exploratory_solution(DS)
    paths, steps, dt = SHAPES["mc_value"]
    value_grid = sde.PathGrid(dt=dt, n_steps=steps)
    paths_c, steps_c, dt_c = SHAPES["mc_cost"]
    cost_grid = sde.PathGrid(dt=dt_c, n_steps=steps_c)
    loops = SHAPES["loops"]
    return {
        "policy_eval.mc_value_s": _median_seconds(
            lambda: policy_eval.mc_value(DS, policy, 1.0, value_grid, seed, paths)),
        "policy_eval.mc_cost_s": _median_seconds(
            lambda: policy_eval.mc_exploration_cost(DS, 1.0, cost_grid, seed, paths_c)),
        "policy_eval.truncation_bound_us": _median_seconds(_loop(
            lambda: policy_eval.truncation_bound(DS, policy, 1.0, 10.0), loops)
        ) / loops * 1e6,
    }


def moments_probes() -> dict[str, float]:
    _, policy = closed_form.exploratory_solution(DS)
    coeffs = derived_coeffs(DS, policy)
    times = np.linspace(0.0, 10.0, SHAPES["moment_points"])[1:]
    _, nb_policy = closed_form.exploratory_solution(NEARBAND)
    nb_coeffs = derived_coeffs(NEARBAND, nb_policy)
    nb_times = np.arange(1, SHAPES["nearband_points"] + 1, dtype=float)
    draw = np.random.default_rng(0)
    batch = [draw.uniform(-1.0, 1.0, SHAPES["rk4_batch"]) for _ in range(4)]
    c1 = draw.uniform(0.0, 1.0, SHAPES["rk4_batch"])
    return {
        "moments.closed_us_per_point": _median_seconds(
            lambda: [moments.second_moment_curve(coeffs, 1.0, float(t)) for t in times]
        ) / times.size * 1e6,
        "moments.nearband_ms_per_point": _median_seconds(
            lambda: [moments.second_moment_curve(nb_coeffs, 1.0, float(t))
                     for t in nb_times]) / nb_times.size * 1e3,
        "moments.rk4_ms_per_call": _median_seconds(
            lambda: moments.integrate_moment_ode(*batch, c1, 1.0, 1.0)) * 1e3,
    }


def closed_form_probes() -> dict[str, float]:
    loops = SHAPES["loops"]
    lams = [10.0 ** (-k / 8) for k in range(SHAPES["sweep_lambdas"])]
    return {
        "closed_form.solve_us": _median_seconds(_loop(
            lambda: closed_form.exploratory_solution(DS), loops)) / loops * 1e6,
        "closed_form.classical_us": _median_seconds(_loop(
            lambda: closed_form.classical_solution(DS), loops)) / loops * 1e6,
        "closed_form.sweep_us_per_lambda": _median_seconds(
            lambda: closed_form.lambda_sweep(S1, lams, probe_x=1.0)
        ) / len(lams) * 1e6,
    }


def config_probes(work: Path) -> dict[str, float]:
    job = workloads.FULL["mc-verify"][0]
    path = work / "probe.cfg"
    workloads.write_config(path, job)
    args = cli.build_parser().parse_args(
        ["--config", str(path), "--command", job.command, "--seed", "1"])
    loops = SHAPES["loops"]
    out = {"config.load_us": _median_seconds(_loop(
        lambda: cli.build_spec(args, config.load_config(path)), loops)) / loops * 1e6}
    path.unlink()
    return out


def run_all(seed: int, work: Path) -> dict[str, float]:
    out = {}
    out.update(rng_probes(seed))
    out.update(sde_probes(seed, work))
    out.update(policy_eval_probes(seed))
    out.update(moments_probes())
    out.update(closed_form_probes())
    out.update(config_probes(work))
    return out
