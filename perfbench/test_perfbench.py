"""Tests of the benchmark itself, at tiny sizes.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import argparse
import json
import os
import re
import signal
import statistics
import sys
import time

import pytest

import run

run.import_program()

import spans  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402
from exploratory_lq import closed_form, moments, sde  # noqa: E402
from exploratory_lq.model import LqModel, derived_coeffs  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")
BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.fixture
def work():
    path = run.RUN_DIR / f"test-{os.getpid()}"
    yield path
    run.clear(path)


def _tiny(name, work, seed=workloads.DEFAULT_SEED):
    return workloads.Workload(name, seed, work / "inputs", tiny=True)


def _bindings():
    """Every attribute of every loaded exploratory_lq module, by identity."""
    found = {}
    for mod_name, module in list(sys.modules.items()):
        if mod_name == spans.PACKAGE or mod_name.startswith(spans.PACKAGE + "."):
            for attr, value in vars(module).items():
                found[(mod_name, attr)] = value
    for attr, value in vars(sde.TrajectoryBatch).items():
        found[("TrajectoryBatch", attr)] = value
    return found


def test_nearband_model_takes_the_rk4_branch():
    model = LqModel(**workloads.NEARBAND_MODEL)
    _, policy = closed_form.exploratory_solution(model)
    assert moments.classify_case(derived_coeffs(model, policy))[1]


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_tiny_pass_succeeds_with_pinned_bytes(name, work):
    tally = workloads.Tally()
    run.run_checked(_tiny(name, work), work / "out", run._pins("tiny", name), tally)
    assert tally.messages == []
    assert tally.attempted == len(workloads.TINY[name])


def test_sampler_scales_and_puts_the_alarm_back():
    previous = signal.getsignal(signal.SIGALRM)
    sampler = speed.Sampler(period_s=0.05)
    with sampler.sampling():
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < 0.5:
            pass
        wall = time.perf_counter() - t0
    assert signal.getsignal(signal.SIGALRM) is previous
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(sampler.samples) >= 3
    assert 0 < sampler.spent < wall
    expected = (wall - sampler.spent) * speed.REFERENCE_S / statistics.fmean(sampler.samples)
    assert sampler.scaled(wall) == pytest.approx(expected, rel=1e-12)


def test_end_to_end_metrics_are_declared_and_positive(work):
    args = argparse.Namespace(workload="cli-simulate", seed=5, seconds=0.01, trace=0)
    tally = workloads.Tally()
    metrics, _ = run.end_to_end(args, _tiny("cli-simulate", work, args.seed), work, tally, {})
    assert tally.failed == 0
    assert {name: unit for name, (_, unit) in metrics.items()} == \
        {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert all(value > 0 for value, _ in metrics.values())


def _corrupt_digit(path):
    data = bytearray(path.read_bytes())
    i = data.rindex(b"5")
    data[i:i + 1] = b"6"
    path.write_bytes(bytes(data))


def _fail_evaluate(path):
    report = json.loads(path.read_text())
    report["within_tolerance"] = False
    path.write_text(json.dumps(report))


@pytest.mark.parametrize("name, seed, artifact, corrupt", [
    ("cli-simulate", workloads.DEFAULT_SEED, "trajectories.csv", _corrupt_digit),
    ("mc-verify", 5, "evaluate.json", _fail_evaluate),
])
def test_corrupted_artifact_counts_as_failed(name, seed, artifact, corrupt, work):
    wl = _tiny(name, work, seed)
    outcomes = wl.run(work / "out")
    clean = workloads.Tally()
    clean.add(wl.check(outcomes, run._pins("tiny", name)))
    assert clean.failed == 0
    corrupt(outcomes[0].out_dir / artifact)
    tally = workloads.Tally()
    tally.add(wl.check(outcomes, run._pins("tiny", name)))
    assert tally.failed / tally.attempted > 0
    assert all(m.startswith(outcomes[0].job.command + ":") for m in tally.messages)


@pytest.fixture(scope="module")
def traced_tiny():
    """One traced run of tiny mc-verify through run.traced, with the
    module bindings captured before and after."""
    work = run.RUN_DIR / f"test-traced-{os.getpid()}"
    args = argparse.Namespace(workload="mc-verify", seed=5, seconds=0.01, trace=1)
    before = _bindings()
    tally = workloads.Tally()
    try:
        metrics, _ = run.traced(args, _tiny("mc-verify", work, args.seed), work, tally, {})
    finally:
        run.clear(work)
        (run.RUN_DIR / "spans-mc-verify-seed5.jsonl").unlink(missing_ok=True)
    return before, _bindings(), metrics, tally


def test_traced_run_restores_every_wrapped_function(traced_tiny):
    before, after, _, _ = traced_tiny
    assert before.keys() == after.keys()
    changed = [key for key in before if before[key] is not after[key]]
    assert changed == []


def test_restore_after_an_exception():
    before = _bindings()
    tracer = spans.Tracer()
    with pytest.raises(KeyError):
        with tracer.installed():
            assert _bindings()[("exploratory_lq.policy_eval", "simulate_exploratory")] \
                is not before[("exploratory_lq.policy_eval", "simulate_exploratory")]
            raise KeyError("boom")
    after = _bindings()
    assert all(before[key] is after[key] for key in before)


def test_traced_run_sees_calls_made_through_from_imports(traced_tiny):
    _, _, metrics, tally = traced_tiny
    assert tally.failed == 0
    evaluate, cost, sweep = workloads.TINY["mc-verify"]
    # evaluate: one Euler batch; cost: two legs (optimal and classical);
    # sweep: one batch per policy.  All but the first reach sde through
    # policy_eval's `from .sde import simulate_exploratory`.
    expected = (evaluate.sim["n_paths"] * evaluate.sim["n_steps"]
                + 2 * cost.sim["n_paths"] * cost.sim["n_steps"]
                + sweep.sim["policies"] * sweep.sim["n_paths"] * sweep.sim["n_steps"])
    assert metrics["sde.path_steps"][0] == expected
    assert metrics["policy_eval.self_s"][0] > 0
    assert metrics["moments.self_s"][0] > 0
    assert metrics["rng.normals_useful_ratio"][0] < 1.0   # cost redraws the state noise
    total = sum(metrics[f"{layer}.self_s"][0] for layer in (*spans.LAYERS, "bench"))
    assert total == pytest.approx(metrics["trace.wall_s"][0], rel=1e-9)


def test_metric_names_are_well_formed_and_declared(traced_tiny):
    _, _, metrics, _ = traced_tiny
    declared = [m["name"] for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]]
    declared += [w["name"] for w in BENCHMARK["workloads"]]
    assert all(NAME.fullmatch(name) and len(name) <= 64 for name in declared)
    assert len(declared) == len(set(declared))
    assert list(metrics) == [m["name"] for m in BENCHMARK["per_layer"]]
    units = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert all(units[name] == unit for name, (_, unit) in metrics.items())
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)
