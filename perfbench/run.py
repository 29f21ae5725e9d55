"""Benchmark of the exploratory-lq library and its ``explq`` CLI.

Run from the repository root:

    python3 perfbench/run.py --workload mc-verify --seed 3 --seconds 30 --trace 0

Workloads (``workloads.py``): ``cli-simulate``, ``mc-verify``,
``oracle-check``.  The program is imported from ``src/`` next to this
directory; nothing is installed or built.

``--trace 0`` reports the end-to-end metrics:

* ``wall_s``: median wall time of the workload's whole job list, over the
  iterations that fit in ``--seconds`` (at least one), scaled to a fixed
  host speed by ``speed.py`` (the raw median is printed beside it);
* ``setup_s``: median, over SETUP_REPS fresh interpreters, of the time
  from start-up until ``import exploratory_lq``, loading the first job's
  config and building its run spec are done, each scaled by the start-up
  time of a bare interpreter spawned just before it (``speed.py``);
* ``peak_rss_mb``: peak resident memory of this process, which ran the
  workload.

``--trace 1`` alternates untraced and traced iterations, derives
per-layer self times and counts from the spans (``spans.py``), adds the
fixed-shape probes (``probes.py``), and writes the spans to
``.perfbench_run/spans-<workload>-seed<seed>.jsonl``.

Every job is checked (``workloads.py``); the last line of standard output
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  ``failed / attempted`` is the failed-operation fraction.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUN_DIR = ROOT / ".perfbench_run"
PINS = HERE / "pinned.json"
SETUP_REPS = 5
SETUP_TIMEOUT_S = 60


class ProgramMissing(RuntimeError):
    pass


def import_program():
    """Import ``exploratory_lq`` from this checkout's ``src/`` only."""
    if not (SRC / "exploratory_lq" / "__init__.py").is_file():
        raise ProgramMissing(f"no exploratory_lq package under {SRC}")
    sys.path.insert(0, str(SRC))
    import exploratory_lq
    origin = Path(exploratory_lq.__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise ProgramMissing(f"exploratory_lq was imported from {origin}, not {SRC}")
    return exploratory_lq


_SETUP_CHILD = """
import sys, time
sys.path.insert(0, sys.argv[1])
import exploratory_lq
from exploratory_lq import cli, config
args = cli.build_parser().parse_args(sys.argv[2:])
cli.build_spec(args, config.load_config(args.config))
sys.stdout.write(repr(time.monotonic()))
"""

# The same measurement for an interpreter that loads nothing: the host's
# current cost of starting Python, which setup_s is scaled by.
_BARE_CHILD = """
import sys, time
sys.stdout.write(repr(time.monotonic()))
"""


def spawn_seconds(code: str, *args: str) -> float:
    """Seconds from spawning a fresh interpreter running ``code`` until
    it prints ``time.monotonic()``."""
    t0 = time.monotonic()
    proc = subprocess.run([sys.executable, "-c", code, *args],
                          capture_output=True, text=True, timeout=SETUP_TIMEOUT_S,
                          check=True)
    return float(proc.stdout) - t0


def _iterate(seconds: float, body) -> None:
    """Call ``body()`` (which returns its own duration) at least once and
    again while the next call is projected to end within ``seconds``."""
    start = time.perf_counter()
    while True:
        gc.collect()
        last = body()
        if time.perf_counter() - start + last > seconds:
            return


def _pins(size: str, workload: str) -> dict:
    with open(PINS, encoding="utf-8") as fh:
        return json.load(fh)[size].get(workload, {})


def clear(path: Path) -> None:
    shutil.rmtree(path, ignore_errors=True)


def run_checked(wl, out_root: Path, pins: dict, tally, tracer=None, sampler=None) -> float:
    """One timed pass over the workload's jobs, then its checks (untimed).
    Returns the wall seconds of the jobs (with ``sampler``'s ticks in them,
    if one is given)."""
    clear(out_root)
    with contextlib.ExitStack() as stack:
        if tracer is not None:
            stack.enter_context(tracer.installed())
        if sampler is not None:
            stack.enter_context(sampler.sampling())
        t0 = time.perf_counter()
        outcomes = wl.run(out_root)
        wall = time.perf_counter() - t0
    tally.add(wl.check(outcomes, pins))
    clear(out_root)
    return wall


def end_to_end(args, wl, work: Path, tally, pins: dict) -> tuple[dict, list[str]]:
    import speed
    first_cli = next(i for i, job in enumerate(wl.jobs) if job.command != "sweep")
    argv = wl.cli_argv(first_cli, work / "setup-out")
    raw_setup, setup = [], []
    for _ in range(SETUP_REPS):
        bare = spawn_seconds(_BARE_CHILD)
        raw_setup.append(spawn_seconds(_SETUP_CHILD, str(SRC), *argv))
        setup.append(raw_setup[-1] * speed.SPAWN_REFERENCE_S / bare)
    sampler = speed.Sampler()
    raw_walls, walls = [], []

    def body():
        raw_walls.append(run_checked(wl, work / "out", pins, tally, sampler=sampler))
        walls.append(sampler.scaled(raw_walls[-1]))
        return raw_walls[-1]

    _iterate(args.seconds, body)
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    med = statistics.median
    metrics = {
        "wall_s": (med(walls), "s"),
        "setup_s": (med(setup), "s"),
        "peak_rss_mb": (peak_mb, "MB"),
    }
    notes = [
        f"wall_s: median of {len(walls)} iteration(s), min {min(walls):.4f} s, "
        f"max {max(walls):.4f} s; raw wall median {med(raw_walls):.4f} s",
        f"setup_s: median of {len(setup)} fresh interpreters, min {min(setup):.4f} s, "
        f"max {max(setup):.4f} s; raw median {med(raw_setup):.4f} s",
        f"scaled to the host speed at which one speed.kernel call takes "
        f"{speed.REFERENCE_S:g} s and a bare interpreter starts in "
        f"{speed.SPAWN_REFERENCE_S:g} s",
        "peak_rss_mb: ru_maxrss of the process that ran the workload",
    ]
    return metrics, notes


def traced(args, wl, work: Path, tally, pins: dict) -> tuple[dict, list[str]]:
    import probes
    import spans
    import workloads
    tracer = spans.Tracer()
    plain, wrapped, runs = [], [], []

    def body():
        # Alternate which side goes first, so drift hits both alike.
        order = (False, True) if len(plain) % 2 == 0 else (True, False)
        total = 0.0
        for use_tracer in order:
            if use_tracer:
                tracer.run = len(wrapped)
                wrapped.append(run_checked(wl, work / "out", pins, tally, tracer))
                runs.append(tracer.run)
                total += wrapped[-1]
            else:
                plain.append(run_checked(wl, work / "out", pins, tally))
                total += plain[-1]
        return total

    _iterate(args.seconds, body)
    tracer.dump(RUN_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl")

    med = statistics.median
    selfs = [tracer.self_times(r, wall) for r, wall in zip(runs, wrapped)]
    commands = [tracer.command_times(r) for r in runs]
    counts = tracer.counts[runs[0]]
    metrics = {}
    for layer in (*spans.LAYERS, "bench"):
        metrics[f"{layer}.self_s"] = (med([s[layer] for s in selfs]), "s")
    commands_run = dict.fromkeys(job.command for jobs in workloads.FULL.values()
                                 for job in jobs if job.command != "sweep")
    for command in commands_run:
        metrics[f"cli.{command}_s"] = (med([c.get(command, 0.0) for c in commands]), "s")
    for name, unit in spans.COUNTS.items():
        metrics[name] = (float(counts.get(name, 0.0)), unit)
    metrics["rng.normals_useful_ratio"] = (tracer.useful_ratio(runs[0]), "ratio")
    layer_total = [sum(s[layer] for layer in spans.LAYERS) for s in selfs]
    metrics["trace.wall_s"] = (med(wrapped), "s")
    metrics["trace.attributed_frac"] = (med([t / w for t, w in zip(layer_total, wrapped)]),
                                        "ratio")
    metrics["trace.spans"] = (float(sum(s.run == runs[0] for s in tracer.spans)), "count")
    metrics["trace.span_cost_us"] = (spans.wrapper_cost_us(), "us")
    metrics["trace.overhead_frac"] = (med(wrapped) / med(plain) - 1.0, "ratio")
    for name, value in probes.run_all(args.seed, work).items():
        metrics[name] = (value, probes.unit_of(name))
    notes = [
        f"traced iterations: {len(wrapped)}, untraced: {len(plain)}; "
        f"self times are medians over traced iterations",
        "rng.noise_block_mb is computed (chunk x steps x 8 B), not measured",
        f"probe shapes: {json.dumps(probes.SHAPES)}",
    ]
    return metrics, notes


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2 ** 63:
        parser.error("--seed must be in [0, 2**63)")
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        import_program()
    except ProgramMissing as exc:
        sys.stderr.write(f"perfbench: {exc}\n")
        return 2
    import workloads
    if args.workload not in workloads.WORKLOADS:
        sys.stderr.write(f"perfbench: unknown workload {args.workload!r}; "
                         f"choose from {', '.join(workloads.WORKLOADS)}\n")
        return 2

    work = RUN_DIR / f"{args.workload}-{os.getpid()}"
    tally = workloads.Tally()
    try:
        # Warm-up: the same jobs at tiny size and the pinned seed, checked
        # byte for byte, so lazy imports and caches are done before timing.
        tiny = workloads.Workload(args.workload, workloads.DEFAULT_SEED,
                                  work / "tiny", tiny=True)
        run_checked(tiny, work / "tiny-out", _pins("tiny", args.workload), tally)
        wl = workloads.Workload(args.workload, args.seed, work / "inputs")
        measure = traced if args.trace else end_to_end
        metrics, notes = measure(args, wl, work, tally, _pins("full", args.workload))
    finally:
        clear(work)

    for message in tally.messages:
        sys.stderr.write(f"check failed: {message}\n")
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value!r} {unit}")
    for note in notes:
        print(f"  # {note}")
    print(f"  ops_failed_frac = {tally.failed / tally.attempted!r} "
          f"({tally.failed} of {tally.attempted} jobs)")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.path.insert(0, str(HERE))
    sys.exit(main())
