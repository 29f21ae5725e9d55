"""Spans and counts recorded from outside the program.

``Tracer.installed()`` replaces each public entry point listed in
``TARGETS`` with a wrapper that records a span (name, layer, start, end,
parent, run id) and, for some entry points, a count of the work done.
Names that other modules bound with ``from ... import`` (for example
``policy_eval.simulate_exploratory``) are rebound too; otherwise calls
through them would go unseen.  On exit every original object is put
back.  Spans stay in memory until ``dump`` writes them once.

A layer's self time is the duration of its spans minus the part covered
by their child spans; time inside a traced iteration but outside every
top-level span is the benchmark's own (``bench``).  Work runs in one
thread, so every span lies on the blocking path and the self times of
all layers plus ``bench`` add up to the iteration's wall time.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import json
import os
import statistics
import sys
import time
from collections import defaultdict
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from exploratory_lq import cli, closed_form, config, moments, policy_eval, rng, sde

LAYERS = ("rng", "sde", "policy_eval", "moments", "closed_form", "cli", "config")
PACKAGE = "exploratory_lq"
# Work counted by the hooks below, with units; a workload that never
# reaches a hook reports 0.
COUNTS = {
    "rng.normals_drawn": "count",
    "rng.noise_block_mb": "MB",
    "sde.path_steps": "count",
    "sde.diverged_paths": "count",
    "sde.csv_bytes": "B",
    "moments.nearband_points": "count",
    "closed_form.solve_calls": "count",
}


@dataclass
class Span:
    name: str
    layer: str
    start: float
    end: float
    parent: int | None
    run: int


def _count_normals(tracer, args, result):
    drawn = args["n_paths"] * args["n_steps"]
    tracer.count("rng.normals_drawn", drawn)
    tracer.count_max("rng.noise_block_mb", drawn * 8 / 1e6)
    tracer.blocks[tracer.run].append(
        (args["seed"], args["stream"], args["first_path"], args["n_paths"],
         args["n_steps"]))


def _count_euler(tracer, args, result):
    tracer.count("sde.path_steps", args["n_paths"] * args["grid"].n_steps)
    tracer.count("sde.diverged_paths", result.n_diverged)


def _count_exact(tracer, args, result):
    tracer.count("sde.path_steps", args["n_paths"] * args["grid"].n_steps)


def _count_csv(tracer, args, result):
    fh = args["fh"]
    fh.flush()
    tracer.count("sde.csv_bytes", os.fstat(fh.fileno()).st_size)


def _count_moment_points(tracer, args, result):
    if moments.classify_case(args["coeffs"])[1]:
        tracer.count("moments.nearband_points", int(np.size(args["t"])))


def _count_solve(tracer, args, result):
    tracer.count("closed_form.solve_calls", 1)


def _time_command(tracer, args, result):
    tracer.commands[tracer.run].append(args["spec"].command)


# (owner, attribute, layer, hook).  The hook runs after the call with the
# bound arguments and the result, outside the span.
TARGETS = (
    (cli, "main", "cli", None),
    (cli, "run", "cli", _time_command),
    (cli, "build_spec", "config", None),
    (config, "load_config", "config", None),
    (policy_eval, "mc_value", "policy_eval", None),
    (policy_eval, "mc_exploration_cost", "policy_eval", None),
    (policy_eval, "truncation_bound", "policy_eval", None),
    (sde, "simulate_exploratory", "sde", _count_euler),
    (sde, "exact_batch", "sde", _count_exact),
    (sde.TrajectoryBatch, "write_csv", "sde", _count_csv),
    (rng, "normal_block", "rng", _count_normals),
    (moments, "second_moment_curve", "moments", _count_moment_points),
    (moments, "integrate_moment_ode", "moments", None),
    (closed_form, "exploratory_solution", "closed_form", _count_solve),
    (closed_form, "classical_solution", "closed_form", _count_solve),
    (closed_form, "solution_record", "closed_form", None),
)


class Tracer:
    """In-memory span recorder; ``run`` tags the spans of one iteration."""

    def __init__(self):
        self.spans: list[Span] = []
        self.run = 0
        self.counts = defaultdict(lambda: defaultdict(float))
        self.blocks = defaultdict(list)
        self.commands = defaultdict(list)
        self._stack: list[int] = []   # open spans; work runs in one thread
        self._patched: list[tuple[object, str, object]] = []

    def count(self, name: str, amount) -> None:
        self.counts[self.run][name] += amount

    def count_max(self, name: str, value) -> None:
        counts = self.counts[self.run]
        counts[name] = max(counts[name], value)

    def wrap(self, layer: str, original, hook=None):
        name = f"{layer}.{original.__name__}"
        signature = inspect.signature(original) if hook else None
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            stack = tracer._stack
            span = Span(name, layer, 0.0, 0.0, stack[-1] if stack else None,
                        tracer.run)
            stack.append(len(tracer.spans))
            tracer.spans.append(span)
            span.start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if hook is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                hook(tracer, bound.arguments, result)
            return result

        return wrapper

    def _set(self, owner, attr: str, value) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer is already installed")
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == PACKAGE or n.startswith(PACKAGE + ".")]
        for owner, attr, layer, hook in TARGETS:
            original = inspect.getattr_static(owner, attr)
            wrapper = self.wrap(layer, original, hook)
            if isinstance(owner, type):
                self._set(owner, attr, wrapper)
                continue
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is original:
                        self._set(module, name, wrapper)

    def restore(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    @contextlib.contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.restore()

    def self_times(self, run: int, wall: float) -> dict[str, float]:
        """Self seconds per layer for one run, plus ``bench`` for the time
        outside every top-level span."""
        spans = [(i, s) for i, s in enumerate(self.spans) if s.run == run]
        child_time = defaultdict(float)
        for _, s in spans:
            if s.parent is not None:
                child_time[s.parent] += s.end - s.start
        out = dict.fromkeys(LAYERS, 0.0)
        top = 0.0
        for i, s in spans:
            out[s.layer] += (s.end - s.start) - child_time[i]
            if s.parent is None:
                top += s.end - s.start
        out["bench"] = wall - top
        return out

    def command_times(self, run: int) -> dict[str, float]:
        """Seconds per CLI command (``cli.run`` spans) in one run."""
        out = defaultdict(float)
        runs = [s for s in self.spans if s.run == run and s.name == "cli.run"]
        for span, command in zip(runs, self.commands[run]):
            out[command] += span.end - span.start
        return out

    def useful_ratio(self, run: int) -> float:
        """Distinct (seed, stream, path, step) normals / normals drawn.

        A path's steps are drawn from 0 upwards, so the distinct steps of
        one (seed, stream, path) are those of its longest draw."""
        longest = {}
        for seed, stream, first, n_paths, n_steps in self.blocks[run]:
            key = (seed, stream)
            have = longest.get(key)
            if have is None or have.size < first + n_paths:
                grown = np.zeros(first + n_paths, dtype=np.int64)
                if have is not None:
                    grown[:have.size] = have
                have = longest[key] = grown
            np.maximum(have[first:first + n_paths], n_steps,
                       out=have[first:first + n_paths])
        distinct = sum(int(v.sum()) for v in longest.values())
        drawn = self.counts[run]["rng.normals_drawn"]
        return distinct / drawn if drawn else 1.0

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(asdict(span)) + "\n")


def wrapper_cost_us(calls: int = 20000, reps: int = 3) -> float:
    """Median extra cost, in microseconds, of one span with a hook (the
    costlier kind) around a no-op."""
    def noop(value=None):
        return value

    wrapped = Tracer().wrap("bench", noop, hook=lambda tracer, args, result: None)
    costs = []
    for _ in range(reps):
        t0 = time.perf_counter()
        for _ in range(calls):
            noop()
        t1 = time.perf_counter()
        for _ in range(calls):
            wrapped()
        t2 = time.perf_counter()
        costs.append(((t2 - t1) - (t1 - t0)) / calls * 1e6)
    return statistics.median(costs)
