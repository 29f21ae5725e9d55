"""sde_engine: Euler-Maruyama batches, exact-path oracles, determinism.

Exact-path checks lean on external truth: the geometric-Brownian
reduction for d = 0, the stationary Ornstein-Uhlenbeck moments for
c = 0, and finite differences for the Doss-Saussmann transform.  The
step-blocked builders must also give the bits of whole-horizon
references: the d0 and c0 formulas on a path's whole Brownian motion and
the plain per-node RK4 recursion.
"""

import hashlib
import io
import math
import multiprocessing
import os
import signal
import sys
import tempfile
import threading
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special, stats

import exploratory_lq as xlq
from exploratory_lq import cli, config, sde
from exploratory_lq.constants import ABS_TOL, DIVERGENCE_THRESHOLD, ODE_SUBSTEPS
from conftest import C0_MODEL, D0_MODEL, DS_MODEL, S1, traced_peak

# Explosive multiplicative noise: the Euler state grows by a random
# factor of about 2.5 per step at dt = 0.05, so paths cross the
# divergence threshold after a few dozen steps (fewer at larger dt).
EXPLOSIVE = xlq.LqModel(a=30.0, b=0, c=4.0, d=0, m=0, n=1, r=0, p=0, q=0,
                        rho=1, lam=0.1)
EXPLOSIVE_POLICY = xlq.AffineGaussianPolicy(0.0, 0.0, 0.1)

# DS_MODEL with (c, d) negated: the same optimal slope, so the effective
# volatility slope b1 = c + d * slope has the opposite sign.
DS_MIRROR = replace(DS_MODEL, c=-DS_MODEL.c, d=-DS_MODEL.d)


# Path counts: BIG spans three chunks and SMALL two, neither a multiple
# of the chunk width; a walk that draws action noise steps half as many
# paths per chunk, so there BIG spans five chunks and SMALL three.
BIG, SMALL = 2 * sde._CHUNK + 276, sde._CHUNK + 188
# Two noise blocks in a chunk of at most 1024 paths x streams, the
# second 30 steps long (not a multiple of the 4 steps one Philox block
# yields); a full chunk's walk takes three, of 256, 256 and 30 steps.
EULER_STEPS = sde._STEP_BLOCK + 30


C0_COEFFS = xlq.derived_coeffs(C0_MODEL, xlq.exact.state_independent_policy(C0_MODEL))

# Every real-number input of the library: (error, pattern, call), where
# ``call(v)`` passes v to the input and the error's message starts with
# ``pattern``, the input's name.  A model field raises
# ModelValidationError through solve and validate, the others ValueError.
REAL_INPUTS = {
    "dt": (ValueError, "dt", lambda v: xlq.PathGrid(dt=v, n_steps=3)),
    "x0-euler": (ValueError, "x0", lambda v: xlq.simulate_exploratory(
        C0_MODEL, xlq.exact.state_independent_policy(C0_MODEL), v,
        xlq.PathGrid(dt=0.01, n_steps=10), 7, 4)),
    "x0-exact": (ValueError, "x0", lambda v: xlq.exact_batch(
        C0_MODEL, v, xlq.PathGrid(dt=0.01, n_steps=10), 7, 4, "c0")),
    "x0-mean": (ValueError, "x0", lambda v: xlq.mean_curve(C0_COEFFS, v, 1.0)),
    "x0-second-moment": (ValueError, "x0",
                         lambda v: xlq.second_moment_curve(C0_COEFFS, v, 1.0)),
    "discount_rate": (ValueError, "discount_rate", lambda v: xlq.simulate_exploratory(
        C0_MODEL, xlq.exact.state_independent_policy(C0_MODEL), 1.0,
        xlq.PathGrid(dt=0.01, n_steps=10), 7, 4, discount_rate=v)),
    "slope": (ValueError, "policy slope", lambda v: xlq.AffineGaussianPolicy(v, 0.0, 0.1)),
    "intercept": (ValueError, "policy intercept",
                  lambda v: xlq.AffineGaussianPolicy(0.0, v, 0.1)),
    "variance": (ValueError, "policy variance",
                 lambda v: xlq.AffineGaussianPolicy(0.0, 0.0, v)),
    "model-solve": (xlq.ModelValidationError, "model validation failed: finite: a",
                    lambda v: xlq.solve(replace(S1, a=v))),
    "model-validate": (xlq.ModelValidationError, "model validation failed: finite: a",
                       lambda v: xlq.validate(replace(S1, a=v))),
    "lambda_sweep": (ValueError, "sweep temperatures",
                     lambda v: xlq.lambda_sweep(S1, [0.1, v])),
    "probe_x": (ValueError, "probe_x", lambda v: xlq.lambda_sweep(S1, [0.1], probe_x=v)),
}


def assert_refused_by_name(error, pattern, call, value):
    """``call(value)`` raises ``error``, its message starting with
    ``pattern`` and ending with the value's repr."""
    with pytest.raises(error, match=f"^{pattern}") as info:
        call(value)
    assert str(info.value).endswith(repr(value))


@pytest.fixture
def no_noise(monkeypatch):
    """``rng.normal_block`` fails the test if it is called."""
    def drawn(*args, **kwargs):
        raise AssertionError("noise was drawn")

    monkeypatch.setattr(xlq.rng, "normal_block", drawn)


def euler_with_sums(model, policy, grid, n_paths, nodes, x0=1.0):
    """Seed-9 Euler batch from x0 (default 1) with checkpoints at
    ``nodes`` and all five discounted sums (action noise drawn)."""
    return xlq.simulate_exploratory(
        model, policy, x0, grid, 9, n_paths, checkpoints=nodes,
        discount_rate=model.rho, action_noise=True)


def written_out_euler(model, policy, grid, n_paths, nodes, x0=1.0):
    """Reference for :func:`euler_with_sums`: the Euler recursion one
    step at a time on each path's whole horizon of state and action
    normals, freezing a path once |X| exceeds the divergence threshold,
    as plain NumPy expressions.  Returns a dict of the batch's fields."""
    c = xlq.derived_coeffs(model, policy)
    dt, n_steps = grid.dt, grid.n_steps
    z = xlq.rng.normal_block(9, 0, n_paths, n_steps)
    za = xlq.rng.normal_block(9, 0, n_paths, n_steps, stream=xlq.rng.ACTION_STREAM)
    weights = np.exp(-model.rho * grid.times()[:-1]) * dt
    x = np.full(n_paths, x0)
    alive = np.ones(n_paths, dtype=bool)
    dstep = np.full(n_paths, -1, dtype=np.int64)
    sums = {name: np.zeros(n_paths) for name in ("x", "x2", "zx", "z", "z2m1")}
    states = [x]
    for k in range(n_steps):
        w, zk = weights[k], za[:, k]
        sums["x"] += w * x
        sums["x2"] += w * x * x
        sums["zx"] += w * zk * x
        sums["z"] += w * zk
        sums["z2m1"] += w * (zk * zk - 1.0)
        xn = x + (c.a1 * x + c.a2) * dt + np.sqrt((c.b1 * x + c.b2) ** 2 + c.c1) * (
            z[:, k] * math.sqrt(dt))
        bad = alive & ~(np.abs(xn) <= DIVERGENCE_THRESHOLD)
        dstep[bad] = k + 1
        alive &= ~bad
        x = np.where(alive, xn, x)
        states.append(x)
    states = np.stack(states, axis=1)
    return dict(states=states, endpoints=x, diverged=~alive, divergence_step=dstep,
                checkpoints={k: states[:, k] for k in nodes}, **sums)


def assert_leading_rows_equal(big, small):
    """Every per-path output of ``small`` equals, bit for bit, the same
    rows of ``big``: states, endpoints, divergence bookkeeping,
    checkpoint states and the five discounted sums."""
    n = small.n_paths
    if small.states is not None:
        assert np.array_equal(big.states[:n], small.states)
    for name in ("endpoints", "diverged", "divergence_step"):
        assert np.array_equal(getattr(big, name)[:n], getattr(small, name))
    assert big.checkpoint_states.keys() == small.checkpoint_states.keys()
    for node, x in small.checkpoint_states.items():
        assert np.array_equal(big.checkpoint_states[node][:n], x)
    if small.sums is not None:
        for name in ("x", "x2", "zx", "z", "z2m1"):
            assert np.array_equal(getattr(big.sums, name)[:n],
                                  getattr(small.sums, name))


def brownian(grid, seed, n_paths):
    """W at the grid nodes of paths 0..n_paths-1 of ``seed`` (rows), from
    one cumulative sum over the whole horizon."""
    z = xlq.rng.normal_block(seed, 0, n_paths, grid.n_steps)
    return np.concatenate(
        [np.zeros((n_paths, 1)), np.cumsum(z * math.sqrt(grid.dt), axis=1)],
        axis=1)


def exact_row(model, x0, grid, seed, p, method, value=None):
    """The exact path of (seed, p): row p of a (p + 1)-path batch."""
    return xlq.exact_batch(model, x0, grid, seed, p + 1, method, value)[p]


def rms_ladder(model, method, value=None):
    """Seed-99 RMS endpoint errors of 100 paths from x0 = 1 over T = 1,
    at dt 1e-2 and 1e-3."""
    return [xlq.strong_errors(model, 1.0, xlq.PathGrid(dt=dt, n_steps=round(1.0 / dt)),
                              99, 100, method, value)[0]
            for dt in (1e-2, 1e-3)]


class TestGridAndBrownian:
    def test_grid_validation(self):
        with pytest.raises(ValueError):
            xlq.PathGrid(dt=0.0, n_steps=10)
        with pytest.raises(ValueError):
            xlq.PathGrid(dt=0.1, n_steps=0)
        with pytest.raises(ValueError, match="dt \\* n_steps must be finite"):
            xlq.PathGrid(dt=1e308, n_steps=5)  # finite dt, infinite horizon
        with pytest.raises(ValueError, match="n_steps must be >= 1 and within"):
            xlq.PathGrid(dt=0.01, n_steps=10 ** 400)  # beyond float range
        for steps in (2.5, 3.0, np.float64(4.0)):  # a float is not truncated
            with pytest.raises(ValueError, match="n_steps .* an integer, got"):
                xlq.PathGrid(dt=0.1, n_steps=steps)
        grid = xlq.PathGrid(dt=0.5, n_steps=4)
        assert grid.horizon == 2.0
        assert np.allclose(grid.times(), [0, 0.5, 1.0, 1.5, 2.0])

    @pytest.mark.parametrize("flag", [True, False])
    @pytest.mark.parametrize("call", [
        pytest.param(lambda n: xlq.PathGrid(dt=0.01, n_steps=n), id="n_steps"),
        pytest.param(lambda n: xlq.simulate_exploratory(
            C0_MODEL, xlq.exact.state_independent_policy(C0_MODEL), 1.0,
            xlq.PathGrid(dt=0.01, n_steps=10), 7, n), id="n_paths"),
        pytest.param(lambda n: xlq.simulate_exploratory(
            C0_MODEL, xlq.exact.state_independent_policy(C0_MODEL), 1.0,
            xlq.PathGrid(dt=0.01, n_steps=10), 7, 4, checkpoints=(n,)),
            id="checkpoints"),
        pytest.param(lambda n: xlq.rng.normal_block(n, 0, 1, 2), id="seed")])
    def test_a_bool_is_not_an_integer(self, call, flag):
        # bool subclasses int: True would pass as 1 and False as 0.
        with pytest.raises(ValueError, match="integer"):
            call(flag)

    @pytest.mark.parametrize("flag", [True, False, pytest.param(np.True_, id="np.True_"),
                                      pytest.param(np.False_, id="np.False_")])
    @pytest.mark.parametrize("error, pattern, call", [
        pytest.param(*spec, id=name) for name, spec in REAL_INPUTS.items()])
    def test_a_bool_is_not_a_number(self, no_noise, error, pattern, call, flag):
        # True would pass as a step, a start, a rate, a field or a
        # temperature of 1.0.
        assert_refused_by_name(error, pattern, call, flag)

    @pytest.mark.parametrize("x0", ["1.0", np.array([1.0]), None, 1 + 0j])
    @pytest.mark.parametrize("call", [
        pytest.param(REAL_INPUTS["x0-euler"][2], id="euler"),
        pytest.param(REAL_INPUTS["x0-exact"][2], id="exact"),
        pytest.param(REAL_INPUTS["x0-mean"][2], id="mean"),
        pytest.param(REAL_INPUTS["x0-second-moment"][2], id="second-moment")])
    def test_x0_must_be_a_real_number(self, no_noise, call, x0):
        # math.isfinite would raise TypeError on these, not name x0.
        assert_refused_by_name(ValueError, "x0", call, x0)

    # x0's cases are test_x0_must_be_a_real_number's, and a None
    # discount_rate means no discounting.
    @pytest.mark.parametrize("error, pattern, call, value", [
        pytest.param(*REAL_INPUTS[name], value, id=f"{name}-{label}")
        for name in REAL_INPUTS if not name.startswith("x0")
        for label, value in (("str", "0.5"), ("None", None), ("complex", 1 + 0j),
                             ("array", np.array([1.0])))
        if not (name == "discount_rate" and value is None)])
    def test_a_real_input_must_be_a_real_number(self, no_noise, error, pattern,
                                                call, value):
        # Comparing or math.isfinite would raise TypeError on these.
        assert_refused_by_name(error, pattern, call, value)

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_probe_x_must_be_finite(self, monkeypatch, value):
        # Checked before any solve; a NaN would give a NaN mean_at_probe.
        monkeypatch.setattr(xlq.closed_form, "solve", None)
        assert_refused_by_name(*REAL_INPUTS["probe_x"], value)

    @pytest.mark.parametrize("lambdas", [0.1, None, "0.1", b"0.1"],
                             ids=["float", "None", "str", "bytes"])
    def test_lambdas_must_be_an_iterable_of_numbers(self, monkeypatch, lambdas):
        # Checked before any solve: a number or None is not iterable, and
        # a string would sweep its characters.
        monkeypatch.setattr(xlq.closed_form, "solve", None)
        assert_refused_by_name(ValueError, "lambdas",
                               lambda v: xlq.lambda_sweep(S1, v), lambdas)

    def test_an_integer_dt_is_stored_as_a_float(self):
        grid = xlq.PathGrid(dt=2, n_steps=3)
        assert type(grid.dt) is float and type(grid.horizon) is float
        assert grid.times().dtype == np.float64
        assert grid == xlq.PathGrid(dt=2.0, n_steps=3)
        with pytest.raises(ValueError, match="^dt must be positive and finite"):
            xlq.PathGrid(dt=10 ** 400, n_steps=3)

    def test_brownian_reproducible_and_scaled(self):
        grid = xlq.PathGrid(dt=0.01, n_steps=500)
        w = brownian(grid, 42, 9)
        assert np.array_equal(w, brownian(grid, 42, 9))
        assert np.all(w[:, 0] == 0.0)
        z = xlq.rng.normal_block(42, 7, 1, grid.n_steps)[0]
        assert np.allclose(np.diff(w[7]), z * math.sqrt(grid.dt))
        assert not np.array_equal(w[7], w[8])

    def test_increment_distribution(self):
        z = xlq.rng.normal_block(1, 0, 1, 20000)[0]
        assert abs(z.mean()) < 0.03
        assert abs(z.std() - 1.0) < 0.02
        ks = stats.kstest(z, "norm")
        assert ks.statistic < 1.628 / math.sqrt(z.size)  # 1% critical value


# A call that has not returned by then has hung; every threaded
# normal_block test fails after this many seconds instead of waiting.
HANG_S = 30


def written_out_normals(seed, first_path, n_paths, n_steps, stream=0,
                        first_step=0):
    """``normal_block`` by its documented definition, one row at a time:
    a fresh Philox at the row's key and counter, then the fixed
    transform on the raw bits."""
    skip = first_step % 4
    rows = np.empty((n_paths, n_steps))
    for i in range(n_paths):
        gen = np.random.Philox(
            key=np.array([seed, first_path + i], dtype=np.uint64),
            counter=np.array([first_step // 4, 0, 0, stream], dtype=np.uint64))
        raw = gen.random_raw(skip + n_steps)[skip:]
        rows[i] = special.ndtri(((raw >> np.uint64(11)).astype(np.float64) + 0.5)
                                * 2.0 ** -53)
    return rows


def within(seconds, fn, *args, **kwargs):
    """``fn(*args, **kwargs)`` on a daemon thread: its result, or its
    exception re-raised here; fails if it has not returned in time."""
    result, error = [], []

    def run():
        try:
            result.append(fn(*args, **kwargs))
        except BaseException as exc:
            error.append(exc)

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    thread.join(seconds)
    assert not thread.is_alive(), f"no return within {seconds} s"
    if error:
        raise error[0]
    return result[0]


def send_block_bits(conn, *args):
    conn.send(xlq.rng.normal_block(*args).tobytes())
    conn.close()


class TestRandomStreams:
    @pytest.mark.parametrize("seed", [0, 5, 2 ** 64 - 1])
    def test_action_stream_not_reachable_through_seed(self, seed):
        rng = xlq.rng
        action = rng.normal_block(seed, 0, 3, 16, stream=rng.ACTION_STREAM)
        state = rng.normal_block(seed, 0, 3, 16)
        aliased = rng.normal_block(seed ^ rng.ACTION_STREAM, 0, 3, 16)
        assert not np.any(action == state)
        assert not np.any(action == aliased)

    def test_state_stream_is_unlabelled_philox(self):
        # Stream 0 draws what Philox keyed by (seed, path) draws from its
        # default counter, so outputs recorded before streams were
        # labelled in the counter are unchanged.
        seed, path, n = 12345, 6, 40
        raw = np.random.Philox(
            key=np.array([seed, path], dtype=np.uint64)).random_raw(n)
        u = ((raw >> np.uint64(11)).astype(np.float64) + 0.5) * 2.0 ** -53
        expected = special.ndtri(u)
        assert np.array_equal(xlq.rng.normal_block(seed, path, 1, n)[0], expected)

    @pytest.mark.parametrize("stream", [xlq.rng.STATE_STREAM,
                                        xlq.rng.ACTION_STREAM])
    def test_block_at_any_step_is_a_slice_of_the_whole(self, stream):
        rng = xlq.rng
        whole = rng.normal_block(11, 0, 9, 40, stream=stream)
        for first_path in (0, 3):
            for first_step in range(8):  # every residue of a Philox block
                block = rng.normal_block(11, first_path, 4, 25, stream=stream,
                                         first_step=first_step)
                rows = whole[first_path:first_path + 4]
                assert (block.tobytes()
                        == rows[:, first_step:first_step + 25].tobytes())

    def test_out_gives_the_same_bits(self):
        rng = xlq.rng
        fresh = rng.normal_block(11, 2, 5, 30, first_step=6)
        buf = np.full((5, 30), np.nan)
        assert rng.normal_block(11, 2, 5, 30, first_step=6, out=buf) is buf
        assert buf.tobytes() == fresh.tobytes()
        view = np.full((5, 32), np.nan)[:, :30]  # rows not adjacent
        rng.normal_block(11, 2, 5, 30, first_step=6, out=view)
        assert np.array_equal(view, fresh)

    @pytest.mark.parametrize("bad, name", [
        (dict(first_path=-1), "first_path"),
        (dict(first_step=-1), "first_step"),
        (dict(n_paths=-1), "n_paths"),
        (dict(n_steps=-1), "n_steps"),
        (dict(out=np.empty((2, 4))), "out"),
        (dict(out=np.empty((5, 2))), "out"),
        (dict(out=np.empty((2, 5), dtype=np.float32)), "out"),
        # A float first_path would be truncated to another path's stream.
        (dict(first_path=1.9), "first_path"),
        (dict(first_step=1.0), "first_step"),
        (dict(n_paths=2.5), "n_paths"),
        (dict(n_steps=5.0), "n_steps"),
        # Path indices fill one 64-bit key word; steps keep to the same range.
        (dict(first_path=2 ** 64 - 1), "first_path"),
        (dict(first_path=2 ** 64 + 5, n_paths=1), "first_path"),
        (dict(first_step=2 ** 66), "first_step"),
        (dict(first_step=2 ** 64 - 4), "first_step"),
        # A broadcast view is read-only.
        (dict(out=np.broadcast_to(np.empty(5), (2, 5))), "out"),
        # A stream label fills one 64-bit counter word; a float or a bool
        # would draw another stream's normals.
        (dict(stream=1.5), "stream"),
        (dict(stream=True), "stream"),
        (dict(stream=-1), "stream"),
        (dict(stream=2 ** 64), "stream"),
        (dict(stream=None), "stream"),
        # Each row is filled whole, so its elements must be adjacent.
        (dict(out=np.empty((2, 10))[:, ::2]), "out"),
        (dict(out=np.empty((5, 2)).T), "out")])
    def test_bad_block_rejected_before_any_philox(self, monkeypatch, bad, name):
        def no_philox(*args, **kwargs):
            raise AssertionError("a Philox was built")

        monkeypatch.setattr(np.random, "Philox", no_philox)
        args = {**dict(seed=1, first_path=0, n_paths=2, n_steps=5), **bad}
        with pytest.raises(ValueError, match=f"^{name} "):
            xlq.rng.normal_block(**args)

    def test_block_into_out_allocates_under_1_mb(self):
        # The largest block, 2048 x 512 (8 MB), is converted in place,
        # without a block-sized temporary.
        out = np.empty((sde._CHUNK, sde._STEP_BLOCK))
        peak = traced_peak(
            lambda: xlq.rng.normal_block(3, 0, sde._CHUNK, sde._STEP_BLOCK, out=out))
        assert peak < 1e6

    def test_noise_block_rows_not_a_multiple_of_4096_bytes(self):
        # Rows of exactly 4096 B would put a column's elements in one
        # cache set, and rows of 2048 B in two: every row spans an odd
        # number of 64-byte lines.  Normal k0 + j sits in column j + 1.
        for width in (sde._STEP_BLOCK, 504, 348, 256, 7):
            starts = []
            for k0, block in sde._noise_blocks(3, 2, 5, width + 3, width):
                starts.append(k0)
                z = block[:, 1:]
                assert z.strides[0] % 128 == 64
                assert np.array_equal(
                    z, xlq.rng.normal_block(3, 2, 5, z.shape[1], first_step=k0))
            assert starts == [0, width]

    def test_recorded_blocks_are_the_node_rows(self):
        # Given node rows, block k0 is nodes[:, k0:k0 + n + 1]: normal k
        # lands in column k + 1, and column 0 is left as it was.
        nodes = np.full((5, 11), -7.0)
        starts = []
        for k0, block in sde._noise_blocks(3, 2, 5, 10, 4, nodes=nodes):
            starts.append(k0)
            assert block.base is nodes and block.shape == (5, min(4, 10 - k0) + 1)
            assert np.array_equal(block, nodes[:, k0:k0 + block.shape[1]])
        assert starts == [0, 4, 8]
        assert np.all(nodes[:, 0] == -7.0)
        assert np.array_equal(nodes[:, 1:], xlq.rng.normal_block(3, 2, 5, 10))

    @pytest.mark.parametrize("m, streams, steps", [
        (sde._CHUNK, 1, 256), (sde._CHUNK // 2, 2, 256), (1500, 1, 348),
        (1040, 1, 504), (1024, 1, 512), (512, 2, 512), (200, 1, 512),
        (200, 2, 512), (sde._CHUNK, 0, 256)])
    def test_block_steps_keep_a_chunk_under_the_noise_budget(self, m, streams, steps):
        # At most _STEP_BLOCK steps and 2**19 normals across the streams
        # drawn, in whole Philox blocks of 4 steps.
        assert sde._block_steps(m, streams) == steps

    def test_last_path_and_step_of_64_bits_drawn(self):
        rng = xlq.rng
        assert np.all(np.isfinite(rng.normal_block(1, 2 ** 64 - 1, 1, 4)))
        assert np.all(np.isfinite(rng.normal_block(1, 0, 1, 4, first_step=2 ** 64 - 4)))

    @pytest.mark.parametrize("skip", [0, 1, 2, 3])
    @pytest.mark.parametrize("n_paths", [1, 63, 64, 65, 200, 1000, 2048, 2100])
    def test_block_is_the_written_out_rows(self, n_paths, skip):
        # Tiles converted on either thread, and the last one short.
        args = (21, 7, n_paths, 45)
        expected = written_out_normals(*args, first_step=8 + skip).view(np.uint64)
        fresh = within(HANG_S, xlq.rng.normal_block, *args, first_step=8 + skip)
        assert np.array_equal(fresh.view(np.uint64), expected)
        padded = np.full((n_paths, 53), np.nan)[:, :45]
        within(HANG_S, xlq.rng.normal_block, *args, first_step=8 + skip,
               out=padded)
        assert np.array_equal(padded.view(np.uint64), expected)

    @pytest.mark.parametrize("fail", [False, True])
    @pytest.mark.parametrize("n_paths, helpers", [
        (1, 0), (64, 0), (65, 1), (300, 1)])
    def test_one_helper_only_beyond_one_tile_and_none_left(
            self, monkeypatch, n_paths, helpers, fail):
        started = []

        class CountedThread(threading.Thread):
            def start(self):
                started.append(self)
                super().start()

        class FailOnLastRow(np.random.Generator):
            rows = 0

            def random(self, *args, **kwargs):
                FailOnLastRow.rows += 1
                if fail and FailOnLastRow.rows == n_paths:
                    raise RuntimeError("last row failed")
                return super().random(*args, **kwargs)

        monkeypatch.setattr(xlq.rng.threading, "Thread", CountedThread)
        monkeypatch.setattr(np.random, "Generator", FailOnLastRow)
        threads = threading.active_count()
        if fail:
            with pytest.raises(RuntimeError, match="last row failed"):
                within(HANG_S, xlq.rng.normal_block, 5, 0, n_paths, 40)
        else:
            within(HANG_S, xlq.rng.normal_block, 5, 0, n_paths, 40)
        # ``within`` runs the call on a thread of its own.
        helper = [t for t in started if t.name == "normal_block"]
        assert len(helper) == helpers
        assert not any(t.is_alive() for t in started)
        assert threading.active_count() == threads

    def test_row_failure_reaches_the_caller_and_stops_the_helper(self, monkeypatch):
        class FailOnRow100(np.random.Generator):
            rows = 0

            def random(self, *args, **kwargs):
                FailOnRow100.rows += 1
                if FailOnRow100.rows == 101:
                    raise RuntimeError("row 100 failed")
                return super().random(*args, **kwargs)

        unhandled = []
        monkeypatch.setattr(threading, "excepthook", unhandled.append)
        monkeypatch.setattr(np.random, "Generator", FailOnRow100)
        threads = threading.active_count()
        with pytest.raises(RuntimeError, match="row 100 failed"):
            within(HANG_S, xlq.rng.normal_block, 5, 0, 300, 40)
        assert threading.active_count() == threads
        block = within(HANG_S, xlq.rng.normal_block, 5, 0, 300, 40)
        assert np.array_equal(block.view(np.uint64),
                              written_out_normals(5, 0, 300, 40).view(np.uint64))
        assert threading.active_count() == threads
        assert unhandled == []

    def test_helper_failure_is_raised_on_the_caller(self, monkeypatch):
        # The caller waits in row 128 until the second tile (rows 64-127)
        # has failed, so the helper, not the caller, converts it.
        out = np.empty((300, 40))
        second_tile = out[64:].__array_interface__["data"][0]
        failed_on = []
        tile_failed = threading.Event()
        ndtri = xlq.rng.ndtri

        def fail_on_second_tile(z, out=None):
            if z.__array_interface__["data"][0] == second_tile:
                failed_on.append(threading.current_thread())
                tile_failed.set()
                raise FloatingPointError("second tile failed")
            return ndtri(z, out=out)

        class WaitOnRow128(np.random.Generator):
            rows = 0

            def random(self, *args, **kwargs):
                WaitOnRow128.rows += 1
                if WaitOnRow128.rows == 129:
                    tile_failed.wait(HANG_S)
                return super().random(*args, **kwargs)

        unhandled = []
        monkeypatch.setattr(threading, "excepthook", unhandled.append)
        monkeypatch.setattr(xlq.rng, "ndtri", fail_on_second_tile)
        monkeypatch.setattr(np.random, "Generator", WaitOnRow128)
        threads = threading.active_count()
        caller = []

        def call():
            caller.append(threading.current_thread())
            return xlq.rng.normal_block(5, 0, 300, 40, out=out)

        with pytest.raises(FloatingPointError, match="second tile failed"):
            within(HANG_S, call)
        assert len(failed_on) == 1 and failed_on[0] is not caller[0]
        assert threading.active_count() == threads
        assert unhandled == []

    def test_child_forked_after_a_block_draws_the_same_bits(self):
        args = (8, 3, 300, 40)
        expected = within(HANG_S, xlq.rng.normal_block, *args).tobytes()
        fork = multiprocessing.get_context("fork")
        receive, send = fork.Pipe(duplex=False)
        child = fork.Process(target=send_block_bits, args=(send, *args))
        child.start()
        send.close()
        try:
            assert receive.poll(HANG_S), f"no block from the child in {HANG_S} s"
            assert receive.recv() == expected
        finally:
            child.join(HANG_S)
            if child.is_alive():
                child.kill()
                child.join()
        assert child.exitcode == 0

    # One tile converted on the caller's thread, and three shared with the
    # helper.
    @pytest.mark.parametrize("n_paths", [2, 130])
    def test_the_top_raw_words_give_finite_normals(self, monkeypatch, n_paths):
        # raw >> 11 = 2**53 - 1 would round up to u = 1 (z = +inf): it is
        # clamped to u = 1 - 2**-53.  The next value down, 2**53 - 2, keeps
        # its unclamped normal, the largest one before the clamp.
        below = ((2 ** 53 - 2) << 11) | 0x7FF
        cases = ((2 ** 64 - 1, special.ndtri(1.0 - 2.0 ** -53)),
                 (below, special.ndtri(((below >> 11) + 0.5) * 2.0 ** -53)))
        assert cases[0][1] == pytest.approx(8.2095361516, abs=1e-9)
        assert cases[1][1] == pytest.approx(8.1258906647, abs=1e-9)
        for word, expected in cases:
            class FakeWords(np.random.Generator):
                # Each row is Philox's doubles of this one raw word.
                def random(self, size=None, dtype=np.float64, out=None):
                    out[...] = (word >> 11) * 2.0 ** -53
                    return out

            monkeypatch.setattr(np.random, "Generator", FakeWords)
            z = xlq.rng.normal_block(1, 0, n_paths, 5, first_step=2)
            assert (z == expected).all()

    def test_concurrent_calls_draw_their_own_bits(self):
        # Four callers and their helpers on a short switch interval: a
        # tile claimed twice or never would change its bits.
        seeds = (1, 2, 3, 4)
        start = threading.Barrier(len(seeds))
        blocks = {}

        def draw(seed):
            start.wait(HANG_S)
            blocks[seed] = xlq.rng.normal_block(seed, 0, 1000, 64)

        threads = [threading.Thread(target=draw, args=(seed,), daemon=True)
                   for seed in seeds]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(HANG_S)
                assert not thread.is_alive(), f"no return within {HANG_S} s"
        finally:
            sys.setswitchinterval(interval)
        for seed in seeds:
            assert np.array_equal(
                blocks[seed].view(np.uint64),
                written_out_normals(seed, 0, 1000, 64).view(np.uint64))


class TestEulerMaruyama:
    def test_degenerate_dynamics_is_constant(self):
        model = xlq.LqModel(a=0, b=0, c=0, d=0, m=0, n=1, r=0, p=0, q=0,
                            rho=1, lam=0.2)
        policy = xlq.AffineGaussianPolicy(0.3, -0.4, 0.9)
        grid = xlq.PathGrid(dt=0.01, n_steps=100)
        batch = xlq.simulate_exploratory(model, policy, 1.5, grid, 3, 8)
        assert np.all(batch.states == 1.5)

    def test_zero_feedback_zero_noise_constant(self):
        model = xlq.LqModel(a=0, b=2.0, c=0, d=0, m=0, n=1, r=0, p=0, q=0,
                            rho=1, lam=0.2)
        grid = xlq.PathGrid(dt=0.01, n_steps=50)
        batch = xlq.simulate_exploratory(
            model, xlq.AffineGaussianPolicy(0.0, 0.0, 0.0), 0.7, grid, 3, 4)
        assert np.all(batch.states == 0.7)

    def test_s1_mean_matches_moment_oracle(self):
        # S1 is noiseless, so the Euler endpoint approximates e^{k2 T}
        # with O(dt) bias and zero statistical error.
        value, policy = xlq.exploratory_solution(S1)
        grid = xlq.PathGrid(dt=1e-3, n_steps=1000)
        batch = xlq.simulate_exploratory(S1, policy, 1.0, grid, 11, 4)
        coeffs = xlq.derived_coeffs(S1, policy)
        target = float(xlq.mean_curve(coeffs, 1.0, 1.0))
        assert target == pytest.approx(math.exp(value.k2), abs=1e-15)
        assert batch.endpoint_mean() == pytest.approx(target, abs=2e-4)

    def test_noisy_mean_within_mc_error(self):
        value, policy = xlq.exploratory_solution(DS_MODEL)
        grid = xlq.PathGrid(dt=1e-3, n_steps=1000)
        batch = xlq.simulate_exploratory(DS_MODEL, policy, 1.0, grid, 17, 4000)
        coeffs = xlq.derived_coeffs(DS_MODEL, policy)
        target = float(xlq.mean_curve(coeffs, 1.0, 1.0))
        se = batch.endpoints.std(ddof=1) / math.sqrt(batch.n_paths)
        assert abs(batch.endpoint_mean() - target) < 3 * se + 2e-3

    def test_zero_variance_batch_is_the_written_out_euler_loop(self):
        # The classical optimum is the optimal policy with variance zero;
        # its batch is the plain Euler recursion of the classical SDE,
        # bit for bit, across a noise-block boundary.
        model = DS_MODEL
        policy = xlq.solve(model).classical_policy
        assert policy.variance == 0.0
        n_paths, dt = 40, 0.002
        grid = xlq.PathGrid(dt=dt, n_steps=EULER_STEPS)
        batch = xlq.simulate_exploratory(model, policy, 1.0, grid, 5, n_paths,
                                         record_paths=True)
        a1 = model.a + model.b * policy.slope
        a2 = model.b * policy.intercept
        b1 = model.c + model.d * policy.slope
        b2 = model.d * policy.intercept
        noise = xlq.rng.normal_block(5, 0, n_paths, EULER_STEPS)
        x = np.full(n_paths, 1.0)
        expected = [x]
        for z in noise.T:
            x = x + (a1 * x + a2) * dt + np.sqrt((b1 * x + b2) ** 2 + 0.0) * (
                z * math.sqrt(dt))
            expected.append(x)
        assert batch.n_diverged == 0
        assert batch.states.tobytes() == np.stack(expected, axis=1).tobytes()
        assert batch.endpoints.tobytes() == x.tobytes()

    @pytest.mark.parametrize("model, policy, dt, n_paths", [
        (DS_MODEL, xlq.exploratory_solution(DS_MODEL)[1], 0.002, 40),
        # Paths diverge in both noise blocks (checked below).
        (EXPLOSIVE, EXPLOSIVE_POLICY, 0.002, 300)])
    def test_batch_with_sums_is_the_written_out_euler_loop(self, model, policy, dt,
                                                            n_paths):
        # Every field of a batch with checkpoints and all five discounted
        # sums equals, bit for bit, the step-by-step recursion on
        # whole-horizon noise, across the noise-block boundary.
        grid = xlq.PathGrid(dt=dt, n_steps=EULER_STEPS)
        nodes = (0, 10, sde._STEP_BLOCK, EULER_STEPS)
        batch = euler_with_sums(model, policy, grid, n_paths, nodes)
        expected = written_out_euler(model, policy, grid, n_paths, nodes)
        if model is EXPLOSIVE:
            steps = batch.divergence_step
            assert np.any((steps > 0) & (steps <= sde._STEP_BLOCK))
            assert np.any(steps > sde._STEP_BLOCK)
            assert not batch.diverged.all()
        for name in ("states", "endpoints", "diverged", "divergence_step"):
            assert getattr(batch, name).tobytes() == expected[name].tobytes(), name
        for node in nodes:
            assert (batch.checkpoint_states[node].tobytes()
                    == expected["checkpoints"][node].tobytes()), node
        for name in ("x", "x2", "zx", "z", "z2m1"):
            assert getattr(batch.sums, name).tobytes() == expected[name].tobytes(), name

    @pytest.mark.parametrize("policy, x0", [
        (xlq.solve(S1).policy, 1.0),
        (xlq.solve(S1).policy, -0.0),
        # a1 >= 0 and a2 = -0.0 from x0 = -0.0: the nodes stay -0.0 until
        # the state noise's sign moves them, so the walk must draw it.
        (xlq.AffineGaussianPolicy(0.5, -0.0, 0.1), -0.0),
        (xlq.AffineGaussianPolicy(0.5, -0.0, 0.1), 0.0),
        (xlq.AffineGaussianPolicy(-0.0, -0.0, 0.3), -0.0)])
    def test_zero_volatility_batch_is_the_written_out_euler_loop(self, policy, x0):
        # S1 has c = d = 0, so b1 = b2 = c1 = 0 under every policy: the
        # walk that skips the volatility term keeps the bits, signed
        # zeros included, of the loop that adds it.
        grid = xlq.PathGrid(dt=0.002, n_steps=EULER_STEPS)
        nodes = (0, 10, sde._STEP_BLOCK, EULER_STEPS)
        batch = euler_with_sums(S1, policy, grid, 40, nodes, x0)
        expected = written_out_euler(S1, policy, grid, 40, nodes, x0)
        for name in ("states", "endpoints", "diverged", "divergence_step"):
            assert getattr(batch, name).tobytes() == expected[name].tobytes(), name
        for name in ("x", "x2", "zx", "z", "z2m1"):
            assert getattr(batch.sums, name).tobytes() == expected[name].tobytes(), name

    @pytest.mark.parametrize("model, x0, action_noise, drawn", [
        pytest.param(S1, 1.0, True, [("action", sde._CHUNK), ("action", 188)],
                     id="zero-volatility-sampled"),
        pytest.param(S1, 1.0, False, [], id="zero-volatility"),
        pytest.param(S1, -0.0, False, [("state", sde._CHUNK), ("state", 188)],
                     id="zero-volatility-from-minus-zero"),
        pytest.param(DS_MODEL, 1.0, True, [("state", sde._CHUNK // 2),
                                           ("action", sde._CHUNK // 2)] * 2
                     + [("state", 188), ("action", 188)], id="ds-sampled")])
    def test_a_walk_draws_only_the_noise_that_can_move_it(self, monkeypatch, model, x0,
                                                          action_noise, drawn):
        # SMALL paths: a walk that draws one stream, or none, steps
        # _CHUNK paths per chunk, one that draws two half as many.
        calls = []
        normal_block = xlq.rng.normal_block

        def counted(seed, first_path, n_paths, n_steps, stream=xlq.rng.STATE_STREAM,
                    **kwargs):
            calls.append(("action" if stream == xlq.rng.ACTION_STREAM else "state",
                          n_paths))
            return normal_block(seed, first_path, n_paths, n_steps, stream, **kwargs)

        monkeypatch.setattr(xlq.rng, "normal_block", counted)
        xlq.simulate_exploratory(model, xlq.solve(model).policy, x0,
                                 xlq.PathGrid(dt=0.01, n_steps=10), 3, SMALL,
                                 discount_rate=1.0, action_noise=action_noise)
        assert calls == drawn

    def test_action_noise_without_discount_rate_rejected(self, monkeypatch):
        def no_noise(*args, **kwargs):
            raise AssertionError("noise was drawn")

        monkeypatch.setattr(xlq.rng, "normal_block", no_noise)
        _, policy = xlq.exploratory_solution(DS_MODEL)
        grid = xlq.PathGrid(dt=0.01, n_steps=10)
        with pytest.raises(ValueError, match="action_noise.*discount_rate"):
            xlq.simulate_exploratory(DS_MODEL, policy, 1.0, grid, 3, 4,
                                     action_noise=True)

    @pytest.mark.parametrize("rate", [math.nan, math.inf, -math.inf, -1e6, -1e-300])
    def test_bad_discount_rate_rejected_before_noise(self, monkeypatch, rate):
        def no_noise(*args, **kwargs):
            raise AssertionError("noise was drawn")

        monkeypatch.setattr(xlq.rng, "normal_block", no_noise)
        _, policy = xlq.exploratory_solution(DS_MODEL)
        grid = xlq.PathGrid(dt=0.01, n_steps=10)
        with pytest.raises(ValueError, match="^discount_rate must be finite and >= 0"):
            xlq.simulate_exploratory(DS_MODEL, policy, 1.0, grid, 3, 4,
                                     discount_rate=rate)

    def test_determinism_under_partitioning_and_parallelism(self):
        grid = xlq.PathGrid(dt=0.01, n_steps=EULER_STEPS)
        _, policy = xlq.exploratory_solution(DS_MODEL)
        big = xlq.simulate_exploratory(DS_MODEL, policy, 1.0, grid, 9, BIG)
        par = xlq.simulate_exploratory(DS_MODEL, policy, 1.0, grid, 9, BIG,
                                       parallelism=4)
        small = xlq.simulate_exploratory(DS_MODEL, policy, 1.0, grid, 9,
                                         SMALL)
        assert np.array_equal(big.states, par.states)
        assert np.array_equal(big.states[:SMALL], small.states)

    def test_divergence_flagged_not_propagated(self):
        # Explosive drift: dX = 40 X dt, X doubles every ~0.017.
        model = xlq.LqModel(a=40.0, b=0, c=0, d=0, m=0, n=1, r=0, p=0, q=0,
                            rho=1, lam=0.1)
        grid = xlq.PathGrid(dt=0.5, n_steps=120)
        batch = xlq.simulate_exploratory(
            model, xlq.AffineGaussianPolicy(0.0, 0.0, 0.0), 1.0, grid, 2, 3,
            checkpoints=(120,))
        assert batch.n_diverged == 3
        assert np.all(batch.divergence_step > 0)
        assert np.all(np.isfinite(batch.states))
        for stat in (batch.endpoint_mean, batch.endpoint_second_moment,
                     batch.summary, lambda: batch.checkpoint_stats(120)):
            with pytest.raises(xlq.SimulationDivergedError):
                stat()

    @pytest.mark.parametrize("model, policy, dt", [
        (DS_MODEL, xlq.exploratory_solution(DS_MODEL)[1], 0.01),
        # About 17% of paths diverge, at steps 358-542, about 7% of them
        # after step 512, so the divergence bookkeeping is exercised on
        # both sides of a block boundary in full and partial chunks.
        (EXPLOSIVE, EXPLOSIVE_POLICY, 0.002)])
    def test_rows_independent_of_chunking(self, model, policy, dt):
        # With action noise drawn, BIG paths span five chunks and SMALL
        # three; full chunks step through three noise blocks and the
        # last two; shared rows agree.
        grid = xlq.PathGrid(dt=dt, n_steps=EULER_STEPS)
        nodes = (0, 10, sde._STEP_BLOCK, EULER_STEPS)
        big = euler_with_sums(model, policy, grid, BIG, nodes)
        small = euler_with_sums(model, policy, grid, SMALL, nodes)
        assert_leading_rows_equal(big, small)

    @pytest.mark.parametrize("bad, name", [
        (dict(checkpoints=(2.5,)), "checkpoints"), (dict(seed=1.5), "seed"),
        (dict(n_paths=2.5), "n_paths"), (dict(x0=math.nan), "x0")])
    def test_inexact_integer_or_non_finite_input_named(self, bad, name):
        # A float where an integer belongs is rejected, not truncated.
        args = {**dict(x0=1.0, seed=1, n_paths=2), **bad}
        grid = xlq.PathGrid(dt=0.1, n_steps=4)
        policy = xlq.exact.state_independent_policy(C0_MODEL)
        with pytest.raises(ValueError, match=f"^{name} "):
            xlq.simulate_exploratory(C0_MODEL, policy, grid=grid, **args)

    @pytest.mark.parametrize("seed", [-1, 2 ** 64])
    def test_out_of_range_seed_rejected(self, seed):
        grid = xlq.PathGrid(dt=0.1, n_steps=2)
        policy = xlq.exact.state_independent_policy(C0_MODEL)
        calls = (
            lambda: xlq.simulate_exploratory(C0_MODEL, policy, 1.0, grid, seed, 2),
            lambda: xlq.exact_batch(C0_MODEL, 1.0, grid, seed, 2, method="c0"),
            lambda: xlq.mc_value(C0_MODEL, policy, 1.0, grid, seed, 2),
        )
        for call in calls:
            with pytest.raises(ValueError, match=str(seed)):
                call()

    @pytest.mark.parametrize("seed", [-1, 2 ** 64, 1.5, True])
    def test_bad_seed_rejected_before_any_allocation_or_file(
            self, tmp_path, monkeypatch, seed):
        def unavailable(*args, **kwargs):
            raise AssertionError("a node array was allocated")

        monkeypatch.setattr(sde, "_node_array", unavailable)
        grid = xlq.PathGrid(dt=0.1, n_steps=2)
        policy = xlq.exact.state_independent_policy(C0_MODEL)
        calls = (
            lambda: sde.simulate_to_csv(C0_MODEL, policy, 1.0, grid, seed, 2,
                                        tmp_path / "t.csv"),
            lambda: xlq.simulate_exploratory(C0_MODEL, policy, 1.0, grid, seed, 2),
            lambda: xlq.exact_batch(C0_MODEL, 1.0, grid, seed, 2, method="c0"),
        )
        for call in calls:
            with pytest.raises(ValueError,
                               match=r"^seed must be an integer in \[0, 2\*\*64\)"):
                call()
        assert not (tmp_path / "t.csv").exists()

    def test_action_noise_adds_under_1_mb(self):
        # A walk that draws action noise steps half-width chunks, so its
        # state and action blocks together hold one stream's 2048 x 256
        # normals; at full width they would add another 4.3 MB.
        _, policy = xlq.exploratory_solution(DS_MODEL)
        grid = xlq.PathGrid(dt=0.01, n_steps=600)
        peaks = [traced_peak(lambda: xlq.simulate_exploratory(
                     DS_MODEL, policy, 1.0, grid, 3, 2 * sde._CHUNK,
                     record_paths=False, discount_rate=DS_MODEL.rho,
                     action_noise=action_noise))
                 for action_noise in (False, True)]
        assert peaks[1] - peaks[0] < 1e6

    @pytest.mark.parametrize("action_noise", [False, True])
    def test_block_steps_follow_the_chunk(self, monkeypatch, action_noise):
        # SMALL paths: a full chunk draws 256 steps at a time and the
        # last chunk, of 188 paths, 512: at most 2**19 normals a chunk.
        calls = []
        normal_block = xlq.rng.normal_block

        def recording(seed, first_path, n_paths, n_steps, stream=xlq.rng.STATE_STREAM,
                      first_step=0, out=None):
            if stream == xlq.rng.STATE_STREAM:
                calls.append((first_path, first_step, n_steps))
            return normal_block(seed, first_path, n_paths, n_steps, stream,
                                first_step, out)

        monkeypatch.setattr(xlq.rng, "normal_block", recording)
        _, policy = xlq.exploratory_solution(DS_MODEL)
        xlq.simulate_exploratory(DS_MODEL, policy, 1.0, xlq.PathGrid(dt=0.01, n_steps=600),
                                 3, SMALL, record_paths=False, discount_rate=1.0,
                                 action_noise=action_noise)
        full = [(0, 256), (256, 256), (512, 88)]
        firsts = (0, sde._CHUNK // 2, sde._CHUNK) if action_noise else (0, sde._CHUNK)
        expected = [(lo, *block) for lo in firsts[:-1] for block in full]
        assert calls == expected + [(firsts[-1], 0, 512), (firsts[-1], 512, 88)]

    def test_a_full_chunk_adds_under_5_mb(self):
        # A 2048-path walk of one stream holds one 2048 x 256 noise block
        # (4.3 MB with its padding), where a 64-path walk holds 64 rows.
        _, policy = xlq.exploratory_solution(DS_MODEL)
        grid = xlq.PathGrid(dt=0.01, n_steps=600)
        peaks = [traced_peak(lambda: xlq.simulate_exploratory(
                     DS_MODEL, policy, 1.0, grid, 3, n_paths, record_paths=False))
                 for n_paths in (64, sde._CHUNK)]
        assert peaks[1] - peaks[0] < 5e6

    def test_a_recorded_walk_holds_its_nodes_plus_under_1_mb(self):
        # The state normals are drawn into the node rows they become, so
        # beside its 9.8 MB of nodes a recorded 2048-path walk holds no
        # 2048 x 256 noise block (4.3 MB with its padding).
        _, policy = xlq.exploratory_solution(DS_MODEL)
        grid = xlq.PathGrid(dt=0.01, n_steps=600)
        peak = traced_peak(lambda: xlq.simulate_exploratory(
            DS_MODEL, policy, 1.0, grid, 3, sde._CHUNK))
        assert peak - sde._CHUNK * 601 * 8 < 1e6

    def test_checkpoints_and_discounted_sums(self):
        _, policy = xlq.exploratory_solution(S1)
        grid = xlq.PathGrid(dt=0.01, n_steps=100)
        batch = xlq.simulate_exploratory(
            S1, policy, 1.0, grid, 3, 4, record_paths=True,
            checkpoints=(0, 50, 100), discount_rate=S1.rho)
        assert np.array_equal(batch.checkpoint_states[0], batch.states[:, 0])
        assert np.array_equal(batch.checkpoint_states[50], batch.states[:, 50])
        assert np.array_equal(batch.checkpoint_states[100], batch.states[:, 100])
        w = np.exp(-S1.rho * grid.times()[:-1]) * grid.dt
        direct = (w * batch.states[:, :-1]).sum(axis=1)
        assert np.allclose(batch.sums.x, direct, atol=1e-12)
        assert batch.sums.weight_total == pytest.approx(w.sum(), abs=1e-15)

    @pytest.mark.parametrize("checkpoints, node, listed", [
        ((3,), 4, r"\[3\]"), ((), 4, r"\[\]"),
        # A bool cannot be recorded as a checkpoint, so it names none.
        ((1,), True, r"\[1\]")], ids=["other-node", "no-node", "bool"])
    def test_checkpoint_stats_of_a_node_not_recorded(self, checkpoints, node, listed):
        grid = xlq.PathGrid(dt=0.01, n_steps=5)
        batch = xlq.simulate_exploratory(
            C0_MODEL, xlq.exact.state_independent_policy(C0_MODEL), 1.0, grid, 7, 4,
            checkpoints=checkpoints)
        with pytest.raises(ValueError, match=f"^node {node} was not recorded; the "
                           f"checkpoints are {listed}$"):
            batch.checkpoint_stats(node)

    def test_summary_and_csv(self):
        _, policy = xlq.exploratory_solution(S1)
        grid = xlq.PathGrid(dt=0.1, n_steps=3)
        batch = xlq.simulate_exploratory(S1, policy, 1.0, grid, 3, 2)
        s = batch.summary()
        assert s["n_paths"] == 2 and s["diverged"] == 0
        buf = io.StringIO()
        batch.write_csv(buf)
        lines = buf.getvalue().strip().splitlines()
        assert lines[0] == "t,path_id,x"
        assert len(lines) == 1 + 2 * 4


def per_row_csv(batch):
    """Reference writer: the trajectory CSV built one row at a time."""
    times = batch.grid.times()
    out = ["t,path_id,x\n"]
    for p in range(batch.n_paths):
        row = batch.states[p]
        for k in range(batch.grid.n_steps + 1):
            out.append(f"{times[k]!r},{p},{row[k]!r}\n")
    return "".join(out)


class CountingWriter(io.StringIO):
    def __init__(self):
        super().__init__()
        self.calls = 0

    def write(self, text):
        self.calls += 1
        return super().write(text)


class TestWriteCsv:
    # sha256 of the CSV of the seeded batch below, keyed by NumPy's
    # scalar repr.  The NumPy 2 digest was recorded from the per-row
    # writer; the 1.x one is of the same bytes without the wrapper.
    PINNED = {
        "np.float64(0.5)":
            "cbbbbbb0ea98601d34a9d3c50f1b0b83544d79dc789a428a26bee0f964c82029",
        "0.5": "331db04e6d84ee67057784e997dc141564444b7208bd0f81f108d02181555413",
    }

    def test_bytes_equal_per_row_writer(self):
        grid = xlq.PathGrid(dt=0.1, n_steps=3)  # t_3 = 0.30000000000000004
        states = np.array([
            [0.0, -0.0, 5e-324, 1e-5],
            [1e16, 1.0 / 3.0, math.nan, math.inf],
            [-math.inf, 1e-4, 9999999999999998.0, -2.5],
        ])
        batch = xlq.TrajectoryBatch(
            grid=grid, n_paths=3, endpoints=states[:, -1].copy(),
            diverged=np.zeros(3, dtype=bool),
            divergence_step=np.full(3, -1, dtype=np.int64), states=states)
        buf = CountingWriter()
        batch.write_csv(buf)
        assert buf.getvalue() == per_row_csv(batch)
        assert buf.calls == 1 + batch.n_paths  # header, then one per path

    def test_seeded_batch_digest(self):
        _, policy = xlq.exploratory_solution(DS_MODEL)
        grid = xlq.PathGrid(dt=0.01, n_steps=50)
        batch = xlq.simulate_exploratory(DS_MODEL, policy, 1.0, grid, 11, 5)
        buf = io.StringIO()
        batch.write_csv(buf)
        assert buf.getvalue() == per_row_csv(batch)
        digest = hashlib.sha256(buf.getvalue().encode()).hexdigest()
        assert digest == self.PINNED[repr(np.float64(0.5))]

    def test_unrecorded_batch_rejected(self):
        grid = xlq.PathGrid(dt=0.1, n_steps=3)
        batch = xlq.simulate_exploratory(S1, xlq.AffineGaussianPolicy(0.0, 0.0, 0.1),
                                         1.0, grid, 3, 2, record_paths=False)
        with pytest.raises(ValueError, match="not recorded"):
            batch.write_csv(io.StringIO())


def cli_files(path, batch):
    """The bytes of the trajectory CSV at ``path`` and of ``batch``'s
    summary.json as the CLI writes it (where every path diverged, the
    error's text in its place)."""
    try:
        cli._write_json(path.with_suffix(".json"), batch.summary())
        summary = path.with_suffix(".json").read_bytes()
    except xlq.SimulationDivergedError as exc:
        summary = str(exc).encode()
    return path.read_bytes(), summary


def recorded_files(directory, model, policy, grid, seed, n_paths):
    """:func:`cli_files` of ``simulate_exploratory(record_paths=True)`` +
    ``write_csv`` + ``summary()``: the batch recorded whole."""
    batch = xlq.simulate_exploratory(model, policy, 1.0, grid, seed, n_paths)
    with open(directory / "recorded.csv", "w", encoding="utf-8") as fh:
        batch.write_csv(fh)
    return cli_files(directory / "recorded.csv", batch)


class TestSimulateToCsv:
    """The CLI's simulate steps _RECORD_CHUNK paths at a time and writes
    each chunk's rows before stepping the next: the bytes of the batch
    recorded whole."""

    @pytest.mark.parametrize("n_paths", [1, 255, 256, 257, 549])
    @pytest.mark.parametrize("case", ["ds", "explosive"])
    def test_bytes_equal_the_recorded_batch(self, tmp_path, case, n_paths):
        # EULER_STEPS spans two noise blocks and is not a multiple of 4;
        # the explosive batch diverges in every chunk of 256 but the
        # single-path one.
        if case == "ds":
            model, policy, dt, seed = DS_MODEL, xlq.solve(DS_MODEL).policy, 0.01, 11
        else:
            model, policy, dt, seed = EXPLOSIVE, EXPLOSIVE_POLICY, 0.002, 5
        grid = xlq.PathGrid(dt=dt, n_steps=EULER_STEPS)
        batch = sde.simulate_to_csv(model, policy, 1.0, grid, seed, n_paths,
                                    tmp_path / "streamed.csv")
        streamed = cli_files(tmp_path / "streamed.csv", batch)
        assert streamed == recorded_files(tmp_path, model, policy, grid, seed, n_paths)
        assert len(streamed[0].splitlines()) == 1 + n_paths * (EULER_STEPS + 1)
        assert (batch.n_diverged > 0) == (case == "explosive" and n_paths > 1)

    def test_one_chunk_of_nodes_and_no_batch_array(self, tmp_path, monkeypatch):
        # Every node array is one chunk wide: the batch's nodes are never
        # held at once, and simulate_exploratory is never called.
        shapes = []
        real = sde._node_array

        def recording(n_paths, n_steps):
            shapes.append((n_paths, n_steps))
            return real(n_paths, n_steps)

        def unavailable(*args, **kwargs):
            raise AssertionError("simulate_exploratory was called")

        monkeypatch.setattr(sde, "_node_array", recording)
        monkeypatch.setattr(sde, "simulate_exploratory", unavailable)
        grid = xlq.PathGrid(dt=0.01, n_steps=20)
        batch = sde.simulate_to_csv(DS_MODEL, xlq.solve(DS_MODEL).policy, 1.0, grid,
                                    3, 600, tmp_path / "t.csv")
        assert shapes == [(sde._RECORD_CHUNK, 20)]
        assert batch.states is None and batch.n_paths == 600

    def test_unallocatable_chunk_rejected_before_the_file(self, tmp_path, monkeypatch):
        def no_noise(*args, **kwargs):
            raise AssertionError("noise was drawn")

        monkeypatch.setattr(xlq.rng, "normal_block", no_noise)
        grid = xlq.PathGrid(dt=0.01, n_steps=10 ** 17)
        with pytest.raises(xlq.ExploratoryLqError,
                           match="^256 paths x 100000000000000001 nodes"):
            sde.simulate_to_csv(C0_MODEL, xlq.exact.state_independent_policy(C0_MODEL),
                                1.0, grid, 7, 1000, tmp_path / "t.csv")
        assert not (tmp_path / "t.csv").exists()


def counting_forks(monkeypatch):
    """Count the os.fork calls made from now on (in this process)."""
    forks = []
    real = os.fork

    def fork():
        pid = real()
        if pid:
            forks.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", fork)
    return forks


def step_failing_in(monkeypatch, where, fail):
    """Make _EulerBatch.step first raise ``fail`` (an exception) or call
    it, in the child processes (``where="child"``) or in this process
    (``"parent"``)."""
    parent, real = os.getpid(), sde._EulerBatch.step

    def step(self, *args):
        if (os.getpid() == parent) == (where == "parent"):
            if isinstance(fail, BaseException):
                raise fail
            fail()
        return real(self, *args)

    monkeypatch.setattr(sde._EulerBatch, "step", step)


class TestSimulateToCsvParts:
    """simulate_to_csv walks the first part of its record chunks itself
    and forks a child for each later part: the bytes, the summary and
    the batch do not depend on the part count, and no child or
    temporary file outlives the call."""

    @pytest.mark.parametrize("n_paths", [1, 256, 257, 512, 513, 549])
    @pytest.mark.parametrize("case", ["ds", "explosive"])
    def test_bytes_and_batch_equal_the_recorded_batch(self, tmp_path, monkeypatch,
                                                      case, n_paths):
        if case == "ds":
            model, policy, dt = DS_MODEL, xlq.solve(DS_MODEL).policy, 0.05
        else:  # most paths diverge, at steps 14-17
            model, policy, dt = EXPLOSIVE, EXPLOSIVE_POLICY, 0.2
        grid = xlq.PathGrid(dt=dt, n_steps=20)
        recorded = xlq.simulate_exploratory(model, policy, 1.0, grid, 4, n_paths)
        expected = recorded_files(tmp_path, model, policy, grid, 4, n_paths)
        n_chunks = -(-n_paths // sde._RECORD_CHUNK)
        forks = counting_forks(monkeypatch)
        for n_parts in (1, 2, 3):
            monkeypatch.setattr(xlq.forks, "_usable_cpus", lambda: n_parts)
            forks.clear()
            out = tmp_path / f"{n_parts}.csv"
            batch = sde.simulate_to_csv(model, policy, 1.0, grid, 4, n_paths, out)
            assert len(forks) == min(n_parts, n_chunks) - 1
            assert cli_files(out, batch) == expected
            for name in ("endpoints", "diverged", "divergence_step"):
                assert getattr(batch, name).tobytes() == getattr(recorded, name).tobytes()
        assert (recorded.n_diverged > 0) == (case == "explosive")

    def test_parts_are_contiguous_runs_of_whole_chunks(self, monkeypatch):
        monkeypatch.setattr(xlq.forks, "_usable_cpus", lambda: 3)
        assert sde._record_parts(1000) == [[(0, 256)], [(256, 512)],
                                           [(512, 768), (768, 1000)]]
        assert sde._record_parts(300) == [[(0, 256)], [(256, 300)]]

    def test_one_part_without_fork_or_beside_another_thread(self, monkeypatch):
        monkeypatch.setattr(xlq.forks, "_usable_cpus", lambda: 4)
        assert len(within(HANG_S, sde._record_parts, 1000)) == 1
        monkeypatch.delattr(os, "fork")
        assert len(sde._record_parts(1000)) == 1

    @pytest.mark.parametrize("where", ["child", "parent"])
    def test_a_failure_leaves_no_child_and_no_temporary_file(self, tmp_path, monkeypatch,
                                                            where):
        monkeypatch.setattr(xlq.forks, "_usable_cpus", lambda: 3)
        step_failing_in(monkeypatch, where, RuntimeError("step failed here"))
        grid = xlq.PathGrid(dt=0.01, n_steps=20)
        expected = xlq.ExploratoryLqError if where == "child" else RuntimeError
        match = ("^the process simulating paths 256-511 failed: RuntimeError: "
                 if where == "child" else "^") + "step failed here$"
        with pytest.raises(expected, match=match):
            sde.simulate_to_csv(DS_MODEL, xlq.solve(DS_MODEL).policy, 1.0, grid, 3,
                                700, tmp_path / "t.csv")
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
        assert os.listdir(tmp_path) == ["t.csv"]

    def test_an_interrupt_in_the_caller_kills_the_children(self, tmp_path, monkeypatch):
        # The children would step for 10 HANG_S: they must be killed, not
        # waited for.
        monkeypatch.setattr(xlq.forks, "_usable_cpus", lambda: 3)
        step_failing_in(monkeypatch, "child", lambda: time.sleep(10 * HANG_S))
        step_failing_in(monkeypatch, "parent", KeyboardInterrupt())
        forks = counting_forks(monkeypatch)
        grid = xlq.PathGrid(dt=0.01, n_steps=20)
        start = time.monotonic()
        with pytest.raises(KeyboardInterrupt):
            sde.simulate_to_csv(DS_MODEL, xlq.solve(DS_MODEL).policy, 1.0, grid, 3,
                                768, tmp_path / "t.csv")
        assert time.monotonic() - start < HANG_S
        assert len(forks) == 2
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
        assert os.listdir(tmp_path) == ["t.csv"]

    def test_a_child_killed_by_a_signal(self, tmp_path, monkeypatch):
        monkeypatch.setattr(xlq.forks, "_usable_cpus", lambda: 2)
        step_failing_in(monkeypatch, "child",
                        lambda: os.kill(os.getpid(), signal.SIGKILL))
        grid = xlq.PathGrid(dt=0.01, n_steps=20)
        with pytest.raises(xlq.ExploratoryLqError,
                           match="^the process simulating paths 256-299 ended with "
                                 f"status -{int(signal.SIGKILL)}$"):
            sde.simulate_to_csv(DS_MODEL, xlq.solve(DS_MODEL).policy, 1.0, grid, 3,
                                300, tmp_path / "t.csv")
        assert os.listdir(tmp_path) == ["t.csv"]

    def test_cli_reports_a_child_failure_on_one_line(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(xlq.forks, "_usable_cpus", lambda: 2)
        step_failing_in(monkeypatch, "child", ValueError("bad step"))
        cfg = tmp_path / "ds.cfg"
        cfg.write_text("".join(f"{key} = {getattr(DS_MODEL, name)!r}\n"
                               for key, name in config.MODEL_KEYS.items())
                       + "sim.n_steps = 20\nsim.n_paths = 300\n", encoding="utf-8")
        rc = cli.main(["--config", str(cfg), "--command", "simulate", "--seed", "3",
                       "--out", str(tmp_path / "out")])
        assert rc == 3
        err = capsys.readouterr().err
        assert err == ("error: the process simulating paths 256-299 failed: "
                       "ValueError: bad step\n")
        assert os.listdir(tmp_path / "out") == ["trajectories.csv"]


def ds_config(tmp_path) -> str:
    """A config file of DS_MODEL at 20 paths."""
    cfg = tmp_path / "ds.cfg"
    cfg.write_text("".join(f"{key} = {getattr(DS_MODEL, name)!r}\n"
                           for key, name in config.MODEL_KEYS.items())
                   + "sim.n_paths = 20\n", encoding="utf-8")
    return str(cfg)


def run_exact_vs_euler(cfg, out, capsys) -> tuple[int, str, bytes | None]:
    """(exit code, stderr, convergence.csv or None) of one run."""
    rc = cli.main(["--config", cfg, "--command", "exact-vs-euler", "--seed", "12",
                   "--out", str(out)])
    table = out / "convergence.csv"
    return rc, capsys.readouterr().err, table.read_bytes() if table.exists() else None


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class TestExactVsEulerLevels:
    """`explq exact-vs-euler` runs its dt levels side by side through
    fork_parts, the finest in this process: the table, the exit code and
    the error line do not depend on how many processes ran them."""

    DTS = (0.05, 0.01, 0.002)

    @pytest.fixture(autouse=True)
    def short_ladder(self, monkeypatch):
        monkeypatch.setattr(cli, "CONVERGENCE_DTS", self.DTS)

    def test_levels_split_with_the_finest_in_the_caller(self, tmp_path, monkeypatch):
        calls = []
        real = xlq.forks.fork_parts

        def fork_parts(work, parts, describe, mine=0):
            calls.append((parts, mine))
            return real(work, parts, describe, mine)

        monkeypatch.setattr(xlq.forks, "fork_parts", fork_parts)
        cfg = ds_config(tmp_path)
        for n_cpus in (1, 2, 3, 4):
            monkeypatch.setattr(xlq.forks, "_usable_cpus", lambda: n_cpus)
            assert cli.main(["--config", cfg, "--command", "exact-vs-euler",
                             "--seed", "12", "--out", str(tmp_path / "out")]) == 0
        assert calls == [([[0.05, 0.01, 0.002]], 0)] + [([[0.05, 0.01], [0.002]], 1)] * 3

    def test_table_bytes_do_not_depend_on_the_split(self, tmp_path, monkeypatch, capsys):
        cfg = ds_config(tmp_path)
        forks = counting_forks(monkeypatch)
        tables = {}
        for n_cpus in (1, 2, 3):
            monkeypatch.setattr(xlq.forks, "_usable_cpus", lambda: n_cpus)
            forks.clear()
            rc, err, tables[n_cpus] = run_exact_vs_euler(cfg, tmp_path / str(n_cpus), capsys)
            assert (rc, err, len(forks)) == (0, "", min(n_cpus - 1, 1))
        # Beside another Python thread, one process runs every level.
        monkeypatch.setattr(xlq.forks, "_usable_cpus", lambda: 3)
        forks.clear()
        rc, err, tables["thread"] = within(
            HANG_S, run_exact_vs_euler, cfg, tmp_path / "thread", capsys)
        assert (rc, err, len(forks)) == (0, "", 0)
        assert len(set(tables.values())) == 1
        assert_no_child_left()

    @pytest.mark.parametrize("failing", DTS, ids=["first", "middle", "last"])
    def test_a_failing_level_gives_the_serial_error_line(self, tmp_path, monkeypatch,
                                                         capsys, failing):
        real = sde.strong_errors

        def strong_errors(model, x0, grid, *args):
            if grid.dt == failing:
                raise xlq.NumericalError(f"level dt={grid.dt!r} failed")
            return real(model, x0, grid, *args)

        monkeypatch.setattr(sde, "strong_errors", strong_errors)
        cfg = ds_config(tmp_path)
        results = []
        for n_cpus in (1, 2, 3):
            monkeypatch.setattr(xlq.forks, "_usable_cpus", lambda: n_cpus)
            results.append(run_exact_vs_euler(cfg, tmp_path / str(n_cpus), capsys))
            assert_no_child_left()
        assert results == [(3, f"numerical error: level dt={failing!r} failed\n",
                            None)] * 3

    def test_the_first_failing_level_wins(self, tmp_path, monkeypatch, capsys):
        # The finest level, in this process, fails too: the serial loop
        # would have stopped at the coarser one a child ran.
        real = sde.strong_errors

        def strong_errors(model, x0, grid, *args):
            if grid.dt in (0.01, 0.002):
                raise xlq.SimulationDivergedError(f"level dt={grid.dt!r} diverged")
            return real(model, x0, grid, *args)

        monkeypatch.setattr(sde, "strong_errors", strong_errors)
        monkeypatch.setattr(xlq.forks, "_usable_cpus", lambda: 3)
        assert run_exact_vs_euler(ds_config(tmp_path), tmp_path / "out", capsys) == (
            3, "numerical error: level dt=0.01 diverged\n", None)
        assert_no_child_left()

    def test_another_exception_in_a_child_comes_back_wrapped(self, tmp_path, monkeypatch,
                                                              capsys):
        parent, real = os.getpid(), sde.strong_errors

        def strong_errors(*args):
            if os.getpid() != parent:
                raise RuntimeError("boom")
            return real(*args)

        monkeypatch.setattr(sde, "strong_errors", strong_errors)
        monkeypatch.setattr(xlq.forks, "_usable_cpus", lambda: 2)
        assert run_exact_vs_euler(ds_config(tmp_path), tmp_path / "out", capsys) == (
            3, "error: the process measuring dt 0.05, 0.01 failed: RuntimeError: boom\n",
            None)
        assert_no_child_left()


class TestForkParts:
    """fork_parts, the one fork helper: results in part order, errors as
    the serial loop would raise them, and no child left behind."""

    @staticmethod
    def describe(part):
        return f"part {part}"

    @pytest.mark.parametrize("mine", [0, 1, 2])
    def test_results_come_back_in_part_order(self, monkeypatch, mine):
        forks = counting_forks(monkeypatch)
        got = xlq.forks.fork_parts(lambda part: (part, os.getpid()), ["a", "b", "c"],
                             self.describe, mine)
        assert [part for part, _ in got] == ["a", "b", "c"]
        pids = [pid for _, pid in got]
        assert pids[mine] == os.getpid() and sorted(pids[:mine] + pids[mine + 1:]) == sorted(forks)
        assert_no_child_left()

    def test_a_library_error_comes_back_as_it_is(self):
        def work(part):
            if part == "b":
                raise xlq.ModelValidationError(
                    [xlq.Violation("n > 0", "n = -1"), xlq.Violation("lam > 0", "lam = 0")])
            return part

        with pytest.raises(xlq.ModelValidationError) as caught:
            xlq.forks.fork_parts(work, ["a", "b"], self.describe)
        assert caught.value.violations == [xlq.Violation("n > 0", "n = -1"),
                                           xlq.Violation("lam > 0", "lam = 0")]
        assert str(caught.value) == "model validation failed: n > 0: n = -1; lam > 0: lam = 0"
        assert_no_child_left()

    def test_the_callers_error_waits_only_for_earlier_parts(self):
        # Part c (a child) would run for 10 HANG_S; the caller's part b
        # fails after part a succeeded, so c is killed, not waited for.
        parent = os.getpid()

        def work(part):
            if part == "c" and os.getpid() != parent:
                time.sleep(10 * HANG_S)
            if part == "b":
                raise xlq.NumericalError("b failed")
            return part

        start = time.monotonic()
        with pytest.raises(xlq.NumericalError, match="^b failed$"):
            xlq.forks.fork_parts(work, ["a", "b", "c"], self.describe, mine=1)
        assert time.monotonic() - start < HANG_S
        assert_no_child_left()


class TestExactPathD0:

    def test_gbm_reduction(self):
        model = xlq.LqModel(a=0, b=1, c=1, d=0, m=0, n=1, r=0, p=0, q=0,
                            rho=1, lam=0.2)
        grid = xlq.PathGrid(dt=1e-3, n_steps=1000)
        exact = exact_row(model, 1.0, grid, 7, 0, "d0")
        gbm = np.exp(-0.5 * grid.times() + brownian(grid, 7, 1)[0])
        assert np.allclose(exact, gbm, atol=1e-12)

    def test_deterministic_reduction(self):
        model = xlq.LqModel(a=0.7, b=1, c=0, d=0, m=0, n=1, r=0, p=0, q=0,
                            rho=1, lam=0.2)
        grid = xlq.PathGrid(dt=0.01, n_steps=100)
        exact = exact_row(model, 2.0, grid, 7, 0, "d0")
        assert np.allclose(exact, 2.0 * np.exp(0.7 * grid.times()), rtol=1e-12)

    def test_unsolved_regime_rejected(self):
        model = xlq.LqModel(a=0, b=1, c=0.5, d=0, m=0, n=1, r=0, p=0, q=1.0,
                            rho=1, lam=0.2)  # b*q > 0
        grid = xlq.PathGrid(dt=0.01, n_steps=10)
        with pytest.raises(xlq.UnsupportedRegimeError):
            exact_row(model, 1.0, grid, 7, 0, "d0")
        # Mirror regime x0 <= 0, b*q >= 0 is solved.
        assert np.all(np.isfinite(exact_row(model, -1.0, grid, 7, 0, "d0")))

    def test_requires_d_zero(self):
        grid = xlq.PathGrid(dt=0.01, n_steps=10)
        with pytest.raises(ValueError):
            exact_row(DS_MODEL, 1.0, grid, 7, 0, "d0")

    def test_strong_convergence_under_dt_refinement(self):
        errors = rms_ladder(D0_MODEL, "d0")
        assert errors[1] < errors[0]
        order = math.log10(errors[0] / errors[1])
        assert order >= 0.4


class TestExactPathC0:
    def test_driftless_is_scaled_brownian(self):
        model = xlq.LqModel(a=0, b=1, c=0, d=1, m=0, n=2, r=0, p=0, q=0,
                            rho=0.5, lam=1.0)  # b*q = 0
        grid = xlq.PathGrid(dt=0.01, n_steps=200)
        exact = exact_row(model, 0.5, grid, 3, 1, "c0")
        sigma = abs(model.d) / model.n * math.sqrt(model.lam * model.n)
        assert np.allclose(exact, 0.5 + sigma * brownian(grid, 3, 2)[1], atol=1e-12)

    def test_stationary_variance_matches_moment_fixed_point(self):
        # a = -1, q = 0: var(inf) = c1/(2|a|) = d^2 lam / (2 n).
        model = xlq.LqModel(a=-1, b=1, c=0, d=1, m=0, n=2, r=0, p=0, q=0,
                            rho=0.5, lam=1.0)
        grid = xlq.PathGrid(dt=0.05, n_steps=400)  # T = 20 >> 1/|a|
        exact = xlq.exact_batch(model, 1.0, grid, 12, 20000, method="c0")
        target = model.d ** 2 * model.lam / (2.0 * model.n)
        var = exact[:, -1].var(ddof=1)
        assert var == pytest.approx(target, rel=0.05)
        coeffs = xlq.derived_coeffs(model, xlq.exact.state_independent_policy(model))
        m_inf = float(xlq.second_moment_curve(coeffs, 1.0, 60.0))
        n_inf = float(xlq.mean_curve(coeffs, 1.0, 60.0))
        assert m_inf - n_inf ** 2 == pytest.approx(target, rel=1e-6)

    def test_endpoint_distribution_kolmogorov_smirnov(self):
        grid = xlq.PathGrid(dt=1 / 16, n_steps=16)
        exact = xlq.exact_batch(C0_MODEL, 1.0, grid, 5, 100000, method="c0")
        coeffs = xlq.derived_coeffs(C0_MODEL, xlq.exact.state_independent_policy(C0_MODEL))
        mean = float(xlq.mean_curve(coeffs, 1.0, 1.0))
        m2 = float(xlq.second_moment_curve(coeffs, 1.0, 1.0))
        ks = stats.kstest(exact[:, -1], "norm",
                          args=(mean, math.sqrt(m2 - mean ** 2)))
        assert ks.statistic < 1.628 / math.sqrt(len(exact))

    def test_requires_c_zero(self):
        grid = xlq.PathGrid(dt=0.01, n_steps=10)
        with pytest.raises(ValueError):
            exact_row(DS_MODEL, 1.0, grid, 7, 0, "c0")

    def test_strong_convergence(self):
        errors = rms_ladder(C0_MODEL, "c0")
        assert errors[1] < errors[0]
        assert math.log10(errors[0] / errors[1]) >= 0.4


def ds_coeffs(model):
    """The derived coefficients of ``model``'s optimal policy: those its
    Doss-Saussmann transform is built from."""
    value = xlq.exploratory_solution(model)[0]
    return xlq.derived_coeffs(model, xlq.policy_from_value(model, value))


class TestDossSaussman:
    def test_initial_condition(self):
        c = ds_coeffs(DS_MODEL)
        for y in (-3.0, -0.2, 0.0, 1.7, 8.0):
            assert xlq.exact.doss_saussman_terms(c, 0.0, y)[0] == pytest.approx(y, abs=1e-12)

    def test_dfdz_finite_difference(self, rng):
        c = ds_coeffs(DS_MODEL)
        h = 1e-6
        for _ in range(50):
            z = rng.uniform(-2, 2)
            y = rng.uniform(-3, 3)
            fd = (xlq.exact.doss_saussman_terms(c, z + h, y)[0]
                  - xlq.exact.doss_saussman_terms(c, z - h, y)[0]) / (2 * h)
            f, df_dz, _ = xlq.exact.doss_saussman_terms(c, z, y)
            target = math.sqrt((c.b1 * f + c.b2) ** 2 + c.c1)
            assert fd == pytest.approx(target, abs=1e-6, rel=1e-6)
            assert df_dz == pytest.approx(target, abs=1e-10)

    def test_dfdy_finite_difference(self, rng):
        c = ds_coeffs(DS_MODEL)
        h = 1e-6
        for _ in range(20):
            z = rng.uniform(-2, 2)
            y = rng.uniform(-3, 3)
            fd = (xlq.exact.doss_saussman_terms(c, z, y + h)[0]
                  - xlq.exact.doss_saussman_terms(c, z, y - h)[0]) / (2 * h)
            assert xlq.exact.doss_saussman_terms(c, z, y)[2] == pytest.approx(fd, rel=1e-6)

    def test_strong_convergence_against_euler(self):
        errors = rms_ladder(DS_MODEL, "doss_saussman",
                            xlq.exploratory_solution(DS_MODEL)[0])
        assert errors[1] < errors[0]
        assert math.log10(errors[0] / errors[1]) >= 0.4

    def test_rejects_vanishing_volatility_slope(self):
        value, _ = xlq.exploratory_solution(C0_MODEL)
        grid = xlq.PathGrid(dt=0.01, n_steps=10)
        with pytest.raises(xlq.UnsupportedRegimeError):
            exact_row(C0_MODEL, 1.0, grid, 7, 0, "doss_saussman", value)

    def test_rejects_d_zero(self):
        value, _ = xlq.exploratory_solution(S1)
        grid = xlq.PathGrid(dt=0.01, n_steps=10)
        with pytest.raises(ValueError):
            exact_row(S1, 1.0, grid, 7, 0, "doss_saussman", value)

    @pytest.mark.parametrize("call", [xlq.exact_batch, xlq.strong_errors])
    @pytest.mark.parametrize("model, with_value, error, message", [
        (S1, True, ValueError, "requires d != 0"),
        (C0_MODEL, True, xlq.UnsupportedRegimeError, "volatility slope vanishes"),
        (DS_MODEL, False, ValueError, "needs the value function")],
        ids=["d_zero", "b1_vanishes", "no_value"])
    def test_regime_and_value_checked_before_noise(self, monkeypatch, call, model,
                                                    with_value, error, message):
        def no_noise(*args, **kwargs):
            raise AssertionError("noise was drawn")

        monkeypatch.setattr(xlq.rng, "normal_block", no_noise)
        value = xlq.exploratory_solution(model)[0] if with_value else None
        grid = xlq.PathGrid(dt=0.01, n_steps=10)
        with pytest.raises(error, match=message):
            call(model, 1.0, grid, 7, 4, "doss_saussman", value)


def per_node_doss_saussman(model, x0, grid, seed, n_paths):
    """Reference Doss-Saussmann batch, one grid node at a time: each RK4
    substep interpolates W anew and evaluates the drift of Y,
    G(z, y) = (a1 F + a2 - b1/2 (b1 F + b2)) / (dF/dy), through
    :func:`exact.doss_saussman_terms`."""
    c = ds_coeffs(model)

    def g(z, y):
        fv, _, dfy = xlq.exact.doss_saussman_terms(c, z, y)
        num = c.a1 * fv + c.a2 - c.b1 / 2.0 * (c.b1 * fv + c.b2)
        return num / dfy

    w = brownian(grid, seed, n_paths)
    h = grid.dt / ODE_SUBSTEPS
    y = np.full(n_paths, float(x0))
    out = np.empty_like(w)
    out[:, 0] = x0
    for k in range(grid.n_steps):
        w0 = w[:, k]
        dw = w[:, k + 1] - w0
        for j in range(ODE_SUBSTEPS):
            z0 = w0 + dw * (j / ODE_SUBSTEPS)
            zh = w0 + dw * ((j + 0.5) / ODE_SUBSTEPS)
            z1 = w0 + dw * ((j + 1.0) / ODE_SUBSTEPS)
            k1 = g(z0, y)
            k2 = g(zh, y + 0.5 * h * k1)
            k3 = g(zh, y + 0.5 * h * k2)
            k4 = g(z1, y + h * k3)
            y = y + h / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        out[:, k + 1] = xlq.exact.doss_saussman_terms(c, w[:, k + 1], y)[0]
    return out


def whole_horizon_d0(model, x0, grid, seed, n_paths):
    """Reference d0 batch: the closed form on each path's whole Brownian
    motion at once, the time integral by one trapezoid cumulative sum."""
    bq = model.b * model.q
    sgn = 1.0 if x0 >= 0 and bq <= ABS_TOL else -1.0
    theta = model.a - model.c ** 2 / 2.0
    cc = abs(model.c)
    t, dt = grid.times(), grid.dt
    w = brownian(grid, seed, n_paths)
    g = np.exp(-theta * t - sgn * cc * w)
    cum = np.zeros_like(g)
    np.cumsum((g[:, :-1] + g[:, 1:]) * (dt / 2.0), axis=1, out=cum[:, 1:])
    return np.exp(theta * t + sgn * cc * w) * (x0 + -bq / model.n * cum)


def whole_horizon_c0(model, x0, grid, seed, n_paths):
    """Reference c0 batch: the exact Ornstein-Uhlenbeck transition applied
    step after step to each path's whole horizon of normals."""
    a, dt = model.a, grid.dt
    sigma = abs(model.d) / model.n * math.sqrt(model.q ** 2 + model.lam * model.n)
    a2 = -model.b * model.q / model.n
    eah = math.exp(a * dt)
    shift = a2 * math.expm1(a * dt) / a
    sdh = sigma * math.sqrt(math.expm1(2.0 * a * dt) / (2.0 * a))
    x = np.full(n_paths, float(x0))
    nodes = [x]
    for z in xlq.rng.normal_block(seed, 0, n_paths, grid.n_steps).T:
        x = eah * x + shift + sdh * z
        nodes.append(x)
    return np.stack(nodes, axis=1)


def assert_same_bits(a, b):
    assert np.array_equal(a.view(np.uint64), b.view(np.uint64))


def assert_poisoned_path_raises(monkeypatch, n_paths, path):
    """A Doss-Saussmann batch whose ``path`` gets 1e200 for every normal
    raises NumericalError from the defect check."""
    real = xlq.rng.normal_block

    def poisoned(*args, **kwargs):
        z = real(*args, **kwargs)
        z[path] = 1e200
        return z

    monkeypatch.setattr(xlq.rng, "normal_block", poisoned)
    value = xlq.exploratory_solution(DS_MODEL)[0]
    grid = xlq.PathGrid(dt=1e-2, n_steps=100)
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(xlq.NumericalError, match="defining ODE"):
        xlq.exact_batch(DS_MODEL, 1.0, grid, 1, n_paths, "doss_saussman", value)


class TestDossSaussmanBlocks:
    """The step-blocked builders give the bits of the whole-horizon
    references."""

    @pytest.mark.parametrize("dt", [
        pytest.param(dt, marks=pytest.mark.slow) if dt < 1e-3 else dt
        for dt in cli.CONVERGENCE_DTS])  # dt 1e-4 takes about 10 s
    def test_convergence_grids(self, dt):
        grid = xlq.PathGrid(dt=dt, n_steps=int(round(cli.CONVERGENCE_HORIZON / dt)))
        value = xlq.exploratory_solution(DS_MODEL)[0]
        exact = xlq.exact_batch(DS_MODEL, 1.0, grid, 1, 6, "doss_saussman", value)
        assert_same_bits(exact, per_node_doss_saussman(DS_MODEL, 1.0, grid, 1, 6))

    # sign: that of the Doss-Saussmann volatility slope b1; None marks
    # the d0 and c0 paths.
    @pytest.mark.parametrize("model, sign", [
        (DS_MODEL, 1.0), (DS_MIRROR, -1.0), (D0_MODEL, None), (C0_MODEL, None)])
    @pytest.mark.parametrize("steps_past_blocks", [
        (0, 1), (1, -1), (1, 0), (1, 1), (2, 3)])
    def test_block_boundaries(self, model, sign, steps_past_blocks):
        blocks, extra = steps_past_blocks
        grid = xlq.PathGrid(dt=0.01, n_steps=max(1, blocks * sde._STEP_BLOCK + extra))
        if sign is None:
            method, reference = (("d0", whole_horizon_d0) if model is D0_MODEL
                                 else ("c0", whole_horizon_c0))
            exact = xlq.exact_batch(model, 0.4, grid, 3, 7, method)
            assert_same_bits(exact, reference(model, 0.4, grid, 3, 7))
            return
        value = xlq.exploratory_solution(model)[0]
        assert math.copysign(1.0, ds_coeffs(model).b1) == sign
        exact = xlq.exact_batch(model, -0.4, grid, 3, 7, "doss_saussman", value)
        assert_same_bits(exact, per_node_doss_saussman(model, -0.4, grid, 3, 7))

    def test_non_finite_defect_raises(self, monkeypatch):
        # An absurd increment in one path overflows F there; the other
        # paths stay finite, so a max that skipped NaN would pass.
        assert_poisoned_path_raises(monkeypatch, 4, 1)

    def test_non_finite_defect_in_a_later_tile_raises(self, monkeypatch):
        # Path 100 of 200 lies in the second tile of the node check, so
        # a max over the tile maxima that skipped NaN would pass too.
        assert_poisoned_path_raises(monkeypatch, 200, 100)


class TestExactBatch:
    @pytest.mark.parametrize("method, model, n_steps", [
        ("d0", D0_MODEL, 100), ("c0", C0_MODEL, 100),
        ("doss_saussman", DS_MODEL, 10)])
    def test_rows_independent_of_chunking(self, method, model, n_steps):
        # BIG paths span three chunks, SMALL two; shared rows
        # agree.
        value = xlq.exploratory_solution(model)[0] if method == "doss_saussman" else None
        grid = xlq.PathGrid(dt=0.01, n_steps=n_steps)
        big = xlq.exact_batch(model, 1.0, grid, 9, BIG, method, value)
        small = xlq.exact_batch(model, 1.0, grid, 9, SMALL, method, value)
        assert np.array_equal(big[:SMALL], small)

    @pytest.mark.parametrize("method, model", [
        ("d0", D0_MODEL), ("c0", C0_MODEL), ("doss_saussman", DS_MODEL)])
    def test_a_read_only_node_array(self, method, model):
        value = xlq.exploratory_solution(model)[0] if method == "doss_saussman" else None
        grid = xlq.PathGrid(dt=0.01, n_steps=12)
        exact = xlq.exact_batch(model, 0.3, grid, 4, 5, method, value)
        assert type(exact) is np.ndarray and exact.dtype == np.float64
        assert exact.shape == (5, 13) and exact.flags.c_contiguous
        assert np.all(exact[:, 0] == 0.3)
        with pytest.raises(ValueError, match="read-only"):
            exact[0, 1] = 0.0

    @pytest.mark.parametrize("method, model, negative", [
        ("d0", D0_MODEL, False), ("c0", C0_MODEL, True),
        ("doss_saussman", DS_MODEL, True)])
    def test_node_0_at_negative_zero(self, method, model, negative):
        # d0 computes node 0 from its formula, 0 * a2 + x0 with
        # a2 = -bq/n = 0.5 on D0_MODEL, which is +0.0; c0 and
        # Doss-Saussmann start from x0 itself.
        value = xlq.exploratory_solution(model)[0] if method == "doss_saussman" else None
        grid = xlq.PathGrid(dt=0.01, n_steps=3)
        exact = xlq.exact_batch(model, -0.0, grid, 4, 5, method, value)
        assert np.all(exact[:, 0] == 0.0)
        assert np.all(np.signbit(exact[:, 0]) == negative)

    def test_inputs_checked_before_noise_is_drawn(self, monkeypatch):
        calls = []
        real = xlq.rng.normal_block

        def counting(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(xlq.rng, "normal_block", counting)
        grid = xlq.PathGrid(dt=0.01, n_steps=10)
        mirror = xlq.LqModel(a=0, b=1, c=0.5, d=0, m=0, n=1, r=0, p=0, q=1.0,
                             rho=1, lam=0.2)  # b*q > 0 needs x0 <= 0
        c0_value = xlq.exploratory_solution(C0_MODEL)[0]
        bad = [
            (ValueError, (C0_MODEL, 1.0, grid, 7, 4, "bogus")),
            (ValueError, (DS_MODEL, 1.0, grid, 7, 4, "d0")),
            (xlq.UnsupportedRegimeError, (mirror, 1.0, grid, 7, 4, "d0")),
            (ValueError, (DS_MODEL, 1.0, grid, 7, 4, "c0")),
            (ValueError, (DS_MODEL, 1.0, grid, 7, 4, "doss_saussman")),
            (xlq.UnsupportedRegimeError,
             (C0_MODEL, 1.0, grid, 7, 4, "doss_saussman", c0_value)),
            (ValueError, (DS_MODEL, 1.0, grid, 7, 4, "doss_saussman", (1, 2, 3))),
            # Only Doss-Saussmann reads a value; d0 and c0 refuse one.
            (ValueError, (D0_MODEL, 1.0, grid, 7, 4, "d0", (1, 2, 3))),
            (ValueError, (C0_MODEL, 1.0, grid, 7, 4, "c0", c0_value)),
            (ValueError, (C0_MODEL, 1.0, grid, 7, 0, "c0")),
            (ValueError, (C0_MODEL, 1.0, grid, 7, -1, "c0")),
            (ValueError, (C0_MODEL, 1.0, grid, 7, 2.5, "c0")),
            (ValueError, (C0_MODEL, math.nan, grid, 7, 4, "c0")),
            (ValueError, (D0_MODEL, math.inf, grid, 7, 4, "d0")),
            (ValueError, (DS_MODEL, -math.inf, grid, 7, 4, "doss_saussman",
                          xlq.exploratory_solution(DS_MODEL)[0])),
        ]
        # strong_errors takes exact_batch's arguments and checks them
        # before its Euler batch draws any noise.
        for call in (xlq.exact_batch, xlq.strong_errors):
            for error, args in bad:
                with pytest.raises(error):
                    call(*args)
            assert calls == []
            with pytest.raises(ValueError, match="n_paths must be >= 1, got -1"):
                call(C0_MODEL, 1.0, grid, 7, -1, "c0")
            with pytest.raises(ValueError, match="x0 must be finite, and a real number, got nan"):
                call(C0_MODEL, math.nan, grid, 7, 4, "c0")
            with pytest.raises(ValueError, match="^value is used only by doss_saussman"):
                call(D0_MODEL, 1.0, grid, 7, 4, "d0", (1, 2, 3))
        xlq.exact_batch(C0_MODEL, 1.0, grid, 7, 4, "c0")
        assert len(calls) == 1
        xlq.strong_errors(C0_MODEL, 1.0, grid, 7, 4, "c0")
        assert len(calls) == 3  # one block each for Euler and exact paths

    @pytest.mark.parametrize("method, model", [
        ("d0", D0_MODEL), ("c0", C0_MODEL), ("doss_saussman", DS_MODEL)])
    def test_noise_drawn_one_step_block_at_a_time(self, monkeypatch, method, model):
        # Exact paths draw their normals as the Euler kernel does, never
        # a whole horizon at once.
        calls = []
        real = xlq.rng.normal_block

        def recording(seed, first_path, n_paths, n_steps, **kwargs):
            calls.append((first_path, kwargs.get("first_step", 0), n_steps))
            return real(seed, first_path, n_paths, n_steps, **kwargs)

        monkeypatch.setattr(xlq.rng, "normal_block", recording)
        block = sde._STEP_BLOCK
        value = xlq.exploratory_solution(model)[0] if method == "doss_saussman" else None
        grid = xlq.PathGrid(dt=1e-3, n_steps=2 * block + 3)
        xlq.exact_batch(model, 1.0, grid, 7, 3, method, value)
        assert calls == [(0, 0, block), (0, block, block), (0, 2 * block, 3)]

    def test_unallocatable_batch_rejected_before_noise(self, monkeypatch):
        # 1000 x (1e17 + 1) float64 nodes exceed any address space.
        def no_noise(*args, **kwargs):
            raise AssertionError("noise was drawn")

        monkeypatch.setattr(xlq.rng, "normal_block", no_noise)
        grid = xlq.PathGrid(dt=0.01, n_steps=10 ** 17)
        policy = xlq.exact.state_independent_policy(C0_MODEL)
        calls = (
            lambda: xlq.exact_batch(C0_MODEL, 1.0, grid, 7, 1000, "c0"),
            lambda: xlq.simulate_exploratory(C0_MODEL, policy, 1.0, grid, 7, 1000),
        )
        for call in calls:
            with pytest.raises(xlq.ExploratoryLqError,
                               match="1000 paths x 100000000000000001 nodes"):
                call()


class TestChunkWidths:
    """Chunk widths are a scheduling choice: any width gives the bits
    of the default."""

    @settings(max_examples=40, deadline=None)
    @given(case=st.sampled_from(["ds", "explosive"]),
           n_paths=st.integers(1, 40), n_steps=st.integers(1, 40),
           chunk=st.integers(1, 16), step_block=st.integers(1, 16))
    def test_euler_bits_independent_of_widths(self, case, n_paths, n_steps,
                                              chunk, step_block):
        if case == "ds":
            model, policy, dt = DS_MODEL, xlq.exploratory_solution(DS_MODEL)[1], 0.05
        else:  # most paths diverge, at steps 14-17
            model, policy, dt = EXPLOSIVE, EXPLOSIVE_POLICY, 0.2
        grid = xlq.PathGrid(dt=dt, n_steps=n_steps)
        nodes = (0, n_steps // 3, n_steps)
        default = euler_with_sums(model, policy, grid, n_paths, nodes)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(sde, "_CHUNK", chunk)
            mp.setattr(sde, "_STEP_BLOCK", step_block)
            narrow = euler_with_sums(model, policy, grid, n_paths, nodes)
        assert_leading_rows_equal(default, narrow)

    @settings(max_examples=20, deadline=None)
    @given(method=st.sampled_from(["d0", "c0", "doss_saussman"]),
           n_paths=st.integers(1, 30), n_steps=st.integers(1, 20),
           chunk=st.integers(1, 16), step_block=st.integers(1, 16))
    def test_exact_bits_independent_of_chunk_width(self, method, n_paths,
                                                   n_steps, chunk, step_block):
        model = {"d0": D0_MODEL, "c0": C0_MODEL, "doss_saussman": DS_MODEL}[method]
        value = xlq.exploratory_solution(model)[0] if method == "doss_saussman" else None
        grid = xlq.PathGrid(dt=0.01, n_steps=n_steps)
        args = (model, 1.0, grid, 9, n_paths, method, value)
        default = xlq.exact_batch(*args), xlq.strong_errors(*args)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(sde, "_CHUNK", chunk)
            mp.setattr(sde, "_STEP_BLOCK", step_block)
            narrow = xlq.exact_batch(*args), xlq.strong_errors(*args)
        assert np.array_equal(default[0], narrow[0])
        assert default[1] == narrow[1]

    @settings(max_examples=30, deadline=None)
    @given(case=st.sampled_from(["ds", "explosive"]),
           n_paths=st.integers(1, 40), n_steps=st.integers(1, 40),
           chunk=st.integers(1, 16), step_block=st.integers(1, 16))
    def test_streamed_bytes_independent_of_record_chunk_width(
            self, case, n_paths, n_steps, chunk, step_block):
        if case == "ds":
            model, policy, dt = DS_MODEL, xlq.solve(DS_MODEL).policy, 0.05
        else:  # most paths diverge, at steps 14-17
            model, policy, dt = EXPLOSIVE, EXPLOSIVE_POLICY, 0.2
        grid = xlq.PathGrid(dt=dt, n_steps=n_steps)
        with tempfile.TemporaryDirectory() as name:
            directory = Path(name)
            default = recorded_files(directory, model, policy, grid, 9, n_paths)
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(sde, "_RECORD_CHUNK", chunk)
                mp.setattr(sde, "_STEP_BLOCK", step_block)
                batch = sde.simulate_to_csv(model, policy, 1.0, grid, 9, n_paths,
                                            directory / "streamed.csv")
            assert cli_files(directory / "streamed.csv", batch) == default


class TestStrongErrors:
    def test_equals_the_deviation_of_explicitly_paired_batches(self):
        # d0 and c0 solve the state-independent policy's process,
        # Doss-Saussmann the optimum's; both batches use seed 3.
        grid = xlq.PathGrid(dt=0.01, n_steps=50)
        for method, model in (("d0", D0_MODEL), ("c0", C0_MODEL),
                              ("doss_saussman", DS_MODEL)):
            sol = xlq.solve(model)
            value, policy = ((sol.value, sol.policy) if method == "doss_saussman"
                             else (None, xlq.exact.state_independent_policy(model)))
            euler = xlq.simulate_exploratory(model, policy, 1.0, grid, 3, 16)
            exact = xlq.exact_batch(model, 1.0, grid, 3, 16, method, value)
            d = euler.endpoints - exact[:, -1]
            errors = xlq.strong_errors(model, 1.0, grid, 3, 16, method, value)
            assert errors == (float(np.sqrt((d * d).mean())),
                              float(np.abs(d).max()), float(np.abs(d).mean()))
            assert errors[0] > 0.0

    def test_one_euler_batch_and_no_node_array(self, monkeypatch):
        # strong_errors keeps only the exact endpoints: with exact_batch
        # and the node array unavailable it still returns the deviation
        # of explicitly paired batches, here over two noise blocks.  The
        # benchmark's tracer counts the Euler batch by rebinding
        # sde.simulate_exploratory, so strong_errors calls through it.
        grid = xlq.PathGrid(dt=0.01, n_steps=EULER_STEPS)
        cases = []
        for method, model in (("d0", D0_MODEL), ("c0", C0_MODEL),
                              ("doss_saussman", DS_MODEL)):
            sol = xlq.solve(model)
            value, policy = ((sol.value, sol.policy) if method == "doss_saussman"
                             else (None, xlq.exact.state_independent_policy(model)))
            euler = xlq.simulate_exploratory(model, policy, 1.0, grid, 3, 16)
            exact = xlq.exact_batch(model, 1.0, grid, 3, 16, method, value)
            d = euler.endpoints - exact[:, -1]
            cases.append(((model, 1.0, grid, 3, 16, method, value),
                          (float(np.sqrt((d * d).mean())), float(np.abs(d).max()),
                           float(np.abs(d).mean()))))

        def unavailable(*args, **kwargs):
            raise AssertionError("strong_errors built a node array")

        monkeypatch.setattr(sde, "exact_batch", unavailable)
        monkeypatch.setattr(sde, "_node_array", unavailable)
        calls = []
        real = sde.simulate_exploratory

        def counting(*args, **kwargs):
            calls.append(kwargs.get("record_paths"))
            return real(*args, **kwargs)

        monkeypatch.setattr(sde, "simulate_exploratory", counting)
        for args, expected in cases:
            calls.clear()
            assert xlq.strong_errors(*args) == expected
            assert calls == [False]

    @pytest.mark.parametrize("method, model", [
        ("d0", D0_MODEL), ("c0", C0_MODEL),
        pytest.param("doss_saussman", DS_MODEL, marks=pytest.mark.slow)])
    def test_memory_does_not_grow_with_the_step_count(self, method, model):
        # At dt 1e-4 the 9000 extra steps would take 14.4 MB of nodes for
        # 200 paths; walked one noise block at a time, the traced peak
        # grows by far less than an eighth of that.
        value = xlq.solve(model).value if method == "doss_saussman" else None
        peaks = [traced_peak(lambda: xlq.strong_errors(
                     model, 1.0, xlq.PathGrid(dt=1e-4, n_steps=n_steps), 3, 200,
                     method, value))
                 for n_steps in (1000, 10000)]
        extra_nodes = 200 * 9000 * 8
        assert peaks[1] - peaks[0] < extra_nodes / 8

    @pytest.mark.parametrize("method, model, blocks", [
        ("c0", C0_MODEL, 0.5), ("doss_saussman", DS_MODEL, 2.25)])
    def test_exact_walk_adds_no_noise_buffer(self, method, model, blocks):
        # The Euler walk holds one noise block; a 200-path block is
        # 200 x 520 normals.  The exact walk draws into a block of its
        # own, which c0 overwrites with its nodes, so it holds no more
        # than the Euler walk; Doss-Saussmann sums W in place and holds
        # it and a node block, one block more, plus its defect-check
        # tiles (about 0.7 of a block).
        value = xlq.solve(model).value if method == "doss_saussman" else None
        grid = xlq.PathGrid(dt=1e-3, n_steps=1000)
        _, policy = xlq.exact.builder(model, 1.0, grid, method, value)
        euler = traced_peak(lambda: xlq.simulate_exploratory(
            model, policy, 1.0, grid, 3, 200, record_paths=False))
        both = traced_peak(lambda: xlq.strong_errors(model, 1.0, grid, 3, 200,
                                                     method, value))
        assert both - euler < blocks * 200 * 520 * 8

    def test_diverged_euler_path_raises_before_the_exact_batch(self, monkeypatch):
        # 49 of these 300 Euler paths pass the divergence threshold; an
        # error averaged over their frozen endpoints would mean nothing.
        def no_exact_paths(*args, **kwargs):
            raise AssertionError("exact paths built after a diverged Euler batch")

        monkeypatch.setattr(sde, "exact_batch", no_exact_paths)
        monkeypatch.setattr(sde, "_exact_blocks", no_exact_paths)
        grid = xlq.PathGrid(dt=0.002, n_steps=542)
        with pytest.raises(xlq.SimulationDivergedError,
                           match=r"^49 of 300 paths diverged \(earliest at step 425\)"):
            xlq.strong_errors(EXPLOSIVE, 1.0, grid, 3, 300, "d0")


class TestAdmissibilityDecaySampled:
    def test_discounted_second_moment_decreases(self):
        """When 2 A1 + B1^2 < rho the discounted sample second moment
        decays toward zero over growing horizons."""
        value, policy = xlq.exploratory_solution(DS_MODEL)
        coeffs = xlq.derived_coeffs(DS_MODEL, policy)
        exponent, decays = xlq.admissibility_decay(DS_MODEL, coeffs)
        assert decays
        dt = 0.01
        grid = xlq.PathGrid(dt=dt, n_steps=2000)  # T = 20
        nodes = (500, 1000, 2000)  # T = 5, 10, 20
        batch = xlq.simulate_exploratory(DS_MODEL, policy, 1.0, grid, 31,
                                         4000, record_paths=False,
                                         checkpoints=nodes)
        vals = []
        for node in nodes:
            _, m2, _, _ = batch.checkpoint_stats(node)
            vals.append(math.exp(-DS_MODEL.rho * node * dt) * m2)
        assert vals[0] > vals[1] > vals[2]
        assert vals[2] < 1e-6
