"""sde_engine: Euler-Maruyama batches, exact-path oracles, determinism.

Exact-path checks lean on external truth: the geometric-Brownian
reduction for d = 0, the stationary Ornstein-Uhlenbeck moments for
c = 0, and finite differences for the Doss-Saussmann transform.
"""

import hashlib
import io
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special, stats

import exploratory_lq as xlq
from exploratory_lq import sde
from conftest import C0_MODEL, D0_MODEL, DS_MODEL, S1

# Explosive multiplicative noise: the Euler state grows by a random
# factor of about 2.5 per step at dt = 0.05, so paths cross the
# divergence threshold after a few dozen steps (fewer at larger dt).
EXPLOSIVE = xlq.LqModel(a=30.0, b=0, c=4.0, d=0, m=0, n=1, r=0, p=0, q=0,
                        rho=1, lam=0.1)
EXPLOSIVE_POLICY = xlq.AffineGaussianPolicy(0.0, 0.0, 0.1)


def chunking_sizes(chunk):
    """(big, small) path counts: big spans three chunks of width
    ``chunk`` and small two, neither a multiple of the width."""
    return 2 * chunk + 276, chunk + 188


EULER_BIG, EULER_SMALL = chunking_sizes(sde._CHUNK)
EXACT_BIG, EXACT_SMALL = chunking_sizes(sde._EXACT_CHUNK)
# Two Euler noise blocks, the second 30 steps long (not a multiple of
# the 4 steps one Philox block yields).
EULER_STEPS = sde._STEP_BLOCK + 30


def euler_with_sums(model, policy, grid, n_paths, nodes):
    """Seed-9 Euler batch from x0 = 1 with checkpoints at ``nodes`` and
    all five discounted sums (action noise drawn)."""
    return xlq.simulate_exploratory(
        model, policy, 1.0, grid, 9, n_paths, checkpoints=nodes,
        discount_rate=model.rho, action_noise=True)


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


def brownian(grid, seed, p):
    """W at the grid nodes of path (seed, p), as the exact builders see it."""
    return sde._brownian_nodes(
        xlq.rng.normal_block(seed, p, 1, grid.n_steps), grid.dt)[0]


def exact_row(model, x0, grid, seed, p, method, value=None):
    """The exact path of (seed, p): row p of a (p + 1)-path batch."""
    return xlq.exact_batch(model, x0, grid, seed, p + 1, method,
                           value).states[p]


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
        grid = xlq.PathGrid(dt=0.5, n_steps=4)
        assert grid.horizon == 2.0
        assert np.allclose(grid.times(), [0, 0.5, 1.0, 1.5, 2.0])

    def test_brownian_reproducible_and_scaled(self):
        grid = xlq.PathGrid(dt=0.01, n_steps=500)
        w = brownian(grid, 42, 7)
        assert np.array_equal(w, brownian(grid, 42, 7))
        assert w[0] == 0.0
        z = xlq.rng.normal_block(42, 7, 1, grid.n_steps)[0]
        assert np.allclose(np.diff(w), z * math.sqrt(grid.dt))
        assert not np.array_equal(w, brownian(grid, 42, 8))

    def test_increment_distribution(self):
        z = xlq.rng.normal_block(1, 0, 1, 20000)[0]
        assert abs(z.mean()) < 0.03
        assert abs(z.std() - 1.0) < 0.02
        ks = stats.kstest(z, "norm")
        assert ks.statistic < 1.628 / math.sqrt(z.size)  # 1% critical value


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
        (dict(out=np.empty((2, 5), dtype=np.float32)), "out")])
    def test_bad_block_rejected_before_any_philox(self, monkeypatch, bad, name):
        def no_philox(*args, **kwargs):
            raise AssertionError("a Philox was built")

        monkeypatch.setattr(np.random, "Philox", no_philox)
        args = {**dict(seed=1, first_path=0, n_paths=2, n_steps=5), **bad}
        with pytest.raises(ValueError, match=f"^{name} "):
            xlq.rng.normal_block(**args)


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

    def test_action_noise_without_discount_rate_rejected(self, monkeypatch):
        def no_noise(*args, **kwargs):
            raise AssertionError("noise was drawn")

        monkeypatch.setattr(xlq.rng, "normal_block", no_noise)
        _, policy = xlq.exploratory_solution(DS_MODEL)
        grid = xlq.PathGrid(dt=0.01, n_steps=10)
        with pytest.raises(ValueError, match="action_noise.*discount_rate"):
            xlq.simulate_exploratory(DS_MODEL, policy, 1.0, grid, 3, 4,
                                     action_noise=True)

    def test_determinism_under_partitioning_and_parallelism(self):
        grid = xlq.PathGrid(dt=0.01, n_steps=EULER_STEPS)
        _, policy = xlq.exploratory_solution(DS_MODEL)
        big = xlq.simulate_exploratory(DS_MODEL, policy, 1.0, grid, 9, EULER_BIG)
        par = xlq.simulate_exploratory(DS_MODEL, policy, 1.0, grid, 9, EULER_BIG,
                                       parallelism=4)
        small = xlq.simulate_exploratory(DS_MODEL, policy, 1.0, grid, 9,
                                         EULER_SMALL)
        assert np.array_equal(big.states, par.states)
        assert np.array_equal(big.states[:EULER_SMALL], small.states)

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
        # in the second noise block, so the divergence bookkeeping is
        # exercised on both sides of a block boundary.
        (EXPLOSIVE, EXPLOSIVE_POLICY, 0.002)])
    def test_rows_independent_of_chunking(self, model, policy, dt):
        # EULER_BIG paths span three chunks, EULER_SMALL two, and both
        # step through two noise blocks; shared rows agree.
        grid = xlq.PathGrid(dt=dt, n_steps=EULER_STEPS)
        nodes = (0, 10, sde._STEP_BLOCK, EULER_STEPS)
        big = euler_with_sums(model, policy, grid, EULER_BIG, nodes)
        small = euler_with_sums(model, policy, grid, EULER_SMALL, nodes)
        assert_leading_rows_equal(big, small)

    @pytest.mark.parametrize("seed", [-1, 2 ** 64])
    def test_out_of_range_seed_rejected(self, seed):
        grid = xlq.PathGrid(dt=0.1, n_steps=2)
        policy = xlq.state_independent_policy(C0_MODEL)
        calls = (
            lambda: xlq.simulate_exploratory(C0_MODEL, policy, 1.0, grid, seed, 2),
            lambda: xlq.exact_batch(C0_MODEL, 1.0, grid, seed, 2, method="c0"),
            lambda: xlq.mc_value(C0_MODEL, policy, 1.0, grid, seed, 2),
        )
        for call in calls:
            with pytest.raises(ValueError, match=str(seed)):
                call()

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
            grid=grid, n_paths=3, seed=0, x0=0.0, endpoints=states[:, -1].copy(),
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


class TestExactPathD0:
    def test_gbm_reduction(self):
        model = xlq.LqModel(a=0, b=1, c=1, d=0, m=0, n=1, r=0, p=0, q=0,
                            rho=1, lam=0.2)
        grid = xlq.PathGrid(dt=1e-3, n_steps=1000)
        exact = exact_row(model, 1.0, grid, 7, 0, "d0")
        gbm = np.exp(-0.5 * grid.times() + brownian(grid, 7, 0))
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
        policy = xlq.state_independent_policy(D0_MODEL)
        errors = []
        for dt in (1e-2, 1e-3):
            grid = xlq.PathGrid(dt=dt, n_steps=int(round(1.0 / dt)))
            em = xlq.simulate_exploratory(D0_MODEL, policy, 1.0, grid, 99,
                                          100, record_paths=False)
            ex = xlq.exact_batch(D0_MODEL, 1.0, grid, 99, 100, method="d0")
            errors.append(xlq.endpoint_errors(em, ex)[0])
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
        assert np.allclose(exact, 0.5 + sigma * brownian(grid, 3, 1), atol=1e-12)

    def test_stationary_variance_matches_moment_fixed_point(self):
        # a = -1, q = 0: var(inf) = c1/(2|a|) = d^2 lam / (2 n).
        model = xlq.LqModel(a=-1, b=1, c=0, d=1, m=0, n=2, r=0, p=0, q=0,
                            rho=0.5, lam=1.0)
        grid = xlq.PathGrid(dt=0.05, n_steps=400)  # T = 20 >> 1/|a|
        batch = xlq.exact_batch(model, 1.0, grid, 12, 20000, method="c0")
        target = model.d ** 2 * model.lam / (2.0 * model.n)
        var = batch.endpoints.var(ddof=1)
        assert var == pytest.approx(target, rel=0.05)
        coeffs = xlq.derived_coeffs(model, xlq.state_independent_policy(model))
        m_inf = float(xlq.second_moment_curve(coeffs, 1.0, 60.0))
        n_inf = float(xlq.mean_curve(coeffs, 1.0, 60.0))
        assert m_inf - n_inf ** 2 == pytest.approx(target, rel=1e-6)

    def test_endpoint_distribution_kolmogorov_smirnov(self):
        grid = xlq.PathGrid(dt=1 / 16, n_steps=16)
        batch = xlq.exact_batch(C0_MODEL, 1.0, grid, 5, 100000, method="c0")
        coeffs = xlq.derived_coeffs(C0_MODEL, xlq.state_independent_policy(C0_MODEL))
        mean = float(xlq.mean_curve(coeffs, 1.0, 1.0))
        m2 = float(xlq.second_moment_curve(coeffs, 1.0, 1.0))
        ks = stats.kstest(batch.endpoints, "norm",
                          args=(mean, math.sqrt(m2 - mean ** 2)))
        assert ks.statistic < 1.628 / math.sqrt(batch.n_paths)

    def test_requires_c_zero(self):
        grid = xlq.PathGrid(dt=0.01, n_steps=10)
        with pytest.raises(ValueError):
            exact_row(DS_MODEL, 1.0, grid, 7, 0, "c0")

    def test_strong_convergence(self):
        policy = xlq.state_independent_policy(C0_MODEL)
        errors = []
        for dt in (1e-2, 1e-3):
            grid = xlq.PathGrid(dt=dt, n_steps=int(round(1.0 / dt)))
            em = xlq.simulate_exploratory(C0_MODEL, policy, 1.0, grid, 99,
                                          100, record_paths=False)
            ex = xlq.exact_batch(C0_MODEL, 1.0, grid, 99, 100, method="c0")
            errors.append(xlq.endpoint_errors(em, ex)[0])
        assert errors[1] < errors[0]
        assert math.log10(errors[0] / errors[1]) >= 0.4


class TestDossSaussman:
    def test_initial_condition(self):
        value, _ = xlq.exploratory_solution(DS_MODEL)
        transform = xlq.DossSaussmanTransform.from_solution(DS_MODEL, value)
        for y in (-3.0, -0.2, 0.0, 1.7, 8.0):
            assert transform.terms(0.0, y)[0] == pytest.approx(y, abs=1e-12)

    def test_dfdz_finite_difference(self, rng):
        value, _ = xlq.exploratory_solution(DS_MODEL)
        transform = xlq.DossSaussmanTransform.from_solution(DS_MODEL, value)
        h = 1e-6
        for _ in range(50):
            z = rng.uniform(-2, 2)
            y = rng.uniform(-3, 3)
            fd = (transform.terms(z + h, y)[0] - transform.terms(z - h, y)[0]) / (2 * h)
            c = transform.coeffs
            f, df_dz, _ = transform.terms(z, y)
            target = math.sqrt((c.b1 * f + c.b2) ** 2 + c.c1)
            assert fd == pytest.approx(target, abs=1e-6, rel=1e-6)
            assert df_dz == pytest.approx(target, abs=1e-10)

    def test_dfdy_finite_difference(self, rng):
        value, _ = xlq.exploratory_solution(DS_MODEL)
        transform = xlq.DossSaussmanTransform.from_solution(DS_MODEL, value)
        h = 1e-6
        for _ in range(20):
            z = rng.uniform(-2, 2)
            y = rng.uniform(-3, 3)
            fd = (transform.terms(z, y + h)[0] - transform.terms(z, y - h)[0]) / (2 * h)
            assert transform.terms(z, y)[2] == pytest.approx(fd, rel=1e-6)

    def test_strong_convergence_against_euler(self):
        value, policy = xlq.exploratory_solution(DS_MODEL)
        errors = []
        for dt in (1e-2, 1e-3):
            grid = xlq.PathGrid(dt=dt, n_steps=int(round(1.0 / dt)))
            em = xlq.simulate_exploratory(DS_MODEL, policy, 1.0, grid, 99,
                                          100, record_paths=False)
            ex = xlq.exact_batch(DS_MODEL, 1.0, grid, 99, 100,
                                 method="doss_saussman", value=value)
            errors.append(xlq.endpoint_errors(em, ex)[0])
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


class TestExactBatch:
    @pytest.mark.parametrize("method, model, n_steps", [
        ("d0", D0_MODEL, 100), ("c0", C0_MODEL, 100),
        ("doss_saussman", DS_MODEL, 10)])
    def test_rows_independent_of_chunking(self, method, model, n_steps):
        # EXACT_BIG paths span three chunks, EXACT_SMALL two; shared rows
        # agree.
        value = xlq.exploratory_solution(model)[0] if method == "doss_saussman" else None
        grid = xlq.PathGrid(dt=0.01, n_steps=n_steps)
        big = xlq.exact_batch(model, 1.0, grid, 9, EXACT_BIG, method, value)
        small = xlq.exact_batch(model, 1.0, grid, 9, EXACT_SMALL, method, value)
        assert np.array_equal(big.states[:EXACT_SMALL], small.states)

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
            (ValueError, (C0_MODEL, 1.0, grid, 7, 0, "c0")),
            (ValueError, (C0_MODEL, 1.0, grid, 7, -1, "c0")),
        ]
        for error, args in bad:
            with pytest.raises(error):
                xlq.exact_batch(*args)
        assert calls == []
        with pytest.raises(ValueError, match="n_paths must be >= 1, got -1"):
            xlq.exact_batch(C0_MODEL, 1.0, grid, 7, -1, "c0")
        xlq.exact_batch(C0_MODEL, 1.0, grid, 7, 4, "c0")
        assert len(calls) == 1


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
           chunk=st.integers(1, 16))
    def test_exact_bits_independent_of_chunk_width(self, method, n_paths,
                                                   n_steps, chunk):
        model = {"d0": D0_MODEL, "c0": C0_MODEL, "doss_saussman": DS_MODEL}[method]
        value = xlq.exploratory_solution(model)[0] if method == "doss_saussman" else None
        grid = xlq.PathGrid(dt=0.01, n_steps=n_steps)
        default = xlq.exact_batch(model, 1.0, grid, 9, n_paths, method, value)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(sde, "_EXACT_CHUNK", chunk)
            narrow = xlq.exact_batch(model, 1.0, grid, 9, n_paths, method, value)
        assert_leading_rows_equal(default, narrow)


class TestStrongError:
    def test_batch_vs_itself(self):
        _, policy = xlq.exploratory_solution(DS_MODEL)
        grid = xlq.PathGrid(dt=0.01, n_steps=50)
        b = xlq.simulate_exploratory(DS_MODEL, policy, 1.0, grid, 3, 16)
        assert xlq.endpoint_errors(b, b) == (0.0, 0.0, 0.0)

    def test_rms_max_mean_of_the_signed_deviation(self):
        sol = xlq.solve(DS_MODEL)
        grid = xlq.PathGrid(dt=0.01, n_steps=50)
        a = xlq.simulate_exploratory(DS_MODEL, sol.policy, 1.0, grid, 3, 16)
        b = xlq.simulate_exploratory(DS_MODEL, sol.classical_policy, 1.0, grid, 3, 16)
        d = a.endpoints - b.endpoints
        assert xlq.endpoint_errors(a, b) == (
            float(np.sqrt((d * d).mean())), float(np.abs(d).max()),
            float(np.abs(d).mean()))

    def test_mismatch_rejected(self):
        _, policy = xlq.exploratory_solution(DS_MODEL)
        grid = xlq.PathGrid(dt=0.01, n_steps=50)
        a = xlq.simulate_exploratory(DS_MODEL, policy, 1.0, grid, 3, 16)
        for other in (
                xlq.simulate_exploratory(DS_MODEL, policy, 1.0, grid, 4, 16),
                xlq.simulate_exploratory(DS_MODEL, policy, 1.0, grid, 3, 15),
                xlq.simulate_exploratory(DS_MODEL, policy, 1.0,
                                         xlq.PathGrid(dt=0.02, n_steps=25), 3, 16)):
            with pytest.raises(xlq.GridMismatchError):
                xlq.endpoint_errors(a, other)


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
