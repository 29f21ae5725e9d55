"""cli: config ingestion, command workflows, exit codes, determinism."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import exploratory_lq as xlq
from exploratory_lq import LqModel, cli, closed_form, config, forks
from exploratory_lq.errors import ConfigError
from conftest import D0_MODEL, DS_MODEL, traced_peak

S1_CONFIG = """\
# reference model
dynamics.a = 0
dynamics.b = 1
dynamics.c = 0
dynamics.d = 0
reward.m = 1
reward.n = 1
reward.r = 0
reward.p = 0
reward.q = 0
discount.rho = 1
explore.lambda = 0.2
"""

SRC = str(Path(__file__).resolve().parents[1] / "src")

SIM_BLOCK = """\
sim.dt = 0.005
sim.n_steps = 200
sim.n_paths = 50
sim.x0 = 1.0
"""


def ds_sim_config(n_paths: int) -> str:
    """DS_MODEL at n_paths paths of 100 nodes (dt 0.01)."""
    return ("".join(f"{key} = {getattr(DS_MODEL, field)!r}\n"
                    for key, field in config.MODEL_KEYS.items())
            + f"sim.dt = 0.01\nsim.n_steps = 99\nsim.n_paths = {n_paths}\n")


# Runs `explq simulate` split in two parts and prints the peak RSS, in
# bytes, of the interpreter and of the child it forked and reaped.
PEAK_RSS_SCRIPT = """\
import json, resource, sys
from exploratory_lq import cli, forks
forks._usable_cpus = lambda: 2
rc = cli.main(["--config", sys.argv[1], "--command", "simulate", "--seed", "5",
               "--out", sys.argv[2]])
# ru_maxrss is in KiB on Linux and in bytes on macOS.
unit = 1 if sys.platform == "darwin" else 1024
print(json.dumps({"rc": rc, **{name: resource.getrusage(who).ru_maxrss * unit
                               for name, who in (("self", resource.RUSAGE_SELF),
                                                 ("children", resource.RUSAGE_CHILDREN))}}))
"""


def child_peak_rss(tmp_path, n_paths: int) -> dict:
    """{"self", "children"}: peak RSS in bytes of a fresh interpreter
    running `explq simulate` on :func:`ds_sim_config` in two parts, and
    of the child it forked."""
    cfg = write_config(tmp_path, ds_sim_config(n_paths), name=f"rss{n_paths}.cfg")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", PEAK_RSS_SCRIPT, cfg, str(tmp_path / f"rss{n_paths}")],
        env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr[-2000:]
    peaks = json.loads(done.stdout.splitlines()[-1])
    assert peaks["rc"] == 0 and peaks["children"] > 0
    return peaks


def write_config(tmp_path, text, name="model.cfg"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


class TestConfigParsing:
    def test_model_roundtrip(self, tmp_path):
        mapping = config.load_config(write_config(tmp_path, S1_CONFIG))
        model = config.model_from_mapping(mapping)
        assert model.n == 1.0 and model.lam == 0.2 and model.rho == 1.0

    def test_missing_key_named(self, tmp_path):
        text = S1_CONFIG.replace("reward.n = 1\n", "")
        mapping = config.load_config(write_config(tmp_path, text))
        with pytest.raises(ConfigError, match="reward.n"):
            config.model_from_mapping(mapping)

    def test_unknown_key_is_hard_error(self, tmp_path):
        with pytest.raises(ConfigError, match="reward.z"):
            config.load_config(write_config(tmp_path, S1_CONFIG + "reward.z = 3\n"))

    def test_duplicate_key_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="duplicate"):
            config.load_config(write_config(
                tmp_path, S1_CONFIG + "dynamics.a = 2\n"))

    def test_malformed_line(self, tmp_path):
        with pytest.raises(ConfigError, match="KEY=VALUE"):
            config.load_config(write_config(tmp_path, "dynamics.a\n"))

    def test_non_numeric_value(self, tmp_path):
        text = S1_CONFIG.replace("reward.n = 1", "reward.n = one")
        with pytest.raises(ConfigError, match="reward.n"):
            config.model_from_mapping(
                config.parse_kv_text(text))

    @pytest.mark.parametrize("text,named", [
        (S1_CONFIG + "= 5\n", "line 13: empty key"),
        (None, "cannot read config"),
        (b"dynamics.a = 0\xff\n", "is not UTF-8"),
    ], ids=["empty-key", "unreadable", "not-utf8"])
    def test_unusable_config_exit_1(self, tmp_path, capsys, text, named):
        if text is None:
            path = str(tmp_path / "missing.cfg")
        elif isinstance(text, bytes):
            path = str(tmp_path / "model.cfg")
            (tmp_path / "model.cfg").write_bytes(text)
        else:
            path = write_config(tmp_path, text)
        rc = cli.main(["--config", path, "--command", "solve",
                       "--out", str(tmp_path / "out")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("config error:") and named in err
        if not isinstance(text, str):
            assert path in err

    def test_sweep_lambdas(self):
        assert config.sweep_lambdas({"sweep.lambdas": "0.2, 0.02,0.002"}) == \
            [0.2, 0.02, 0.002]
        with pytest.raises(ConfigError):
            config.sweep_lambdas({"sweep.lambdas": "0.1,-0.2"})
        with pytest.raises(ConfigError, match="sweep.lambdas"):
            config.sweep_lambdas({})


class TestExitCodes:
    def test_missing_key_exit_1(self, tmp_path, capsys):
        text = S1_CONFIG.replace("reward.n = 1\n", "")
        rc = cli.main(["--config", write_config(tmp_path, text),
                       "--command", "solve", "--out", str(tmp_path)])
        assert rc == 1
        assert "reward.n" in capsys.readouterr().err

    def test_validation_failure_exit_2(self, tmp_path, capsys):
        text = S1_CONFIG.replace("reward.r = 0", "reward.r = 1.5")
        rc = cli.main(["--config", write_config(tmp_path, text),
                       "--command", "solve", "--out", str(tmp_path)])
        assert rc == 2
        assert "r^2<mn" in capsys.readouterr().err

    def test_stochastic_without_seed_exit_1(self, tmp_path, capsys):
        rc = cli.main(["--config", write_config(tmp_path, S1_CONFIG + SIM_BLOCK),
                       "--command", "simulate", "--out", str(tmp_path)])
        assert rc == 1
        assert "seed" in capsys.readouterr().err

    def test_numerical_failure_exit_3(self, tmp_path, capsys):
        # Degenerate linear-term denominator: a = rho, m = r = 0, b = 0.
        text = """\
dynamics.a = 1
dynamics.b = 0
dynamics.c = 0
dynamics.d = 0
reward.m = 0
reward.n = 1
reward.r = 0
reward.p = 1
reward.q = 0
discount.rho = 1
explore.lambda = 0.2
"""
        rc = cli.main(["--config", write_config(tmp_path, text),
                       "--command", "solve", "--out", str(tmp_path)])
        assert rc == 3
        assert "denominator" in capsys.readouterr().err

    def test_override_assumptions(self, tmp_path, capsys):
        text = S1_CONFIG.replace("dynamics.a = 0", "dynamics.a = 1")  # bound 2 > rho
        cfg = write_config(tmp_path, text)
        assert cli.main(["--config", cfg, "--command", "solve",
                         "--out", str(tmp_path)]) == 2
        assert cli.main(["--config", cfg, "--command", "solve",
                         "--out", str(tmp_path), "--override-assumptions"]) == 0
        report = (tmp_path / "report.txt").read_text()
        assert "UNVERIFIED (assumption violated)" in report

    def test_override_assumptions_cost(self, tmp_path, capsys):
        # The Monte Carlo leg of cost solves the model again; the
        # override must reach it too.
        text = S1_CONFIG.replace("dynamics.a = 0", "dynamics.a = 1")
        cfg = write_config(tmp_path, text + SIM_BLOCK)
        assert cli.main(["--config", cfg, "--command", "cost", "--seed", "5",
                         "--out", str(tmp_path), "--override-assumptions"]) == 0
        report = (tmp_path / "report.txt").read_text()
        assert "UNVERIFIED (assumption violated)" in report

    def test_override_assumptions_sweep(self, tmp_path, capsys):
        # The sweep solves the model once per temperature; the override
        # must reach every one of those solves.
        text = S1_CONFIG.replace("dynamics.a = 0", "dynamics.a = 1")
        cfg = write_config(tmp_path, text + "sweep.lambdas = 0.1,0.2\n")
        assert cli.main(["--config", cfg, "--command", "sweep",
                         "--out", str(tmp_path)]) == 2
        assert cli.main(["--config", cfg, "--command", "sweep",
                         "--out", str(tmp_path), "--override-assumptions"]) == 0
        lines = (tmp_path / "sweep.csv").read_text().strip().splitlines()
        assert len(lines) == 3
        assert [float(line.split(",")[0]) for line in lines[1:]] == [0.1, 0.2]
        report = (tmp_path / "report.txt").read_text()
        assert report.endswith("UNVERIFIED (assumption violated)\n")

    def test_override_assumptions_residual(self, tmp_path, capsys):
        text = S1_CONFIG.replace("dynamics.a = 0", "dynamics.a = 1")
        cfg = write_config(tmp_path, text)
        assert cli.main(["--config", cfg, "--command", "residual",
                         "--out", str(tmp_path)]) == 2
        assert cli.main(["--config", cfg, "--command", "residual",
                         "--out", str(tmp_path), "--override-assumptions"]) == 0
        assert (tmp_path / "residual.csv").exists()
        report = (tmp_path / "report.txt").read_text()
        assert report.endswith("UNVERIFIED (assumption violated)\n")

    @pytest.mark.parametrize("value", ["0", "-3"])
    def test_parallelism_below_one_exit_1(self, tmp_path, capsys, value):
        cfg = write_config(tmp_path, S1_CONFIG + SIM_BLOCK)
        rc = cli.main(["--config", cfg, "--command", "simulate", "--seed", "1",
                       "--out", str(tmp_path), "--parallelism", value])
        assert rc == 1
        assert "--parallelism" in capsys.readouterr().err
        # The config route rejects the same value with the same status.
        cfg = write_config(tmp_path, S1_CONFIG + SIM_BLOCK
                           + f"sim.parallelism = {value}\n", "par.cfg")
        assert cli.main(["--config", cfg, "--command", "simulate",
                         "--seed", "1", "--out", str(tmp_path)]) == 1


class TestInputChecks:
    """Each input rule has one owner outside the CLI (config, PathGrid,
    check_model, the exact-path regimes); cli.main only maps its error
    to an exit status and never lets an exception out."""

    SIM = {"sim.dt": "0.005", "sim.n_steps": "20", "sim.n_paths": "4",
           "sim.x0": "1.0", "sim.seed": "1"}

    def run(self, tmp_path, model_text, command, keys=None, flags=()):
        sim = {**self.SIM, **(keys or {})}
        text = model_text + "".join(f"{k} = {v}\n" for k, v in sim.items())
        return cli.main(["--config", write_config(tmp_path, text),
                         "--command", command, "--out", str(tmp_path / "out"),
                         *flags])

    @pytest.mark.parametrize("setting", [
        "sim.dt=0", "sim.dt=nan", "sim.dt=inf", "sim.dt=1e308", "sim.n_steps=0",
        "sim.n_paths=0", "sim.x0=nan", "sim.seed=-1", f"--seed={2 ** 64}",
        "sim.parallelism=0", "--parallelism=-3", "sim.n_steps=1.5",
        "output.format=xml",
        pytest.param(f"sim.n_steps=1{'0' * 400}", id="sim.n_steps=1e400")])
    def test_bad_sim_input_exit_1(self, tmp_path, capsys, setting):
        name, value = setting.split("=")
        if name.startswith("--"):
            rc = self.run(tmp_path, S1_CONFIG, "simulate", flags=(name, value))
        else:
            rc = self.run(tmp_path, S1_CONFIG, "simulate", keys={name: value})
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("config error:") and name in err
        assert not (tmp_path / "out").exists()  # nothing written first

    @pytest.mark.parametrize("lambdas", ["0.1,inf", "0.1,nan", "a,b", ","])
    def test_non_finite_sweep_temperature_exit_1(self, tmp_path, capsys, lambdas):
        rc = self.run(tmp_path, S1_CONFIG, "sweep", keys={"sweep.lambdas": lambdas})
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "sweep.lambdas" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("line,bad,named", [
        ("reward.p = 0", "reward.p = nan", "finite: p=nan"),
        ("discount.rho = 1", "discount.rho = inf", "finite: rho=inf"),
    ], ids=["p=nan", "rho=inf"])
    def test_non_finite_model_constant_exit_2(self, tmp_path, capsys, line, bad,
                                              named):
        assert self.run(tmp_path, S1_CONFIG.replace(line, bad), "solve") == 2
        assert named in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("below, named", [
        ("", "--out '{}' is not a directory"),
        ("sub", "--out '{}' lies below '{}', which is not a directory"),
        ("sub/deeper", "--out '{}' lies below '{}', which is not a directory")],
        ids=["file", "below-a-file", "two-below-a-file"])
    @pytest.mark.parametrize("command", ["solve", "simulate"])
    def test_out_that_is_or_lies_below_a_file_exit_1(self, tmp_path, capsys, below,
                                                     named, command):
        taken = tmp_path / "taken.txt"
        taken.write_text("kept\n")
        config = write_config(tmp_path, S1_CONFIG + "".join(
            f"{k} = {v}\n" for k, v in self.SIM.items()))
        out = str(taken / below) if below else str(taken)
        before = sorted(tmp_path.iterdir())
        assert cli.main(["--config", config, "--command", command, "--out", out]) == 1
        err = capsys.readouterr().err
        assert err == f"config error: {named.format(out, str(taken))}\n"
        assert sorted(tmp_path.iterdir()) == before
        assert taken.read_text() == "kept\n"

    def test_unallocatable_recorded_paths_exit_3(self, tmp_path, capsys):
        # simulate records 256 paths at a time, and even one such chunk
        # of 1e17 + 1 nodes exceeds any address space.
        rc = self.run(tmp_path, S1_CONFIG, "simulate",
                      keys={"sim.n_steps": "100000000000000000",
                            "sim.n_paths": "1000"})
        assert rc == 3
        err = capsys.readouterr().err
        assert err.startswith("error: 256 paths x 100000000000000001 nodes")
        assert err.count("\n") == 1
        assert not (tmp_path / "out").exists()

    def test_vanishing_volatility_slope_exit_3(self, tmp_path, capsys):
        # A valid model whose optimal slope is exactly -1, so
        # b1 = c + d * slope = 0: no Doss-Saussmann path exists.
        text = """\
dynamics.a = 0
dynamics.b = 0
dynamics.c = 1
dynamics.d = 1
reward.m = 2
reward.n = 1
reward.r = 1
reward.p = 0
reward.q = 0
discount.rho = 2
explore.lambda = 0.2
"""
        assert self.run(tmp_path, text, "exact-vs-euler") == 3
        assert "volatility slope vanishes" in capsys.readouterr().err


class TestSolveCommand:
    def test_solution_json(self, tmp_path, capsys):
        rc = cli.main(["--config", write_config(tmp_path, S1_CONFIG),
                       "--command", "solve", "--out", str(tmp_path)])
        assert rc == 0
        record = json.loads((tmp_path / "solution.json").read_text())
        assert record["k2"] == pytest.approx(0.5 * (1 - math.sqrt(5)), abs=1e-12)
        assert record["cost"] == pytest.approx(0.1)
        report = (tmp_path / "report.txt").read_text()
        assert "UNVERIFIED" not in report
        assert report.index("model:") < report.index("value:") < \
            report.index("policy:") < report.index("exploration cost:")

    def test_byte_identical_reruns(self, tmp_path):
        cfg = write_config(tmp_path, S1_CONFIG)
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        for out in (out1, out2):
            assert cli.main(["--config", cfg, "--command", "solve",
                             "--out", str(out)]) == 0
        assert (out1 / "solution.json").read_bytes() == \
            (out2 / "solution.json").read_bytes()
        assert (out1 / "report.txt").read_bytes() == \
            (out2 / "report.txt").read_bytes()


class TestReportVerdict:
    """The report's verdict on the discount-rate bound and its
    UNVERIFIED stamp come from the same model check."""

    def solve_report(self, tmp_path, text, *flags):
        assert cli.main(["--config", write_config(tmp_path, text), "--command",
                         "solve", "--out", str(tmp_path), *flags]) == 0
        return (tmp_path / "report.txt").read_text()

    def test_bound_not_required_when_m_is_zero(self, tmp_path):
        # rho = 0.5 is below the bound 2.0, which an m = 0 model need not meet.
        text = """\
dynamics.a = 1
dynamics.b = 1
dynamics.c = 0
dynamics.d = 1
reward.m = 0
reward.n = 2
reward.r = 0
reward.p = 0
reward.q = 1
discount.rho = 0.5
explore.lambda = 1
"""
        report = self.solve_report(tmp_path, text)
        assert "assumption bound: 2.0 vs rho=0.5 (not required: m = 0)\n" in report
        assert "UNVERIFIED" not in report

    def test_bound_cleared_by_less_than_tolerance_is_violated(self, tmp_path):
        # rho exceeds the bound 1.0 by 5e-13, less than the 1e-12 the
        # model check requires.
        text = (S1_CONFIG.replace("dynamics.a = 0", "dynamics.a = 0.5")
                .replace("discount.rho = 1", "discount.rho = 1.0000000000005"))
        report = self.solve_report(tmp_path, text, "--override-assumptions")
        assert "assumption bound: 1.0 vs rho=1.0000000000005 (VIOLATED)\n" in report
        assert report.endswith("UNVERIFIED (assumption violated)\n")


class TestTableCommands:
    def test_residual_grid(self, tmp_path):
        rc = cli.main(["--config", write_config(tmp_path, S1_CONFIG),
                       "--command", "residual", "--out", str(tmp_path)])
        assert rc == 0
        lines = (tmp_path / "residual.csv").read_text().strip().splitlines()
        assert lines[0] == "x,exploratory_residual,classical_residual"
        assert len(lines) == 42
        worst = max(max(abs(float(v)) for v in ln.split(",")[1:])
                    for ln in lines[1:])
        assert worst < 1e-9

    def test_sweep_table(self, tmp_path):
        cfg = write_config(
            tmp_path, S1_CONFIG + "sweep.lambdas = 0.2,0.02,0.002\n")
        rc = cli.main(["--config", cfg, "--command", "sweep",
                       "--out", str(tmp_path)])
        assert rc == 0
        lines = (tmp_path / "sweep.csv").read_text().strip().splitlines()
        assert lines[0] == "lambda,variance,value_gap,cost,mean_at_probe,probe_x"
        assert len(lines) == 4
        means = {ln.split(",")[4] for ln in lines[1:]}
        assert len(means) == 1  # temperature-free policy mean

    def test_sweep_json_format(self, tmp_path):
        cfg = write_config(
            tmp_path,
            S1_CONFIG + "sweep.lambdas = 0.2,0.02\noutput.format = json\n")
        rc = cli.main(["--config", cfg, "--command", "sweep",
                       "--out", str(tmp_path)])
        assert rc == 0
        rows = json.loads((tmp_path / "sweep.json").read_text())
        assert len(rows) == 2 and rows[0]["lambda"] == 0.2


class TestStochasticCommands:
    def test_simulate_outputs(self, tmp_path):
        cfg = write_config(tmp_path, S1_CONFIG + SIM_BLOCK)
        rc = cli.main(["--config", cfg, "--command", "simulate",
                       "--seed", "42", "--out", str(tmp_path)])
        assert rc == 0
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["n_paths"] == 50 and summary["diverged"] == 0
        lines = (tmp_path / "trajectories.csv").read_text().strip().splitlines()
        assert lines[0] == "t,path_id,x"
        assert len(lines) == 1 + 50 * 201

    def test_simulate_deterministic(self, tmp_path):
        cfg = write_config(tmp_path, S1_CONFIG + SIM_BLOCK)
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            rc = cli.main(["--config", cfg, "--command", "simulate",
                           "--seed", "42", "--out", str(out),
                           "--parallelism", "1" if name == "a" else "3"])
            assert rc == 0
            outs.append((out / "trajectories.csv").read_bytes())
        assert outs[0] == outs[1]

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="simulate forks no child")
    def test_simulate_memory_does_not_grow_with_the_path_count(self, tmp_path,
                                                              monkeypatch):
        # Two parts: this process walks the first, a forked child the
        # second.  tracemalloc sees only this process: at 100 nodes per
        # path the 2100 extra paths would take 1.7 MB of recorded nodes
        # (its own 1024 extra, 0.8 MB), and streamed 256 paths at a time
        # the traced peak grows by far less than an eighth of that.
        monkeypatch.setattr(forks, "_usable_cpus", lambda: 2)
        peaks = []
        for n_paths in (300, 2400):
            cfg = write_config(tmp_path, ds_sim_config(n_paths), name=f"{n_paths}.cfg")
            out = tmp_path / str(n_paths)
            peaks.append(traced_peak(lambda: cli.main([
                "--config", cfg, "--command", "simulate", "--seed", "5",
                "--out", str(out)])))
            summary = json.loads((out / "summary.json").read_text())
            assert summary["n_paths"] == n_paths and summary["diverged"] == 0
        extra_nodes = 2100 * 100 * 8
        assert peaks[1] - peaks[0] < extra_nodes / 8
        # The child's peak RSS, from a fresh interpreter that reaps it:
        # its 2048 extra paths would keep 1.7 MB more nodes.  Measured on
        # a 2-core Linux host, the peak grew by 0.2-0.4 MB, and by 3.7 MB
        # with a child that allocated its part's nodes at once.
        rss = [child_peak_rss(tmp_path, n_paths) for n_paths in (1024, 10240)]
        assert rss[1]["children"] - rss[0]["children"] < 1.5 * 2 ** 20

    def test_evaluate(self, tmp_path):
        cfg = write_config(tmp_path, S1_CONFIG + "sim.dt = 0.001\n"
                           "sim.n_steps = 3000\nsim.n_paths = 32\n")
        rc = cli.main(["--config", cfg, "--command", "evaluate",
                       "--seed", "9", "--out", str(tmp_path)])
        assert rc == 0
        payload = json.loads((tmp_path / "evaluate.json").read_text())
        assert payload["within_tolerance"] is True
        assert "mc value" in (tmp_path / "report.txt").read_text()

    def test_cost(self, tmp_path):
        cfg = write_config(tmp_path, S1_CONFIG + "sim.dt = 0.001\n"
                           "sim.n_steps = 4000\nsim.n_paths = 500\n")
        rc = cli.main(["--config", cfg, "--command", "cost",
                       "--seed", "9", "--out", str(tmp_path)])
        assert rc == 0
        payload = json.loads((tmp_path / "cost.json").read_text())
        assert payload["closed_form"] == pytest.approx(0.1)
        assert payload["decomposition_check"] == pytest.approx(0.1, abs=1e-12)
        est = payload["mc_estimate"]
        assert abs(est["value"] - 0.1) <= \
            3 * est["std_error"] + est["truncation_bound"]

    def test_moments_table(self, tmp_path):
        cfg = write_config(tmp_path, S1_CONFIG + SIM_BLOCK)
        rc = cli.main(["--config", cfg, "--command", "moments",
                       "--seed", "4", "--out", str(tmp_path)])
        assert rc == 0
        lines = (tmp_path / "moments.csv").read_text().strip().splitlines()
        assert lines[0].startswith("t,n,m,m_hat,case_tag,mc_mean,mc_m2")

    @pytest.mark.parametrize("model,method", [
        (D0_MODEL, "d0"),
        # c = 0 regime; nonzero drift keeps Euler genuinely inexact.
        (LqModel(a=-0.5, b=1, c=0, d=1, m=1, n=1, r=0, p=0, q=0, rho=1, lam=0.2),
         "c0"),
        (DS_MODEL, "doss_saussman")], ids=["d0", "c0", "doss_saussman"])
    def test_exact_vs_euler(self, tmp_path, monkeypatch, model, method):
        # Each model takes its own exact-path route; a short dt ladder
        # and a tiny path count keep the three routes quick.
        dts = (0.05, 0.01, 0.002)
        monkeypatch.setattr(cli, "CONVERGENCE_DTS", dts)
        text = "".join(f"{key} = {getattr(model, field)!r}\n"
                       for key, field in config.MODEL_KEYS.items())
        cfg = write_config(tmp_path, text + "sim.n_paths = 20\n")
        rc = cli.main(["--config", cfg, "--command", "exact-vs-euler",
                       "--seed", "12", "--out", str(tmp_path)])
        assert rc == 0
        lines = (tmp_path / "convergence.csv").read_text().strip().splitlines()
        rows = [line.split(",") for line in lines[1:]]
        assert [row[0] for row in rows] == [repr(dt) for dt in dts]
        assert all(row[4:] == [method, "20"] for row in rows)
        parsed = config.model_from_mapping(config.parse_kv_text(text))
        value = xlq.solve(parsed).value if method == "doss_saussman" else None
        for dt, row in zip(dts, rows):
            grid = xlq.PathGrid(dt=dt, n_steps=round(cli.CONVERGENCE_HORIZON / dt))
            errors = xlq.strong_errors(parsed, 1.0, grid, 12, 20, method, value)
            assert row[1:4] == [repr(e) for e in errors]
        errs = [float(row[1]) for row in rows]
        assert errs[0] > errs[1] > errs[2]


class TestSolveOncePerCommand:
    # One solve in the CLI; evaluate and cost add the one inside
    # mc_value / mc_exploration_cost that bounds the truncated tail.
    @pytest.mark.parametrize("command,validations", [
        ("solve", 1), ("residual", 1), ("simulate", 1), ("evaluate", 2),
        ("cost", 2), ("exact-vs-euler", 1), ("moments", 1)])
    def test_model_validated_once(self, tmp_path, monkeypatch, command,
                                  validations):
        calls = []
        real = closed_form.validate

        def counting(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(closed_form, "validate", counting)
        monkeypatch.setattr(cli, "CONVERGENCE_DTS", (0.1,))
        # c, d != 0 sends exact-vs-euler down the Doss-Saussmann branch.
        text = S1_CONFIG.replace("dynamics.c = 0", "dynamics.c = 0.5")
        text = text.replace("dynamics.d = 0", "dynamics.d = 1")
        cfg = write_config(tmp_path, text + "sim.dt = 0.01\n"
                           "sim.n_steps = 20\nsim.n_paths = 4\n")
        rc = cli.main(["--config", cfg, "--command", command,
                       "--seed", "3", "--out", str(tmp_path / "out")])
        assert rc == 0
        assert len(calls) == validations
