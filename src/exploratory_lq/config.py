"""Flat key=value configuration files.

The model block uses exact key names; unknown keys anywhere in a file
are a hard error so typos cannot silently fall back to defaults.

    dynamics.a, dynamics.b, dynamics.c, dynamics.d
    reward.m, reward.n, reward.r, reward.p, reward.q
    discount.rho, explore.lambda

Simulation and sweep blocks (consumed by the CLI):

    sim.dt, sim.n_steps, sim.n_paths, sim.x0, sim.seed, sim.parallelism
    sweep.lambdas   (comma-separated temperatures)
    output.format   (csv | json, tables only)

Each input rule has one owner.  :func:`sim_settings` checks every sim
key; the CLI's ``--seed`` and ``--parallelism`` arrive as ``sim.seed``
and ``sim.parallelism``, so a flag meets the same check as its key.
:class:`~exploratory_lq.sde.PathGrid` owns the grid rules (0 < dt < inf,
1 <= n_steps within float range, a finite horizon dt * n_steps),
``sde._check_batch`` the path count's and x0's, ``rng.valid_seed`` the
seed's, and :func:`~exploratory_lq.model.check_model` the model's,
finiteness included.  :func:`sweep_lambdas` requires each temperature
to be positive and finite.
"""

from __future__ import annotations

import math

from .errors import ConfigError
from .model import LqModel
from .rng import valid_seed
from .sde import PathGrid, _check_batch

MODEL_KEYS = {
    "dynamics.a": "a",
    "dynamics.b": "b",
    "dynamics.c": "c",
    "dynamics.d": "d",
    "reward.m": "m",
    "reward.n": "n",
    "reward.r": "r",
    "reward.p": "p",
    "reward.q": "q",
    "discount.rho": "rho",
    "explore.lambda": "lam",
}

SIM_KEYS = {"sim.dt", "sim.n_steps", "sim.n_paths", "sim.x0", "sim.seed",
            "sim.parallelism"}
SWEEP_KEYS = {"sweep.lambdas"}
OUTPUT_KEYS = {"output.format"}
KNOWN_KEYS = set(MODEL_KEYS) | SIM_KEYS | SWEEP_KEYS | OUTPUT_KEYS


def parse_kv_text(text: str) -> dict[str, str]:
    """Parse KEY=VALUE lines; '#' lines are comments, blanks ignored."""
    out: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected KEY=VALUE, got {raw!r}")
        key, value = line.split("=", 1)
        key = key.strip()
        value = value.strip()
        if not key:
            raise ConfigError(f"line {lineno}: empty key")
        if key in out:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        out[key] = value
    return out


def load_config(path) -> dict[str, str]:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config {path} is not UTF-8 text: {exc}") from exc
    mapping = parse_kv_text(text)
    unknown = sorted(set(mapping) - KNOWN_KEYS)
    if unknown:
        raise ConfigError(f"unknown config key(s): {', '.join(unknown)}")
    return mapping


def _float(mapping: dict[str, str], key: str) -> float:
    try:
        return float(mapping[key])
    except ValueError as exc:
        raise ConfigError(f"config key {key} is not a number: {mapping[key]!r}") from exc


def model_from_mapping(mapping: dict[str, str]) -> LqModel:
    """Build the model from the 11 mandatory keys; name any missing one."""
    missing = sorted(k for k in MODEL_KEYS if k not in mapping)
    if missing:
        raise ConfigError(f"missing required config key(s): {', '.join(missing)}")
    fields = {field: _float(mapping, key) for key, field in MODEL_KEYS.items()}
    return LqModel(**fields)


def _int(mapping: dict[str, str], key: str, default: int | None) -> int | None:
    if key not in mapping:
        return default
    try:
        return int(mapping[key])
    except ValueError as exc:
        raise ConfigError(f"config key {key} is not an integer: {mapping[key]!r}") from exc


def sim_settings(mapping: dict[str, str]) -> dict:
    """Simulation block with documented defaults; seed has none.  A bad
    value raises ConfigError naming its key, and its CLI flag if any."""
    seed = _int(mapping, "sim.seed", None)
    parallelism = _int(mapping, "sim.parallelism", 1)
    n_paths = _int(mapping, "sim.n_paths", 1000)
    x0 = _float(mapping, "sim.x0") if "sim.x0" in mapping else 1.0
    if seed is not None and not valid_seed(seed):
        raise ConfigError(f"sim.seed (--seed) must fit in 64 bits, got {seed}")
    if parallelism < 1:
        raise ConfigError(
            f"sim.parallelism (--parallelism) must be >= 1, got {parallelism}")
    try:
        _check_batch(n_paths, x0)
        grid = PathGrid(dt=_float(mapping, "sim.dt") if "sim.dt" in mapping else 1e-2,
                        n_steps=_int(mapping, "sim.n_steps", 1000))
    except ValueError as exc:
        # These messages start with the field name.
        raise ConfigError(f"sim.{exc}") from exc
    return {"grid": grid, "n_paths": n_paths, "x0": x0, "seed": seed}


def sweep_lambdas(mapping: dict[str, str]) -> list[float]:
    if "sweep.lambdas" not in mapping:
        raise ConfigError("missing required config key(s): sweep.lambdas")
    raw = mapping["sweep.lambdas"]
    try:
        values = [float(tok) for tok in raw.split(",") if tok.strip()]
    except ValueError as exc:
        raise ConfigError(f"sweep.lambdas is not a comma-separated list: {raw!r}") from exc
    if not values:
        raise ConfigError("sweep.lambdas is empty")
    if not all(0 < v < math.inf for v in values):
        raise ConfigError(
            f"sweep.lambdas entries must be positive and finite, got {raw!r}")
    return values


def output_format(mapping: dict[str, str]) -> str:
    fmt = mapping.get("output.format", "csv")
    if fmt not in ("csv", "json"):
        raise ConfigError(f"output.format must be csv or json, got {fmt!r}")
    return fmt
