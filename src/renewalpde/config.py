"""Run configuration: YAML parsing, validation and the preset registry.

A run file names a model preset, optional parameter overrides, the
grid/horizon, solver settings, which certificates to evaluate and an
optional control search.  Every default but the output path is written
into the effective config in the output directory, so a run is
reproducible from that directory wherever it lies.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import yaml

from .control import ControlSpec
from .models import (
    CellGrowthParams,
    CompetitiveParams,
    SIHRParams,
    build_blowup,
    build_cell_growth,
    build_competitive,
    build_sihr,
)
from .picard import PicardConfig


class ConfigError(ValueError):
    """Invalid or unparsable run configuration."""


@dataclass
class Preset:
    """``build(params)`` returns ``(system, oracle)``; ``config_from_dict`` refuses
    ``params`` for a preset without ``params_cls``."""

    description: str
    build: Callable
    params_cls: type | None
    default_cells: tuple[int, ...]
    default_horizon: float
    default_certificates: tuple[str, ...]


SIHR_DEFAULTS = dict(kappa=0.3, theta=0.1, eta=0.2, rho=0.08, mu_i=0.02, mu_h=0.01)


def _build_sihr_preset(overrides: dict):
    base = dict(SIHR_DEFAULTS)
    base.update(overrides)
    return build_sihr(SIHRParams(**base)), None


def _build_sihr_conservation(overrides: dict):
    base = dict(kappa=0.3, theta=0.1, eta=0.2, rho=0.08)
    base.update(overrides)
    return build_sihr(SIHRParams(**base)), None


def _build_cellgrowth(overrides: dict):
    base = dict(loss=0.2, birth_weight=0.5)
    base.update(overrides)
    return build_cell_growth(CellGrowthParams(**base)), None


def _build_competitive(overrides: dict):
    base = dict(mu1=0.2, mu2=0.3, c1=0.3, c2=0.2, beta1=0.4, beta2=0.3, f1=0.1, f2=0.05)
    base.update(overrides)
    return build_competitive(CompetitiveParams(**base)), None


PRESETS: dict[str, Preset] = {
    "sihr": Preset(
        "age-structured epidemic compartments with nonlocal contact",
        _build_sihr_preset, SIHRParams, (256,), 2.0,
        ("positivity", "gronwall", "contraction", "entropy")),
    "sihr-conservation": Preset(
        "epidemic model with zero mortality: total mass is conserved",
        _build_sihr_conservation, SIHRParams, (256,), 5.0,
        ("positivity", "gronwall", "contraction", "mass-drift")),
    "cellgrowth": Preset(
        "age-structured cell population with loss and division renewal",
        _build_cellgrowth, CellGrowthParams, (192,), 3.0,
        ("positivity", "gronwall", "contraction")),
    "competitive": Preset(
        "two harvested populations coupled by competition kernels",
        _build_competitive, CompetitiveParams, (128,), 2.0,
        ("positivity", "gronwall", "contraction")),
    "blowup-ode": Preset(
        "quadratic feedback with static profile: mass 1/(1-t), blows up at 1",
        lambda _: build_blowup("ode"), None, (400,), 0.75,
        ("positivity", "contraction", "entropy", "oracle")),
    "blowup-transport": Preset(
        "quadratic feedback riding a unit drift: support [t, t+1], blows up at 1",
        lambda _: build_blowup("transport"), None, (600,), 0.75,
        ("positivity", "contraction", "entropy", "oracle")),
}

KNOWN_CERTIFICATES = ("positivity", "gronwall", "contraction", "entropy",
                      "apriori", "mass-drift", "oracle")


@dataclass
class ControlConfig:
    objective: str = "deaths"
    bounds: list = field(default_factory=lambda: [[0.0, 1.0]])
    budget: int = 60
    breakpoints: list | None = None
    age_bins: list | None = None
    cells: int = 64
    horizon: float = 2.0


@dataclass
class RunConfig:
    model: str
    params: dict = field(default_factory=dict)
    cells: tuple[int, ...] = ()
    horizon: float = 0.0
    picard: PicardConfig = field(default_factory=PicardConfig)
    certificates: tuple[str, ...] = ()
    control: ControlConfig | None = None
    output: Path = Path("out")
    seed: int = 0
    save_states: int = 5
    entropy_samples: int = 50


def _require(cond: bool, msg: str):
    if not cond:
        raise ConfigError(msg)


def _parse(key: str, value, convert: Callable, what: str):
    """``convert(value)``, or a ConfigError naming the field when that fails."""
    try:
        return convert(value)
    except (TypeError, ValueError):
        raise ConfigError(f"field '{key}' must be {what}, got {value!r}") from None


def control_spec(cc: ControlConfig) -> ControlSpec:
    """The control box of a control search; raises ConfigError when it is malformed."""
    try:
        return ControlSpec(bounds=[tuple(b) for b in cc.bounds], budget=cc.budget,
                           breakpoints=cc.breakpoints, age_bins=cc.age_bins)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"control: {exc}") from None


def load_config(path: str | Path) -> RunConfig:
    """Parse and validate a YAML run file; raises ConfigError on any defect."""
    path = Path(path)
    try:
        raw = yaml.safe_load(path.read_text())
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}")
    except yaml.YAMLError as exc:
        raise ConfigError(f"cannot parse {path}: {exc}")
    if not isinstance(raw, dict):
        raise ConfigError("config must be a mapping")
    return config_from_dict(raw)


def config_from_dict(raw: dict) -> RunConfig:
    known = {"model", "params", "cells", "horizon", "picard", "certificates",
             "control", "output", "seed", "save_states", "entropy_samples"}
    for key in raw:
        _require(key in known, f"unknown config field: {key}")
    model = raw.get("model")
    _require(isinstance(model, str) and model in PRESETS,
             f"field 'model' must be one of {sorted(PRESETS)}")
    preset = PRESETS[model]

    params = raw.get("params", {}) or {}
    _require(isinstance(params, dict), "field 'params' must be a mapping")
    if preset.params_cls is not None:
        valid = {f.name for f in dataclasses.fields(preset.params_cls)}
        for key in params:
            _require(key in valid, f"params.{key}: unknown parameter for model '{model}'")
    else:
        _require(not params, f"model '{model}' takes no parameter overrides")

    cells = raw.get("cells", preset.default_cells)
    if isinstance(cells, int):
        cells = (cells,)
    cells = _parse("cells", cells, lambda cs: tuple(int(c) for c in cs), "a list of integers")
    _require(all(c >= 4 for c in cells), "field 'cells': need at least 4 cells per axis")

    horizon = _parse("horizon", raw.get("horizon", preset.default_horizon), float, "a number")
    _require(horizon > 0, "field 'horizon' must be positive")

    pc_raw = raw.get("picard", {}) or {}
    _require(isinstance(pc_raw, dict), "field 'picard' must be a mapping")
    pc_fields = {f.name for f in dataclasses.fields(PicardConfig)}
    for key in pc_raw:
        _require(key in pc_fields, f"picard.{key}: unknown solver setting")
    try:
        picard = PicardConfig(**pc_raw)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"picard: {exc}")

    certificates = tuple(raw.get("certificates", preset.default_certificates))
    for cert in certificates:
        _require(cert in KNOWN_CERTIFICATES,
                 f"certificates: unknown certificate '{cert}' (choose from {KNOWN_CERTIFICATES})")
    # a closed form and conserved mass belong to some models only: their presets list these
    for cert in ("oracle", "mass-drift"):
        _require(cert not in certificates or cert in preset.default_certificates,
                 f"certificates: '{cert}' does not apply to model '{model}'")

    control = None
    if raw.get("control") is not None:
        c_raw = raw["control"]
        _require(isinstance(c_raw, dict), "field 'control' must be a mapping")
        c_fields = {f.name for f in dataclasses.fields(ControlConfig)}
        for key in c_raw:
            _require(key in c_fields, f"control.{key}: unknown control setting")
        control = ControlConfig(**c_raw)
        control.cells = _parse("control.cells", control.cells, int, "an integer")
        _require(control.cells >= 4, "field 'control.cells': need at least 4 cells per axis")
        control.horizon = _parse("control.horizon", control.horizon, float, "a number")
        _require(control.horizon > 0, "field 'control.horizon' must be positive")
        _require(model == "sihr", "control search is wired to the 'sihr' preset")
        _require(control.objective in ("deaths", "peak"),
                 "control.objective must be 'deaths' or 'peak'")
        control_spec(control)

    seed = _parse("seed", raw.get("seed", 0), int, "an integer")
    save_states = _parse("save_states", raw.get("save_states", 5), int, "an integer")
    _require(save_states >= 2, "field 'save_states' must be >= 2")
    entropy_samples = _parse("entropy_samples", raw.get("entropy_samples", 50), int, "an integer")
    _require(entropy_samples >= 1, "field 'entropy_samples' must be >= 1")

    return RunConfig(model=model, params=params, cells=cells, horizon=horizon,
                     picard=picard, certificates=certificates, control=control,
                     output=Path(raw.get("output", "out")), seed=seed,
                     save_states=save_states, entropy_samples=entropy_samples)


def effective_config_dict(cfg: RunConfig) -> dict:
    """Fully materialized config for the reproducibility copy, without the output path."""
    out = {
        "model": cfg.model,
        "params": cfg.params,
        "cells": list(cfg.cells),
        "horizon": cfg.horizon,
        "picard": dataclasses.asdict(cfg.picard),
        "certificates": list(cfg.certificates),
        "control": dataclasses.asdict(cfg.control) if cfg.control else None,
        "seed": cfg.seed,
        "save_states": cfg.save_states,
        "entropy_samples": cfg.entropy_samples,
    }
    return out
