"""Run configuration: schema, validation, and the config hash."""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path

from .errors import ConfigError
from .ingest import DocType
from .ioutils import finite_number
from .labeling import check_proportions
from .models import KINDS, check_hyperparameters
from .stats import TRANSFORM_KINDS, check_quantile_levels

DEFAULT_PROPORTIONS = {
    DocType.RESEARCH: 0.55,
    DocType.SLIDES: 0.10,
    DocType.THESIS: 0.35,
}


@dataclass
class RunConfig:
    """Everything a pipeline run needs; one seed drives all stages."""

    seed: int = 0
    records_path: str | None = None
    labeled_path: str | None = None
    output_dir: str = "out"
    proportions: dict[DocType, float] = field(
        default_factory=lambda: dict(DEFAULT_PROPORTIONS)
    )
    sample_total: int | None = None
    k_folds: int = 10
    validation_fraction: float = 0.2
    quantile_lo: float = 0.025
    quantile_hi: float = 0.975
    sweep_kinds: tuple[str, ...] = ("random-forest", "adaboost")
    sweep_transforms: tuple[str, ...] = TRANSFORM_KINDS
    sweep_grids: dict[str, list[dict]] = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "paths": {
                "records": self.records_path,
                "labeled": self.labeled_path,
                "output_dir": self.output_dir,
            },
            "proportions": {t.label: p for t, p in self.proportions.items()},
            "sample_total": self.sample_total,
            "k_folds": self.k_folds,
            "validation_fraction": self.validation_fraction,
            "quantiles": {"lo": self.quantile_lo, "hi": self.quantile_hi},
            "sweep": {
                "kinds": list(self.sweep_kinds),
                "transforms": list(self.sweep_transforms),
                "grids": self.sweep_grids,
            },
        }

    def hash(self) -> str:
        canonical = json.dumps(self.to_dict(), sort_keys=True)
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def load_config(path: str | Path) -> RunConfig:
    """Read a JSON config file, after a UTF-8 byte order mark if it has one."""
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8-sig"))
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except (json.JSONDecodeError, RecursionError) as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    return config_from_dict(payload)


_EXPECTED = {dict: "an object", int: "an integer", float: "a finite number", str: "a string",
             list: "a list of strings"}


def _field(section: dict, key: str, default, kind: type, where: str = "", nullable=False):
    """``section[key]``, or ``default`` when absent. A given value must be a
    JSON ``kind`` (a boolean is no integer; a list holds strings; ``float``
    takes any finite number and returns it as a float), or null when
    ``nullable``; anything else raises ConfigError."""
    if key not in section:
        return default
    value = section[key]
    if not (value is None and nullable) and not (
        finite_number(value)
        if kind is float
        else isinstance(value, kind)
        and not isinstance(value, bool)
        and (kind is not list or all(isinstance(item, str) for item in value))
    ):
        expected = _EXPECTED[kind] + (" or null" if nullable else "")
        raise ConfigError(f"{where}{key} must be {expected}, got {json.dumps(value, default=repr)}")
    return float(value) if kind is float else value


def read_proportions(payload: dict) -> dict[DocType, float]:
    """Class proportions from a JSON object of label -> finite number: the
    one reader for a config's ``proportions`` and the ``--proportions`` flag."""
    proportions = {}
    for name in payload:
        try:
            doc_type = DocType.from_label(name)
        except ValueError as exc:
            raise ConfigError(f"proportions: {exc}") from exc
        proportions[doc_type] = _field(payload, name, None, float, "proportions.")
    return proportions


def config_from_dict(payload: dict) -> RunConfig:
    if not isinstance(payload, dict):
        raise ConfigError("config must be a JSON object")
    cfg = RunConfig()
    cfg.seed = _field(payload, "seed", cfg.seed, int)
    paths = _field(payload, "paths", {}, dict)
    cfg.records_path, cfg.labeled_path = (
        _field(paths, key, None, str, "paths.", nullable=True) for key in ("records", "labeled")
    )
    cfg.output_dir = _field(paths, "output_dir", cfg.output_dir, str, "paths.")
    proportions = _field(payload, "proportions", None, dict)
    if proportions is not None:
        cfg.proportions = read_proportions(proportions)
    cfg.sample_total = _field(payload, "sample_total", cfg.sample_total, int, nullable=True)
    cfg.k_folds = _field(payload, "k_folds", cfg.k_folds, int)
    cfg.validation_fraction = _field(payload, "validation_fraction", cfg.validation_fraction, float)
    quantiles = _field(payload, "quantiles", {}, dict)
    cfg.quantile_lo = _field(quantiles, "lo", cfg.quantile_lo, float, "quantiles.")
    cfg.quantile_hi = _field(quantiles, "hi", cfg.quantile_hi, float, "quantiles.")
    sweep = _field(payload, "sweep", {}, dict)
    cfg.sweep_kinds = tuple(_field(sweep, "kinds", cfg.sweep_kinds, list, "sweep."))
    cfg.sweep_transforms = tuple(_field(sweep, "transforms", cfg.sweep_transforms, list, "sweep."))
    cfg.sweep_grids = sweep.get("grids", {})
    validate_config(cfg)
    return cfg


def check_seed(seed: int) -> None:
    """A seed is a non-negative integer: the rule for ``--seed`` and a config's ``seed``."""
    if seed < 0:
        raise ConfigError(f"seed must be a non-negative integer, got {seed}")


def validate_config(cfg: RunConfig, *, needs_input: bool = False) -> None:
    """Raise ``ConfigError`` on a bad setting; ``run_pipeline`` also needs an input path."""
    if needs_input and cfg.records_path is None and cfg.labeled_path is None:
        raise ConfigError("pipeline needs paths.records or paths.labeled")
    check_seed(cfg.seed)
    try:
        check_proportions(cfg.proportions)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    if cfg.k_folds < 2:
        raise ConfigError(f"k_folds must be at least 2, got {cfg.k_folds}")
    if not 0.0 <= cfg.validation_fraction < 1.0:
        raise ConfigError(
            f"validation_fraction must be in [0, 1), got {cfg.validation_fraction}"
        )
    try:
        check_quantile_levels(cfg.quantile_lo, cfg.quantile_hi)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    if cfg.sample_total is not None and cfg.sample_total < 0:
        raise ConfigError(f"sample_total must be nonnegative, got {cfg.sample_total}")
    for name, values in (("kinds", cfg.sweep_kinds), ("transforms", cfg.sweep_transforms)):
        if not values:
            raise ConfigError(f"sweep.{name} must be non-empty")
        if len(set(values)) < len(values):
            raise ConfigError(f"sweep.{name} must not repeat an entry, got {list(values)}")
    for kind in cfg.sweep_kinds:
        if kind not in KINDS:
            raise ConfigError(f"unknown sweep kind: {kind!r}")
    for transform in cfg.sweep_transforms:
        if transform not in TRANSFORM_KINDS:
            raise ConfigError(f"unknown transform kind: {transform!r}")
    if not isinstance(cfg.sweep_grids, dict):
        raise ConfigError("sweep.grids must be an object of kind -> list of points")
    for kind, grid in cfg.sweep_grids.items():
        if kind not in KINDS:
            raise ConfigError(f"unknown sweep grid kind: {kind!r}")
        if not isinstance(grid, list) or not all(isinstance(p, dict) for p in grid):
            raise ConfigError(f"sweep grid for {kind} must be a list of objects")
        if not grid:
            raise ConfigError(f"sweep grid for {kind} must be non-empty")
        for point in grid:
            try:
                check_hyperparameters(kind, point)
            except ValueError as exc:
                raise ConfigError(f"sweep grid for {kind}: {exc}") from exc
    for kind in cfg.sweep_grids:
        if kind not in cfg.sweep_kinds:
            raise ConfigError(f"sweep grid for {kind}: {kind} is not in sweep.kinds")
    # only the path run_pipeline reads: records when given, else labeled
    path_label = "records" if cfg.records_path is not None else "labeled"
    if (path := getattr(cfg, f"{path_label}_path")) is not None and not Path(path).exists():
        raise ConfigError(f"{path_label} path does not exist: {path}")
