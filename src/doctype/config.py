"""Run configuration: the one reader of a config's JSON, and the config hash."""

from __future__ import annotations

import hashlib
import json
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


def load_config(path: str | Path) -> dict:
    """Read a JSON config file, after a UTF-8 byte order mark if it has one."""
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8-sig"))
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except (json.JSONDecodeError, RecursionError) as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    return config_from_dict(payload)


def config_hash(config: dict) -> str:
    """sha256 of ``config``, as ``config_from_dict`` returns it, in sorted-key JSON."""
    return hashlib.sha256(json.dumps(config, sort_keys=True).encode("utf-8")).hexdigest()


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


def config_from_dict(payload: dict) -> dict:
    """The run config that ``manifest.json`` stores: every key filled in
    with its default, every value type- and range-checked and every other
    key dropped. ConfigError names the first bad value. The output reads
    back unchanged, and only the pipeline reads ``paths``."""
    if not isinstance(payload, dict):
        raise ConfigError("config must be a JSON object")
    seed = _field(payload, "seed", 0, int)
    paths = _field(payload, "paths", {}, dict)
    paths = {
        "records": _field(paths, "records", None, str, "paths.", nullable=True),
        "labeled": _field(paths, "labeled", None, str, "paths.", nullable=True),
        "output_dir": _field(paths, "output_dir", "out", str, "paths."),
    }
    proportions = _field(payload, "proportions", None, dict)
    proportions = DEFAULT_PROPORTIONS if proportions is None else read_proportions(proportions)
    sample_total = _field(payload, "sample_total", None, int, nullable=True)
    k_folds = _field(payload, "k_folds", 10, int)
    validation_fraction = _field(payload, "validation_fraction", 0.2, float)
    quantiles = _field(payload, "quantiles", {}, dict)
    quantiles = {key: _field(quantiles, key, default, float, "quantiles.")
                 for key, default in (("lo", 0.025), ("hi", 0.975))}
    sweep = _field(payload, "sweep", {}, dict)
    kinds = list(_field(sweep, "kinds", ("random-forest", "adaboost"), list, "sweep."))
    transforms = list(_field(sweep, "transforms", TRANSFORM_KINDS, list, "sweep."))
    grids = sweep.get("grids", {})

    check_seed(seed)
    try:
        check_proportions(proportions)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    if k_folds < 2:
        raise ConfigError(f"k_folds must be at least 2, got {k_folds}")
    if not 0.0 <= validation_fraction < 1.0:
        raise ConfigError(f"validation_fraction must be in [0, 1), got {validation_fraction}")
    try:
        check_quantile_levels(quantiles["lo"], quantiles["hi"])
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    if sample_total is not None and sample_total < 0:
        raise ConfigError(f"sample_total must be nonnegative, got {sample_total}")
    for name, values in (("kinds", kinds), ("transforms", transforms)):
        if not values:
            raise ConfigError(f"sweep.{name} must be non-empty")
        if len(set(values)) < len(values):
            raise ConfigError(f"sweep.{name} must not repeat an entry, got {values}")
    for kind in kinds:
        if kind not in KINDS:
            raise ConfigError(f"unknown sweep kind: {kind!r}")
    for transform in transforms:
        if transform not in TRANSFORM_KINDS:
            raise ConfigError(f"unknown transform kind: {transform!r}")
    if not isinstance(grids, dict):
        raise ConfigError("sweep.grids must be an object of kind -> list of points")
    for kind, grid in grids.items():
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
    for kind in grids:
        if kind not in kinds:
            raise ConfigError(f"sweep grid for {kind}: {kind} is not in sweep.kinds")
    return {
        "seed": seed,
        "paths": paths,
        "proportions": {doc_type.label: share for doc_type, share in proportions.items()},
        "sample_total": sample_total,
        "k_folds": k_folds,
        "validation_fraction": validation_fraction,
        "quantiles": quantiles,
        "sweep": {"kinds": kinds, "transforms": transforms, "grids": grids},
    }


def check_seed(seed: int) -> None:
    """A seed is a non-negative integer: the rule for ``--seed`` and a config's ``seed``."""
    if seed < 0:
        raise ConfigError(f"seed must be a non-negative integer, got {seed}")
