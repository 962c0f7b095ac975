"""Run configuration: JSON document with strict validation.

Unknown keys are rejected and every violation is reported at once. The
resolved (defaulted) config is echoed into each output directory so any
artifact can be traced back to the exact parameters that produced it.

DEFAULTS and the choice table CHOICES are the one home of the protocol
values (filter thresholds, split fractions, dimensions, kNN sizes, EMA
decay, repeats) and of the legal values of the string options. Library
defaults and validity checks in the other modules read them from here, so
this module imports nothing from the package but its errors.
"""

from __future__ import annotations

import copy
import hashlib
import json
from pathlib import Path

from .errors import ConfigError

DEFAULTS: dict = {
    "task": "knn",
    "dataset": {
        "path": "",
        "delimiter": ",",
        "features": [],            # list of {"name": ..., "kind": "categorical"|"numeric"}
        "session_gap_seconds": 1800,
    },
    "preprocess": {
        "min_item_support": 5,
        "min_session_len": 2,
        "max_prefix_len": 50,
        "fractions": [0.8, 0.1, 0.1],
    },
    "embed": {
        "dim": 128,
        "hidden_dim": 128,
        "fanouts": [10, 5],        # null: every neighbour, no sampling draws
        "lr": 1e-3,
        "weight_decay": 1e-5,
        "ema_decay": 0.99,
        "epochs": 50,
        "batch_size": 256,
        "view1": {"feature_mask_prob": 0.1, "edge_drop_prob": 0.2},
        "view2": {"feature_mask_prob": 0.2, "edge_drop_prob": 0.4},
    },
    "knn": {
        "k": 100,
        "m_sample": 1000,
        "base_mode": "sknn",
        "k_rec": 20,
        "exclude_input_items": False,
        "gcnext": {
            "enabled": False,
            "distance_threshold": 0.5,
            "session_scoring": "rscore",
            "expand_pool": False,
        },
    },
    "nextitem": {
        "init_mode": "scaled-uniform",
        "epochs": 20,
        "lr": 0.01,
        "batch_size": 128,
    },
    "eval": {
        "k_values": [10, 20],
        "repeats": 5,
        "master_seed": 0,
    },
    "grid": {
        "parameters": {},
        "objective": "MRR@20",
        "max_points": 64,
    },
}

CHOICES = {
    "task": ("knn", "nextitem"),
    "knn.base_mode": ("sknn", "v-sknn"),
    "knn.gcnext.session_scoring": ("rscore", "position"),
    "nextitem.init_mode": ("scaled-uniform", "pretrained"),
}


def _merge(defaults, given, path, errors):
    if not isinstance(given, dict):
        errors.append(f"{path or '<root>'}: expected an object, got {type(given).__name__}")
        return copy.deepcopy(defaults)
    out = {}
    for key, default in defaults.items():
        full = f"{path}.{key}" if path else key
        if key not in given:
            out[key] = copy.deepcopy(default)
        elif isinstance(default, dict) and not full.endswith("grid.parameters"):
            out[key] = _merge(default, given[key], full, errors)
        else:
            out[key] = copy.deepcopy(given[key])
    for key in given:
        if key not in defaults:
            errors.append(f"{path or '<root>'}: unknown key {key!r}")
    return out


def _check_number(cfg, dotted, lo=None, hi=None, integer=False, errors=None):
    node = cfg
    for part in dotted.split(".")[:-1]:
        node = node[part]
    value = node[dotted.split(".")[-1]]
    if value is None:
        return
    if integer and not isinstance(value, int):
        errors.append(f"{dotted}: expected an integer, got {value!r}")
        return
    if not isinstance(value, (int, float)):
        errors.append(f"{dotted}: expected a number, got {value!r}")
        return
    if lo is not None and value < lo:
        errors.append(f"{dotted}: {value} below minimum {lo}")
    if hi is not None and value > hi:
        errors.append(f"{dotted}: {value} above maximum {hi}")


def resolve_config(raw: dict) -> dict:
    """Merge with defaults, rejecting unknown keys and invalid values."""
    errors: list[str] = []
    cfg = _merge(DEFAULTS, raw, "", errors)

    for dotted, choices in CHOICES.items():
        node = cfg
        for part in dotted.split(".")[:-1]:
            node = node[part]
        value = node[dotted.split(".")[-1]]
        if value not in choices:
            errors.append(f"{dotted}: {value!r} not one of {choices}")

    for f in cfg["dataset"]["features"]:
        if not isinstance(f, dict) or set(f) != {"name", "kind"}:
            errors.append(f"dataset.features: each entry needs exactly name and kind, got {f!r}")
        elif f["kind"] not in ("categorical", "numeric"):
            errors.append(f"dataset.features: unknown kind {f['kind']!r}")

    _check_number(cfg, "preprocess.min_item_support", lo=1, integer=True, errors=errors)
    _check_number(cfg, "preprocess.min_session_len", lo=2, integer=True, errors=errors)
    _check_number(cfg, "preprocess.max_prefix_len", lo=1, integer=True, errors=errors)
    fr = cfg["preprocess"]["fractions"]
    if (not isinstance(fr, list) or len(fr) != 3
            or abs(sum(fr) - 1.0) > 1e-9 or any(x <= 0 for x in fr)):
        errors.append(f"preprocess.fractions: need three positive numbers summing to 1, got {fr!r}")

    _check_number(cfg, "embed.dim", lo=1, integer=True, errors=errors)
    _check_number(cfg, "embed.hidden_dim", lo=1, integer=True, errors=errors)
    _check_number(cfg, "embed.lr", lo=0.0, errors=errors)
    _check_number(cfg, "embed.weight_decay", lo=0.0, errors=errors)
    _check_number(cfg, "embed.ema_decay", lo=0.0, hi=1.0, errors=errors)
    _check_number(cfg, "embed.epochs", lo=1, integer=True, errors=errors)
    _check_number(cfg, "embed.batch_size", lo=1, integer=True, errors=errors)
    fo = cfg["embed"]["fanouts"]
    if fo is not None and (not isinstance(fo, list) or len(fo) != 2
                           or any(not isinstance(x, int) or x < 1 for x in fo)):
        errors.append(f"embed.fanouts: need null or two integers >= 1, got {fo!r}")
    for view in ("view1", "view2"):
        for prob in ("feature_mask_prob", "edge_drop_prob"):
            _check_number(cfg, f"embed.{view}.{prob}", lo=0.0, hi=0.999999, errors=errors)

    _check_number(cfg, "knn.k", lo=1, integer=True, errors=errors)
    _check_number(cfg, "knn.m_sample", lo=1, integer=True, errors=errors)
    _check_number(cfg, "knn.k_rec", lo=1, integer=True, errors=errors)
    if (isinstance(cfg["knn"]["k"], int) and isinstance(cfg["knn"]["m_sample"], int)
            and cfg["knn"]["k"] > cfg["knn"]["m_sample"]):
        errors.append("knn.k must not exceed knn.m_sample")
    _check_number(cfg, "knn.gcnext.distance_threshold", lo=0.0, hi=2.0, errors=errors)

    _check_number(cfg, "nextitem.epochs", lo=1, integer=True, errors=errors)
    _check_number(cfg, "nextitem.lr", lo=0.0, errors=errors)
    _check_number(cfg, "nextitem.batch_size", lo=1, integer=True, errors=errors)

    _check_number(cfg, "eval.repeats", lo=1, integer=True, errors=errors)
    _check_number(cfg, "eval.master_seed", lo=0, integer=True, errors=errors)
    ks = cfg["eval"]["k_values"]
    if not isinstance(ks, list) or not ks or any(not isinstance(k, int) or k < 1 for k in ks):
        errors.append(f"eval.k_values: need a list of positive integers, got {ks!r}")

    if not isinstance(cfg["grid"]["parameters"], dict):
        errors.append("grid.parameters: expected an object of dotted-path -> value list")

    if errors:
        raise ConfigError("invalid configuration:\n  " + "\n  ".join(errors))
    return cfg


def load_config(path) -> dict:
    try:
        raw = json.loads(Path(path).read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config file {path} is not UTF-8 ({exc.reason} at byte "
                          f"{exc.start})") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from None
    return resolve_config(raw)


def config_hash(cfg: dict) -> str:
    canonical = json.dumps(cfg, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def set_by_path(cfg: dict, dotted: str, value):
    node = cfg
    parts = dotted.split(".")
    for part in parts[:-1]:
        if part not in node or not isinstance(node[part], dict):
            raise ConfigError(f"grid parameter path {dotted!r} does not exist")
        node = node[part]
    if parts[-1] not in node:
        raise ConfigError(f"grid parameter path {dotted!r} does not exist")
    node[parts[-1]] = value
