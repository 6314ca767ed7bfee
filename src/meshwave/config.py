"""Pipeline configuration: diff-friendly `key = value` manifests.

Sections and keys are fixed by a schema; unknown names are rejected so a
manifest can't silently misspell a knob. Floats serialize at 17 significant
digits, which makes parse/format a lossless round trip.
"""

from __future__ import annotations

import copy
import dataclasses

from ._files import numeric_rows, read_text
from .descriptors import check_settings
from .errors import DataError
from .model import DEFAULT_ARCHITECTURE
from .training import TrainConfig

_PATHS = "paths"  # comma-separated list of strings

# section -> key -> (type tag, default)
SCHEMA = {
    "pipeline": {
        "output_dir": (str, "."),
        "seed": (int, 0),
    },
    "descriptor": {
        "type": (str, "weds"),
        "k": (int, 100),
        "num": (int, 128),
        "power": (int, 2),
    },
    "model": {
        "architecture": (str, DEFAULT_ARCHITECTURE),
        "kind": (str, "mgcn"),
    },
    "train": {  # the file lists, then every TrainConfig field
        "meshes": (_PATHS, []),
        "correspondences": (_PATHS, []),
        **{f.name: (type(f.default), f.default) for f in dataclasses.fields(TrainConfig)},
    },
}


def default_config() -> dict:
    return {
        section: {key: copy.copy(default) for key, (_, default) in keys.items()}
        for section, keys in SCHEMA.items()
    }


def _parse_value(tag, raw: str, where: str):
    raw = raw.strip()
    if tag is _PATHS:
        return [p.strip() for p in raw.split(",") if p.strip()]
    if tag is str:
        return raw
    try:  # np.dtype(int) is int64, np.dtype(float) float64
        return numeric_rows(where, [raw], None, tag, "value").item()
    except DataError:
        raise DataError(f"{where}: cannot parse value {raw!r}") from None


def _format_value(tag, value) -> str:
    if tag is float:
        return f"{value:.17g}"
    if tag is _PATHS:
        return ", ".join(value)
    return str(value)


def parse_config(text: str, source: str = "<config>") -> dict:
    cfg = default_config()
    section = None
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        where = f"{source}:{ln}"
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip()
            if section not in SCHEMA:
                raise DataError(f"{where}: unknown section [{section}]")
            continue
        if "=" not in line:
            raise DataError(f"{where}: expected 'key = value', got {line!r}")
        if section is None:
            raise DataError(f"{where}: key outside any [section]")
        key, _, raw_val = line.partition("=")
        key = key.strip()
        if key not in SCHEMA[section]:
            raise DataError(f"{where}: unknown key {key!r} in [{section}]")
        tag, _ = SCHEMA[section][key]
        cfg[section][key] = _parse_value(tag, raw_val, where)
    desc = cfg["descriptor"]
    try:  # a refused [descriptor] value names its file, whichever command reads it
        check_settings(desc["type"], desc["num"], desc["power"])
        if desc["k"] < 1:
            raise DataError(f"k must be at least 1, got {desc['k']}")
    except DataError as exc:
        raise DataError(f"{source}: {exc}") from None
    return cfg


def check_section(section: str, values, source: str) -> dict:
    """A stored [section] of scalars, checked: exactly the schema's keys,
    each of its type tag (an int serves a float, a bool serves nothing).
    Raises DataError otherwise."""
    keys = SCHEMA[section]
    if not (isinstance(values, dict) and set(values) == set(keys) and all(
            isinstance(values[key], (int, float) if tag is float else tag)
            and not isinstance(values[key], bool) for key, (tag, _) in keys.items())):
        types = {key: tag.__name__ for key, (tag, _) in keys.items()}
        raise DataError(f"{source}: [{section}] needs exactly {types}, got {values!r}")
    return {key: tag(values[key]) for key, (tag, _) in keys.items()}


def format_config(cfg: dict) -> str:
    lines = []
    for section, keys in SCHEMA.items():
        lines.append(f"[{section}]")
        for key, (tag, _) in keys.items():
            lines.append(f"{key} = {_format_value(tag, cfg[section][key])}")
        lines.append("")
    return "\n".join(lines)


def load_config(path) -> dict:
    return parse_config(read_text(path, "config"), source=str(path))
