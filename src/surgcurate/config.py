"""Layered configuration: flags > environment > config file > defaults.

The config file is INI: one section per subcommand plus an optional
[global] section. Environment variables use the SURGCURATE_ prefix with
the key upper-cased (SURGCURATE_SEED=7). SCHEMAS is the only declaration
of an option: the CLI derives its flags, help and shown defaults from it.
A command's own keys are all flags; the [global] keys are flags only on
the commands that take them and config-only elsewhere. Every value, from
a flag, the environment or the file, is parsed by the same rule, and the
resolved config is fully explicit: no unset fields survive.
"""

from __future__ import annotations

import configparser
import math
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Mapping

from .apportion import as_fraction
from .splits import parse_ratios

ENV_PREFIX = "SURGCURATE_"


class ConfigError(Exception):
    pass


def _parse_bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


def _parse_count(text: str) -> int:
    value = int(text)
    if value < 1:
        raise ValueError(f"must be >= 1, got {value}")
    return value


def _parse_tolerance(text: str) -> float:
    value = float(text)
    # -0.0 too: the tree header stores the sign, so "-0" would fork the tree bytes from "0"
    if not math.isfinite(value) or math.copysign(1.0, value) < 0:
        raise ValueError(f"must be a finite number >= 0, got {text!r}")
    return value


def _parse_workers(text: str) -> int:
    value = int(text)
    if value < 0:
        raise ValueError(f"must be >= 0 (0 = all cores), got {value}")
    return value


def _parse_levels(text: str) -> list[int]:
    sizes = [int(p) for p in str(text).split(",") if p.strip()]
    if not sizes:
        raise ValueError("levels must be a comma list of sizes")
    if min(sizes) < 1 or any(b >= a for a, b in zip(sizes, sizes[1:])):
        raise ValueError(f"levels must be sizes >= 1, finest first and strictly decreasing, got {text}")
    return sizes


def _checked_text(parse: Callable[[str], Any]) -> Callable[[str], str]:
    """A parser that rejects what `parse` rejects and keeps the text as
    written, so the run manifest records the value the user gave."""

    def check(text: str) -> str:
        parse(text)
        return text

    return check


_PARSERS: dict[str, Callable[[str], Any]] = {
    "int": int,
    "count": _parse_count,
    "tolerance": _parse_tolerance,
    "workers": _parse_workers,
    "str": str,
    "bool": _parse_bool,
    "levels": _parse_levels,
    "fraction": _checked_text(as_fraction),
    "ratios": _checked_text(parse_ratios),
}


@dataclass(frozen=True)
class Option:
    name: str
    kind: str  # key into _PARSERS
    default: Any
    help: str = ""
    choices: tuple[str, ...] = ()  # allowed values, when the set is closed


#: Every config option, per command; "global" holds the keys all commands share.
SCHEMAS: dict[str, tuple[Option, ...]] = {
    "global": (
        Option("seed", "int", 0, "Root seed; stage seeds derive from it."),
        Option("workers", "workers", 0, "Worker threads; 0 = all cores."),
    ),
    "ingest": (
        Option("dim", "count", 768, "Embedding dimension."),
    ),
    "cluster": (
        Option("levels", "levels", [25000, 5000, 1000], "Hierarchy sizes, finest first."),
        Option("tol", "tolerance", 1e-4, "Relative inertia improvement threshold."),
        Option("max_iter", "count", 100, "Lloyd iteration cap per level."),
        Option("normalize", "bool", True, "Unit-normalize rows first."),
    ),
    "curate": (
        Option("fraction", "fraction", "0.10", "Sampling budget as a fraction of the pool."),
        Option("mode", "str", "equal", "Budget split mode.", ("equal", "proportional")),
    ),
    "sample": (
        Option("p_pure", "fraction", "0.15", "Probability of a pure clinical batch."),
        Option("mix", "fraction", "0.70", "Unlabeled share of a mixed batch."),
        Option("batch", "count", 64, "Batch size."),
        Option("n", "count", 1000, "Number of batches."),
        Option("interleave", "bool", False, "Deterministic schedule instead of i.i.d. draws."),
    ),
    "split": (
        Option("ratios", "ratios", "7:2:1", "Train:val:test ratio for tier-Ours splits."),
    ),
    "evaluate": (),
    "report": (
        Option("format", "str", "markdown", "Report format.", ("markdown", "csv")),
    ),
    "stats": (
        Option("scale_comparison", "bool", False, "Append the shipped scale-comparison table."),
    ),
}


def _coerce(option: Option, raw: Any, origin: str) -> Any:
    if raw is None:
        return option.default
    if not isinstance(raw, str):
        return raw  # --x/--no-x flags arrive as bools
    try:
        value = _PARSERS[option.kind](raw)
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"{origin}: bad value for {option.name!r}: {exc}") from exc
    if option.choices and value not in option.choices:
        raise ConfigError(f"{origin}: bad value for {option.name!r}: {raw!r} is not one of {', '.join(option.choices)}")
    return value


def resolve_config(
    command: str,
    flags: Mapping[str, Any] | None = None,
    config_file: str | Path | None = None,
    env: Mapping[str, str] | None = None,
) -> dict[str, Any]:
    """Materialize the full config for one command.

    Precedence: flags > environment > config file > defaults. Unknown keys
    in the config file or flags are an error naming the key.
    """
    if command not in SCHEMAS:
        raise ConfigError(f"unknown command {command!r}")
    env = os.environ if env is None else env
    flags = flags or {}
    schema = {opt.name: opt for opt in SCHEMAS["global"] + SCHEMAS[command]}

    resolved = {name: opt.default for name, opt in schema.items()}

    if config_file is not None:
        parser = configparser.ConfigParser()
        path = Path(config_file)
        if not path.exists():
            raise ConfigError(f"config file {path} does not exist")
        parser.read(path, encoding="utf-8")
        for section in ("global", command):
            if not parser.has_section(section):
                continue
            allowed = (
                {o.name for o in SCHEMAS["global"]} if section == "global" else set(schema)
            )
            for key, raw in parser.items(section):
                if key not in allowed:
                    raise ConfigError(f"{path}: unknown key {key!r} in [{section}]")
                resolved[key] = _coerce(schema[key], raw, f"{path} [{section}]")

    for name, opt in schema.items():
        env_key = ENV_PREFIX + name.upper()
        if env_key in env:
            resolved[name] = _coerce(opt, env[env_key], f"env {env_key}")

    for key, value in flags.items():
        if key not in schema:
            raise ConfigError(f"unknown config key {key!r} for command {command!r}")
        if value is not None:
            resolved[key] = _coerce(schema[key], value, f"flag --{key.replace('_', '-')}")

    return resolved
