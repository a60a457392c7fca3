"""Config loading, experiment dispatch, and deterministic result emission.

Configs are plain JSON. ``resolve_config`` validates a raw dict against the
schema, fills in the experiment's documented defaults, and reports problems
with the JSON path of the offending field. ``run_experiment`` dispatches to
the named experiment and writes one summary JSON plus one CSV (or JSONL) per
table into the output directory.

Result files never contain wall-clock data: identical config and seed give
byte-identical files. Timing lives only in the returned RunManifest.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import time
from dataclasses import dataclass, field
from pathlib import Path

from . import __version__
from .errors import ConfigError
from .experiments import REGISTRY
from .sources import model_from_config
from .wordcode import word_function_from_config

OUTPUT_DIR_ENV = "WORDSOURCE_OUT"

FAIR_COIN = {"type": "iid", "dist": [0.5, 0.5]}
BIASED_IID = {"type": "iid", "dist": [0.9, 0.1]}
MIXTURE_HALF = {
    "type": "mixture",
    "weights": [0.5, 0.5],
    "components": [FAIR_COIN, BIASED_IID],
}
APERIODIC_MARKOV = {"type": "markov", "P": [[0.9, 0.1], [0.5, 0.5]], "init": [1.0, 0.0]}
PERIODIC_MARKOV = {"type": "markov", "P": [[0.0, 1.0], [1.0, 0.0]], "init": [1.0, 0.0]}
CODE_PREFIX_FREE = {"input_alphabet": 2, "output_alphabet": 2, "code": ["0", "10"]}
CODE_NON_PREFIX_FREE = {"input_alphabet": 2, "output_alphabet": 2, "code": ["0", "00"]}

# Documented defaults, merged under the user's config per experiment.
EXPERIMENT_DEFAULTS = {
    "dp-oracle": {
        "seed": 20260701,
        "tolerances": {"log_abs": 1e-10},
        "params": {"pairs": 50, "max_block": 8},
    },
    "aep-prefix-free": {
        "seed": 42,
        "model": FAIR_COIN,
        "codebook": CODE_PREFIX_FREE,
        "horizon": 10_000,
        "paths": 100,
        "tolerances": {"equality": 0.02, "conditional_entropy": 0.01},
        "params": {"block_cap": 14},
    },
    "aep-non-prefix-free": {
        "seed": 42,
        "model": FAIR_COIN,
        "codebook": CODE_NON_PREFIX_FREE,
        "horizon": 10_000,
        "paths": 100,
        "tolerances": {"equality": 0.02},
        "params": {},
    },
    "aep-mixture": {
        "seed": 1202,
        "model": MIXTURE_HALF,
        "codebook": CODE_PREFIX_FREE,
        "horizon": 10_000,
        "paths": 200,
        "tolerances": {"equality": 0.03, "cluster_weight": 0.1},
        "params": {},
    },
    "conservation": {
        "seed": 0,
        "model": MIXTURE_HALF,
        "codebook": CODE_PREFIX_FREE,
        "tolerances": {"conservation": 0.05},
        "params": {"block_cap": 14},
    },
    "ams-markov": {
        "seed": 0,
        "horizon": 10_000,
        "tolerances": {"cesaro": 1e-3},
        "params": {
            "periodic_model": PERIODIC_MARKOV,
            "aperiodic_model": APERIODIC_MARKOV,
            "per_step_count": 50,
        },
    },
    "output-ergodicity": {
        "seed": 777,
        "codebook": CODE_PREFIX_FREE,
        "horizon": 10_000,
        "tolerances": {"spread": 0.02, "convergence": 0.02, "control_min_spread": 0.1},
        "params": {
            "models": {
                "fair-coin": FAIR_COIN,
                "aperiodic": APERIODIC_MARKOV,
                "periodic": PERIODIC_MARKOV,
            },
            "mixture_model": MIXTURE_HALF,
            "max_order": 3,
            "battery_paths": 10,
            "spread_paths": 100,
            "control_paths": 200,
        },
    },
    "coder-equivalence": {
        "seed": 31337,
        "horizon": 10_000,
        "tolerances": {},
        "params": {"trials": 1000, "full_horizon_trials": 50},
    },
    "bellow": {
        "seed": 9,
        "horizon": 100_000,
        "tolerances": {"limit": 0.01, "special": 1e-3},
        "params": {"cases": 100},
    },
    "log-identity": {
        "seed": 0,
        "model": FAIR_COIN,
        "codebook": CODE_PREFIX_FREE,
        "tolerances": {"log_abs": 1e-12},
        "params": {
            "non_prefix_free_codebook": CODE_NON_PREFIX_FREE,
            "max_tuple_length": 8,
        },
    },
    "determinism": {
        "seed": 0,
        "tolerances": {},
        "params": {
            "inner": {
                "experiment": "bellow",
                "seed": 9,
                "horizon": 10_000,
                "params": {"cases": 20},
            }
        },
    },
}

_ALLOWED_KEYS = {
    "experiment", "seed", "model", "codebook", "horizon", "paths",
    "tolerances", "params", "output_dir", "format",
}


@dataclass
class ExperimentConfig:
    """A fully resolved, validated experiment description."""

    experiment: str
    seed: int
    model: dict | None = None
    codebook: dict | None = None
    horizon: int | None = None
    paths: int | None = None
    tolerances: dict = field(default_factory=dict)
    params: dict = field(default_factory=dict)
    output_dir: str | None = None
    format: str = "csv"

    def to_dict(self):
        # output_dir is deliberately left out: results must not depend on
        # where they are written
        out = {
            "experiment": self.experiment,
            "seed": self.seed,
            "tolerances": self.tolerances,
            "params": self.params,
            "format": self.format,
        }
        for key in ("model", "codebook", "horizon", "paths"):
            value = getattr(self, key)
            if value is not None:
                out[key] = value
        return out

    @property
    def config_hash(self):
        blob = json.dumps(self.to_dict(), sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()[:16]


def _require_int(value, path, minimum=None):
    if not isinstance(value, int) or isinstance(value, bool):
        raise ConfigError(f"{path}: expected an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise ConfigError(f"{path}: must be >= {minimum}, got {value}")
    return value


def _check_spec(value, default, path):
    """Build ``value`` if ``default`` is a model or codebook spec, or an object of models."""
    if not isinstance(default, dict):
        return
    if "type" in default or "code" in default:
        try:
            (model_from_config if "type" in default else word_function_from_config)(value)
        except ConfigError as exc:
            raise ConfigError(f"{path}: {exc}") from exc
    elif default and all(isinstance(d, dict) and "type" in d for d in default.values()):
        if not isinstance(value, dict):
            raise ConfigError(f"{path}: expected an object of models")
        for name, item in value.items():
            _check_spec(item, FAIR_COIN, f"{path}.{name}")


def resolve_config(raw):
    """Validate a raw config dict, fill defaults, and return ExperimentConfig.

    Error messages carry the JSON path of the offending field.
    """
    if not isinstance(raw, dict):
        raise ConfigError("config: expected a JSON object")
    unknown = set(raw) - _ALLOWED_KEYS
    if unknown:
        raise ConfigError(f"config: unknown fields {sorted(unknown)}")
    name = raw.get("experiment")
    if name not in REGISTRY:
        raise ConfigError(
            f"experiment: unknown name {name!r}; valid names: {sorted(REGISTRY)}"
        )
    defaults = EXPERIMENT_DEFAULTS[name]
    merged = {**defaults, **{k: v for k, v in raw.items() if k != "experiment"}}
    for key, kind in (("tolerances", "tolerance"), ("params", "parameter")):
        given = raw.get(key, {})
        if not isinstance(given, dict):
            raise ConfigError(f"{key}: expected an object")
        for field_name in given:
            if field_name not in defaults[key]:
                raise ConfigError(f"{key}.{field_name}: not a {kind} of {name}; "
                                  f"valid keys: {sorted(defaults[key])}")
        merged[key] = {**defaults[key], **given}
    for key, value in raw.get("params", {}).items():
        default = defaults["params"][key]
        if isinstance(default, int) and not isinstance(default, bool):
            # every integer parameter counts something
            _require_int(value, f"params.{key}", minimum=1)
        _check_spec(value, default, f"params.{key}")

    seed = _require_int(merged.get("seed"), "seed", minimum=0)
    horizon = merged.get("horizon")
    if horizon is not None:
        horizon = _require_int(horizon, "horizon", minimum=1)
    paths = merged.get("paths")
    if paths is not None:
        paths = _require_int(paths, "paths", minimum=1)
    tolerances = merged["tolerances"]
    for key, value in tolerances.items():
        # json reads NaN and Infinity, and a bool is an int
        if (isinstance(value, bool) or not isinstance(value, (int, float))
                or not 0 < value < math.inf):
            raise ConfigError(f"tolerances.{key}: must be a positive finite number, "
                              f"got {value!r}")
    fmt = merged.get("format", "csv")
    if fmt not in TABLE_WRITERS:
        raise ConfigError(f"format: expected 'csv' or 'jsonl', got {fmt!r}")

    for key, default in (("model", FAIR_COIN), ("codebook", CODE_PREFIX_FREE)):
        if merged.get(key) is not None:
            _check_spec(merged[key], default, key)

    return ExperimentConfig(
        experiment=name,
        seed=seed,
        model=merged.get("model"),
        codebook=merged.get("codebook"),
        horizon=horizon,
        paths=paths,
        tolerances=tolerances,
        params=merged["params"],
        output_dir=merged.get("output_dir"),
        format=fmt,
    )


def read_json(path, name):
    """The JSON document in the file at ``path``; errors name it as ``name``."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read {name} {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{name} {path} is not valid JSON: {exc}") from exc


def validate_config(path, overrides=None):
    """Load and resolve a config file, reporting schema problems by JSON path.

    ``overrides`` replace top-level fields of the file and are validated
    with them.
    """
    raw = read_json(path, "config")
    if overrides and isinstance(raw, dict):
        raw = {**raw, **overrides}
    return resolve_config(raw)


def _format_cell(value):
    if isinstance(value, float):
        return repr(value)
    return str(value)


def write_table_csv(path, columns, rows):
    lines = [",".join(columns)]
    for row in rows:
        lines.append(",".join(_format_cell(v) for v in row))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_table_jsonl(path, columns, rows):
    lines = [
        json.dumps(dict(zip(columns, row)), sort_keys=True) for row in rows
    ]
    Path(path).write_text("\n".join(lines) + ("\n" if lines else ""), encoding="utf-8")


# table format -> writer; the format name is also the file extension
TABLE_WRITERS = {"csv": write_table_csv, "jsonl": write_table_jsonl}


@dataclass(frozen=True)
class RunManifest:
    """What a run produced; wall time never reaches the result files."""

    experiment: str
    config_hash: str
    artifact_version: str
    passed: bool
    wall_time_s: float
    output_files: tuple


def run_experiment(config):
    """Dispatch to the named experiment and write its result files.

    Returns a RunManifest. The exit-status policy (verdict failure, config
    error, resource error) is applied by the CLI wrapper, not here.
    """
    fn = REGISTRY[config.experiment]
    out_dir = Path(
        config.output_dir
        or os.environ.get(OUTPUT_DIR_ENV)
        or "results"
    )
    out_dir.mkdir(parents=True, exist_ok=True)
    start = time.perf_counter()
    result = fn(config)
    elapsed = time.perf_counter() - start
    files = []
    summary_doc = {
        "experiment": result.name,
        "passed": result.passed,
        "config": config.to_dict(),
        "summary": result.summary,
        "artifact_version": __version__,
    }
    summary_path = out_dir / f"{result.name}.summary.json"
    summary_path.write_text(
        json.dumps(summary_doc, sort_keys=True, indent=2) + "\n", encoding="utf-8"
    )
    files.append(str(summary_path))
    for table_name, (columns, rows) in result.tables.items():
        table_path = out_dir / f"{result.name}.{table_name}.{config.format}"
        TABLE_WRITERS[config.format](table_path, columns, rows)
        files.append(str(table_path))
    return RunManifest(
        experiment=result.name,
        config_hash=config.config_hash,
        artifact_version=__version__,
        passed=result.passed,
        wall_time_s=elapsed,
        output_files=tuple(files),
    )
