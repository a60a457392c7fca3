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
from contextlib import contextmanager
from dataclasses import dataclass, field, fields
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
        # where they are written; so is every optional field left unset
        return {f.name: getattr(self, f.name) for f in fields(self)
                if f.name != "output_dir" and getattr(self, f.name) is not None}

    @property
    def config_hash(self):
        blob = json.dumps(self.to_dict(), sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()[:16]


def _check_value(value, default, path):
    """Check a field the user gave against the kind of its default.

    A float is a tolerance, an integer other than the seed counts something,
    a model or codebook is built, an object of models has each entry built,
    and a config is resolved. Errors carry ``path``.
    """
    if isinstance(default, float):
        # json reads NaN and Infinity, and a bool is an int
        if (isinstance(value, bool) or not isinstance(value, (int, float))
                or not 0 < value < math.inf):
            raise ConfigError(f"{path}: must be a positive finite number, got {value!r}")
    elif isinstance(default, int):
        minimum = 0 if path == "seed" else 1
        if not isinstance(value, int) or isinstance(value, bool):
            raise ConfigError(f"{path}: expected an integer, got {value!r}")
        if value < minimum:
            raise ConfigError(f"{path}: must be >= {minimum}, got {value}")
    elif "type" in default or "code" in default or "experiment" in default:
        build = (model_from_config if "type" in default
                 else word_function_from_config if "code" in default else resolve_config)
        try:
            build(value)
        except ConfigError as exc:
            raise ConfigError(f"{path}: {exc}") from exc
    elif default and all(isinstance(d, dict) and "type" in d for d in default.values()):
        if not isinstance(value, dict):
            raise ConfigError(f"{path}: expected an object of models")
        for name, item in value.items():
            _check_value(item, next(iter(default.values())), f"{path}.{name}")


def resolve_config(raw):
    """Validate a raw config dict, fill defaults, and return ExperimentConfig.

    An experiment takes ``experiment``, ``output_dir``, ``format`` and the
    top-level keys of its defaults. Error messages carry the JSON path of the
    offending field.
    """
    if not isinstance(raw, dict):
        raise ConfigError("config: expected a JSON object")
    name = raw.get("experiment")
    if not isinstance(name, str) or name not in REGISTRY:
        raise ConfigError(
            f"experiment: unknown name {name!r}; valid names: {sorted(REGISTRY)}"
        )
    defaults = EXPERIMENT_DEFAULTS[name]
    valid = sorted({"experiment", "output_dir", "format", *defaults})
    unknown = sorted(set(raw) - set(valid))
    if unknown:
        raise ConfigError(f"config: unknown fields {unknown} of {name}; valid fields: {valid}")
    merged = {**defaults, **raw}
    for key, kind in (("tolerances", "tolerance"), ("params", "parameter")):
        given = raw.get(key, {})
        if not isinstance(given, dict):
            raise ConfigError(f"{key}: expected an object")
        for field_name, value in given.items():
            if field_name not in defaults[key]:
                raise ConfigError(f"{key}.{field_name}: not a {kind} of {name}; "
                                  f"valid keys: {sorted(defaults[key])}")
            _check_value(value, defaults[key][field_name], f"{key}.{field_name}")
        merged[key] = {**defaults[key], **given}
    for key, value in raw.items():
        if key in defaults and key not in ("tolerances", "params"):
            _check_value(value, defaults[key], key)
    fmt = merged.get("format", "csv")
    if not isinstance(fmt, str) or fmt not in TABLE_WRITERS:
        raise ConfigError(f"format: expected 'csv' or 'jsonl', got {fmt!r}")
    out_dir = merged.get("output_dir")
    if out_dir is not None and not (isinstance(out_dir, str) and out_dir):
        raise ConfigError(f"output_dir: expected a directory path, got {out_dir!r}")

    return ExperimentConfig(
        experiment=name,
        seed=merged["seed"],
        model=merged.get("model"),
        codebook=merged.get("codebook"),
        horizon=merged.get("horizon"),
        paths=merged.get("paths"),
        tolerances=merged["tolerances"],
        params=merged["params"],
        output_dir=out_dir,
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


@contextmanager
def writing_results(path):
    """Report an OSError while writing results to ``path`` as a ConfigError
    naming it; a reader closing stdout early stays a BrokenPipeError."""
    try:
        yield
    except BrokenPipeError:
        raise
    except OSError as exc:
        raise ConfigError(f"cannot write results to {path}: {exc}") from exc


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
    error, resource error) is applied by the CLI wrapper, not here. An output
    directory under a file is refused before the experiment runs; a write
    that fails raises a ConfigError naming the path.
    """
    fn = REGISTRY[config.experiment]
    out_dir = Path(
        config.output_dir
        or os.environ.get(OUTPUT_DIR_ENV)
        or "results"
    )
    with writing_results(out_dir):
        # the check creates nothing, so a run that raises leaves no directory
        nearest = next((d for d in (out_dir, *out_dir.parents) if d.exists()), out_dir)
        if not nearest.is_dir():
            raise NotADirectoryError(f"{nearest} is not a directory")
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
    with writing_results(out_dir):
        # made only now, so a run that raises leaves no directory behind
        out_dir.mkdir(parents=True, exist_ok=True)
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
