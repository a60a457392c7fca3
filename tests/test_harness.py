"""Config validation, experiment dispatch, result determinism, CLI exit codes."""

import dataclasses
import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from wordsource import ConfigError, TimeSubsequence, cli, entropy, ergodic, experiments, harness
from wordsource.cli import main
from wordsource.entropy import DEFAULT_ENUMERATION_CELLS, conservation_report
from wordsource.harness import (
    EXPERIMENT_DEFAULTS,
    resolve_config,
    run_experiment,
    validate_config,
)
from wordsource.sources import SourceModel, model_from_config
from wordsource.wordcode import word_function_from_config

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def test_minimal_config_fills_defaults():
    cfg = resolve_config({"experiment": "aep-prefix-free", "seed": 1})
    assert cfg.seed == 1
    assert cfg.horizon == 10_000
    assert cfg.paths == 100
    assert cfg.tolerances["equality"] == 0.02
    assert cfg.params["block_cap"] == 14
    assert cfg.model == EXPERIMENT_DEFAULTS["aep-prefix-free"]["model"]


def test_unknown_experiment_lists_valid_names():
    with pytest.raises(ConfigError, match="valid names"):
        resolve_config({"experiment": "warp-drive", "seed": 0})


def test_unknown_top_level_field_rejected():
    with pytest.raises(ConfigError, match="unknown fields"):
        resolve_config({"experiment": "bellow", "seed": 0, "horizons": [1]})


# the top-level fields each experiment never reads, with a value it would accept
UNREAD_FIELDS = {
    "dp-oracle": ("model", "codebook", "horizon", "paths"),
    "determinism": ("model", "codebook", "horizon", "paths"),
    "conservation": ("horizon", "paths"),
    "log-identity": ("horizon", "paths"),
    "ams-markov": ("model", "codebook", "paths"),
    "coder-equivalence": ("model", "codebook", "paths"),
    "bellow": ("model", "codebook", "paths"),
    "output-ergodicity": ("model", "paths"),
}
FIELD_VALUES = {
    "model": {"type": "iid", "dist": [0.5, 0.5]},
    "codebook": {"input_alphabet": 2, "output_alphabet": 2, "code": ["0", "10"]},
    "horizon": 1000,
    "paths": 5,
}


@pytest.mark.parametrize("experiment, key", [
    (experiment, key) for experiment, keys in UNREAD_FIELDS.items() for key in keys
])
def test_field_an_experiment_does_not_read_is_rejected(tmp_path, capsys, experiment, key):
    # a field the run never reads would still be echoed and hashed as if it mattered
    cfg = tmp_path / "unread.json"
    cfg.write_text(json.dumps({"experiment": experiment, "seed": 0, key: FIELD_VALUES[key],
                               "output_dir": str(tmp_path / "out")}))
    assert main(["run", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert f"config: unknown fields ['{key}'] of {experiment}; valid fields: " in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("key, value, message", [
    ("horizon", None, "horizon: expected an integer, got None"),
    ("horizon", "100", "horizon: expected an integer, got '100'"),
    ("paths", None, "paths: expected an integer, got None"),
    ("paths", 2.5, "paths: expected an integer, got 2.5"),
    ("paths", 0, "paths: must be >= 1, got 0"),
    ("seed", None, "seed: expected an integer, got None"),
    ("model", None, "model: model config must be a dict"),
    ("model", "iid", "model: model config must be a dict"),
    ("codebook", None, "codebook: codebook config must be a dict"),
    ("codebook", ["0", "10"], "codebook: codebook config must be a dict"),
    # unhashable names and formats, and a directory that is not a path, are
    # refused before the experiment runs
    ("experiment", ["bellow"], "experiment: unknown name ['bellow']; valid names: "),
    ("format", ["csv"], "format: expected 'csv' or 'jsonl', got ['csv']"),
    ("format", {"a": 1}, "format: expected 'csv' or 'jsonl', got {'a': 1}"),
    ("output_dir", 5, "output_dir: expected a directory path, got 5"),
    # an empty directory once fell back to $WORDSOURCE_OUT or ./results
    ("output_dir", "", "output_dir: expected a directory path, got ''"),
])
def test_null_or_mistyped_field_names_its_path(tmp_path, capsys, key, value, message):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"experiment": "aep-prefix-free", "seed": 0,
                               "output_dir": str(tmp_path / "out"), key: value}))
    assert main(["run", "--config", str(cfg)]) == 2
    assert f"config error: {message}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_run_flag_for_a_field_the_experiment_does_not_read_is_rejected(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["run", "--config", str(CONFIG_DIR / "conservation_mixture.json"),
                 "--horizon", "5", "--out", str(out)]) == 2
    assert "unknown fields ['horizon'] of conservation" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("inner, message", [
    ({"experiment": "bellow", "horizon": 0}, "params.inner: horizon: must be >= 1, got 0"),
    ({"experiment": "bellow", "paths": 3}, "params.inner: config: unknown fields ['paths']"),
    ({"experiment": "warp-drive"}, "params.inner: experiment: unknown name 'warp-drive'"),
    ([1], "params.inner: config: expected a JSON object"),
])
def test_bad_determinism_inner_config_rejected_before_any_run(tmp_path, capsys, inner, message):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"experiment": "determinism", "params": {"inner": inner},
                               "output_dir": str(tmp_path / "out")}))
    assert main(["run", "--config", str(cfg)]) == 2
    assert f"config error: {message}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


# config_hash of each shipped config, as the releases before the schema
# narrowed to the fields each experiment reads wrote it
SHIPPED_CONFIG_HASHES = {
    "aep_mixture": "c7ec28d015805d86",
    "aep_non_prefix_free": "a1e5d00efa5e1674",
    "aep_prefix_free": "c03ad4bb5ef092bf",
    "ams_markov": "7714f2c311282195",
    "bellow": "559b74f8da799f84",
    "coder_equivalence": "a71ec912cb661633",
    "conservation_mixture": "2474134ef246ef7e",
    "determinism": "700bd890099b2f13",
    "dp_oracle": "4dab20d6cb3a93ee",
    "log_identity": "88de028467e8dab8",
    "output_ergodicity": "48933f5a69f50ae8",
}


def test_shipped_config_hashes_pinned():
    assert {path.stem: validate_config(path).config_hash
            for path in CONFIG_DIR.glob("*.json")} == SHIPPED_CONFIG_HASHES


def test_bad_distribution_rejected_with_field_name():
    with pytest.raises(ConfigError, match="model"):
        resolve_config({
            "experiment": "aep-prefix-free", "seed": 0,
            "model": {"type": "iid", "dist": [0.5, 0.48]},
        })


def test_bad_codeword_rejected():
    with pytest.raises(ConfigError, match="codebook"):
        resolve_config({
            "experiment": "aep-prefix-free", "seed": 0,
            "codebook": {"input_alphabet": 2, "output_alphabet": 2, "code": ["0", "12"]},
        })


@pytest.mark.parametrize("params, message", [
    ({"casez": 3}, "params.casez: not a parameter"),
    ({"pairs": "x"}, "params.pairs: expected an integer"),
    ({"pairs": True}, "params.pairs: expected an integer"),
    ({"pairs": -3}, "params.pairs: must be >= 1"),
    ({"max_block": 0}, "params.max_block: must be >= 1"),
])
def test_bad_params_rejected_with_field_name(tmp_path, capsys, params, message):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"experiment": "dp-oracle", "seed": 0, "params": params,
                               "output_dir": str(tmp_path / "out")}))
    assert main(["run", "--config", str(cfg)]) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


BAD_IID = {"type": "iid", "dist": [0.5, 0.4]}
RAGGED_MARKOV = {"type": "markov", "P": [[0.5, 0.5], [1.0]], "init": [1.0, 0.0]}
BAD_SIZE_CODEBOOK = {"input_alphabet": "x", "output_alphabet": 2, "code": ["0", "10"]}


@pytest.mark.parametrize("experiment, params, message", [
    ("output-ergodicity", {"models": {"fair-coin": BAD_IID}}, "params.models.fair-coin: "),
    ("output-ergodicity", {"models": [BAD_IID]}, "params.models: expected an object"),
    ("output-ergodicity", {"mixture_model": {"type": "mixture", "weights": [1.0]}},
     "params.mixture_model: mixture model config needs a 'components' field"),
    ("ams-markov", {"periodic_model": {"type": "markov", "P": [[0, 1], [1, 0]]}},
     "params.periodic_model: markov model config needs a 'init' field"),
    ("ams-markov", {"aperiodic_model": BAD_IID}, "params.aperiodic_model: "),
    ("log-identity", {"non_prefix_free_codebook": {"input_alphabet": 2, "output_alphabet": 2,
                                                   "code": ["0", "12"]}},
     "params.non_prefix_free_codebook: "),
    ("ams-markov", {"aperiodic_model": {"type": "iid", "dist": "ab"}},
     "params.aperiodic_model: iid distribution: "),
    ("ams-markov", {"periodic_model": RAGGED_MARKOV}, "params.periodic_model: transition matrix"),
    ("log-identity", {"non_prefix_free_codebook": BAD_SIZE_CODEBOOK},
     "params.non_prefix_free_codebook: codebook 'input_alphabet'"),
])
def test_bad_model_params_rejected_before_any_work(tmp_path, capsys, experiment, params,
                                                   message):
    # model- and codebook-valued params are built when the config is resolved
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"experiment": experiment, "seed": 0, "params": params,
                               "output_dir": str(tmp_path / "out")}))
    assert main(["run", "--config", str(cfg)]) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_unknown_tolerance_rejected_with_field_name(tmp_path, capsys):
    # a misspelt tolerance would otherwise leave the real one at its default
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"experiment": "aep-prefix-free", "seed": 0,
                               "tolerances": {"equalty": 0.5},
                               "output_dir": str(tmp_path / "out")}))
    assert main(["run", "--config", str(cfg)]) == 2
    assert "tolerances.equalty: not a tolerance of aep-prefix-free" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("value", [True, math.nan, math.inf, -math.inf])
def test_boolean_or_non_finite_tolerance_rejected(tmp_path, capsys, value):
    # json writes and reads NaN and Infinity; true would run as tolerance 1.0
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"experiment": "dp-oracle", "seed": 0,
                               "tolerances": {"log_abs": value},
                               "output_dir": str(tmp_path / "out")}))
    assert main(["run", "--config", str(cfg)]) == 2
    assert "tolerances.log_abs: must be a positive finite number" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("experiment, section, key, value, message", [
    ("aep-prefix-free", "params", "min_within", 95,
     "params.min_within: not a parameter of aep-prefix-free"),
    ("aep-mixture", "tolerances", "cluster", 0.03,
     "tolerances.cluster: not a tolerance of aep-mixture"),
])
def test_second_aep_verdict_keys_rejected(tmp_path, capsys, experiment, section, key, value,
                                          message):
    # each AEP path is judged once, by aep_experiment at the equality tolerance
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"experiment": experiment, "seed": 0, section: {key: value},
                               "output_dir": str(tmp_path / "out")}))
    assert main(["run", "--config", str(cfg)]) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_cli_internal_fault_exit_code(monkeypatch, capsys):
    from wordsource import cli

    def fault(args):
        raise ArithmeticError("log probability 0.5 exceeds 0 beyond numerical slack")

    monkeypatch.setattr(cli, "cmd_check_prefix", fault)
    assert main(["check-prefix", "--codebook", CODEBOOK]) == 4
    assert "internal error: ArithmeticError: log probability 0.5" in capsys.readouterr().err


def test_nonpositive_tolerance_rejected():
    with pytest.raises(ConfigError, match="tolerances"):
        resolve_config({"experiment": "bellow", "seed": 0,
                        "tolerances": {"limit": 0.0}})


def test_near_one_distribution_renormalized():
    cfg = resolve_config({
        "experiment": "aep-prefix-free", "seed": 0,
        "model": {"type": "iid", "dist": [0.5 + 1e-10, 0.5]},
    })
    assert cfg.model["dist"][0] == 0.5 + 1e-10  # raw config kept; model normalises


def test_validate_config_reads_shipped_files():
    for path in sorted(CONFIG_DIR.glob("*.json")):
        cfg = validate_config(path)
        assert cfg.experiment
        assert isinstance(cfg.seed, int)


def test_validate_config_missing_file():
    with pytest.raises(ConfigError):
        validate_config("/nonexistent/nope.json")


def test_run_experiment_writes_results(tmp_path):
    cfg = resolve_config({
        "experiment": "ams-markov", "seed": 0, "output_dir": str(tmp_path),
    })
    manifest = run_experiment(cfg)
    assert manifest.passed
    assert (tmp_path / "ams-markov.summary.json").exists()
    assert (tmp_path / "ams-markov.cesaro.csv").exists()
    doc = json.loads((tmp_path / "ams-markov.summary.json").read_text())
    assert doc["passed"] is True
    assert doc["config"]["experiment"] == "ams-markov"
    assert "output_dir" not in doc["config"]


def test_run_twice_byte_identical(tmp_path):
    files = {}
    for tag in ("a", "b"):
        cfg = resolve_config({
            "experiment": "bellow", "seed": 9, "horizon": 5000,
            "params": {"cases": 10}, "output_dir": str(tmp_path / tag),
        })
        run_experiment(cfg)
        files[tag] = {
            p.name: p.read_bytes() for p in sorted((tmp_path / tag).glob("*"))
        }
    assert files["a"] == files["b"]


def test_jsonl_format(tmp_path):
    cfg = resolve_config({
        "experiment": "ams-markov", "seed": 0,
        "output_dir": str(tmp_path), "format": "jsonl",
    })
    run_experiment(cfg)
    lines = (tmp_path / "ams-markov.cesaro.jsonl").read_text().splitlines()
    row = json.loads(lines[0])
    assert set(row) == {"n", "cesaro_average"}


def test_output_dir_env_override(tmp_path, monkeypatch):
    monkeypatch.setenv("WORDSOURCE_OUT", str(tmp_path / "env_out"))
    cfg = resolve_config({"experiment": "ams-markov", "seed": 0})
    manifest = run_experiment(cfg)
    assert all(f.startswith(str(tmp_path / "env_out")) for f in manifest.output_files)


# -- CLI ------------------------------------------------------------------------

CODEBOOK = '{"input_alphabet":2,"output_alphabet":2,"code":["0","10"]}'
MODEL = '{"type":"iid","dist":[0.5,0.5]}'


def test_cli_check_prefix(capsys):
    assert main(["check-prefix", "--codebook", CODEBOOK]) == 0
    out = capsys.readouterr().out
    assert "prefix_free: True" in out


def test_cli_encode_decode(capsys):
    assert main(["encode", "--codebook", CODEBOOK, "--input", "101"]) == 0
    assert "10010" in capsys.readouterr().out
    assert main(["decode", "--codebook", CODEBOOK, "--input", "10010"]) == 0
    out = capsys.readouterr().out
    assert "101" in out and "consumed: 5" in out


def test_cli_decode_error_exit_code(capsys):
    assert main(["decode", "--codebook", CODEBOOK, "--input", "11"]) == 2
    assert "input error" in capsys.readouterr().err


def test_cli_induced_prob(capsys):
    # every line is a plain float repr, never a numpy scalar's
    assert main(["induced-prob", "--model", MODEL, "--codebook", CODEBOOK,
                 "--block", "10"]) == 0
    assert capsys.readouterr().out.splitlines() == [
        f"log_probability_nats: {math.log(0.5)!r}",
        "log2_probability: -1.0",
        "probability: 0.5",
    ]


@pytest.mark.parametrize("argv, message", [
    (["induced-prob", "--model", '{"type":"iid","dist":"ab"}', "--codebook", CODEBOOK,
      "--block", "0"], "iid distribution: "),
    (["induced-prob", "--model", json.dumps(RAGGED_MARKOV), "--codebook", CODEBOOK,
      "--block", "0"], "transition matrix"),
    (["check-prefix", "--codebook", json.dumps(BAD_SIZE_CODEBOOK)], "codebook 'input_alphabet'"),
    # a size that is not an integer is rejected, never truncated or parsed
    (["check-prefix", "--codebook", json.dumps({**BAD_SIZE_CODEBOOK, "input_alphabet": 2.7})],
     "codebook 'input_alphabet'"),
    (["check-prefix", "--codebook", json.dumps({**BAD_SIZE_CODEBOOK, "input_alphabet": "2"})],
     "codebook 'input_alphabet'"),
    (["check-prefix", "--codebook", json.dumps({**BAD_SIZE_CODEBOOK, "input_alphabet": 2,
                                                "output_alphabet": 2.0})],
     "codebook 'input_alphabet'"),
    # only ASCII 0-9 are symbols: '²' is a digit to str.isdigit, not to int()
    (["encode", "--codebook", CODEBOOK, "--input", "0\u00b2"],
     "expected a string of digit symbols, got '0\u00b2'"),
    (["check-prefix", "--codebook",
      '{"input_alphabet":2,"output_alphabet":2,"code":["0","\u00b2"]}'],
     "code[1] contains a non-digit character"),
    # a model or codebook config has exactly its type's fields, each named when wrong
    (["induced-prob", "--model", '{"type":"mixture","weights":[1.0],"components":5}',
      "--codebook", CODEBOOK, "--block", "0"], "'components' must be a list"),
    (["induced-prob", "--model",
      '{"type":"mixture","weights":[1.0],"components":{"a":{"type":"iid","dist":[0.5,0.5]}}}',
      "--codebook", CODEBOOK, "--block", "0"], "'components' must be a list"),
    (["induced-prob", "--model", '{"type":"iid","dist":[0.5,0.5],"P":[[0.9,0.1],[0.5,0.5]]}',
      "--codebook", CODEBOOK, "--block", "0"], "iid model config has an unknown field 'P'"),
    (["induced-prob", "--model", '{"type":"markov","P":[[0.9,0.1],[0.5,0.5]]}',
      "--codebook", CODEBOOK, "--block", "0"], "markov model config needs a 'init' field"),
    (["check-prefix", "--codebook",
      '{"input_alphabet":2,"output_alphabet":2,"code":["0","10"],"codes":["1"]}'],
     "codebook config has an unknown field 'codes'"),
    (["check-prefix", "--codebook", '{"input_alphabet":2,"output_alphabet":2}'],
     "codebook config needs a 'code' field"),
])
def test_cli_malformed_model_or_codebook_exit_code(capsys, argv, message):
    assert main(argv) == 2
    assert message in capsys.readouterr().err


def test_cli_degenerate_chain_exits_as_input_error(tmp_path, capsys):
    # irreducible and aperiodic by its graph, but its stationary solve fails;
    # a guessed law would give a bound near 0 and a failed verdict (exit 1)
    P = [[1 - 1e-17, 5e-18, 5e-18], [0.3, 0.3, 0.4], [1e-17, 0, 1 - 1e-17]]
    model = json.dumps({"type": "markov", "P": P, "init": [1, 0, 0]})
    codebook = '{"input_alphabet":3,"output_alphabet":2,"code":["0","10","11"]}'
    assert main(["aep", "--model", model, "--codebook", codebook, "--paths", "2",
                 "--horizon", "100", "--out", str(tmp_path / "out")]) == 2
    assert "degenerate" in capsys.readouterr().err


@pytest.mark.parametrize("case", ["directory", "invalid-json-file", "checkpoints", "stride",
                                  "empty-checkpoints", "empty-pattern"])
def test_cli_bad_argument_exit_code(tmp_path, capsys, case):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    argv, flag = {
        "directory": (["check-prefix", "--codebook", str(tmp_path)], "--codebook"),
        "invalid-json-file": (["induced-prob", "--model", str(bad), "--codebook", CODEBOOK,
                               "--block", "0"], "--model"),
        "checkpoints": (["entropy-trace", "--model", MODEL, "--horizon", "10",
                         "--checkpoints", "1,x"], "--checkpoints"),
        # an empty value is rejected, not replaced by the default
        "empty-checkpoints": (["entropy-trace", "--model", MODEL, "--horizon", "10",
                               "--checkpoints", ""],
                              "--checkpoints must be comma-separated integers, got ''"),
        "empty-pattern": (["ergodic-check", "--model", MODEL, "--paths", "2",
                           "--horizon", "10", "--pattern", ""],
                          "expected a string of digit symbols, got ''"),
        "stride": (["bellow", "--stride", "0"], "--stride"),
    }[case]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "config error: " in err and flag in err


def test_cli_bad_config_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"experiment": "nope", "seed": 0}')
    assert main(["run", "--config", str(bad)]) == 2
    assert "config error" in capsys.readouterr().err


def test_cli_negative_seed_exit_code(tmp_path, capsys):
    config = {"experiment": "bellow", "seed": -1, "horizon": 2000,
              "params": {"cases": 5}, "output_dir": str(tmp_path / "out")}
    from_file = tmp_path / "negative.json"
    from_file.write_text(json.dumps(config))
    assert main(["run", "--config", str(from_file)]) == 2
    assert "seed: must be >= 0" in capsys.readouterr().err

    # a command-line override is validated like the file it overrides
    good = tmp_path / "good.json"
    good.write_text(json.dumps({**config, "seed": 9}))
    assert main(["run", "--config", str(good), "--seed", "-1"]) == 2
    assert "seed: must be >= 0" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_cli_run_pass_and_fail_exit_codes(tmp_path, capsys):
    good = tmp_path / "good.json"
    good.write_text(json.dumps({
        "experiment": "bellow", "seed": 9, "horizon": 2000,
        "params": {"cases": 5}, "output_dir": str(tmp_path / "out"),
    }))
    assert main(["run", "--config", str(good)]) == 0

    # a prefix-free AEP config pointed at a non-prefix-free codebook fails its
    # equality verdicts: exit code 1
    failing = tmp_path / "failing.json"
    failing.write_text(json.dumps({
        "experiment": "aep-prefix-free", "seed": 0, "horizon": 200, "paths": 4,
        "codebook": {"input_alphabet": 2, "output_alphabet": 2, "code": ["0", "00"]},
        "params": {"block_cap": 8},
        "output_dir": str(tmp_path / "out2"),
    }))
    capsys.readouterr()
    assert main(["run", "--config", str(failing)]) == 1


def test_cli_log_identity_over_the_enumeration_cap_exits_as_resource_error(tmp_path, capsys):
    # 2^21 binary tuples exceed the 2^20 cap: refused before any is built
    out = tmp_path / "out"
    cfg = tmp_path / "long.json"
    cfg.write_text(json.dumps({"experiment": "log-identity",
                               "params": {"max_tuple_length": 21}}))
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert "resource error: " in err and "2097152 tuples" in err and "1048576" in err
    # the output directory is made only once the experiment has returned
    assert not out.exists()

    cfg.write_text(json.dumps({"experiment": "log-identity"}))
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0


def test_cli_run_that_raises_leaves_no_output_directory(tmp_path, capsys):
    out = tmp_path / "out"
    cfg = tmp_path / "aep.json"
    cfg.write_text(json.dumps({"experiment": "aep-prefix-free", "params": {"block_cap": 1}}))
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 2
    assert "block cap must be >= 2" in capsys.readouterr().err
    assert not out.exists()


def test_cli_coder_equivalence_short_horizon_exits_as_config_error(tmp_path, capsys):
    # trial horizons are drawn from [100, horizon]; below 100 there is no range
    cfg = tmp_path / "coder.json"
    config = {"experiment": "coder-equivalence", "horizon": 99,
              "params": {"trials": 20, "full_horizon_trials": 5}}
    cfg.write_text(json.dumps(config))
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "short")]) == 2
    assert "config error: horizon" in capsys.readouterr().err

    cfg.write_text(json.dumps({**config, "horizon": 100}))
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "ok")]) == 0


def test_cli_ams_markov_short_horizon_exits_as_input_error(tmp_path, capsys):
    # the Cesaro traces come from ams_diagnostic, which needs horizon >= 100
    out = tmp_path / "out"
    argv = ["run", "--config", str(CONFIG_DIR / "ams_markov.json"), "--out", str(out)]
    assert main(argv + ["--horizon", "50"]) == 2
    assert "horizon" in capsys.readouterr().err


def test_cli_run_keeps_config_format(tmp_path, capsys):
    cfg = tmp_path / "jsonl.json"
    cfg.write_text(json.dumps({
        "experiment": "bellow", "seed": 9, "horizon": 2000, "format": "jsonl",
        "params": {"cases": 5}, "output_dir": str(tmp_path / "out"),
    }))
    assert main(["run", "--config", str(cfg)]) == 0
    tables = sorted(p.suffix for p in (tmp_path / "out").iterdir() if p.suffix != ".json")
    assert tables and set(tables) == {".jsonl"}

    # the flag, when given, still overrides the file
    assert main(["run", "--config", str(cfg), "--format", "csv",
                 "--out", str(tmp_path / "csv")]) == 0
    tables = sorted(p.suffix for p in (tmp_path / "csv").iterdir() if p.suffix != ".json")
    assert tables and set(tables) == {".csv"}


def test_cli_resource_error_exit_code(tmp_path, capsys):
    cfg = tmp_path / "big.json"
    cfg.write_text(json.dumps({
        "experiment": "conservation", "seed": 0,
        "params": {"block_cap": 25},
        "output_dir": str(tmp_path / "out"),
    }))
    assert main(["run", "--config", str(cfg)]) == 3
    assert "resource error" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["run", "entropy-trace"])
def test_cli_allocation_refused_at_once_exits_as_resource_error(tmp_path, capsys, command):
    # each request is beyond any address space, so it fails without touching memory
    argv = {
        # np.tile of bellow's first case's gaps: over 1e15 int64 entries
        "run": ["run", "--config", str(CONFIG_DIR / "bellow.json"), "--horizon", str(10**16),
                "--out", str(tmp_path / "out")],
        # rng.random of 1e15 uniforms
        "entropy-trace": ["entropy-trace", "--model", MODEL, "--horizon", str(10**15)],
    }[command]
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert err.startswith("resource error: Unable to allocate ") and "Traceback" not in err
    assert not (tmp_path / "out").exists()


class _Built(Exception):
    """Raised by a stand-in for the indicator battery's table builder."""


def _battery_config(output_alphabet, max_order):
    code = ["0", "10"] if output_alphabet == 2 else ["0", "12"]
    return {"experiment": "output-ergodicity", "params": {"max_order": max_order},
            "codebook": {"input_alphabet": 2, "output_alphabet": output_alphabet, "code": code}}


@pytest.mark.parametrize("output_alphabet, max_order, exit_code, message", [
    # sum over k <= 10 of 2**k tables of 2**k cells
    (2, 10, 3, "resource error: params.max_order: 10 needs 1398100 indicator table cells "
               "over 2 symbols, over the cap of 1048576"),
    (3, 7, 3, "resource error: params.max_order: 7 needs 5380839 indicator table cells "
              "over 3 symbols"),
    # about 2.5 TB of cells, which would grow until the process is killed
    (3, 12, 3, "resource error: params.max_order: 12 needs 317733228540 "),
    (2, 13, 2, "input error: order must be in 1..12"),
])
def test_output_ergodicity_battery_over_the_cell_cap_builds_no_table(
        tmp_path, capsys, monkeypatch, output_alphabet, max_order, exit_code, message):
    def build(alphabet_size, order):
        raise _Built

    monkeypatch.setattr(experiments, "_indicator_battery", build)
    cfg = tmp_path / "battery.json"
    cfg.write_text(json.dumps(_battery_config(output_alphabet, max_order)))
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == exit_code
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("output_alphabet, max_order", [(2, 9), (3, 6)])
def test_output_ergodicity_battery_at_the_cell_cap_is_built(
        monkeypatch, output_alphabet, max_order):
    def build(alphabet_size, order):
        raise _Built

    monkeypatch.setattr(experiments, "_indicator_battery", build)
    with pytest.raises(_Built):
        experiments.run_output_ergodicity(resolve_config(_battery_config(output_alphabet,
                                                                         max_order)))


class _Drawn(Exception):
    """Raised by a stand-in for the sampler or for the seed of a path."""


def _refuse_to_draw(monkeypatch):
    def draw(*args, **kwargs):
        raise _Drawn

    monkeypatch.setattr(SourceModel, "sample_path", draw)
    monkeypatch.setattr(entropy, "seed_sequence", draw)
    monkeypatch.setattr(ergodic, "seed_sequence", draw)
    monkeypatch.setattr(experiments, "_indicator_battery", draw)


OVER = DEFAULT_ENUMERATION_CELLS + 1


@pytest.mark.parametrize("command", [["aep"], ["ergodic-check", "--model", MODEL]],
                         ids=["aep", "ergodic-check"])
@pytest.mark.parametrize("paths", [OVER, 10**9])
def test_path_count_over_the_cell_cap_spawns_and_samples_nothing(
        tmp_path, capsys, monkeypatch, command, paths):
    # a billion paths once spawned a billion seeds up front and grew until killed
    _refuse_to_draw(monkeypatch)
    monkeypatch.chdir(tmp_path)
    assert main([*command, "--paths", str(paths)]) == 3
    assert f"resource error: paths: {paths} is over the cap of 1048576" in capsys.readouterr().err
    assert not (tmp_path / "results").exists()


@pytest.mark.parametrize("key", ["battery_paths", "spread_paths", "control_paths"])
def test_output_ergodicity_path_count_over_the_cell_cap_spawns_and_samples_nothing(
        tmp_path, capsys, monkeypatch, key):
    _refuse_to_draw(monkeypatch)
    cfg = tmp_path / "paths.json"
    cfg.write_text(json.dumps({"experiment": "output-ergodicity", "params": {key: OVER}}))
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 3
    assert (f"resource error: params.{key}: {OVER} paths, over the cap of 1048576"
            in capsys.readouterr().err)
    assert not (tmp_path / "out").exists()


def test_path_count_at_the_cell_cap_is_drawn(monkeypatch):
    _refuse_to_draw(monkeypatch)
    fair = model_from_config({"type": "iid", "dist": [0.5, 0.5]})
    wf = word_function_from_config({"input_alphabet": 2, "output_alphabet": 2,
                                    "code": ["0", "10"]})
    with pytest.raises(_Drawn):
        entropy.aep_experiment(fair, wf, 100, DEFAULT_ENUMERATION_CELLS, seed=0)
    with pytest.raises(_Drawn):
        ergodic.ergodicity_spread(fair, ergodic.CylinderFunction.indicator(2, [0]),
                                  DEFAULT_ENUMERATION_CELLS, 100, seed=0)


def test_seed_spawned_per_path_is_the_seed_spawned_for_all_paths():
    # spawning one child per path draws the children that spawning them all at
    # once did, so every seeded path keeps its bits
    fair = model_from_config({"type": "iid", "dist": [0.5, 0.5]})
    g = ergodic.CylinderFunction.indicator(2, [0])
    finals = [fair.sample_path(50, child).symbols[:50].tolist().count(0) / 50
              for child in np.random.SeedSequence(11).spawn(6)]
    assert ergodic.ergodicity_spread(fair, g, 6, 50, seed=11).finals.tolist() == finals


@pytest.mark.parametrize("where", ["file", "under-a-file"])
def test_run_into_a_file_exits_2_before_the_experiment_runs(tmp_path, capsys, monkeypatch,
                                                              where):
    def experiment(cfg):
        raise AssertionError("the experiment ran")

    monkeypatch.setitem(harness.REGISTRY, "bellow", experiment)
    afile = tmp_path / "afile"
    afile.write_text("kept\n")
    out = afile if where == "file" else afile / "sub"
    cfg = tmp_path / "bellow.json"
    cfg.write_text(json.dumps({"experiment": "bellow", "horizon": 200,
                               "params": {"cases": 2}, "output_dir": str(out)}))
    assert main(["run", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert f"config error: cannot write results to {out}: {afile} is not a directory" in err
    assert "Traceback" not in err and afile.read_text() == "kept\n"


def test_result_file_that_cannot_be_written_exits_2(tmp_path, capsys):
    out = tmp_path / "out"
    (out / "bellow.summary.json").mkdir(parents=True)
    cfg = tmp_path / "bellow.json"
    cfg.write_text(json.dumps({"experiment": "bellow", "horizon": 200,
                               "params": {"cases": 2}, "output_dir": str(out)}))
    assert main(["run", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert f"config error: cannot write results to {out}: " in err and "Is a directory" in err
    assert "Traceback" not in err


def test_table_under_a_file_exits_2(tmp_path, capsys):
    (tmp_path / "afile").write_text("")
    out = tmp_path / "afile" / "x.csv"
    assert main(["entropy-trace", "--model", MODEL, "--horizon", "20", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"config error: cannot write results to {out}: " in err and "Not a directory" in err
    assert "Traceback" not in err


def test_closed_pipe_while_writing_results_stays_a_broken_pipe():
    with pytest.raises(BrokenPipeError):
        with harness.writing_results("out"):
            raise BrokenPipeError


def test_cli_vls_orbit(capsys):
    assert main(["vls-orbit", "--codebook", CODEBOOK, "--input",
                 "10010010010010", "--steps", "4"]) == 0
    out = capsys.readouterr().out
    assert "zeta: 0,2,3,5,6" in out


@pytest.mark.parametrize("argv", [
    ["entropy-trace", "--model", MODEL, "--horizon", "200"],
    ["vls-orbit", "--constant", "2", "--model", MODEL, "--horizon", "50"],
    ["ergodic-check", "--model", MODEL, "--paths", "2", "--horizon", "200"],
])
def test_cli_negative_seed_is_an_input_error(argv, capsys):
    assert main([*argv, "--seed", "-1"]) == 2
    assert "seed" in capsys.readouterr().err


def test_cli_vls_orbit_zero_constant_is_rejected_by_the_spec(capsys):
    assert main(["vls-orbit", "--constant", "0", "--input", "0101"]) == 2
    assert "max shift must be >= 1" in capsys.readouterr().err


def test_cli_entropy_trace(tmp_path, capsys):
    out_file = tmp_path / "trace.csv"
    assert main(["entropy-trace", "--model", MODEL, "--horizon", "200",
                 "--seed", "3", "--out", str(out_file)]) == 0
    lines = out_file.read_text().splitlines()
    assert lines[0] == "n,sample_entropy_bits"
    assert len(lines) > 5


def test_cli_version(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert "0.1.0" in capsys.readouterr().out


def test_cli_bellow_trace_lands_at_half(capsys):
    assert main(["bellow", "--horizon", "10000", "--stride", "2"]) == 0
    out = capsys.readouterr().out
    last = out.strip().splitlines()[-1]
    n, lhs, rhs = last.split(",")
    assert n == "10000"
    assert abs(float(lhs) - 0.5) <= 1e-3
    assert abs(float(rhs) - 0.5) <= 1e-3


def test_cli_aep_dispatches_on_codebook_and_model(tmp_path, capsys):
    # non-prefix-free codebook routes to the strict-inequality experiment
    assert main([
        "aep", "--codebook",
        '{"input_alphabet":2,"output_alphabet":2,"code":["0","00"]}',
        "--horizon", "200", "--paths", "3", "--seed", "5",
        "--out", str(tmp_path),
    ]) == 0
    out = capsys.readouterr().out
    assert "experiment: aep-non-prefix-free" in out

    mixture = json.dumps({
        "type": "mixture", "weights": [0.5, 0.5],
        "components": [{"type": "iid", "dist": [0.5, 0.5]},
                       {"type": "iid", "dist": [0.9, 0.1]}],
    })
    # dispatch matters here; a run this short may fail its per-path verdicts
    code = main([
        "aep", "--model", mixture, "--horizon", "3000", "--paths", "10",
        "--seed", "7", "--out", str(tmp_path),
    ])
    assert code in (0, 1)
    assert "experiment: aep-mixture" in capsys.readouterr().out


def test_cli_aep_passes_with_fewer_than_95_paths(tmp_path, capsys):
    # a passing run needs every path's verdict to be equality, however many paths
    assert main(["aep", "--paths", "20", "--out", str(tmp_path)]) == 0
    assert "passed: True" in capsys.readouterr().out


def test_aep_prefix_free_mixture_judges_each_path_by_its_component(tmp_path):
    # component 0's bound 2/3 is not the second component's: each path is judged
    # against its own component, and the block-entropy check against the integral
    model = {"type": "mixture", "weights": [0.5, 0.5],
             "components": [{"type": "iid", "dist": [0.5, 0.5]},
                            {"type": "iid", "dist": [0.6, 0.4]}]}
    cfg = resolve_config({"experiment": "aep-prefix-free", "seed": 42, "paths": 20,
                          "model": model, "output_dir": str(tmp_path)})
    assert run_experiment(cfg).passed
    summary = json.loads((tmp_path / "aep-prefix-free.summary.json").read_text())["summary"]
    cons = conservation_report(model_from_config(model), word_function_from_config(cfg.codebook),
                               block_cap=14)
    assert summary["bound"] == cons.integral_bound
    assert summary["verdicts"]["equality"] == 20


@pytest.mark.parametrize("flag, value, message", [
    ("--model", {"type": "iid", "dist": [0.5, 0.4]}, "config error: model: iid distribution: "),
    ("--codebook", {"input_alphabet": 2, "output_alphabet": 2, "code": ["0"]},
     "config error: codebook: "),
    ("--model", {"type": "iid", "dist": "ab"}, "config error: model: iid distribution: "),
    ("--model", RAGGED_MARKOV, "config error: model: transition matrix"),
    ("--codebook", BAD_SIZE_CODEBOOK, "config error: codebook: codebook 'input_alphabet'"),
])
def test_cli_aep_names_bad_model_or_codebook(tmp_path, capsys, flag, value, message):
    # the aep subcommand picks its experiment from the model and codebook, so
    # it must validate them first, as ``run`` and ``conservation`` do
    assert main(["aep", flag, json.dumps(value), "--out", str(tmp_path / "out")]) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_cli_conservation_subcommand(tmp_path, capsys):
    assert main(["conservation", "--block-cap", "10",
                 "--out", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "experiment: conservation" in out
    assert (tmp_path / "conservation.summary.json").exists()


def test_cli_conservation_block_cap_zero_is_a_config_error(tmp_path, capsys):
    # a zero cap must reach validation, not fall back to the default cap
    assert main(["conservation", "--block-cap", "0", "--out", str(tmp_path / "out")]) == 2
    assert "params.block_cap: must be >= 1, got 0" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_cli_ams_check_source_and_induced(tmp_path, capsys):
    assert main(["ams-check", "--model", MODEL, "--cylinder", "0",
                 "--horizon", "2000"]) == 0
    assert "converged True" in capsys.readouterr().out
    assert main(["ams-check", "--model", MODEL, "--codebook", CODEBOOK,
                 "--cylinder", "0", "--horizon", "500",
                 "--out", str(tmp_path / "ams.csv")]) == 0
    out = capsys.readouterr().out
    assert "cylinder 0" in out
    assert (tmp_path / "ams.csv").exists()


def test_cli_ergodic_check(capsys):
    assert main(["ergodic-check", "--model", MODEL, "--codebook", CODEBOOK,
                 "--paths", "20", "--horizon", "2000", "--seed", "1"]) == 0
    out = capsys.readouterr().out
    assert "spread:" in out


def test_cli_entropy_trace_induced(capsys):
    assert main(["entropy-trace", "--model", MODEL, "--codebook", CODEBOOK,
                 "--horizon", "3000", "--seed", "3",
                 "--checkpoints", "1000,3000"]) == 0
    out = capsys.readouterr().out
    assert "limit_estimate" in out
    final = float(out.strip().splitlines()[-2].split(",")[1])
    assert abs(final - 2 / 3) < 0.05


def test_cli_closed_stdout_exits_141_without_a_traceback():
    # the reader of a long output goes away (``| head -c 100``): SIGPIPE's
    # status, not an internal error
    root = Path(__file__).resolve().parent.parent
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    proc = subprocess.Popen(
        [sys.executable, "-m", "wordsource.cli", "vls-orbit", "--constant", "1",
         "--steps", "100000", "--horizon", "200000", "--model", MODEL],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    assert len(proc.stdout.read(100)) == 100
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=120) == 141, err
    assert "internal error" not in err and "Traceback" not in err


# -- coder equivalence: pinned bytes and mutants that must fail ----------------------

CODER_SMALL = {"experiment": "coder-equivalence", "seed": 31337, "horizon": 2000,
               "params": {"trials": 60, "full_horizon_trials": 3}}


def _digests(out_dir):
    """sha256 of each table file's bytes and of each summary's ``summary`` object."""
    digests = {}
    for path in sorted(Path(out_dir).iterdir()):
        if path.suffix == ".json":
            blob = json.dumps(json.loads(path.read_text())["summary"], sort_keys=True).encode()
        else:
            blob = path.read_bytes()
        digests[path.name] = hashlib.sha256(blob).hexdigest()
    return digests


def test_coder_equivalence_and_log_identity_bytes_pinned(tmp_path):
    # digests taken from the independent step-counting walk and the per-tuple
    # cylinder scans, so the one-walk routes must keep every byte
    run_experiment(resolve_config({**CODER_SMALL, "output_dir": str(tmp_path / "coder")}))
    assert _digests(tmp_path / "coder") == {
        "coder-equivalence.summary.json":
            "c2f533eab496bb72e0c8961049a3063061b22053e432def8622eb9eefdc146cc",
        "coder-equivalence.trials.csv":
            "f2374cd0c27ad5679aa481558ef354a95ddc8f74c8dac3e2aeebe16daf02d38d",
    }
    markov = {"type": "markov",
              "P": [[0.7504221828101406, 0.10074327667996506, 0.14883454050989428],
                    [0.33560609602741737, 0.6038074534472516, 0.06058645052533101],
                    [0.4992807669519758, 0.41766252541291515, 0.08305670763510925]],
              "init": [0.5528742744464451, 0.21068211176869944, 0.2364436137848555]}
    run_experiment(resolve_config({
        "experiment": "log-identity", "seed": 0, "model": markov,
        "codebook": {"input_alphabet": 3, "output_alphabet": 2, "code": ["0", "10", "11"]},
        "params": {"non_prefix_free_codebook": {"input_alphabet": 3, "output_alphabet": 2,
                                                "code": ["0", "01", "1"]},
                   "max_tuple_length": 5},
        "output_dir": str(tmp_path / "log")}))
    assert _digests(tmp_path / "log") == {
        "log-identity.summary.json":
            "93063b7dbf791c25c8f897f9b21ec2a4fc8a1f179cd8b508022b97b466dbab1e",
    }


def _flip_below_horizon(coder):
    def mutant(lengths, horizon, max_shift=None):
        z = coder(lengths, horizon, max_shift=max_shift)
        z[horizon // 2] ^= 1
        return z
    return mutant


def _drop_last_mark(coder):
    def mutant(lengths, horizon, max_shift=None):
        z = coder(lengths, horizon, max_shift=max_shift)
        z[np.flatnonzero(z)[-1]] = 0
        return z
    return mutant


def _skip_one_step(orbit):
    def mutant(spec, symbols, steps):
        ts = orbit(spec, symbols, steps)
        return TimeSubsequence(zeta=np.delete(ts.zeta, 1))
    return mutant


@pytest.mark.parametrize("name, mutate", [
    ("finite_state_orbit_coder", _flip_below_horizon),
    ("finite_state_orbit_coder", _drop_last_mark),
    ("variable_length_orbit", _skip_one_step),
], ids=["coder-flips-a-bit", "coder-drops-its-last-mark", "orbit-skips-a-step"])
def test_coder_equivalence_mutants_fail_the_verdict(tmp_path, capsys, monkeypatch, name, mutate):
    # a wrong mark count leaves the orbit short of the horizon: that trial is a
    # mismatch and the run exits 1, it never raises
    monkeypatch.setattr(experiments, name, mutate(getattr(experiments, name)))
    cfg = tmp_path / "coder.json"
    cfg.write_text(json.dumps(CODER_SMALL))
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 1
    assert "error" not in capsys.readouterr().err
    doc = json.loads((tmp_path / "out" / "coder-equivalence.summary.json").read_text())
    assert doc["passed"] is False and doc["summary"]["mismatches"] >= 1


# -- computed targets ------------------------------------------------------------------

def test_aep_non_prefix_free_bound_is_the_decomposition_integral(tmp_path, capsys):
    # a mixture's paths come from both components, so the summary names the
    # integral of their bounds, not the bound of whichever component path 0 drew
    model = json.dumps({"type": "mixture", "weights": [0.5, 0.5],
                        "components": [{"type": "iid", "dist": [0.5, 0.5]},
                                       {"type": "iid", "dist": [0.9, 0.1]}]})
    codebook = '{"input_alphabet":2,"output_alphabet":2,"code":["0","00"]}'
    out = tmp_path / "out"
    assert main(["aep", "--model", model, "--codebook", codebook, "--paths", "5",
                 "--horizon", "200", "--out", str(out)]) == 0
    summary = json.loads((out / "aep-non-prefix-free.summary.json").read_text())["summary"]
    h = -(0.9 * math.log2(0.9) + 0.1 * math.log2(0.1))
    assert summary["bound"] == pytest.approx(0.5 * (1 / 1.5) + 0.5 * h / 1.1, abs=1e-12)


def test_aep_non_prefix_free_code_with_equality_verdicts_passes(tmp_path, capsys):
    # {0, 01} is not prefix-free but loses no entropy: equality is no violation
    codebook = '{"input_alphabet":2,"output_alphabet":2,"code":["0","01"]}'
    out = tmp_path / "out"
    assert main(["aep", "--codebook", codebook, "--paths", "5", "--horizon", "2000",
                 "--out", str(out)]) == 0
    summary = json.loads((out / "aep-non-prefix-free.summary.json").read_text())["summary"]
    assert summary["verdicts"] == {"equality": 5, "strict_inequality": 0, "violation": 0}
    assert summary["all_sample_entropies_zero"] is False


def _spoil_last_report(**changes):
    def wrap(aep_experiment):
        def spoilt(*args, **kwargs):
            reports = aep_experiment(*args, **kwargs)
            return [*reports[:-1], dataclasses.replace(reports[-1], **changes)]
        return spoilt
    return wrap


@pytest.mark.parametrize("changes", [
    {"empirical_h": 1e-3},
    {"verdict": "violation"},
], ids=["nonzero-entropy-of-a-constant-stream", "violation"])
def test_aep_non_prefix_free_mutants_fail_the_verdict(tmp_path, capsys, monkeypatch, changes):
    # {0, 00} writes a constant stream: its sample entropy must be exactly 0
    monkeypatch.setattr(experiments, "aep_experiment",
                        _spoil_last_report(**changes)(experiments.aep_experiment))
    codebook = '{"input_alphabet":2,"output_alphabet":2,"code":["0","00"]}'
    assert main(["aep", "--codebook", codebook, "--paths", "3", "--horizon", "200",
                 "--out", str(tmp_path / "out")]) == 1
    assert "error" not in capsys.readouterr().err


TERNARY_IID = {"type": "iid", "dist": [0.2, 0.3, 0.5]}


@pytest.mark.parametrize("params, path", [
    ({"models": {"fair-coin": {"type": "iid", "dist": [0.5, 0.5]}, "ternary": TERNARY_IID}},
     "params.models.ternary"),
    ({"mixture_model": {"type": "mixture", "weights": [0.5, 0.5],
                        "components": [TERNARY_IID, TERNARY_IID]}}, "params.mixture_model"),
])
def test_output_ergodicity_model_alphabet_checked_before_sampling(tmp_path, capsys, monkeypatch,
                                                                  params, path):
    def no_sampling(*args, **kwargs):
        raise AssertionError("sampled before the alphabets were checked")

    monkeypatch.setattr(experiments, "encode_stream", no_sampling)
    cfg = tmp_path / "ternary.json"
    cfg.write_text(json.dumps({"experiment": "output-ergodicity", "params": params}))
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
    assert f"config error: {path}: a model over 3 symbols" in capsys.readouterr().err


def test_ams_markov_target_is_the_stationary_probability(tmp_path, capsys):
    ams = json.loads((CONFIG_DIR / "ams_markov.json").read_text())
    out = tmp_path / "default"
    assert main(["run", "--config", str(CONFIG_DIR / "ams_markov.json"), "--out", str(out)]) == 0
    assert json.loads((out / "ams-markov.summary.json").read_text())[
        "summary"]["aperiodic_target"] == 5.0 / 6.0
    # a moved first row moves the target from 5/6 to 5/7, and the run still passes
    cfg = tmp_path / "moved.json"
    cfg.write_text(json.dumps({**ams, "params": {
        "aperiodic_model": {"type": "markov", "P": [[0.8, 0.2], [0.5, 0.5]], "init": [1, 0]}}}))
    out = tmp_path / "moved"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
    summary = json.loads((out / "ams-markov.summary.json").read_text())["summary"]
    assert summary["aperiodic_target"] == pytest.approx(5 / 7, abs=1e-15)
    assert abs(summary["aperiodic_cesaro_final"] - 5 / 7) <= 1e-3


@pytest.mark.parametrize("model", [
    {"type": "markov", "P": [[0, 1], [1, 0]], "init": [1, 0]},
    {"type": "markov", "P": [[1, 0], [0.5, 0.5]], "init": [0, 1]},
    {"type": "iid", "dist": [0.5, 0.5]},
], ids=["periodic", "reducible", "iid"])
def test_ams_markov_needs_an_irreducible_aperiodic_chain(tmp_path, capsys, model):
    cfg = tmp_path / "ams.json"
    cfg.write_text(json.dumps({"experiment": "ams-markov", "params": {"aperiodic_model": model}}))
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "input error: " in err and "irreducible" in err


def _cycle(k, start=0):
    """The deterministic k-cycle 0 -> 1 -> .. -> k-1 -> 0, started at ``start``."""
    return {"type": "markov", "init": [float(j == start) for j in range(k)],
            "P": [[float(j == (i + 1) % k) for j in range(k)] for i in range(k)]}


@pytest.mark.parametrize("model", [_cycle(2, start=1), _cycle(3), _cycle(5, start=3)],
                         ids=["swap-from-1", "3-cycle", "5-cycle-from-3"])
def test_ams_markov_periodic_targets_are_computed(tmp_path, model):
    # the per-step values and the Cesaro limit 1/k come from the chain, so
    # every periodic 0/1 chain passes, not only the default swap from state 0
    cfg = tmp_path / "ams.json"
    cfg.write_text(json.dumps({"experiment": "ams-markov", "params": {"periodic_model": model}}))
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
    summary = json.loads((out / "ams-markov.summary.json").read_text())["summary"]
    assert summary["periodic_alternates"] and summary["periodic_cesaro_within_1_over_n"]
    k, start = len(model["P"]), model["init"].index(1.0)
    per_step = (out / "ams-markov.per_step.csv").read_text().splitlines()[1:]
    assert [float(line.split(",")[1]) for line in per_step] == [
        float((start + i) % k == 0) for i in range(len(per_step))]


@pytest.mark.parametrize("model", [
    {"type": "markov", "P": [[0, 0.5, 0.5], [1, 0, 0], [1, 0, 0]], "init": [1, 0, 0]},
    {"type": "markov", "P": [[0.5, 0.5], [0.5, 0.5]], "init": [1, 0]},
], ids=["stochastic-periodic", "aperiodic"])
def test_ams_markov_needs_a_periodic_0_1_chain(tmp_path, capsys, model):
    cfg = tmp_path / "ams.json"
    cfg.write_text(json.dumps({"experiment": "ams-markov", "params": {"periodic_model": model}}))
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
    assert "input error: params.periodic_model: " in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_empty_mixture_exits_2(capsys):
    model = json.dumps({"type": "mixture", "weights": [], "components": []})
    assert main(["induced-prob", "--model", model, "--codebook", CODEBOOK, "--block", "0"]) == 2
    assert "config error: mixture weights: " in capsys.readouterr().err


def test_dp_oracle_codes_pinned(tmp_path):
    # the codebooks dp-oracle draws at its default seed, column by column
    run_experiment(resolve_config({"experiment": "dp-oracle", "output_dir": str(tmp_path)}))
    lines = (tmp_path / "dp-oracle.pairs.csv").read_text().splitlines()
    columns = lines[0].split(",")
    code, prefix_free = columns.index("code"), columns.index("prefix_free")
    cells = [line.split(",") for line in lines[1:]]
    blob = "\n".join(f"{row[code]},{row[prefix_free]}" for row in cells).encode()
    assert len(cells) == 50
    assert (hashlib.sha256(blob).hexdigest()
            == "819656055aef4b457ccfde2ea43f63f65f8f5e88222b0b4e0bac32c7eca28b68")


OUT_COMMANDS = {
    "entropy-trace": ["--model", MODEL, "--horizon", "20"],
    "ams-check": ["--model", MODEL, "--cylinder", "0", "--horizon", "20"],
    "vls-orbit": ["--constant", "2", "--input", "0101"],
    "bellow": ["--horizon", "20"],
    "aep": [],
    "conservation": [],
    "run": ["--config", str(CONFIG_DIR / "bellow.json")],
}
TABLE_COMMANDS = ("entropy-trace", "ams-check", "vls-orbit", "bellow")


def _fail_if_called(monkeypatch, command):
    """Make a table command, or every experiment a run would start, fail if called."""
    def work(_):
        raise AssertionError(f"{command} ran")

    if command in TABLE_COMMANDS:
        monkeypatch.setattr(cli, "cmd_" + command.replace("-", "_"), work)
    for name in harness.REGISTRY:
        monkeypatch.setitem(harness.REGISTRY, name, work)


@pytest.mark.parametrize("command", OUT_COMMANDS)
def test_out_under_a_file_exits_2_before_any_work(tmp_path, capsys, monkeypatch, command):
    _fail_if_called(monkeypatch, command)
    afile = tmp_path / "afile"
    afile.write_text("kept\n")
    out = afile / "x.csv"
    assert main([command, *OUT_COMMANDS[command], "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"config error: cannot write results to {out}: " in err
    assert "Not a directory" in err if command in TABLE_COMMANDS else f"{afile} is not a" in err
    assert afile.read_text() == "kept\n"


@pytest.mark.parametrize("command", TABLE_COMMANDS)
def test_table_out_naming_a_directory_exits_2_before_any_work(tmp_path, capsys, monkeypatch,
                                                               command):
    _fail_if_called(monkeypatch, command)
    assert main([command, *OUT_COMMANDS[command], "--out", str(tmp_path)]) == 2
    assert f"cannot write results to {tmp_path}: {tmp_path} is a directory" in (
        capsys.readouterr().err)


@pytest.mark.parametrize("command", TABLE_COMMANDS)
def test_table_out_in_a_missing_directory_exits_2_before_any_work(tmp_path, capsys,
                                                                  monkeypatch, command):
    _fail_if_called(monkeypatch, command)
    out = tmp_path / "missing" / "x.csv"
    assert main([command, *OUT_COMMANDS[command], "--out", str(out)]) == 2
    assert "No such file or directory" in capsys.readouterr().err
    assert not (tmp_path / "missing").exists()
