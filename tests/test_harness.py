"""Config validation, experiment dispatch, result determinism, CLI exit codes."""

import json
from pathlib import Path

import pytest

from wordsource import ConfigError
from wordsource.cli import main
from wordsource.harness import (
    EXPERIMENT_DEFAULTS,
    resolve_config,
    run_experiment,
    validate_config,
)

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


def test_min_within_may_be_zero():
    cfg = resolve_config({"experiment": "aep-prefix-free", "seed": 0,
                          "params": {"min_within": 0}})
    assert cfg.params == {"block_cap": 14, "min_within": 0}
    with pytest.raises(ConfigError, match="params.min_within: must be >= 0"):
        resolve_config({"experiment": "aep-prefix-free", "seed": 0,
                        "params": {"min_within": -1}})


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
    assert main(["induced-prob", "--model", MODEL, "--codebook", CODEBOOK,
                 "--block", "10"]) == 0
    assert "0.5" in capsys.readouterr().out


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


@pytest.mark.parametrize("case", ["directory", "invalid-json-file", "checkpoints", "stride"])
def test_cli_bad_argument_exit_code(tmp_path, capsys, case):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    argv, flag = {
        "directory": (["check-prefix", "--codebook", str(tmp_path)], "--codebook"),
        "invalid-json-file": (["induced-prob", "--model", str(bad), "--codebook", CODEBOOK,
                               "--block", "0"], "--model"),
        "checkpoints": (["entropy-trace", "--model", MODEL, "--horizon", "10",
                         "--checkpoints", "1,x"], "--checkpoints"),
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
        "params": {"block_cap": 8, "min_within": 4},
        "output_dir": str(tmp_path / "out2"),
    }))
    capsys.readouterr()
    assert main(["run", "--config", str(failing)]) == 1


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


def test_cli_vls_orbit(capsys):
    assert main(["vls-orbit", "--codebook", CODEBOOK, "--input",
                 "10010010010010", "--steps", "4"]) == 0
    out = capsys.readouterr().out
    assert "zeta: 0,2,3,5,6" in out


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
    # dispatch matters here; a run this short may fail its cluster verdicts
    code = main([
        "aep", "--model", mixture, "--horizon", "3000", "--paths", "10",
        "--seed", "7", "--out", str(tmp_path),
    ])
    assert code in (0, 1)
    assert "experiment: aep-mixture" in capsys.readouterr().out


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
