"""Command-line entry points.

Utility subcommands (check-prefix, encode, decode, induced-prob, ...) are
thin wrappers over the library. ``run`` executes a named, config-driven
experiment and writes CSV/JSON results.

Exit codes: 0 pass, 1 experiment verdict failure, 2 config or input error,
or a result path that cannot be written, 3 resource-cap breach or an
allocation the machine refuses (MemoryError), 4 internal error (a fault in
the package itself), 141 stdout closed early by its reader (128 + SIGPIPE,
as a shell reports it).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import traceback

from . import __version__
from .entropy import InducedMeasure, sample_entropy_trace
from .ergodic import CylinderFunction, ams_diagnostic, default_checkpoints, ergodicity_spread
from .errors import (
    ConfigError,
    DecodeError,
    DomainError,
    NotPrefixFreeError,
    RangeError,
    ResourceError,
    UnsupportedModelError,
)
from .harness import (TABLE_WRITERS, read_json, resolve_config, run_experiment, validate_config,
                      writing_results)
from .shifts import (VariableLengthShiftSpec, alternating_trace, variable_length_orbit,
                     weight_sequence)
from .sources import LN2, model_from_config
from .wordcode import (
    decode_prefix_free,
    encode_stream,
    is_prefix_free,
    kraft_sum,
    word_function_from_config,
)

EXIT_PASS = 0
EXIT_VERDICT = 1
EXIT_CONFIG = 2
EXIT_RESOURCE = 3
EXIT_INTERNAL = 4
EXIT_BROKEN_PIPE = 141


def _json_arg(args, key):
    """Parse ``--key``: inline JSON or, when it names a file, the file's contents."""
    text, flag = getattr(args, key), f"--{key}"
    if os.path.exists(text):
        return read_json(text, flag)
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"{flag} is neither an existing file nor valid JSON: {text!r} ({exc})"
        ) from exc


def _symbols_arg(text):
    if not (text.isascii() and text.isdigit()):
        raise ConfigError(f"expected a string of digit symbols, got {text!r}")
    return [int(ch) for ch in text]


def _emit_table(path, columns, rows, fmt):
    with writing_results(path):
        TABLE_WRITERS[fmt or "csv"](path, columns, rows)
    print(f"wrote {path}")


def cmd_check_prefix(args):
    wf = word_function_from_config(_json_arg(args, "codebook"))
    check = is_prefix_free(wf)
    print(f"prefix_free: {check.ok}")
    if not check.ok:
        print(f"witness: input symbols {check.witness} ({check.reason})")
    print(f"kraft_sum: {kraft_sum(wf)!r}")
    return EXIT_PASS


def cmd_encode(args):
    wf = word_function_from_config(_json_arg(args, "codebook"))
    enc = encode_stream(wf, _symbols_arg(args.input))
    print("output:", "".join(map(str, enc.output)))
    print("boundaries:", ",".join(map(str, enc.boundaries)))
    return EXIT_PASS


def cmd_decode(args):
    wf = word_function_from_config(_json_arg(args, "codebook"))
    decoded, consumed = decode_prefix_free(wf, _symbols_arg(args.input))
    print("decoded:", "".join(map(str, decoded)))
    print("consumed:", consumed)
    return EXIT_PASS


def cmd_induced_prob(args):
    model = model_from_config(_json_arg(args, "model"))
    wf = word_function_from_config(_json_arg(args, "codebook"))
    lp = InducedMeasure(model, wf).cylinder_log_probability(_symbols_arg(args.block))
    print(f"log_probability_nats: {lp!r}")
    print(f"log2_probability: {lp / LN2!r}")
    print(f"probability: {math.exp(lp)!r}")
    return EXIT_PASS


def _measure(args):
    """The ``--model``, or its induced measure when ``--codebook`` is given."""
    model = model_from_config(_json_arg(args, "model"))
    if args.codebook:
        return InducedMeasure(model, word_function_from_config(_json_arg(args, "codebook")))
    return model


def cmd_entropy_trace(args):
    measure = _measure(args)
    path = measure.sample_path(args.horizon, args.seed)
    if args.checkpoints is not None:
        try:
            cps = [int(c) for c in args.checkpoints.split(",")]
        except ValueError:
            raise ConfigError(f"--checkpoints must be comma-separated integers, "
                              f"got {args.checkpoints!r}") from None
    else:
        cps = default_checkpoints(args.horizon).tolist()
    trace = sample_entropy_trace(measure, path.symbols, cps)
    rows = [(int(n), repr(float(v))) for n, v in zip(trace.horizons, trace.values)]
    if args.out:
        _emit_table(args.out, ["n", "sample_entropy_bits"], rows, args.format)
    else:
        for n, v in rows:
            print(f"{n},{v}")
    print(f"limit_estimate: {trace.limit_estimate!r} converged: {trace.converged}")
    if trace.left_support_at is not None:
        print(f"left_support_at: {trace.left_support_at}")
    return EXIT_PASS


def _overrides(args, *keys):
    """Config fields given on the command line; absent flags keep the config's.
    ``--model`` and ``--codebook`` are read as JSON, inline or from a file."""
    overrides = {key: _json_arg(args, key) if key in ("model", "codebook") else getattr(args, key)
                 for key in keys if getattr(args, key) is not None}
    if args.out:
        overrides["output_dir"] = args.out
    return overrides


def _run(config):
    manifest = run_experiment(config)
    print(f"experiment: {manifest.experiment}")
    print(f"config_hash: {manifest.config_hash}")
    print(f"artifact_version: {manifest.artifact_version}")
    print(f"passed: {manifest.passed}")
    print(f"wall_time_s: {manifest.wall_time_s:.3f}")
    for f in manifest.output_files:
        print(f"wrote {f}")
    return EXIT_PASS if manifest.passed else EXIT_VERDICT


def cmd_aep(args):
    overrides = _overrides(args, "seed", "horizon", "paths", "format", "model", "codebook")
    # validated first, so a bad --model or --codebook is named by its JSON path
    config = resolve_config({"experiment": "aep-prefix-free", **overrides})
    if not is_prefix_free(word_function_from_config(config.codebook)):
        name = "aep-non-prefix-free"
    else:
        name = "aep-mixture" if config.model["type"] == "mixture" else "aep-prefix-free"
    return _run(resolve_config({"experiment": name, **overrides}))


def cmd_conservation(args):
    overrides = _overrides(args, "format", "model", "codebook")
    if args.block_cap is not None:
        overrides["params"] = {"block_cap": args.block_cap}
    return _run(resolve_config({"experiment": "conservation", **overrides}))


def cmd_ams_check(args):
    measure = _measure(args)
    cylinders = [_symbols_arg(c) for c in args.cylinder]
    verdicts = ams_diagnostic(measure, cylinders, args.horizon)
    rows = []
    for cyl, verdict in zip(args.cylinder, verdicts):
        for n, v in zip(verdict.checkpoints, verdict.partial_averages):
            rows.append((cyl, int(n), repr(float(v))))
        print(f"cylinder {cyl}: final {verdict.final!r} "
              f"spread {verdict.spread!r} converged {verdict.converged}")
    if args.out:
        _emit_table(args.out, ["cylinder", "n", "cesaro_average"], rows, args.format)
    return EXIT_PASS


def cmd_ergodic_check(args):
    measure = _measure(args)
    pattern = _symbols_arg(args.pattern) if args.pattern is not None else [0]
    g = CylinderFunction.indicator(measure.alphabet_size, pattern)
    sr = ergodicity_spread(measure, g, args.paths, args.horizon, args.seed)
    print(f"paths: {args.paths}")
    print(f"spread: {sr.spread!r}")
    print(f"final_time_averages_head: {[round(float(v), 6) for v in sr.finals[:10]]}")
    return EXIT_PASS


def cmd_vls_orbit(args):
    if args.codebook:
        wf = word_function_from_config(_json_arg(args, "codebook"))
        spec = VariableLengthShiftSpec.from_codebook(wf)
    elif args.constant is not None:
        spec = VariableLengthShiftSpec.constant(args.alphabet, args.constant)
    else:
        raise ConfigError("vls-orbit needs --codebook or --constant")
    if args.input:
        symbols = _symbols_arg(args.input)
    elif args.model:
        model = model_from_config(_json_arg(args, "model"))
        symbols = model.sample_path(args.horizon, args.seed).symbols
    else:
        raise ConfigError("vls-orbit needs --input or --model")
    orbit = variable_length_orbit(spec, symbols, args.steps)
    print("zeta:", ",".join(map(str, orbit.zeta)))
    xi, density = weight_sequence(orbit, orbit.horizon)
    print("xi:", "".join(map(str, xi)))
    print(f"partial_density: {density!r}")
    if args.out:
        rows = [(int(n), int(z)) for n, z in enumerate(orbit.zeta)]
        _emit_table(args.out, ["n", "zeta_n"], rows, args.format)
    return EXIT_PASS


def cmd_bellow(args):
    if args.stride < 1:
        raise ConfigError(f"--stride must be >= 1, got {args.stride}")
    trace = alternating_trace(args.horizon, args.stride, default_checkpoints(args.horizon))
    rows = [(n, repr(lhs), repr(rhs)) for n, lhs, rhs in trace]
    for row in rows:
        print(",".join(map(str, row)))
    if args.out:
        _emit_table(args.out, ["n", "lhs_partial", "rhs_partial"], rows, args.format)
    return EXIT_PASS


def cmd_run(args):
    overrides = _overrides(args, "seed", "horizon", "paths", "format")
    return _run(validate_config(args.config, overrides))


def _add_common_out(sub):
    sub.add_argument("--out", help="output file or directory")
    sub.add_argument("--format", choices=["csv", "jsonl"],
                     help="table format (default csv, or the config's format)")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="wordsource",
        description="Word-valued sources: codes, induced measures, entropy checks.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    subs = parser.add_subparsers(dest="command", required=True)

    sub = subs.add_parser("check-prefix", help="check the prefix-free property")
    sub.add_argument("--codebook", required=True, help="codebook JSON or file")
    sub.set_defaults(fn=cmd_check_prefix)

    sub = subs.add_parser("encode", help="encode a digit string")
    sub.add_argument("--codebook", required=True)
    sub.add_argument("--input", required=True, help="input symbols, e.g. 0110")
    sub.set_defaults(fn=cmd_encode)

    sub = subs.add_parser("decode", help="decode a digit string (prefix-free only)")
    sub.add_argument("--codebook", required=True)
    sub.add_argument("--input", required=True)
    sub.set_defaults(fn=cmd_decode)

    sub = subs.add_parser("induced-prob", help="exact output-block probability")
    sub.add_argument("--model", required=True, help="model JSON or file")
    sub.add_argument("--codebook", required=True)
    sub.add_argument("--block", required=True, help="output symbols, e.g. 10")
    sub.set_defaults(fn=cmd_induced_prob)

    sub = subs.add_parser("entropy-trace", help="sample-entropy trace along a path")
    sub.add_argument("--model", required=True)
    sub.add_argument("--codebook", help="trace the induced measure instead")
    sub.add_argument("--horizon", type=int, default=10_000)
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--checkpoints", help="comma-separated horizons")
    _add_common_out(sub)
    sub.set_defaults(fn=cmd_entropy_trace)

    sub = subs.add_parser("aep", help="per-path AEP experiment")
    sub.add_argument("--model")
    sub.add_argument("--codebook")
    sub.add_argument("--seed", type=int)
    sub.add_argument("--horizon", type=int)
    sub.add_argument("--paths", type=int)
    _add_common_out(sub)
    sub.set_defaults(fn=cmd_aep)

    sub = subs.add_parser("conservation", help="entropy conservation report")
    sub.add_argument("--model")
    sub.add_argument("--codebook")
    sub.add_argument("--block-cap", type=int, dest="block_cap")
    _add_common_out(sub)
    sub.set_defaults(fn=cmd_conservation)

    sub = subs.add_parser("ams-check", help="Cesaro traces of shifted probabilities")
    sub.add_argument("--model", required=True)
    sub.add_argument("--codebook", help="check the induced measure instead")
    sub.add_argument("--cylinder", action="append", required=True,
                     help="cylinder digits; repeatable")
    sub.add_argument("--horizon", type=int, default=10_000)
    _add_common_out(sub)
    sub.set_defaults(fn=cmd_ams_check)

    sub = subs.add_parser("ergodic-check", help="cross-path spread of time averages")
    sub.add_argument("--model", required=True)
    sub.add_argument("--codebook")
    sub.add_argument("--pattern", help="indicator cylinder digits (default 0)")
    sub.add_argument("--paths", type=int, default=100)
    sub.add_argument("--horizon", type=int, default=10_000)
    sub.add_argument("--seed", type=int, default=0)
    sub.set_defaults(fn=cmd_ergodic_check)

    sub = subs.add_parser("vls-orbit", help="variable-length shift orbit")
    sub.add_argument("--codebook", help="codeword-driven shift")
    sub.add_argument("--constant", type=int, help="constant shift size")
    sub.add_argument("--alphabet", type=int, default=2)
    sub.add_argument("--input", help="explicit symbol string")
    sub.add_argument("--model", help="sample the input from a model")
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--horizon", type=int, default=1000)
    sub.add_argument("--steps", type=int, default=20)
    _add_common_out(sub)
    sub.set_defaults(fn=cmd_vls_orbit)

    sub = subs.add_parser("bellow", help="density-lemma partial sums")
    sub.add_argument("--horizon", type=int, default=10_000)
    sub.add_argument("--stride", type=int, default=2)
    _add_common_out(sub)
    sub.set_defaults(fn=cmd_bellow)

    sub = subs.add_parser("run", help="run a config-driven experiment")
    sub.add_argument("--config", required=True)
    sub.add_argument("--seed", type=int)
    sub.add_argument("--horizon", type=int)
    sub.add_argument("--paths", type=int)
    _add_common_out(sub)
    sub.set_defaults(fn=cmd_run)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        out = getattr(args, "out", None)
        if out and args.fn in (cmd_entropy_trace, cmd_ams_check, cmd_vls_orbit, cmd_bellow):
            with writing_results(out):  # a table is refused before any work, as its write would be
                os.scandir(os.path.dirname(out) or ".").close()
                if os.path.isdir(out):
                    raise IsADirectoryError(f"{out} is a directory")
        code = args.fn(args)
        sys.stdout.flush()  # inside the try, so a reader gone at the last write is caught
    except BrokenPipeError:
        # the reader closed stdout (``| head``); point it at devnull so the
        # interpreter's own flush at exit cannot raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = EXIT_BROKEN_PIPE
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        code = EXIT_CONFIG
    except (DomainError, RangeError, DecodeError, NotPrefixFreeError,
            UnsupportedModelError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        code = EXIT_CONFIG
    except (ResourceError, MemoryError) as exc:
        print(f"resource error: {exc}", file=sys.stderr)
        code = EXIT_RESOURCE
    except Exception as exc:  # a fault of the package, not a failed verdict
        traceback.print_exc(file=sys.stderr)
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        code = EXIT_INTERNAL
    return code


if __name__ == "__main__":
    sys.exit(main())
