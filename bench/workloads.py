"""Seeded inputs for the benchmark workloads, and the calls that run them.

A workload is an endless sequence of rounds. Round ``r`` of a run with seed
``s`` is built from ``SeedSequence([s, workload index, r])`` alone, so the
same seed gives the same inputs. Every round of one workload has the same
shape: the same item kinds, models, codebooks and sizes. Only sampling seeds
and random model parameters change, so the cost of a round hardly depends on
the seed. One round is the benchmark's unit of "time to solution".

Items are plain JSON-ready data; ``prepare`` turns one into a zero-argument
call into the package's public entry points. Calls look entry points up as
module attributes at call time, so the tracer's wrappers are seen.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

SRC = Path(__file__).resolve().parent.parent / "src"

WORKLOADS = ("aep-scan", "stream-ergodic", "exact-enumeration")

FAIR_COIN = {"type": "iid", "dist": [0.5, 0.5]}
BIASED_IID = {"type": "iid", "dist": [0.9, 0.1]}
APERIODIC_MARKOV = {"type": "markov", "P": [[0.9, 0.1], [0.5, 0.5]], "init": [1.0, 0.0]}
PERIODIC_MARKOV = {"type": "markov", "P": [[0.0, 1.0], [1.0, 0.0]], "init": [1.0, 0.0]}
MIXTURE_HALF = {"type": "mixture", "weights": [0.5, 0.5],
                "components": [FAIR_COIN, BIASED_IID]}
CODE_PREFIX_FREE = {"input_alphabet": 2, "output_alphabet": 2, "code": ["0", "10"]}
CODE_ZERO_ZERO = {"input_alphabet": 2, "output_alphabet": 2, "code": ["0", "00"]}

AEP_HORIZON = 10_000
AEP_PATHS = 3
STREAM_HORIZON = 10_000
BELLOW_HORIZON = 100_000
ORACLE_BLOCK = 8
CONSERVATION_BLOCK = 12
IDENTITY_TUPLE_LENGTH = 8
AMS_HORIZON = 100

# (A, B) of the single random pair of each dp-oracle call in a round: the
# oracle enumerates A**n source tuples and the DP fills B**n cells, so fixing
# the alphabets fixes the round's cost.
ORACLE_ALPHABETS = ((2, 2), (2, 3), (3, 2), (3, 3))


@dataclass(frozen=True)
class Item:
    """One top-level public call: ``kind`` selects the entry point."""

    kind: str  # "aep", "run" or "ams"
    label: str
    spec: dict


def _seed(rng):
    return int(rng.integers(0, 2**31))


def _distribution(rng, size=2):
    # entries bounded away from 0 keep every model's support, and with it the
    # live cells of the exact tables, the same from round to round
    raw = rng.uniform(0.1, 1.0, size=size)
    return (raw / raw.sum()).tolist()


def _random_iid(rng):
    return {"type": "iid", "dist": _distribution(rng)}


def _random_markov(rng):
    return {"type": "markov", "P": [_distribution(rng), _distribution(rng)],
            "init": _distribution(rng)}


def _random_mixture(rng):
    w = float(rng.uniform(0.3, 0.7))
    return {"type": "mixture", "weights": [w, 1.0 - w],
            "components": [_random_iid(rng), _random_iid(rng)]}


def dp_oracle_seed(rng, alphabets):
    """A dp-oracle seed whose single random pair has the given (A, B).

    The dp-oracle experiment draws A and then B with ``integers(2, 4)`` from
    ``default_rng(seed)`` before anything else, so screening seeds on those
    two draws fixes the pair's alphabets. Should that order ever change, the
    ``oracles.tuples`` counter of a traced run shows it.
    """
    while True:
        seed = _seed(rng)
        probe = np.random.default_rng(seed)
        if (int(probe.integers(2, 4)), int(probe.integers(2, 4))) == tuple(alphabets):
            return seed


def _aep_scan(rng):
    # Several paths per call, so batching across paths inside aep_experiment
    # can show; the five (model, codebook) pairs cover IID, Markov, mixture
    # and a non-prefix-free code.
    pairs = (("fair-coin", FAIR_COIN, CODE_PREFIX_FREE),
             ("biased-iid", BIASED_IID, CODE_PREFIX_FREE),
             ("aperiodic-markov", APERIODIC_MARKOV, CODE_PREFIX_FREE),
             ("mixture", MIXTURE_HALF, CODE_PREFIX_FREE),
             ("fair-coin-00", FAIR_COIN, CODE_ZERO_ZERO))
    return [
        Item("aep", f"aep:{name}", {"model": model, "codebook": code,
                                    "horizon": AEP_HORIZON, "paths": AEP_PATHS,
                                    "seed": _seed(rng)})
        for name, model, code in pairs
    ]


def _run(name, rng, **fields):
    return Item("run", f"run:{name}", {"experiment": name, "seed": _seed(rng), **fields})


def _stream_ergodic(rng):
    # Output-ergodicity is long-stream sampling and encoding, one source
    # model per call so calls stay short; coder-equivalence and bellow are
    # the only users of the shifts layer. An odd item count keeps the median
    # call inside one item kind (bellow) instead of between two.
    params = {"battery_paths": 2, "spread_paths": 8, "control_paths": 8}
    models = (("iid", _random_iid(rng)), ("markov", _random_markov(rng)),
              ("markov", _random_markov(rng)), ("periodic", PERIODIC_MARKOV))
    items = [
        _run("output-ergodicity", rng, horizon=STREAM_HORIZON,
             codebook=CODE_PREFIX_FREE, params={**params, "models": {name: model}})
        for name, model in models
    ]
    items.append(_run("coder-equivalence", rng, horizon=STREAM_HORIZON,
                      params={"trials": 100, "full_horizon_trials": 5}))
    items.append(_run("bellow", rng, horizon=BELLOW_HORIZON, params={"cases": 20}))
    items.append(_run("ams-markov", rng))
    return items


def _exact_enumeration(rng):
    # Wide and shallow: many short scans, cloned DFS block tables, shifted
    # cylinders and tiny oracle calls over the same layers aep-scan uses.
    # Sorted by cost, the middle five calls (three conservation, two AMS)
    # cost about the same, so the median call stays among them.
    items = [
        Item("run", f"run:dp-oracle-{a}x{b}", {
            "experiment": "dp-oracle", "seed": dp_oracle_seed(rng, (a, b)),
            "params": {"pairs": 1, "max_block": ORACLE_BLOCK}})
        for a, b in ORACLE_ALPHABETS
    ]
    for model, code in ((_random_iid(rng), CODE_PREFIX_FREE),
                        (_random_iid(rng), CODE_PREFIX_FREE),
                        (_random_markov(rng), CODE_PREFIX_FREE),
                        (_random_markov(rng), CODE_ZERO_ZERO),
                        (_random_mixture(rng), CODE_PREFIX_FREE)):
        items.append(_run("conservation", rng, model=model, codebook=code,
                          params={"block_cap": CONSERVATION_BLOCK}))
    items.append(_run("log-identity", rng, model=_random_markov(rng),
                      codebook=CODE_PREFIX_FREE,
                      params={"max_tuple_length": IDENTITY_TUPLE_LENGTH}))
    for name, model in (("iid", _random_iid(rng)), ("mixture", _random_mixture(rng))):
        items.append(Item("ams", f"ams:{name}", {
            "model": model, "codebook": CODE_PREFIX_FREE, "horizon": AMS_HORIZON}))
    return items


_GENERATORS = {"aep-scan": _aep_scan, "stream-ergodic": _stream_ergodic,
             "exact-enumeration": _exact_enumeration}


def import_package():
    """Import wordsource from this checkout's ``src``, never from elsewhere."""
    if not (SRC / "wordsource" / "__init__.py").is_file():
        raise SystemExit(f"no wordsource package under {SRC}")
    sys.path.insert(0, str(SRC))
    import wordsource

    if Path(wordsource.__file__).resolve().parent != SRC / "wordsource":
        raise SystemExit(f"imported wordsource from {wordsource.__file__}, not {SRC}")
    return wordsource


def round_items(workload, seed, round_index):
    """The items of one round, a pure function of its three arguments."""
    rng = np.random.default_rng([seed, WORKLOADS.index(workload), round_index])
    return _GENERATORS[workload](rng)


def prepare(item, ws, out_dir):
    """Build an item's models and configs; return the call that runs it.

    Building here is set-up work and is not timed. Run items resolve their
    config again inside the call, as ``wordsource run`` does.
    """
    spec = item.spec
    if item.kind == "run":
        raw = {**spec, "output_dir": str(out_dir)}
        ws.harness.resolve_config(raw)

        def call():
            return ws.harness.run_experiment(ws.harness.resolve_config(raw))
        return call
    model = ws.sources.model_from_config(spec["model"])
    wf = ws.wordcode.word_function_from_config(spec["codebook"])
    if item.kind == "aep":
        def call():
            return ws.entropy.aep_experiment(model, wf, horizon=spec["horizon"],
                                             paths=spec["paths"], seed=spec["seed"])
        return call
    if item.kind == "ams":
        def call():
            measure = ws.entropy.InducedMeasure(model, wf)
            return ws.ergodic.ams_diagnostic(measure, [[0]], spec["horizon"])
        return call
    raise ValueError(f"unknown item kind {item.kind!r}")
