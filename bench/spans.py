"""Layer spans recorded from outside the package.

The tracer wraps public functions at the attribute each caller looks up: a
module global that the calling module imported by name, a class attribute
for methods, or an entry of the experiment registry. A span holds (name,
start, end, parent); spans stay in memory until ``drain`` folds them into
per-name totals. Self time is a span's duration minus the durations of its
direct children, which nest inside it, so it is never negative.

Per-symbol private methods such as the induced scanner's ``advance`` are
never wrapped; their cost is the self time of the public caller.
"""

from __future__ import annotations

import os
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field

NEG_INF = float("-inf")


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _count_sample(counts, args, kwargs, result):
    counts["sources.sample_symbols"] += _arg(args, kwargs, 1, "length")


def _count_encode(counts, args, kwargs, result):
    counts["wordcode.encode_symbols"] += len(_arg(args, kwargs, 1, "symbols"))


def _count_aep(counts, args, kwargs, result):
    counts["entropy.scan_steps"] += sum(r.output_horizon for r in result)


def _count_induced_cylinder(counts, args, kwargs, result):
    counts["entropy.scan_steps"] += len(_arg(args, kwargs, 1, "symbols"))


def _count_table(counts, args, kwargs, result):
    counts["entropy.table_cells"] += result.size
    counts["entropy.table_live"] += int((result > NEG_INF).sum())


def _count_tuples(counts, args, kwargs, result):
    model = _arg(args, kwargs, 0, "model")
    counts["oracles.tuples"] += model.alphabet_size ** _arg(args, kwargs, 2, "n")


def _count_windows(counts, args, kwargs, result):
    g = _arg(args, kwargs, 1, "g")
    counts["ergodic.windows"] += len(_arg(args, kwargs, 0, "symbols")) - g.order + 1


def _count_orbit(counts, args, kwargs, result):
    counts["shifts.orbit_steps"] += _arg(args, kwargs, 2, "steps")


def _count_emit(counts, args, kwargs, result):
    counts["harness.result_bytes"] += sum(os.path.getsize(f) for f in result.output_files)
    counts["harness.experiment_ns"] += int(result.wall_time_s * 1e9)


def targets(ws):
    """(span name, owner, attribute, counter) for every traced boundary.

    One span name may sit on several owners: each module that imported the
    function by name gets its own wrapper.
    """
    src, wc, ent, orc = ws.sources, ws.wordcode, ws.entropy, ws.oracles
    erg, exp, har = ws.ergodic, ws.experiments, ws.harness
    out = [("sources.sample_path", src.SourceModel, "sample_path", _count_sample)]
    out += [("sources.cylinder_log_probability", cls, "cylinder_log_probability", None)
            for cls in (src.IIDSource, src.MarkovSource, src.MixtureSource)]
    out += [("wordcode.encode_stream", mod, "encode_stream", _count_encode)
            for mod in (wc, ent, exp, orc)]
    out += [("entropy.aep_experiment", mod, "aep_experiment", _count_aep)
            for mod in (ent, exp)]
    out += [("entropy.cylinder_log_probability", ent.InducedMeasure,
             "cylinder_log_probability", _count_induced_cylinder),
            ("entropy.shifted_cylinder_probability", ent.InducedMeasure,
             "shifted_cylinder_probability", None)]
    out += [("entropy.block_log_probability_table", mod,
             "block_log_probability_table", _count_table) for mod in (ent, exp)]
    out += [("oracles.brute_force_induced_log_table", mod,
             "brute_force_induced_log_table", _count_tuples) for mod in (orc, exp)]
    out += [("ergodic.time_average", exp, "time_average", _count_windows),
            ("ergodic.ergodicity_spread", exp, "ergodicity_spread", None)]
    out += [("ergodic.ams_diagnostic", mod, "ams_diagnostic", None) for mod in (erg, exp)]
    out += [("shifts.variable_length_orbit", exp, "variable_length_orbit", _count_orbit),
            ("shifts.finite_state_orbit_coder", exp, "finite_state_orbit_coder", None),
            ("shifts.bellow_check", exp, "bellow_check", None)]
    out += [("experiments." + name, exp.REGISTRY, name, None) for name in exp.REGISTRY]
    out += [("harness.resolve_config", har, "resolve_config", None),
            ("harness.run_experiment", har, "run_experiment", _count_emit)]
    return out


def _get(owner, attr):
    # vars(), not getattr(): an attribute the owner only inherits would be
    # restored onto the wrong object
    return owner[attr] if isinstance(owner, dict) else vars(owner)[attr]


def _set(owner, attr, value):
    if isinstance(owner, dict):
        owner[attr] = value
    else:
        setattr(owner, attr, value)


@dataclass
class Totals:
    """Per-name span totals and work counters."""

    self_ns: Counter = field(default_factory=Counter)
    inclusive_ns: Counter = field(default_factory=Counter)  # outermost spans only
    calls: Counter = field(default_factory=Counter)
    counts: Counter = field(default_factory=Counter)
    spans: int = 0

    def add(self, other):
        self.self_ns.update(other.self_ns)
        self.inclusive_ns.update(other.inclusive_ns)
        self.calls.update(other.calls)
        self.counts.update(other.counts)
        self.spans += other.spans


class Tracer:
    """In-memory span recorder: installed() patches, drain() aggregates."""

    def __init__(self, ws):
        self._targets = targets(ws)
        self.spans = []  # (name, start_ns, end_ns, parent index or -1)
        self.counts = Counter()
        self._stack = []

    def _wrap(self, name, fn, counter):
        spans, stack, counts = self.spans, self._stack, self.counts
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent)
            if counter is not None:
                counter(counts, args, kwargs, result)
            return result

        return traced

    @contextmanager
    def installed(self):
        """Wrap every target for the duration of the block, then restore."""
        originals = [(owner, attr, _get(owner, attr))
                     for _, owner, attr, _ in self._targets]
        try:
            for (name, owner, attr, counter), (_, _, fn) in zip(self._targets, originals):
                _set(owner, attr, self._wrap(name, fn, counter))
            yield self
        finally:
            for owner, attr, fn in originals:
                _set(owner, attr, fn)

    def drain(self):
        """Fold the recorded spans into Totals and forget them."""
        totals = fold(self.spans)
        totals.counts.update(self.counts)
        self.spans.clear()
        self.counts.clear()
        return totals


def self_ns(spans):
    """Self time of every span, in recording order."""
    child_ns = [0] * len(spans)
    for _, start, end, parent in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    return [end - start - child for (_, start, end, _), child in zip(spans, child_ns)]


def fold(spans):
    """Self time, outermost inclusive time and call count per span name."""
    totals = Totals(spans=len(spans))
    for span, own in zip(spans, self_ns(spans)):
        name, start, end, parent = span
        totals.self_ns[name] += own
        totals.calls[name] += 1
        ancestor = parent
        while ancestor >= 0 and spans[ancestor][0] != name:
            ancestor = spans[ancestor][3]
        if ancestor < 0:
            totals.inclusive_ns[name] += end - start
    return totals
