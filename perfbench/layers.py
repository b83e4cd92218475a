"""Per-layer metrics derived from the span files that tracer.py writes.

For each span name: calls, busy time (summed duration of spans with no
ancestor of the same name), self time (duration minus the part of the span
that its child spans cover, children in any thread), summed and maximum
counts, and the union of its intervals (for overlap).  One op may run several
processes; their statistics add up.
"""

from __future__ import annotations

import json
from collections import defaultdict

from tracer import PROBES


def _union_length(intervals: list[tuple[float, float]]) -> float:
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


class OpStats:
    """Span statistics of one op, summed over the processes it ran."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.busy = defaultdict(float)
        self.self_time = defaultdict(float)
        self.count_sum = defaultdict(int)
        self.count_max = defaultdict(int)
        self.union = defaultdict(float)
        self.missing: set[str] = set()

    def value(self, name: str, statistic: str) -> float:
        if statistic == "rate":
            busy = self.busy[name]
            return self.count_sum[name] / busy if busy > 0 else 0.0
        if statistic == "overlap":
            union = self.union[name]
            return self.busy[name] / union if union > 0 else 0.0
        return getattr(self, statistic)[name]

    def add_file(self, path) -> None:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
        self.missing.update(doc["missing"])
        for name, n in doc["calls"].items():
            self.calls[name] += n
        spans = {s[0]: s for s in doc["spans"]}
        children = defaultdict(list)
        by_name = defaultdict(list)
        for sid, name, start, end, parent, _tid, count in spans.values():
            if parent in spans:
                children[parent].append((start, end))
            by_name[name].append((start, end))
            self.calls[name] += 1
            if count is not None:
                self.count_sum[name] += count
                self.count_max[name] = max(self.count_max[name], count)
        for sid, name, start, end, parent, _tid, _count in spans.values():
            inner = [(max(a, start), min(b, end)) for a, b in children[sid] if b > start and a < end]
            self.self_time[name] += (end - start) - _union_length(inner)
            while parent in spans and spans[parent][1] != name:
                parent = spans[parent][4]
            if parent not in spans:
                self.busy[name] += end - start
        for name, intervals in by_name.items():
            self.union[name] += _union_length(intervals)


# metric -> (unit, span name, statistic).  A statistic is an OpStats table, or
# "rate" (summed count per busy second) or "overlap" (busy time over the union
# of the spans, i.e. the mean number running at once).  Values are per op; the
# run reports the median over its traced ops.
LAYER_METRICS = {
    "cipher.keystream.bits": ("bits", "cipher.keystream", "count_sum"),
    "cipher.keystream.busy_s": ("s", "cipher.keystream", "busy"),
    "cipher.keystream.bits_per_s": ("bits/s", "cipher.keystream", "rate"),
    "cipher.decode.busy_s": ("s", "cipher.decode", "busy"),
    "montecarlo.run_simulation.busy_s": ("s", "montecarlo.run_simulation", "busy"),
    "montecarlo.run_simulation.self_s": ("s", "montecarlo.run_simulation", "self_time"),
    "montecarlo.phase_sampler.build_s": ("s", "montecarlo.phase_sampler.build", "busy"),
    "montecarlo.sample.draws": ("count", "montecarlo.sample", "count_sum"),
    "montecarlo.sample.busy_s": ("s", "montecarlo.sample", "busy"),
    "montecarlo.sample.overlap": ("ratio", "montecarlo.sample", "overlap"),
    "montecarlo.batches": ("count", "montecarlo.batch", "calls"),
    "fock.coherent_amplitudes.calls": ("count", "fock.coherent_amplitudes", "calls"),
    "fock.coherent_amplitudes.busy_s": ("s", "fock.coherent_amplitudes", "busy"),
    "fock.phase_distribution.busy_s": ("s", "fock.phase_distribution", "busy"),
    "fock.pure_density.busy_s": ("s", "fock.pure_density", "busy"),
    "fock.mix.busy_s": ("s", "fock.mix", "busy"),
    "fock.hermitian_eigenvalues.busy_s": ("s", "fock.hermitian_eigenvalues", "busy"),
    "fock.hermitian_eigenvalues.max_dim": ("count", "fock.hermitian_eigenvalues", "count_max"),
    "receivers.eve_nokey_helstrom.calls": ("count", "receivers.eve_nokey_helstrom", "calls"),
    "receivers.eve_nokey_helstrom.busy_s": ("s", "receivers.eve_nokey_helstrom", "busy"),
    "receivers.eve_nokey_helstrom.self_s": ("s", "receivers.eve_nokey_helstrom", "self_time"),
    "receivers.canonical_phase_antipodal.busy_s": (
        "s", "receivers.canonical_phase_antipodal", "busy"),
    "keyrate.busy_s": ("s", "keyrate", "busy"),
    "cli.main.self_s": ("s", "cli.main", "self_time"),
    "cli.encrypt.busy_s": ("s", "cli.encrypt", "busy"),
    "cli.decrypt.busy_s": ("s", "cli.decrypt", "busy"),
}


def layer_values(stats: OpStats) -> tuple[dict[str, float], list[str]]:
    """Per-layer metric values of one op, and a note for each metric dropped.

    A metric is dropped when every probe target behind its span name has gone
    from the program.
    """
    targets = defaultdict(set)
    for name, module, attr, _count in PROBES:
        targets[name].add(f"{module}.{attr}")
    values, notes = {}, []
    for metric, (_unit, name, statistic) in LAYER_METRICS.items():
        if targets[name] <= stats.missing:
            notes.append(f"{metric} dropped: {', '.join(sorted(targets[name]))} no longer exist")
            continue
        values[metric] = stats.value(name, statistic)
    return values, notes
