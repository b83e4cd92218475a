"""Every per-layer benchmark metric keeps at least one live probe target.

perfbench/layers.py drops a metric from a traced run's result when every
`tracer.PROBES` target behind its span name has gone from the program, so a
refactor that renames or removes all of them silently shrinks the benchmark's
output.  This test only reads perfbench/.
"""

import importlib
import sys
from pathlib import Path

import pytest

PERFBENCH = str(Path(__file__).resolve().parents[1] / "perfbench")


def _perfbench_module(name):
    sys.path.insert(0, PERFBENCH)  # the perfbench scripts import each other by bare name
    try:
        return importlib.import_module(name)
    finally:
        sys.path.remove(PERFBENCH)


layers = _perfbench_module("layers")
tracer = _perfbench_module("tracer")


def resolves(module_name: str, attr: str) -> bool:
    """Whether tracer.py would find this target: import, then getattr along attr."""
    try:
        owner = importlib.import_module(module_name)
        for part in attr.split("."):
            owner = getattr(owner, part)
    except (ImportError, AttributeError):
        return False
    return True


@pytest.mark.parametrize("metric", sorted(layers.LAYER_METRICS))
def test_layer_metric_has_a_live_probe_target(metric):
    span = layers.LAYER_METRICS[metric][1]
    targets = [(module, attr) for name, module, attr, _ in tracer.PROBES if name == span]
    assert targets, f"{metric}: no probe records span {span!r}"
    assert any(resolves(module, attr) for module, attr in targets), \
        f"{metric}: none of {[f'{m}.{a}' for m, a in targets]} exists any more"
