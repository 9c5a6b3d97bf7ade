"""Every per-layer trace target of the benchmark resolves in the package.

The benchmark's tracer wraps functions at the module attributes their
callers look up (for example ``stats.sample_batch``); a renamed one is
only reported as missing, and its per-layer metrics silently drop out.
"""

import importlib.util
from pathlib import Path

from excised_rmt import stats

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _spans_module():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_trace_target_resolves():
    original = stats.sample_batch
    tracer = _spans_module().Tracer()
    tracer.install()
    try:
        assert tracer.missing == []
        assert stats.sample_batch is not original
    finally:
        tracer.uninstall()
    assert stats.sample_batch is original
