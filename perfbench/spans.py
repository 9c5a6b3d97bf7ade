"""Outside-in tracing: timing spans around the package's public functions.

Each target is wrapped at the module attribute its caller looks up (for
example ``stats.sample_batch``, which is what the stats drivers call), so
the package itself is not modified.  Spans are kept in memory; self time
is a span's duration minus the durations of its direct children.  A
target that no longer exists is reported and its metrics are left out.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict

import numpy as np


def _rows(result) -> int:
    """Number of eigenvalue rows in an eigvals result (one row per matrix)."""
    shape = np.shape(result)
    return int(np.prod(shape[:-1])) if len(shape) >= 2 else 1


def _hist_state(args, kwargs):
    h = args[0]
    return int(h.counts.sum()) + int(h.underflow) + int(h.overflow)


def _hist_counts(before, args, kwargs, result):
    values = args[1] if len(args) > 1 else kwargs["values"]
    n = int(np.asarray(values).size)
    added = _hist_state(args, kwargs) - before
    return {"stats.Histogram.add.values": n, "stats.Histogram.add.dropped": n - added}


# (module, attribute path, span name or None for count-only, before, after)
TARGETS = (
    ("excised_rmt.cli", "main", "cli.main", None, None),
    ("excised_rmt.cli", "_sample_table_text", "cli.csv", None,
     lambda b, a, k, r: {"cli.csv.rows": len(a[0])}),
    ("excised_rmt.cli", "_read_sample_table", "cli.csv", None,
     lambda b, a, k, r: {"cli.csv.rows": int(r.size)}),
    ("excised_rmt.stats", "sample_summaries", "stats.driver", None, None),
    ("excised_rmt.stats", "one_level_density_mc", "stats.driver", None, None),
    ("excised_rmt.stats", "pair_correlation_mc", "stats.driver", None, None),
    ("excised_rmt.stats", "sample_batch", "groups.sample_batch", None,
     lambda b, a, k, r: {"groups.sample_batch.matrices": len(r)}),
    ("excised_rmt.stats", "eigenangles_batch", "spectral.eigenangles_batch", None, None),
    ("excised_rmt.stats", "char_poly_batch", "spectral.char_poly_batch", None, None),
    ("excised_rmt.stats", "first_angles_batch", "spectral.first_angles_batch", None, None),
    ("excised_rmt.stats", "Histogram.add", "stats.Histogram.add", _hist_state, _hist_counts),
    ("numpy.linalg", "eigvals", None, None,
     lambda b, a, k, r: {"numpy.linalg.eigvals.rows": _rows(r)}),
    ("excised_rmt.zeros", "ingest_zero_list", "zeros.ingest_zero_list", None, None),
    ("excised_rmt.zeros", "compare_report", "zeros.compare_report", None, None),
    ("excised_rmt.arith", "fundamental_discriminants_up_to",
     "arith.fundamental_discriminants_up_to", None, None),
    ("excised_rmt.arith", "enumerate_family", "arith.enumerate_family", None, None),
    ("excised_rmt.arith", "sum_log_family", "arith.sum_log_family", None, None),
    ("excised_rmt.arith", "oscillatory_family_sum", "arith.oscillatory_family_sum", None, None),
)


def _resolve(module: str, path: str):
    """(owner object, attribute name) for a dotted path, or None if absent."""
    try:
        owner = importlib.import_module(module)
    except ImportError:
        return None
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    if not callable(getattr(owner, attr, None)):
        return None
    return owner, attr


class Tracer:
    """Installs span wrappers on TARGETS; ``uninstall`` restores the originals."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index]
        self.counts = defaultdict(int)
        self.missing = []
        self._stack = []
        self._saved = []

    def install(self) -> None:
        self.missing = []
        for module, path, name, before, after in TARGETS:
            found = _resolve(module, path)
            if found is None:
                self.missing.append(f"{module}.{path}")
                continue
            owner, attr = found
            original = getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name, before, after))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _wrap(self, fn, name, before, after):
        spans, counts, stack = self.spans, self.counts, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            state = before(args, kwargs) if before else None
            if name is None:
                result = fn(*args, **kwargs)
            else:
                index = len(spans)
                spans.append([name, time.perf_counter(), None, stack[-1] if stack else None])
                stack.append(index)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    stack.pop()
                    spans[index][2] = time.perf_counter()
                counts[f"{name}.calls"] += 1
            if after:
                for key, value in after(state, args, kwargs, result).items():
                    counts[key] += value
            return result

        return traced

    def summary(self) -> dict:
        """Per span name: inclusive and self seconds; plus the counters."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent is not None:
                child[parent] += end - start
        total = defaultdict(float)
        self_time = defaultdict(float)
        roots = 0.0
        for i, (name, start, end, parent) in enumerate(self.spans):
            total[name] += end - start
            self_time[name] += end - start - child[i]
            if parent is None:
                roots += end - start
        return {
            "inclusive_s": dict(total),
            "self_s": dict(self_time),
            "root_s": roots,
            "counts": dict(self.counts),
            "missing": list(self.missing),
        }


def warn_missing(missing) -> None:
    for target in missing:
        sys.stderr.write(f"perfbench: trace target {target} not found; its metrics are left out\n")
