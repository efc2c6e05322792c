"""In-memory spans around the public functions of each pipeline layer.

A wrapper is installed where its caller looks the function up.
``noisysort.experiments`` does ``from .model import star_matrix`` and
``from .estimators import ms_sort``, so it holds its own references:
patching ``noisysort.model.star_matrix`` alone would see no call made from
``run_experiment``.  Each entry of ``SITES`` therefore names the module whose
global the caller reads.
"""

from __future__ import annotations

import importlib
import os
import time
import tracemalloc
from collections import Counter
from dataclasses import dataclass


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None  # index of the enclosing span in Tracer.spans


def _path_arg(args, kwargs, position):
    return kwargs["path"] if "path" in kwargs else args[position]


def _count_law(counts, args, kwargs, result):
    counts["model.law_calls"] += 1
    counts["model.law_bytes"] += result.entries.nbytes


def _count_sample(counts, args, kwargs, result):
    counts["model.sample_calls"] += 1
    counts["model.comparisons"] += result.total_comparisons()
    counts["model.pairs"] += result.num_pairs


def _count_write(counts, args, kwargs, result):
    counts["model.io_bytes"] += os.path.getsize(_path_arg(args, kwargs, 1))


def _count_read(counts, args, kwargs, result):
    counts["model.io_bytes"] += os.path.getsize(_path_arg(args, kwargs, 0))


def _count_ms_sort(counts, args, kwargs, result):
    _, states = result
    counts["estimators.gate_rows"] += sum(int(st.gate_fired.sum()) for st in states[1:])
    counts["estimators.region_final"] += states[-1].region_size()


# (span name, module the caller reads the name from, attribute, count hook)
SITES = (
    ("model.law", "noisysort.experiments", "star_matrix", _count_law),
    # split_with_replacement reads it from its own module
    ("model.sample_with", "noisysort.model", "sample_with_replacement", _count_sample),
    ("model.sample_without", "noisysort.experiments", "sample_without_replacement",
     _count_sample),
    ("model.split", "noisysort.experiments", "split_without_replacement", None),
    ("model.merge", "noisysort.experiments", "merge_datasets", None),
    # the files workload calls the dataset I/O and ms_sort through their modules
    ("model.write", "noisysort.model", "write_dataset", _count_write),
    ("model.read", "noisysort.model", "read_dataset", _count_read),
    ("estimators.ms_sort", "noisysort.experiments", "ms_sort", _count_ms_sort),
    ("estimators.ms_sort", "noisysort.estimators", "ms_sort", _count_ms_sort),
    ("estimators.lambda", "noisysort.experiments", "estimate_lambda", None),
    ("estimators.borda", "noisysort.experiments", "borda_sort", None),
    ("perms.distance", "noisysort.experiments", "kendall_tau", None),
    ("perms.distance", "noisysort.experiments", "l1_distance", None),
    ("perms.distance", "noisysort.experiments", "linf_distance", None),
    ("perms.distance", "noisysort.perms", "kendall_tau", None),
    ("perms.distance", "noisysort.perms", "l1_distance", None),
    ("perms.distance", "noisysort.perms", "linf_distance", None),
    ("experiments.run", "noisysort.experiments", "run_experiment", None),
)

# tracemalloc runs only inside these spans; its peak is the span's own
MEMORY_SPANS = frozenset({"estimators.ms_sort"})


class Tracer:
    """Records spans and counts while its wrappers are installed."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self.peak_bytes: Counter = Counter()
        self._open: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn, hook):
        track_memory = name in MEMORY_SPANS

        def traced(*args, **kwargs):
            if track_memory:
                tracemalloc.start()
            index = len(self.spans)
            span = Span(name, time.perf_counter(), float("nan"),
                        self._open[-1] if self._open else None)
            self.spans.append(span)
            self._open.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._open.pop()
                if track_memory:
                    peak = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                    self.peak_bytes[name] = max(self.peak_bytes[name], peak)
            if hook is not None:
                hook(self.counts, args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every site; a site the library no longer has reads 0."""
        for name, module_name, attr, hook in SITES:
            module = importlib.import_module(module_name)
            original = getattr(module, attr, None)
            if original is None:
                continue
            self._patched.append((module, attr, original))
            setattr(module, attr, self._wrap(name, original, hook))

    def uninstall(self) -> None:
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    def total(self, name: str) -> float:
        """Summed duration of the spans called ``name``."""
        return sum(s.end - s.start for s in self.spans if s.name == name)

    def self_time(self, name: str) -> float:
        """Duration of the spans called ``name`` minus their direct children."""
        own = {i for i, s in enumerate(self.spans) if s.name == name}
        children = sum(s.end - s.start for s in self.spans if s.parent in own)
        return self.total(name) - children

    def layer_metrics(self) -> dict[str, float]:
        c = self.counts
        return {
            "model.law_s": self.total("model.law"),
            "model.law_calls": c["model.law_calls"],
            "model.law_mb": c["model.law_bytes"] / 1e6,
            "model.sample_with_s": self.total("model.sample_with"),
            "model.sample_calls": c["model.sample_calls"],
            "model.comparisons": c["model.comparisons"],
            "model.pairs": c["model.pairs"],
            "model.pair_share": c["model.pairs"] / c["model.comparisons"]
            if c["model.comparisons"] else 0.0,
            "model.sample_without_s": self.total("model.sample_without"),
            "model.split_s": self.total("model.split"),
            "model.merge_s": self.total("model.merge"),
            "model.write_s": self.total("model.write"),
            "model.read_s": self.total("model.read"),
            "model.io_mb": c["model.io_bytes"] / 1e6,
            "estimators.ms_sort_s": self.total("estimators.ms_sort"),
            "estimators.ms_sort_peak_mb": self.peak_bytes["estimators.ms_sort"] / 1e6,
            "estimators.gate_rows": c["estimators.gate_rows"],
            "estimators.region_final": c["estimators.region_final"],
            "estimators.lambda_s": self.total("estimators.lambda"),
            "estimators.borda_s": self.total("estimators.borda"),
            "perms.distance_s": self.total("perms.distance"),
            "experiments.self_s": self.self_time("experiments.run"),
        }

    def span_records(self) -> list[dict]:
        return [{"name": s.name, "start": s.start, "end": s.end, "parent": s.parent}
                for s in self.spans]
