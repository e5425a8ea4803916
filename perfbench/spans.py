"""In-memory spans around the calls into each ptmc module.

A traced run replaces public functions at the module bindings their
callers look up (``ptmc.cover.truncated_ball``, ``ptmc.constructions.solve``
and so on) with wrappers that record one span per call, and restores the
originals afterwards. Per-vertex helpers such as ``truncated_distance`` and
``gamma_truncated_distance`` are never wrapped: they run millions of times
per pass and a wrapper would swamp what it measures. An untraced run uses
``NULL``, which patches nothing and records nothing.

A span is ``[name, start, end, parent, job, pass, failed]``; ``parent`` is
the index of the enclosing span or -1. Self time is a span's duration
minus the durations of its direct children.
"""

from __future__ import annotations

import contextlib
import json
import statistics
import time
from collections import defaultdict

import ptmc.cli
import ptmc.codes
import ptmc.constructions
import ptmc.cover
import ptmc.gamma2
import ptmc.graphs


def _count_ball(tr, args, result):
    tr.count("metric.truncated_ball.points", len(result))


def _count_tiling(tr, args, result):
    tr.count("cover.tiling_instance.tiles", len(result[0].tiles))


def _count_eds(tr, args, result):
    tr.count("cover.eds_instance.tiles", len(result.tiles))


def _count_solve(tr, args, result):
    tr.count("cover.search.nodes", result.nodes)
    tr.count("cover.search.solutions", int(result.kind == "solution"))


def _count_template_solve(tr, args, result):
    # tiles that survive build_by_template's filters, for constructions.tile_yield
    tr.count("constructions.solve_tiles", len(args[0].tiles))
    _count_solve(tr, args, result)


def _count_enumerate(tr, args, result):
    tr.count("cover.search.nodes", result.nodes)
    tr.count("cover.search.solutions", len(result.solutions))


def _count_components(tr, args, result):
    tr.count("codes.components_of.components", len(result))


def _count_verify(tr, args, result):
    tr.count("codes.verify_kappa_ptmc.vertices", args[0].ambient.vertex_count())


def _count_region(tr, args, result):
    tr.count("gamma2.region.vertices", len(result.graph))


def _count_extend(tr, args, result):
    tr.count("gamma2.extend_2ptmc.pairs", result.interior_size * len(result.centers))


def _count_export(tr, args, result):
    tr.count("gamma2.export_graph.bytes", len(result))


# (module, attribute, span name, counter): one entry per binding a caller uses
PATCHES = [
    (ptmc.cover, "truncated_ball", "metric.truncated_ball", _count_ball),
    (ptmc.codes, "truncated_ball", "metric.truncated_ball", _count_ball),
    (ptmc.constructions, "truncated_ball", "metric.truncated_ball", _count_ball),
    (ptmc.constructions, "tiling_instance", "cover.tiling_instance", _count_tiling),
    (ptmc.cover, "eds_instance", "cover.eds_instance", _count_eds),
    (ptmc.gamma2, "eds_instance", "cover.eds_instance", _count_eds),
    (ptmc.cover, "solve", "cover.search", _count_solve),
    (ptmc.gamma2, "solve", "cover.search", _count_solve),
    (ptmc.constructions, "solve", "cover.search", _count_template_solve),
    (ptmc.cover, "enumerate_covers", "cover.search", _count_enumerate),
    (ptmc.gamma2, "enumerate_covers", "cover.search", _count_enumerate),
    (ptmc.constructions, "build_by_template", "constructions.build_by_template", None),
    (ptmc.constructions, "build_box_code", "constructions.build_box_code", None),
    (ptmc.constructions, "min_component_separation",
     "constructions.min_component_separation", None),
    (ptmc.codes, "components_of", "codes.components_of", _count_components),
    (ptmc.constructions, "components_of", "codes.components_of", _count_components),
    (ptmc.codes, "verify_kappa_ptmc", "codes.verify_kappa_ptmc", _count_verify),
    (ptmc.codes, "code_to_json", "codes.json", None),
    (ptmc.codes, "code_from_json", "codes.json", None),
    (ptmc.cli, "code_to_json", "codes.json", None),
    (ptmc.cli, "code_from_json", "codes.json", None),
    (ptmc.gamma2, "build_region", "gamma2.build_region", _count_region),
    (ptmc.gamma2, "extend_2ptmc", "gamma2.extend_2ptmc", _count_extend),
    (ptmc.gamma2, "export_graph", "gamma2.export_graph", _count_export),
    (ptmc.gamma2, "enumerate_hive_2ptmc", "gamma2.enumerate_hive_2ptmc", None),
    (ptmc.gamma2, "restricted_ball", "gamma2.restricted_ball", None),
    (ptmc.graphs, "lattice_graph", "graphs.lattice_graph", None),
    (ptmc.cli, "main", "cli.main", None),
]

# span names whose self time is reported per layer
SELF_TIMED = ["metric.truncated_ball", "cover.tiling_instance", "cover.eds_instance",
              "cover.search", "constructions.build_by_template",
              "constructions.build_box_code", "constructions.min_component_separation",
              "codes.components_of", "codes.verify_kappa_ptmc", "codes.json",
              "gamma2.build_region", "gamma2.extend_2ptmc", "gamma2.export_graph",
              "gamma2.enumerate_hive_2ptmc", "gamma2.restricted_ball",
              "graphs.lattice_graph", "cli.main", "job"]


class NullTracer:
    """Tracing off: spans and counts cost one no-op call each."""

    def span(self, name):
        return contextlib.nullcontext()

    def count(self, name, value):
        pass


NULL = NullTracer()


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self.pass_no = 0
        self.job = None
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    # -- recording ---------------------------------------------------------

    def _open(self, name):
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, self.job,
                           self.pass_no, False])
        self._stack.append(len(self.spans) - 1)

    def _close(self, failed=False):
        span = self.spans[self._stack.pop()]
        span[2] = time.perf_counter()
        span[6] = failed

    @contextlib.contextmanager
    def span(self, name):
        self._open(name)
        try:
            yield
        except BaseException:
            self._close(failed=True)
            raise
        self._close()

    def count(self, name, value):
        self.counts[self.pass_no][name] += value

    def _wrap(self, fn, name, counter):
        def traced(*args, **kwargs):
            self._open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self._close(failed=True)
                raise
            self._close()
            if counter is not None:
                counter(self, args, result)
            return result
        return traced

    def install(self):
        for module, attr, name, counter in PATCHES:
            fn = getattr(module, attr)
            self._saved.append((module, attr, fn))
            setattr(module, attr, self._wrap(fn, name, counter))

    def restore(self):
        while self._saved:
            module, attr, fn = self._saved.pop()
            setattr(module, attr, fn)

    # -- aggregation -------------------------------------------------------

    def pass_metrics(self, pass_no: int) -> dict[str, float]:
        """Per-layer self times, call counts and work counts of one pass."""
        child_time: dict[int, float] = defaultdict(float)
        for span in self.spans:
            if span[5] == pass_no and span[3] >= 0:
                child_time[span[3]] += span[2] - span[1]
        self_s: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        failed: dict[str, int] = defaultdict(int)
        for i, span in enumerate(self.spans):
            if span[5] != pass_no:
                continue
            self_s[span[0]] += span[2] - span[1] - child_time[i]
            calls[span[0]] += 1
            failed[span[0]] += span[6]
        counts = self.counts[pass_no]
        out = {f"{name}.self_s": self_s[name] for name in SELF_TIMED}
        out["metric.truncated_ball.calls"] = calls["metric.truncated_ball"]
        out["cover.search.calls"] = calls["cover.search"]
        out["cover.search.failed"] = failed["cover.search"]
        for name in ("metric.truncated_ball.points", "cover.tiling_instance.tiles",
                     "cover.eds_instance.tiles", "cover.search.nodes",
                     "cover.search.solutions", "codes.components_of.components",
                     "codes.verify_kappa_ptmc.vertices", "codes.json.bytes",
                     "gamma2.region.vertices", "gamma2.extend_2ptmc.pairs",
                     "gamma2.export_graph.bytes"):
            out[name] = counts[name]
        search_s = self_s["cover.search"]
        out["cover.search.nodes_per_s"] = counts["cover.search.nodes"] / search_s if search_s else 0.0
        built = counts["cover.tiling_instance.tiles"]
        out["constructions.tile_yield"] = counts["constructions.solve_tiles"] / built if built else 0.0
        return out

    def layer_metrics(self, passes: list[int]) -> dict[str, float]:
        """Median over the given traced passes of each per-pass metric."""
        per_pass = [self.pass_metrics(p) for p in passes]
        return {name: statistics.median(m[name] for m in per_pass) for name in per_pass[0]}

    def dump(self, path) -> None:
        with open(path, "w") as f:
            for span in self.spans:
                f.write(json.dumps(span) + "\n")
