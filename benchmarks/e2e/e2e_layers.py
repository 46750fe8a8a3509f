"""Per-layer metrics of the traced run.

The traced run records the ``repro.obs`` spans the library already
emits (``cross_validate``, ``fold``, ``fit``, ``setup``, ``epoch``,
``validate``, ``neg_sampling``, ``forward``, ``backward``, ``step``,
``normalize``, ``evaluate``) plus spans this module adds by wrapping
public callables of each layer for the duration of the run; the
wrappers are removed in a ``finally`` block, so no span is added to the
library itself.  Autodiff ops are timed by the op profiler, which here
also charges each top-level op to the span it ran in: a container span
(``epoch``, ``fit``, ...) is then accounted for by its child spans plus
the ops it ran directly, and whatever remains is reported as
``trace.unattributed``.
"""

from __future__ import annotations

import contextlib
import importlib
from collections import defaultdict

import numpy as np

from repro import obs
from repro.obs import OpProfiler, disable_op_profiler, enable_op_profiler
from repro.obs import phase_breakdown

__all__ = ["PER_LAYER", "traced", "layer_metrics"]

# (module, attribute, span name).  Functions are wrapped in the module
# their caller looks them up in (``repro.approaches.base`` imports the
# alignment functions by name); methods on the class defining them.
WRAPPED = (
    ("repro.datagen.families", "source_pair", "datagen.source_pair"),
    ("repro.sampling", "ids_sample", "sampling.ids_sample"),
    ("repro.embedding.negative_sampling", "TruncatedSampler.refresh",
     "embedding.sampler_refresh"),
    ("repro.approaches.base", "EmbeddingApproach.similarity_between",
     "alignment.similarity"),
    ("repro.approaches.base", "csls_rescale", "alignment.csls"),
    ("repro.approaches.base", "rank_metrics", "alignment.rank"),
    ("repro.approaches.base", "infer_alignment", "alignment.infer"),
    ("repro.approaches.base", "calibrate_abstention", "alignment.nil"),
    ("repro.approaches.base", "nil_aware_metrics", "alignment.nil"),
    ("repro.serve.store", "EmbeddingStore.save", "serve.store_save"),
    ("repro.serve.index", "IVFIndex.build", "serve.index_build"),
    ("repro.serve.store", "EmbeddingStore.save_index", "serve.index_build"),
    ("repro.serve.engine", "QueryEngine.from_store", "serve.store_load"),
    ("repro.serve.index", "ExactIndex.search", "serve.search"),
    ("repro.serve.index", "IVFIndex.search", "serve.search"),
)

# Spans whose own time is not a layer: the time their children and
# directly-run ops leave uncovered is unattributed.
CONTAINERS = {"cross_validate", "fold", "fit", "epoch", "evaluate",
              "bench.eval"}

# name -> unit
PER_LAYER = {
    "datagen.source_pair_s": "s",
    "sampling.ids_sample_s": "s",
    "pipeline.fold_s": "s",
    "approaches.setup_s": "s",
    "approaches.epoch_self_s": "s",
    "approaches.validate_s": "s",
    "approaches.normalize_s": "s",
    "embedding.neg_sampling_s": "s",
    "embedding.sampler_refresh_s": "s",
    "embedding.sampler_refresh.calls": "count",
    "autodiff.optimizer_step_s": "s",
    "autodiff.optimizer_step.calls": "count",
    "autodiff.backward_s": "s",
    "autodiff.gather_bwd_s": "s",
    "autodiff.matmul_bwd_s": "s",
    "autodiff.forward_s": "s",
    "autodiff.op_coverage": "fraction",
    "alignment.similarity_s": "s",
    "alignment.similarity.cells": "count",
    "alignment.similarity_in_fit_s": "s",
    "alignment.rank_s": "s",
    "alignment.csls_s": "s",
    "alignment.infer_s": "s",
    "alignment.nil_s": "s",
    "serve.store_save_s": "s",
    "serve.index_build_s": "s",
    "serve.store_load_s": "s",
    "serve.search_s": "s",
    "serve.search.calls": "count",
    "serve.engine_overhead_s": "s",
    "serve.cache_hit_rate": "fraction",
    "serve.abstain_rate": "fraction",
    "trace.unattributed": "fraction",
    "trace.overhead": "fraction",
}


class _SpanOpProfiler(OpProfiler):
    """Op profiler that also charges each top-level op to the open span."""

    def __init__(self, tracer: obs.Tracer):
        super().__init__()
        self._tracer = tracer
        self.seconds_by_span: dict[int | None, float] = defaultdict(float)

    def _timed(self, kind, fn, args, kwargs):
        if self._stack:  # nested op: its caller's frame is charged
            return super()._timed(kind, fn, args, kwargs)
        current = self._tracer.current_span
        started = self._clock()
        try:
            return super()._timed(kind, fn, args, kwargs)
        finally:
            key = current.id if current is not None else None
            self.seconds_by_span[key] += self._clock() - started


def _spanned(fn, name):
    def wrapper(*args, **kwargs):
        with obs.span(name) as current:
            out = fn(*args, **kwargs)
            if isinstance(out, np.ndarray):
                current.set(cells=int(out.size))
            return out

    wrapper.__wrapped__ = fn
    return wrapper


def _install(restore: list) -> None:
    """Wrap every callable of :data:`WRAPPED`, noting in ``restore``
    each original as soon as it is replaced."""
    for module_name, path, name in WRAPPED:
        owner = importlib.import_module(module_name)
        *classes, attr = path.split(".")
        for cls in classes:
            owner = getattr(owner, cls)
        raw = vars(owner)[attr]
        if isinstance(raw, classmethod):
            wrapped = classmethod(_spanned(raw.__func__, name))
        else:
            wrapped = _spanned(raw, name)
        restore.append((owner, attr, raw))
        setattr(owner, attr, wrapped)


@contextlib.contextmanager
def traced():
    """Trace spans, wrapped layer calls and autodiff ops in a block.

    Yields the :class:`repro.obs.Capture` (whose ``profiler`` is the
    span-charging op profiler).
    """
    with obs.capture() as capture:
        capture.profiler = enable_op_profiler(
            _SpanOpProfiler(capture.tracer))
        restore = []
        try:
            _install(restore)
            yield capture
        finally:
            for owner, attr, raw in reversed(restore):
                setattr(owner, attr, raw)
            disable_op_profiler()


def layer_metrics(capture, measured: dict) -> dict[str, float]:
    """The per-layer table of one traced repeat (``trace.overhead``
    aside, which needs an untraced repeat to compare against)."""
    events = capture.events
    rows = {row["name"]: row for row in phase_breakdown(events)}
    spans = {event["id"]: event for event in events
             if event.get("type") == "span"}
    profiler = capture.profiler
    ops = profiler.stats

    def wall(name):
        return rows[name]["wall_s"] if name in rows else 0.0

    def own(name):
        return rows[name]["self_s"] if name in rows else 0.0

    def calls(name):
        return rows[name]["count"] if name in rows else 0

    def op(kind, field="self_seconds"):
        return getattr(ops[kind], field) if kind in ops else 0.0

    def inside(event, ancestor):
        parent = event.get("parent_id")
        while parent is not None:
            if spans[parent]["name"] == ancestor:
                return True
            parent = spans[parent].get("parent_id")
        return False

    def named(name):
        return [e for e in spans.values() if e["name"] == name]

    children = defaultdict(float)
    for event in spans.values():
        if event.get("parent_id") is not None:
            children[event["parent_id"]] += event["dur_s"]
    by_span = profiler.seconds_by_span
    unattributed = sum(
        event["dur_s"] - children[event["id"]] - by_span.get(event["id"], 0.0)
        for event in spans.values() if event["name"] in CONTAINERS)
    fit_ops = sum(seconds for span_id, seconds in by_span.items()
                  if span_id is not None and (spans[span_id]["name"] == "fit"
                                              or inside(spans[span_id], "fit")))
    backward = sum(stat.self_seconds for kind, stat in ops.items()
                   if kind.endswith(".bwd"))
    step = op("optimizer.step")
    similarity = named("alignment.similarity")
    searches_in_queries = sum(e["dur_s"] for e in named("serve.search")
                              if inside(e, "bench.query"))
    return {
        "datagen.source_pair_s": wall("datagen.source_pair"),
        "sampling.ids_sample_s": wall("sampling.ids_sample"),
        "pipeline.fold_s": wall("fold"),
        "approaches.setup_s": wall("setup"),
        "approaches.epoch_self_s": own("epoch"),
        "approaches.validate_s": wall("validate"),
        "approaches.normalize_s": wall("normalize"),
        "embedding.neg_sampling_s": wall("neg_sampling"),
        "embedding.sampler_refresh_s": wall("embedding.sampler_refresh"),
        "embedding.sampler_refresh.calls": calls("embedding.sampler_refresh"),
        "autodiff.optimizer_step_s": step,
        "autodiff.optimizer_step.calls": int(op("optimizer.step", "count")),
        "autodiff.backward_s": backward,
        "autodiff.gather_bwd_s": op("gather.bwd"),
        "autodiff.matmul_bwd_s": op("matmul.bwd"),
        "autodiff.forward_s": profiler.total_self_seconds() - backward - step,
        "autodiff.op_coverage": fit_ops / wall("fit") if wall("fit") else 0.0,
        "alignment.similarity_s": own("alignment.similarity"),
        "alignment.similarity.cells": sum(
            e.get("attrs", {}).get("cells", 0) for e in similarity),
        "alignment.similarity_in_fit_s": sum(
            e["dur_s"] for e in similarity if inside(e, "fit")),
        "alignment.rank_s": wall("alignment.rank"),
        "alignment.csls_s": wall("alignment.csls"),
        "alignment.infer_s": wall("alignment.infer"),
        "alignment.nil_s": wall("alignment.nil"),
        "serve.store_save_s": wall("serve.store_save"),
        "serve.index_build_s": wall("serve.index_build"),
        "serve.store_load_s": wall("serve.store_load"),
        "serve.search_s": wall("serve.search"),
        "serve.search.calls": calls("serve.search"),
        "serve.engine_overhead_s": wall("bench.query") - searches_in_queries,
        "serve.cache_hit_rate": measured["replay_hit_rate"],
        "serve.abstain_rate": measured["abstain_rate"],
        # over the time the container spans cover: cross-validation
        # (training and its evaluation) and the evaluation tries, all
        # passes
        "trace.unattributed": unattributed / (measured["cv_s"]
                                              + measured["eval_wall_s"]),
    }
