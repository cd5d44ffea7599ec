"""In-memory spans around doctype's public functions, installed from outside.

``install`` replaces each listed function where the calling module bound it
(``doctype.cli.parse_records``, ``doctype.pipeline.sweep``,
``doctype.evaluation.train`` and so on) with a wrapper that records a span:
name, start, end, parent span and a few counts taken from the arguments or
the result. Nothing under ``src/`` changes. Spans stay in memory until
``Tracer.dump`` writes them as JSON lines when the traced run ends.
"""

from __future__ import annotations

import functools
import importlib
import json
import time


class Tracer:
    def __init__(self, clock=time.perf_counter) -> None:
        self.clock = clock
        #: [name, start, end, parent index or -1, counts or None]
        self.spans: list[list] = []
        self._stack: list[int] = []

    def open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, self.clock(), 0.0, parent, None])
        self._stack.append(index)
        return index

    def close(self, index: int, counts: dict | None = None) -> None:
        span = self.spans[index]
        span[2] = self.clock()
        span[4] = counts
        self._stack.pop()

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")


def _first(args, kwargs, key):
    return args[0] if args else kwargs[key]


def _kind(prefix, key):
    return lambda args, kwargs: f"{prefix}.{_first(args, kwargs, key)}"


def _model_kind(prefix):
    return lambda args, kwargs: f"{prefix}.{_first(args, kwargs, 'model').kind}"


def _rows(args, kwargs, result):
    return {"rows": len(args[1] if len(args) > 1 else kwargs["X_raw"])}


#: (span name or namer, counts taken from (args, kwargs, result) or None,
#:  [(module, attribute), ...] bindings to replace)
WRAPS = (
    ("ingest.parse_records",
     lambda a, k, r: {"skipped": r.skipped, "records": len(r.records)},
     [("doctype.cli", "parse_records"), ("doctype.pipeline", "parse_records")]),
    ("ingest.extract_features",
     lambda a, k, r: {"words": r.f2_total_words},
     [("doctype.cli", "extract_features"), ("doctype.pipeline", "extract_features")]),
    ("labeling.read_examples", None,
     [("doctype.cli", "read_examples"), ("doctype.labeling", "read_examples")]),
    ("labeling.balanced_sample", None,
     [("doctype.cli", "balanced_sample"), ("doctype.pipeline", "balanced_sample")]),
    ("labeling.stratified_split", None,
     [("doctype.cli", "stratified_split"), ("doctype.pipeline", "stratified_split"),
      ("doctype.evaluation", "stratified_split")]),
    ("stats.impute_f1", None,
     [("doctype.cli", "impute_f1"), ("doctype.pipeline", "impute_f1")]),
    ("stats.derive_thresholds", None,
     [("doctype.cli", "derive_thresholds"), ("doctype.pipeline", "derive_thresholds"),
      ("doctype.models.baselines", "derive_thresholds")]),
    (_kind("models.train", "kind"), None,
     [("doctype.cli", "train"), ("doctype.pipeline", "train"),
      ("doctype.evaluation", "train"), ("doctype.models", "train")]),
    ("models.dataset_matrix",
     lambda a, k, r: {"rows": len(r[1])},
     [("doctype.models.dispatch", "dataset_matrix"), ("doctype.pipeline", "dataset_matrix"),
      ("doctype.evaluation", "dataset_matrix")]),
    (_model_kind("models.predict_batch"), _rows,
     [("doctype.pipeline", "predict_batch"), ("doctype.evaluation", "predict_batch"),
      ("doctype.models", "predict_batch")]),
    (_model_kind("models.predict_row"), None,
     [("doctype.cli", "predict"), ("doctype.models", "predict")]),
    ("models.load_model", None,
     [("doctype.cli", "load_model"), ("doctype.models", "load_model")]),
    ("models.save_model", None, [("doctype.models", "save_model")]),
    (_kind("evaluation.sweep", "kind"), None,
     [("doctype.cli", "sweep"), ("doctype.pipeline", "sweep")]),
    ("evaluation.cross_validate", None,
     [("doctype.cli", "cross_validate"), ("doctype.evaluation", "cross_validate")]),
    ("evaluation.evaluate", None,
     [("doctype.evaluation", "evaluate"), ("doctype.pipeline", "evaluate")]),
    ("engagement.read_log_events",
     lambda a, k, r: {"rejected": r.n_rejected},
     [("doctype.cli", "read_log_events"), ("doctype.engagement", "read_log_events")]),
    ("engagement.engagement_report", None,
     [("doctype.cli", "engagement_report"), ("doctype.engagement", "engagement_report")]),
    ("engagement.build_impression_sets",
     lambda a, k, r: {"sets": len(r.sets)},
     [("doctype.engagement", "build_impression_sets")]),
    ("engagement.qtctr", None, [("doctype.engagement", "qtctr")]),
    ("engagement.rqtctr", None, [("doctype.engagement", "rqtctr")]),
    ("pipeline.run_pipeline", None, [("doctype.cli", "run_pipeline")]),
    ("cli.extract", None, [("doctype.cli", "cmd_extract")]),
    ("cli.predict", None, [("doctype.cli", "cmd_predict")]),
    ("cli.engagement", None, [("doctype.cli", "cmd_engagement")]),
)


def _wrapper(tracer: Tracer, fn, name, counts):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        index = tracer.open(name(args, kwargs) if callable(name) else name)
        result = None
        try:
            result = fn(*args, **kwargs)
            return result
        finally:
            tracer.close(index, counts(args, kwargs, result) if counts and result is not None else None)

    return traced


def install(tracer: Tracer) -> None:
    """Wrap every binding in WRAPS; each wrapper calls the original function."""
    for name, counts, bindings in WRAPS:
        for module_name, attribute in bindings:
            module = importlib.import_module(module_name)
            original = getattr(module, attribute)
            setattr(module, attribute, _wrapper(tracer, original, name, counts))
