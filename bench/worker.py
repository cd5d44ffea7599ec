"""One workload in a fresh interpreter: timed jobs, then correctness checks.

    python3 bench/worker.py WORKLOAD DIR SECONDS MODE

MODE is ``untraced``, ``traced`` (layer wrappers from tracer.py installed,
spans written to DIR/spans.jsonl) or ``setup`` (time importing doctype.cli,
loading each model file the workload uses and its first predict, then exit).
Jobs repeat until SECONDS have passed, at least once, while SpeedProbe
samples the host's speed. The result goes to DIR/result-MODE.json; run.py
turns it into metrics.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import re
import resource
import signal
import statistics
import sys
import time
from pathlib import Path

LABELS = ("Research", "Slides", "Thesis")
TYPES_VARIANTS = [(t, v) for t in LABELS for v in ("any", "top")]

#: The 7 trainable kinds, each with the settings the model-kinds workload fits.
KIND_SETTINGS = {
    "random-forest": ({"n_trees": 10, "max_leaf_nodes": 5, "min_leaf_size": 1,
                       "bootstrap": True, "feature_subset": 2}, "identity"),
    "adaboost": ({}, "identity"),
    "decision-tree": ({"max_depth": 4}, "identity"),
    "gnb": ({}, "log-scale"),
    "knn": ({"k": 5}, "z-score"),
    "linear-svm": ({}, "z-score"),
    "baseline-threshold": ({}, "identity"),
}
#: A feature vector for the first predict of the setup measurement.
SETUP_ROW = (2, 5400, 14, 5400 / 14)
#: SpeedProbe's median snippet time in a set-up probe on the host the
#: benchmark was tuned on (2 cores, Python 3.11.7, numpy 2.4.6); setup_s
#: is scaled to it.
NOMINAL_SNIPPET_S = 180e-6


class SpeedProbe:
    """Samples the host's speed during the timed jobs.

    The speed of a shared host drifts by tens of percent within seconds.
    Every PERIOD seconds a SIGALRM handler times a fixed snippet of string,
    dict and small numpy work (about 0.25 ms). A job's time divided by the
    mean snippet time during that job is its cost in snippet units, which
    cancels most of the drift. ``clock`` excludes the time spent sampling,
    so the raw times and the spans exclude it too.
    """

    PERIOD = 0.05
    _WORDS = ("alpha, beta (gamma) delta. 12 x-y -- " * 60).split()

    def __init__(self):
        import numpy as np

        self.samples: list[float] = []
        self.stolen = 0.0
        self._np = np
        self._values = np.random.default_rng(0).random(200)

    def clock(self) -> float:
        # A sample may land between reading the counter and reading
        # ``stolen``; the clock would then step back by a whole sample.
        # Read again until no sample came in between.
        while True:
            stolen = self.stolen
            now = time.perf_counter()
            if stolen == self.stolen:
                return now - stolen

    def snippet_s(self) -> float:
        started = time.perf_counter()
        sum(1 for token in self._WORDS if token.strip(".,()-").isalnum())
        counts: dict[int, int] = {}
        for i in range(600):
            counts[i % 37] = counts.get(i % 37, 0) + i
        for _ in range(6):
            self._np.argsort(self._values, kind="stable")
        return time.perf_counter() - started

    def _sample(self, signum, frame) -> None:
        started = time.perf_counter()
        self.samples.append(self.snippet_s())
        self.stolen += time.perf_counter() - started

    def __enter__(self) -> "SpeedProbe":
        self._first = len(self.samples)
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.PERIOD, self.PERIOD)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)

    def unit_s(self) -> float:
        """Mean snippet time over the last job; one fresh sample if there was none."""
        during = self.samples[self._first:] or [self.snippet_s()]
        return sum(during) / len(during)


def model_files(workload: str, work: Path) -> list[Path]:
    if workload == "classify":
        return [work / "model.json"]
    if workload == "model-kinds":
        return [work / "models" / f"{kind}.json" for kind in KIND_SETTINGS]
    return []


def measure_setup(workload: str, work: Path) -> dict:
    """Set-up seconds, raw and scaled to a host where the snippet takes NOMINAL_SNIPPET_S."""
    started = time.perf_counter()
    import doctype.cli  # noqa: F401
    from doctype.ingest import FeatureVector
    from doctype.models import load_model, predict

    for path in model_files(workload, work):
        predict(load_model(path), FeatureVector(*SETUP_ROW))
    raw = time.perf_counter() - started
    probe = SpeedProbe()
    snippet = statistics.median(probe.snippet_s() for _ in range(21))
    return {"setup_s": raw * NOMINAL_SNIPPET_S / snippet, "setup_raw_s": raw}


def run_cli(argv: list[str]) -> tuple[int, str]:
    """Call doctype's CLI in-process; return its exit code and stderr."""
    from doctype.cli import main

    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


def digest_dir(path: Path) -> str:
    h = hashlib.sha256()
    for file in sorted(path.iterdir()):
        h.update(file.name.encode() + b"\0" + file.read_bytes() + b"\0")
    return h.hexdigest()


def read_jsonl(path: Path) -> list[dict]:
    with open(path, encoding="utf-8") as handle:
        return [json.loads(line) for line in handle if line.strip()]


class Workload:
    """``job`` is the timed work of one repetition. ``after`` books its
    outcome untimed and returns the items it did; ``check`` runs once at the end.
    """

    def __init__(self, work: Path, mode: str):
        self.work = work
        self.mode = mode
        #: Seconds the job spent on the path its throughput counts; None
        #: when that is the whole job.
        self.path_s = None
        self.clock = time.perf_counter
        self.truth = json.loads((work / "truth.json").read_text())
        self.errors: list[str] = []
        self.attempted = 0
        self.failed = 0

    def expect(self, ok: bool, message: str) -> None:
        if not ok and len(self.errors) < 20:
            self.errors.append(message)
        elif not ok:
            self.errors[-1] = f"... and more; last: {message}"

    def prepare(self) -> None:
        pass

    def job(self):
        raise NotImplementedError

    def after(self, outcome) -> int:
        raise NotImplementedError

    def check(self) -> None:
        pass


class Pipeline(Workload):
    """``doctype pipeline`` over a labeled file with the default sweep."""

    def prepare(self):
        self.config = json.loads((self.work / "config.json").read_text())
        self.digests = []

    def job(self):
        # The manifest records the config, output directory included, so
        # every job of every mode writes to the same place.
        self.out = Path(self.config["paths"]["output_dir"])
        return run_cli(["pipeline", "--config", str(self.work / "config.json")])

    def after(self, outcome):
        code, err = outcome
        self.attempted += 1
        if code != 0:
            self.failed += 1
            self.expect(False, f"pipeline exited {code}: {err.strip()[-300:]}")
            return 0
        self.digests.append(digest_dir(self.out))
        return self.truth["sampled"]

    def check(self):
        self.expect(len(set(self.digests)) <= 1, "pipeline outputs differ between jobs of one run")
        if not self.digests:
            return
        manifest = json.loads((self.out / "manifest.json").read_text())
        counts = manifest["counts"]
        sampled = self.truth["sampled"]
        validation = round(self.config["validation_fraction"] * sampled)
        self.expect(counts.get("labeled") == self.truth["labeled"], f"manifest labeled {counts}")
        self.expect(counts.get("sampled") == sampled, f"manifest sampled {counts}")
        self.expect(counts.get("validation") == validation, f"manifest validation {counts}")
        self.expect(counts.get("train_pool") == sampled - validation, f"manifest train_pool {counts}")
        cv = json.loads((self.out / "cv_report.json").read_text())
        val = json.loads((self.out / "validation_report.json").read_text())
        self.named = {"cv_f1": cv["mean_weighted_f1"], "validation_f1": val["weighted_f1"]}
        self.expect(cv["mean_weighted_f1"] == manifest["best"]["mean_weighted_f1"], "cv_f1 != manifest")
        for name, value in self.named.items():
            self.expect(0.5 < value <= 1.0, f"{name} = {value} is out of range")
        self.expect(val["n_examples"] == validation, "validation report size")


class Classify(Workload):
    """``doctype extract`` then ``doctype predict`` with a deployed forest."""

    def prepare(self):
        self.records = self.work / "records.jsonl"
        self.model = self.work / "model.json"
        self.features = self.work / f"features-{self.mode}.jsonl"
        self.predictions = self.work / f"predictions-{self.mode}.jsonl"
        self.reported = set()

    def job(self):
        code_x, err_x = run_cli(["extract", str(self.records), "--out", str(self.features)])
        code_p, err_p = run_cli(["predict", str(self.model), str(self.features), "--out", str(self.predictions)])
        return code_x, err_x, code_p, err_p

    def after(self, outcome):
        code_x, err_x, code_p, err_p = outcome
        docs = len(self.truth["docs"])
        self.attempted += docs
        predicted = re.search(r"predict: (\d+) rows, (\d+) errors", err_p)
        if code_x or code_p or not predicted:
            self.failed += docs
            self.expect(False, f"extract/predict exited {code_x}/{code_p}: {err_p.strip()[-300:]}")
            return 0
        # A predict error row is a document the user got no type for.
        self.failed += int(predicted.group(2))
        self.reported.add((err_x.strip().splitlines()[0], predicted.groups()))
        return docs

    def check(self):
        from doctype.ingest import parse_records
        from doctype.labeling import rule_label
        from doctype.models import load_model, predict_batch
        import numpy as np

        docs = self.truth["docs"]
        self.expect(len(self.reported) == 1, f"jobs reported different counts: {self.reported}")
        expected = f"extract: {len(docs)} records, {self.truth['skipped']} skipped"
        for line, _ in self.reported:
            self.expect(line == expected, f"extract said {line!r}, expected {expected!r}")
        rows = read_jsonl(self.features)
        self.expect(sorted(r["id"] for r in rows) == sorted(docs), "extracted ids differ from the valid records")
        for row in rows:
            want = docs.get(row["id"])
            if want is None:
                continue
            f4 = want["f2"] / want["f3"]
            got = (row["f1"], row["f2"], row["f3"], row["f4"])
            self.expect(got == (want["f1"], want["f2"], want["f3"], f4), f"{row['id']}: features {got} != {want}")
        with open(self.records, "rb") as handle:
            parsed = parse_records(handle)
        for record in parsed.records:
            label = rule_label(record).label
            self.expect(label == docs[record.id]["label"], f"{record.id}: rule_label {label}")
        # Every complete row is classified, and agrees with the batch path.
        model = load_model(self.model)
        predictions = read_jsonl(self.predictions)
        self.expect(len(predictions) == len(rows), "one prediction row per feature row")
        complete = [(row, pred) for row, pred in zip(rows, predictions) if row["f1"] is not None]
        for row, pred in zip(rows, predictions):
            ok = pred.get("doc_id") == row["id"] and ("doc_type" in pred or row["f1"] is None)
            self.expect(ok, f"prediction {pred} for {row['id']}")
        X = np.array([[float(row[f]) for f in ("f1", "f2", "f3", "f4")] for row, _ in complete])
        labels, scores = predict_batch(model, X)
        for (row, pred), label, score in zip(complete, labels, scores):
            self.expect(pred.get("doc_type") == LABELS[int(label)], f"{row['id']}: row/batch label")
            got = [pred.get("scores", {}).get(t, math.nan) for t in LABELS]
            self.expect(max(abs(a - b) for a, b in zip(got, score)) <= 1e-9, f"{row['id']}: scores")


class ModelKinds(Workload):
    """Train, save, load, single-row and batch predict for every kind."""

    def prepare(self):
        import numpy as np
        from doctype.labeling import read_examples

        with open(self.work / "train.jsonl", encoding="utf-8") as handle:
            self.train_set = read_examples(handle)
        with open(self.work / "queries.jsonl", encoding="utf-8") as handle:
            self.queries = read_examples(handle)
        self.X = np.array([q.features.values() for q in self.queries], dtype=float)
        (self.work / "models").mkdir(exist_ok=True)
        self.row_us: list[float] = []
        self.train_s: list[float] = []

    def job(self):
        import doctype.models as models

        loaded = {}
        train_s = 0.0
        for seed, (kind, (hyperparameters, transform)) in enumerate(KIND_SETTINGS.items()):
            t0 = self.clock()
            model = models.train(kind, self.train_set, hyperparameters, seed, transform)
            train_s += self.clock() - t0
            path = self.work / "models" / f"{kind}.json"
            models.save_model(model, path)
            loaded[kind] = models.load_model(path)
        row = {kind: [] for kind in KIND_SETTINGS}
        for query in self.queries:
            for kind, model in loaded.items():
                t0 = self.clock()
                result = models.predict(model, query.features)
                self.row_us.append((self.clock() - t0) * 1e6)
                row[kind].append(result)
        batch = {}
        self.path_s = 0.0
        for kind, model in loaded.items():
            t0 = self.clock()
            batch[kind] = models.predict_batch(model, self.X)
            self.path_s += self.clock() - t0
        self.train_s.append(train_s)
        return row, batch

    def after(self, outcome):
        """Row and batch paths must agree for every query and kind."""
        row, batch = outcome
        self.attempted += len(KIND_SETTINGS) * (3 + 1 + len(self.queries))
        for kind, results in row.items():
            labels, scores = batch[kind]
            for q, ((label, row_scores), b_label, b_scores) in enumerate(zip(results, labels, scores)):
                self.expect(int(label) == int(b_label), f"{kind} query {q}: row label {label!r} != batch {b_label}")
                diff = max(abs(row_scores[t] - b_scores[int(t)]) for t in row_scores)
                self.expect(diff <= 1e-9, f"{kind} query {q}: row/batch scores differ by {diff}")
        return len(self.queries) * len(KIND_SETTINGS)


class Engagement(Workload):
    """``doctype engagement --predictions``, then the list API on the same events."""

    def prepare(self):
        from doctype.engagement import read_log_events
        from doctype.ingest import DocType

        predictions = {
            row["doc_id"]: DocType.from_label(row["doc_type"])
            for row in read_jsonl(self.work / "predictions.jsonl")
        }
        with open(self.work / "log.jsonl", encoding="utf-8") as handle:
            parsed = read_log_events(handle, predictions)
        self.by_engine = {
            engine: [e for e in parsed.events if e.engine == engine]
            for engine in self.truth["engines"]
        }
        self.report_path = self.work / f"report-{self.mode}.json"
        self.api_sets = 0
        self.api_s = 0.0
        self.stderr = set()

    def job(self):
        import doctype.engagement as engagement
        from doctype.ingest import DocType

        started = self.clock()
        code, err = run_cli([
            "engagement", str(self.work / "log.jsonl"),
            "--predictions", str(self.work / "predictions.jsonl"),
            "--out", str(self.report_path),
        ])
        cli_done = self.clock()
        self.api = {}
        n_sets = {}
        for engine, events in self.by_engine.items():
            built = engagement.build_impression_sets(events)
            n_sets[engine] = len(built.sets)
            self.api[engine] = {
                (t, v): (engagement.qtctr(built.sets, DocType.from_label(t), v),
                         engagement.rqtctr(built.sets, DocType.from_label(t), v))
                for t, v in TYPES_VARIANTS
            }
        self.path_s = cli_done - started
        self.api_s += self.clock() - cli_done
        return code, err, n_sets

    def after(self, outcome):
        code, err, n_sets = outcome
        valid = sum(e["n_events"] for e in self.truth["engines"].values())
        self.attempted += valid
        if code != 0:
            self.failed += valid
            self.expect(False, f"engagement exited {code}: {err.strip()[-300:]}")
        self.stderr.add(err.strip())
        for engine, count in n_sets.items():
            self.expect(count == self.truth["engines"][engine]["n_sets"], f"{engine}: API set count")
        self.api_sets += sum(n_sets.values())
        return valid

    def check(self):
        truth = self.truth
        injected = truth["injected"]
        n_rejected = sum(injected.values())
        valid = sum(e["n_events"] for e in truth["engines"].values())
        expected = f"engagement: {valid} events, {n_rejected} rejected"
        self.expect(self.stderr == {expected}, f"CLI said {self.stderr}, expected {expected!r}")
        report = json.loads(self.report_path.read_text())
        self.expect(report["rejected_unknown_engine"] == injected["unknown-engine"], "unknown-engine rejects")
        for engine, want in truth["engines"].items():
            got = report["engines"][engine]
            self.expect(report["rejected"][engine] == want["rejected"], f"{engine}: rejected count")
            for key in ("n_events", "n_sets", "set_impressions_total"):
                self.expect(got[key] == want[key], f"{engine}: {key} {got[key]} != {want[key]}")
            for t in LABELS:
                cell = got["types"][t]
                for key in ("event_impressions", "event_clicks", "sets_any", "sets_top", "set_impressions"):
                    self.expect(cell[key] == want[key][t], f"{engine}/{t}: {key} {cell[key]} != {want[key][t]}")
                share = want["set_impressions"][t] / want["set_impressions_total"]
                for v in ("any", "top"):
                    q_api, r_api = self.api[engine][(t, v)]
                    q_cli, r_cli = cell[f"qtctr_{v}"], cell[f"rqtctr_{v}"]
                    hits = want["sets_any" if v == "any" else "sets_top"][t]
                    self.expect(abs(q_api - hits / want["n_sets"]) <= 1e-12, f"{engine}/{t}/{v}: API qtctr")
                    self.expect(abs(q_cli - q_api) <= 1e-12, f"{engine}/{t}/{v}: CLI vs API qtctr")
                    self.expect(abs(r_cli - r_api) <= 1e-12, f"{engine}/{t}/{v}: CLI vs API rqtctr")
                    self.expect(abs(r_api - q_api * share) <= 1e-12, f"{engine}/{t}/{v}: rqtctr != qtctr*share")


WORKLOADS = {
    "pipeline": Pipeline,
    "classify": Classify,
    "model-kinds": ModelKinds,
    "engagement": Engagement,
}


def percentile(values, q: float) -> float:
    """Nearest-rank percentile, q in (0, 1]."""
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, math.ceil(q * len(ordered)) - 1)]


def main(argv: list[str]) -> int:
    workload, work, seconds, mode = argv[0], Path(argv[1]), float(argv[2]), argv[3]
    if mode == "setup":
        print(json.dumps(measure_setup(workload, work)))
        return 0
    probe = SpeedProbe()
    tracer = None
    if mode == "traced":
        import tracer as tracing

        tracer = tracing.Tracer(probe.clock)
        tracing.install(tracer)
    runner = WORKLOADS[workload](work, mode)
    runner.prepare()
    runner.clock = probe.clock
    job_s, job_cost, units = [], [], []
    items = items_s = items_cost = 0
    started = time.perf_counter()
    while not job_s or time.perf_counter() - started < seconds:
        span = tracer.open("job") if tracer else None
        with probe:
            t0 = probe.clock()
            outcome = runner.job()
            elapsed = probe.clock() - t0
        if tracer:
            tracer.close(span)
        unit = probe.unit_s()
        units.append(unit)
        job_s.append(elapsed)
        job_cost.append(elapsed / unit)
        items += runner.after(outcome)
        path_s = elapsed if runner.path_s is None else runner.path_s
        items_s += path_s
        items_cost += path_s / unit
        if len(job_s) == 1:
            # A user runs one job per process; later jobs add allocator reuse noise.
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer:
        tracer.dump(work / "spans.jsonl")
    runner.check()

    named = {
        "job_s": statistics.median(job_s),
        "items_per_s": items / items_s,
        "snippet_us": statistics.median(units) * 1e6,
        "speed_samples": len(probe.samples),
        **getattr(runner, "named", {}),
    }
    if workload == "pipeline":
        named["pipeline_s"] = statistics.median(job_s)
    elif workload == "classify":
        named["classify_docs_per_s"] = items / items_s
    elif workload == "model-kinds":
        named["train_s"] = statistics.median(runner.train_s)
        named["predict_row_p50_us"] = percentile(runner.row_us, 0.50)
        named["predict_row_p99_us"] = percentile(runner.row_us, 0.99)
        named["predict_row_samples"] = len(runner.row_us)
        named["predict_batch_rows_per_s"] = items / items_s
    elif workload == "engagement":
        named["engagement_events_per_s"] = items / items_s
        named["impression_sets_per_s"] = runner.api_sets / runner.api_s
    result = {
        "jobs": job_s,
        "job_cost": statistics.median(job_cost),
        "items_per_ref": items / items_cost,
        "peak_rss_mb": peak_rss_mb,
        "named": named,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "errors": runner.errors,
        "digest": (getattr(runner, "digests", None) or [None])[0],
    }
    (work / f"result-{mode}.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
