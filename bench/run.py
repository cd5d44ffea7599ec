"""doctype benchmark: one workload, timed end to end or traced per layer.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a doctype checkout. Workloads: pipeline, classify,
model-kinds, engagement (see bench/README.md). The steps, each in a fresh
interpreter:

1. bench/synth.py writes the workload's inputs and their truth from the seed.
2. For classify, ``doctype train`` fits the deployed forest the workload loads.
3. bench/worker.py runs the workload's job until S seconds have passed and
   checks its outputs, sampling the host's speed during each job. With
   ``--trace 1`` it runs twice, S/2 seconds each: untraced, then with
   tracer.py's wrappers around each layer's public functions.
4. ``--trace 0`` only: bench/worker.py in setup mode, seven times (median
   reported): import doctype.cli, load each model file the workload uses
   and predict once.

The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics`` (end-to-end metrics with --trace 0,
per-layer metrics with --trace 1). Lines before it are a readable table.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

from worker import percentile

BENCH = Path(__file__).resolve().parent
WORKLOADS = ("pipeline", "classify", "model-kinds", "engagement")
KINDS = ("random-forest", "adaboost", "decision-tree", "gnb", "knn", "linear-svm", "baseline-threshold")
SETUP_REPEATS = 7
#: Every run must end within this many seconds.
DEADLINE_S = 170.0
#: The deployed forest profile (doctype.models.DEPLOYED_FOREST_PROFILE).
DEPLOYED_FOREST = {"n_trees": 10, "max_leaf_nodes": 5, "min_leaf_size": 1,
                   "bootstrap": True, "feature_subset": 2}

END_TO_END = (
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("job_cost", "ref"),
    ("items_per_ref", "1/ref"),
)

PER_LAYER = (
    ("ingest.parse_records.s", "s"),
    ("ingest.parse_records.skipped", "count"),
    ("ingest.extract_features.s", "s"),
    ("ingest.extract_words_per_s", "1/s"),
    ("labeling.read_examples.s", "s"),
    ("labeling.balanced_sample.s", "s"),
    ("labeling.stratified_split.s", "s"),
    ("stats.impute_f1.s", "s"),
    ("stats.derive_thresholds.s", "s"),
    *((f"models.train.{kind}.s", "s") for kind in KINDS),
    ("models.train.calls", "count"),
    ("models.dataset_matrix.s", "s"),
    ("models.dataset_matrix.calls", "count"),
    *((f"models.predict_batch.{kind}.rows_per_s", "1/s") for kind in KINDS),
    *((f"models.predict_row.{kind}.{q}_us", "us") for kind in KINDS for q in ("p50", "p99")),
    ("models.load_model.s", "s"),
    ("models.save_model.s", "s"),
    ("evaluation.sweep.random-forest.s", "s"),
    ("evaluation.sweep.adaboost.s", "s"),
    ("evaluation.cross_validate.calls", "count"),
    ("evaluation.cross_validate.s", "s"),
    ("evaluation.evaluate.s", "s"),
    ("engagement.read_log_events.s", "s"),
    ("engagement.read_log_events.rejected", "count"),
    ("engagement.engagement_report.s", "s"),
    ("engagement.build_impression_sets.s", "s"),
    ("engagement.qtctr.s", "s"),
    ("engagement.rqtctr.s", "s"),
    ("pipeline.run_pipeline.self_s", "s"),
    ("cli.extract.self_s", "s"),
    ("cli.predict.self_s", "s"),
    ("cli.engagement.self_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.overhead_share", "ratio"),
)

#: The workload's own names for its figures, printed above the result line.
NAMED_UNITS = {
    "pipeline_s": "s", "cv_f1": "ratio", "validation_f1": "ratio",
    "classify_docs_per_s": "1/s",
    "train_s": "s", "predict_row_p50_us": "us", "predict_row_p99_us": "us",
    "predict_row_samples": "count", "predict_batch_rows_per_s": "1/s",
    "engagement_events_per_s": "1/s", "impression_sets_per_s": "1/s",
    "job_s": "s", "items_per_s": "1/s", "snippet_us": "us", "speed_samples": "count",
}


class BenchError(Exception):
    pass


class Runner:
    """Runs the steps as child processes, all within one deadline."""

    def __init__(self, root: Path, env: dict):
        self.root = root
        self.env = env
        self.deadline = time.monotonic() + DEADLINE_S

    def __call__(self, *args: str) -> str:
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise BenchError(f"out of time before {args[:3]}")
        try:
            done = subprocess.run(
                [sys.executable, *args], cwd=self.root, env=self.env,
                capture_output=True, text=True, timeout=remaining,
            )
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"timed out: {args[:3]}") from exc
        if done.returncode != 0:
            raise BenchError(f"{args[:3]} exited {done.returncode}:\n{done.stderr[-2000:]}")
        return done.stdout


def layer_metrics(spans: list, untraced: dict, traced: dict) -> tuple[dict, list[str]]:
    """Per-layer figures from the traced pass's spans; also checks their nesting."""
    untraced_jobs, traced_jobs = untraced["jobs"], traced["jobs"]
    child_time = [0.0] * len(spans)
    root = list(range(len(spans)))
    for i, (_, start, end, parent, _) in enumerate(spans):
        if parent >= 0:
            child_time[parent] += end - start
            root[i] = root[parent]
    per_job: dict[int, dict] = {}
    pooled = defaultdict(list)
    for i, (name, start, end, parent, counts) in enumerate(spans):
        if parent < 0 and name == "job":
            per_job[i] = defaultdict(float, {"job.s": end - start})
    errors = []
    for i, (name, start, end, parent, counts) in enumerate(spans):
        acc = per_job.get(root[i])
        if acc is None:
            continue
        duration, self_s = end - start, end - start - child_time[i]
        if self_s < -1e-9:
            errors.append(f"span {name} has negative self time {self_s}")
        acc["self_total"] += self_s
        if parent < 0:
            continue
        pooled[name].append(duration)
        family = ".".join(name.split(".")[:2])
        for key in {name, family}:
            acc[f"{key}.s"] += duration
            acc[f"{key}.calls"] += 1
        acc[f"{name}.self_s"] += self_s
        for key, value in (counts or {}).items():
            acc[f"{name}.{key}"] += value
    jobs = list(per_job.values())

    def median_of(key):
        return statistics.median(acc[key] for acc in jobs) if jobs else 0.0

    def rate(count_key, time_key):
        seconds = sum(acc[time_key] for acc in jobs)
        return sum(acc[count_key] for acc in jobs) / seconds if seconds else 0.0

    # Self times partition each job span, so their sum must equal the traced
    # job time, which differs from the untraced one by the tracing overhead.
    overhead = statistics.median(traced_jobs) - statistics.median(untraced_jobs)
    self_sum = median_of("self_total")
    if abs(self_sum - statistics.median(untraced_jobs)) > abs(overhead) + 1e-3:
        errors.append(f"span self times sum to {self_sum}, untraced job {statistics.median(untraced_jobs)}")
    for acc in jobs:
        if abs(acc["self_total"] - acc["job.s"]) > 1e-6 * max(1.0, acc["job.s"]):
            errors.append(f"self times {acc['self_total']} do not cover job span {acc['job.s']}")

    metrics = {}
    for name, unit in PER_LAYER:
        # Reported in snippet units, so drift of the host's speed between
        # the two passes does not count as overhead.
        if name == "trace.overhead_share":
            value = traced["job_cost"] / untraced["job_cost"] - 1
        elif name == "trace.overhead_s":
            value = (traced["job_cost"] / untraced["job_cost"] - 1) * statistics.median(untraced_jobs)
        elif name == "ingest.extract_words_per_s":
            value = rate("ingest.extract_features.words", "ingest.extract_features.s")
        elif name.endswith(".rows_per_s"):
            span = name[: -len(".rows_per_s")]
            value = rate(f"{span}.rows", f"{span}.s")
        elif name.endswith("_us"):
            span, q = name[: -len(".p50_us")], int(name[-5:-3]) / 100
            samples = pooled.get(span)
            value = percentile(samples, q) * 1e6 if samples else 0.0
        else:
            value = median_of(name)
        metrics[name] = {"value": value, "unit": unit}
    return metrics, errors


def pipeline_digest_check(root: Path, seed: int, digest: str) -> list[str]:
    """Outputs of one seed must be byte-identical on every run of this checkout."""
    h = hashlib.sha256(str(seed).encode())
    for path in sorted((root / "src").rglob("*.py")) + [BENCH / "synth.py"]:
        h.update(path.read_bytes())
    record = root / ".bench_work" / "digests" / f"pipeline-{h.hexdigest()[:24]}"
    if record.exists():
        earlier = record.read_text()
        return [] if earlier == digest else [f"pipeline outputs differ from an earlier run of seed {seed}"]
    record.parent.mkdir(parents=True, exist_ok=True)
    record.write_text(digest)
    return []


def environment() -> dict:
    import numpy

    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = Path.cwd()
    if not (root / "src" / "doctype" / "__init__.py").is_file():
        print("error: run from the root of a doctype checkout (src/doctype not found)", file=sys.stderr)
        return 2
    env_info = environment()
    threads = str(env_info["nproc"])
    env = dict(os.environ, PYTHONPATH=str(root / "src"), PYTHONHASHSEED="0",
               OMP_NUM_THREADS=threads, OPENBLAS_NUM_THREADS=threads, MKL_NUM_THREADS=threads)
    # The path is the same on every run of a seed: the pipeline's manifest records it.
    work = root / ".bench_work" / f"{args.workload}-{args.seed}"
    shutil.rmtree(work, ignore_errors=True)
    run = Runner(root, env)
    worker = str(BENCH / "worker.py")
    try:
        run(str(BENCH / "synth.py"), args.workload, str(args.seed), str(work))
        if args.workload == "classify":
            run("-m", "doctype.cli", "train", str(work / "deploy_train.jsonl"),
                "--kind", "random-forest", "--hyperparameters", json.dumps(DEPLOYED_FOREST),
                "--seed", str(args.seed), "--out", str(work / "model.json"))
        # A traced run splits its time between an untraced and a traced pass.
        modes = ("untraced", "traced") if args.trace else ("untraced",)
        results = {}
        for mode in modes:
            run(worker, args.workload, str(work), str(args.seconds / len(modes)), mode)
            results[mode] = json.loads((work / f"result-{mode}.json").read_text())

        errors = [e for r in results.values() for e in r["errors"]]
        digests = {r["digest"] for r in results.values()}
        if args.workload == "pipeline":
            if len(digests) != 1 or None in digests:
                errors.append("pipeline outputs differ between the untraced and traced runs")
            else:
                errors += pipeline_digest_check(root, args.seed, digests.pop())
        base = results["untraced"]
        if args.trace:
            spans = [json.loads(line) for line in open(work / "spans.jsonl", encoding="utf-8")]
            metrics, span_errors = layer_metrics(spans, base, results["traced"])
            errors += span_errors
        else:
            setup = [json.loads(run(worker, args.workload, str(work), "0", "setup"))
                     for _ in range(SETUP_REPEATS)]
            setup_s = statistics.median(probe["setup_s"] for probe in setup)
            values = {
                "setup_s": setup_s,
                "peak_rss_mb": base["peak_rss_mb"],
                "job_cost": base["job_cost"],
                "items_per_ref": base["items_per_ref"],
            }
            metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = sum(r["attempted"] for r in results.values())
    failed = sum(r["failed"] for r in results.values())
    named = dict(base["named"], peak_rss_mb=base["peak_rss_mb"],
                 error_share=base["failed"] / base["attempted"])
    if not args.trace:
        named["setup_s"] = metrics["setup_s"]["value"]
        named["setup_raw_s"] = statistics.median(probe["setup_raw_s"] for probe in setup)
    units = dict(NAMED_UNITS, setup_s="s", setup_raw_s="s", peak_rss_mb="MB", error_share="ratio")
    print(f"# {args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace} "
          f"jobs={len(base['jobs'])} python={env_info['python']} numpy={env_info['numpy']} "
          f"nproc={env_info['nproc']} numpy_threads={threads}")
    for name, value in named.items():
        print(f"{name:<28} {value:>16.6g} {units[name]}")
    for message in errors:
        print(f"CHECK FAILED: {message}")
    print(json.dumps({"correct": not errors, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
