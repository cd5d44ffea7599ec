"""Command-line surface wiring the pipeline end to end.

Exit codes: 0 success, 1 usage, config or bad flag value, 2 data-fatal
errors. ``main`` is the only place an error becomes an exit code.
Per-record problems never abort a batch command; they are counted and
reported on stderr.
"""

from __future__ import annotations

import argparse
import io
import json
import sys
import time
from pathlib import Path

from . import __version__
from .config import check_seed, config_from_dict, load_config, read_proportions
from .errors import ConfigError, DocTypeError
from .evaluation import ablation, cross_validate, human_report, report_from_confusion, sweep
from .ingest import DocType, extract_features, parse_records
from .ioutils import atomic_write_text, canonical_json, read_json_lines_strict
from .labeling import (
    LabeledExample,
    balanced_sample,
    feature_row,
    read_examples,
    row_to_features,
    rule_label,
    sample_size,
    write_examples,
)
from .labeling import stratified_split  # noqa: F401 -- unused; bench/tracer.py wraps this name
from .models import dataset_matrix, load_model, predict, save_model, train
from .engagement import engagement_report, human_engagement, read_log_events
from .pipeline import run_pipeline
from .stats import derive_thresholds
from .stats import impute_f1  # noqa: F401 -- unused; bench/tracer.py wraps this name
from .synthetic import generate_synthetic

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2

#: The commands that take the shared --seed, --config and --format flags;
#: every command but pipeline takes --out. --config supplies the seed, and
#: the proportions (sample, synth) or quantiles (thresholds).
SEEDED_COMMANDS = ("sample", "train", "sweep", "evaluate", "ablation", "synth")
CONFIGURED_COMMANDS = SEEDED_COMMANDS + ("thresholds",)
FORMATTED_COMMANDS = ("samplesize", "sweep", "evaluate", "ablation", "engagement")


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits 0 after --help/--version, 2 on a usage error
        return EXIT_USAGE if exc.code else EXIT_OK
    if args.command is None:
        parser.print_help()
        return EXIT_USAGE
    try:
        _resolve_config_defaults(args)
        return args.handler(args)
    except (DocTypeError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        # A ValueError reaching here comes from a flag value; bad data raises DocTypeError.
        return EXIT_USAGE if isinstance(exc, (ConfigError, ValueError)) else EXIT_DATA


def _resolve_config_defaults(args) -> None:
    """Fill unset flags from --config, else the default config; a given flag wins."""
    config = getattr(args, "config", None)
    args.run_config = load_config(config) if config else config_from_dict({})
    if "seed" in vars(args):
        if args.seed is None:
            args.seed = args.run_config["seed"]
        check_seed(args.seed)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="doctype",
        description="Classify scholarly documents and analyze SR-system logs.",
    )
    parser.add_argument("--version", action="version", version=f"doctype {__version__}")
    sub = parser.add_subparsers(dest="command")

    def add(name, handler, help_text):
        cmd = sub.add_parser(name, help=help_text)
        cmd.set_defaults(handler=handler)
        if name in CONFIGURED_COMMANDS:
            cmd.add_argument("--config", type=str, default=None,
                             help="run config supplying seed, proportion and quantile defaults")
        cmd.add_argument("--out", type=str, default=None)
        if name in SEEDED_COMMANDS:
            cmd.add_argument("--seed", type=int, default=None)
        if name in FORMATTED_COMMANDS:
            cmd.add_argument("--format", choices=("machine", "human"), default="human")
        return cmd

    cmd = add("extract", cmd_extract, "compute features from a records file")
    cmd.add_argument("records", type=str)

    cmd = add("label", cmd_label, "rule-label a records file into a labeled dataset")
    cmd.add_argument("records", type=str)

    cmd = add("samplesize", cmd_samplesize, "required sample size for (z, p, c)")
    cmd.add_argument("--z", type=float, default=1.96)
    cmd.add_argument("--p", type=float, default=0.5)
    cmd.add_argument("--c", type=float, default=0.01)

    cmd = add("sample", cmd_sample, "class-balanced subsample of a labeled dataset")
    cmd.add_argument("labeled", type=str)
    cmd.add_argument("--total", type=int, required=True)
    cmd.add_argument("--proportions", type=str, default=None,
                     help='JSON map, e.g. {"Research":0.55,"Slides":0.1,"Thesis":0.35}')

    cmd = add("thresholds", cmd_thresholds, "derive per-class feature bounds")
    cmd.add_argument("labeled", type=str)
    cmd.add_argument("--quantile-lo", type=float, default=None)
    cmd.add_argument("--quantile-hi", type=float, default=None)

    cmd = add("train", cmd_train, "train one model kind on a labeled dataset")
    cmd.add_argument("labeled", type=str)
    cmd.add_argument("--kind", type=str, required=True)
    cmd.add_argument("--hyperparameters", type=str, default="{}")
    cmd.add_argument("--transform", type=str, default="identity")

    cmd = add("sweep", cmd_sweep, "grid x transform sweep via cross-validation")
    cmd.add_argument("labeled", type=str)
    cmd.add_argument("--kind", type=str, required=True)
    cmd.add_argument("--k", type=int, default=10)
    cmd.add_argument("--grid", type=str, default=None, help="JSON list of points")

    cmd = add("evaluate", cmd_evaluate, "cross-validate one configuration")
    cmd.add_argument("labeled", type=str)
    cmd.add_argument("--kind", type=str, required=True)
    cmd.add_argument("--k", type=int, default=10)
    cmd.add_argument("--hyperparameters", type=str, default="{}")
    cmd.add_argument("--transform", type=str, default="identity")

    cmd = add("ablation", cmd_ablation, "per-feature ablation study")
    cmd.add_argument("labeled", type=str)
    cmd.add_argument("--kinds", type=str, default="random-forest")
    cmd.add_argument("--k", type=int, default=10)

    cmd = add("predict", cmd_predict, "classify a features file with a saved model")
    cmd.add_argument("model", type=str)
    cmd.add_argument("features", type=str)

    cmd = add("engagement", cmd_engagement, "QTCTR/RQTCTR report from a search/recommender log")
    cmd.add_argument("log", type=str)
    cmd.add_argument("--predictions", type=str, default=None)

    cmd = add("synth", cmd_synth, "generate a synthetic labeled dataset")
    cmd.add_argument("--n", type=int, required=True)
    cmd.add_argument("--proportions", type=str, default=None)

    cmd = sub.add_parser("pipeline", help="full extract-to-model pipeline from a config")
    cmd.set_defaults(handler=cmd_pipeline)
    cmd.add_argument("--config", type=str, required=True)

    return parser


def _write_or_print(args, text: str) -> None:
    if args.out:
        atomic_write_text(args.out, text)
    else:
        sys.stdout.write(text)


def _write_examples(args, examples: list[LabeledExample]) -> None:
    text = io.StringIO()
    write_examples(text, examples)
    _write_or_print(args, text.getvalue())


def _read_labeled(path: str) -> list[LabeledExample]:
    with open(path, "r", encoding="utf-8") as handle:
        return read_examples(handle)


def _parse_proportions(raw: str | None, run_config: dict) -> dict[DocType, float]:
    payload = run_config["proportions"] if raw is None else _parse_json_flag(raw, "proportions")
    return read_proportions(payload)


def _parse_json_flag(raw: str, name: str = "hyperparameters", shape: type = dict):
    """A JSON object flag, or with ``shape=list`` a JSON list of objects."""
    try:
        payload = json.loads(raw)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise ConfigError(f"bad {name}: {exc}") from exc
    objects = payload if isinstance(payload, list) else [payload]
    if not isinstance(payload, shape) or not all(isinstance(obj, dict) for obj in objects):
        what = "list of JSON objects" if shape is list else "object"
        raise ConfigError(f"bad {name}: must be a JSON {what}")
    return payload


def cmd_extract(args) -> int:
    with open(args.records, "rb") as handle:
        parsed = parse_records(handle, lambda rec: feature_row(rec.id, extract_features(rec)))
    _write_or_print(args, "".join(json.dumps(row, sort_keys=True) + "\n" for row in parsed.records))
    print(f"extract: {len(parsed.records)} records, {parsed.skipped} skipped", file=sys.stderr)
    if not parsed.records:
        print("warning: no records parsed", file=sys.stderr)
    return EXIT_OK


def cmd_label(args) -> int:
    with open(args.records, "rb") as handle:
        parsed = parse_records(
            handle, lambda rec: LabeledExample(extract_features(rec), rule_label(rec), rec.id)
        )
    _write_examples(args, parsed.records)
    print(f"label: {len(parsed.records)} examples, {parsed.skipped} skipped", file=sys.stderr)
    return EXIT_OK


def cmd_samplesize(args) -> int:
    n = sample_size(args.z, args.p, args.c)
    if args.format == "machine":
        _write_or_print(args, canonical_json({"sample_size": n, "z": args.z, "p": args.p, "c": args.c}))
    else:
        _write_or_print(args, f"{n}\n")
    return EXIT_OK


def cmd_sample(args) -> int:
    examples = _read_labeled(args.labeled)
    proportions = _parse_proportions(args.proportions, args.run_config)
    picked = balanced_sample(examples, args.total, proportions, args.seed)
    _write_examples(args, picked)
    return EXIT_OK


def cmd_thresholds(args) -> int:
    examples = _read_labeled(args.labeled)
    quantiles = args.run_config["quantiles"]
    lo = quantiles["lo"] if args.quantile_lo is None else args.quantile_lo
    hi = quantiles["hi"] if args.quantile_hi is None else args.quantile_hi
    _write_or_print(args, canonical_json(derive_thresholds(*dataset_matrix(examples), lo, hi)))
    return EXIT_OK


def cmd_train(args) -> int:
    examples = _read_labeled(args.labeled)
    hp = _parse_json_flag(args.hyperparameters)
    save_model(train(args.kind, examples, hp, args.seed, args.transform), args.out or sys.stdout)
    return EXIT_OK


def cmd_sweep(args) -> int:
    examples = _read_labeled(args.labeled)
    grid = None if args.grid is None else _parse_json_flag(args.grid, "grid", list)
    table, _ = sweep(args.kind, examples, grid=grid, k=args.k, seed=args.seed)
    if args.format == "machine":
        _write_or_print(args, canonical_json({"format_version": 1, **table}))
    else:
        best = table["entries"][table["best_index"]]
        lines = [
            f"{i:>3} {json.dumps(e['hyperparameters'], sort_keys=True)} "
            f"{e['transform']:<10} F1={e['mean_weighted_f1']:.4f}"
            for i, e in enumerate(table["entries"])
        ]
        lines.append(
            f"best: #{table['best_index']} {json.dumps(best['hyperparameters'], sort_keys=True)} "
            f"{best['transform']} F1={best['mean_weighted_f1']:.4f}"
        )
        _write_or_print(args, "\n".join(lines) + "\n")
    return EXIT_OK


def cmd_evaluate(args) -> int:
    examples = _read_labeled(args.labeled)
    hp = _parse_json_flag(args.hyperparameters)
    report = cross_validate(
        args.kind, examples, args.k, hp, args.seed, args.transform
    )
    if args.format == "machine":
        _write_or_print(args, canonical_json({"format_version": 1, **report}))
    else:
        pooled = report["pooled_confusion"]
        lines = [
            f"mean weighted precision: {report['mean_weighted_precision']:.4f}",
            f"mean weighted recall:    {report['mean_weighted_recall']:.4f}",
            f"mean weighted F1:        {report['mean_weighted_f1']:.4f}",
            "",
            "pooled over folds:",
            human_report(report_from_confusion(pooled)),
            "confusion (rows true, cols predicted):",
        ]
        lines += ["  " + " ".join(f"{v:>7d}" for v in row) for row in pooled]
        _write_or_print(args, "\n".join(lines) + "\n")
    return EXIT_OK


def cmd_ablation(args) -> int:
    examples = _read_labeled(args.labeled)
    kinds = [k.strip() for k in args.kinds.split(",") if k.strip()]
    scores = ablation(examples, kinds, args.k, args.seed)
    if args.format == "machine":
        _write_or_print(args, canonical_json(scores))
    else:
        lines = []
        for kind, cells in scores.items():
            for subset, f1 in cells.items():
                lines.append(f"{kind:<15} {subset:<12} F1={f1:.4f}")
        _write_or_print(args, "\n".join(lines) + "\n")
    return EXIT_OK


def cmd_predict(args) -> int:
    model = load_model(args.model)
    rows_out = []
    n_ok = 0
    n_err = 0
    started = time.perf_counter()
    with open(args.features, "rb") as handle:
        for line in handle:
            if not line.strip():
                continue
            row = None
            try:
                row = json.loads(line)
                label, scores = predict(model, row_to_features(row))
            except (KeyError, TypeError, ValueError, RecursionError) as exc:
                doc_id = row.get("id") if isinstance(row, dict) else None
                rows_out.append(json.dumps({"doc_id": doc_id, "error": str(exc)}, sort_keys=True))
                n_err += 1
                continue
            rows_out.append(
                json.dumps(
                    {
                        "doc_id": row["id"],
                        "doc_type": label.label,
                        "scores": {t.label: scores[t] for t in scores},
                    },
                    sort_keys=True,
                )
            )
            n_ok += 1
    elapsed = time.perf_counter() - started
    _write_or_print(args, "".join(r + "\n" for r in rows_out))
    per_row_ms = (elapsed / n_ok * 1000.0) if n_ok else 0.0
    print(
        f"predict: {n_ok} rows, {n_err} errors, "
        f"{per_row_ms:.3f} ms/row mean",
        file=sys.stderr,
    )
    return EXIT_OK


def cmd_engagement(args) -> int:
    if args.out and Path(args.out).with_suffix(".txt") == Path(args.out):
        raise ConfigError(f"--out {args.out}: the .txt file beside it holds the human report")
    predictions = None
    if args.predictions:
        with open(args.predictions, "r", encoding="utf-8") as handle:
            predictions = dict(p for p in read_json_lines_strict(handle, _prediction) if p)
    with open(args.log, "r", encoding="utf-8") as handle:
        parsed = read_log_events(handle, predictions)
    report = engagement_report(parsed.events)
    n_events = sum(engine["n_events"] for engine in report["engines"].values())
    n_rejected = parsed.n_rejected + report["rejected_unknown_engine"] + sum(report["rejected"].values())
    print(f"engagement: {n_events} events, {n_rejected} rejected", file=sys.stderr)
    if n_events == 0:
        raise DocTypeError("no valid events")
    if args.out:
        atomic_write_text(args.out, canonical_json(report))
        atomic_write_text(Path(args.out).with_suffix(".txt"), human_engagement(report))
    elif args.format == "machine":
        sys.stdout.write(canonical_json(report))
    else:
        sys.stdout.write(human_engagement(report))
    return EXIT_OK


def _prediction(row) -> tuple[str, DocType] | None:
    """(doc_id, type) of a predictions row; None for an error row, whose
    doc_id may be null. Any other row needs a string doc_id and a known
    doc_type, or it raises."""
    if not isinstance(row, dict):
        raise ValueError(f"a prediction must be a JSON object, got {json.dumps(row)}")
    if "error" in row:
        return None
    if not isinstance(row["doc_id"], str):
        raise ValueError(f"doc_id must be a string, got {json.dumps(row['doc_id'])}")
    return row["doc_id"], DocType.from_label(row["doc_type"])


def cmd_synth(args) -> int:
    proportions = _parse_proportions(args.proportions, args.run_config)
    _write_examples(args, generate_synthetic(args.n, proportions, args.seed))
    return EXIT_OK


def cmd_pipeline(args) -> int:
    manifest = run_pipeline(args.run_config)
    best = manifest["best"]
    print(
        f"pipeline: best={best['kind']} "
        f"cv_f1={best['mean_weighted_f1']:.4f} "
        f"validation_f1={manifest['validation_weighted_f1']:.4f}",
        file=sys.stderr,
    )
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
