"""Seeded input synthesizers for the benchmark; they never import doctype.

Each workload's inputs are written by ``python3 bench/synth.py WORKLOAD SEED DIR``
in a process of their own, before anything is timed. Next to the inputs the
synthesizer writes ``truth.json``: what it meant to generate (features and
labels per document, click tallies per engine and type, injected bad lines),
so the checks compare the program's outputs with the generator's intent and
not with a second run of the program.

Word and page counts follow the log-normal marginals that
``doctype.synthetic.generate_synthetic`` calibrates against the published
per-class bounds. The solved (mu, sigma) pairs are copied below so that the
inputs stay the same whatever the program under test does. Normal scores are
drawn by stratified (Latin hypercube) sampling, which keeps each marginal but
holds the total work of an input nearly constant from seed to seed.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path
from statistics import NormalDist

import numpy as np

LABELS = ("Research", "Slides", "Thesis")
ENGINES = ("search", "recommender")

#: (mu, sigma) of log word count and log page count per class, as solved by
#: ``doctype.synthetic.calibrate_lognormal`` for the reference bounds.
LOG_WORDS = {
    "Research": (8.745803205401415, 0.8216725113889221),
    "Slides": (7.311418537961524, 1.3821340780547886),
    "Thesis": (11.182240081331296, 0.7823009079445131),
}
LOG_PAGES = {
    "Research": (2.6425607572342877, 0.7771913302213826),
    "Slides": (2.73587237562526, 1.3642657122889705),
    "Thesis": (5.19788346385424, 0.6796361670657098),
}
AUTHOR_PMF = {
    "Research": ((1, 2, 3, 4, 5, 6), (0.30, 0.30, 0.20, 0.13, 0.05, 0.02)),
    "Slides": (
        (1, 2, 3, 4, 5, 6, 7, 8, 9),
        (0.30, 0.22, 0.16, 0.12, 0.07, 0.05, 0.04, 0.03, 0.01),
    ),
    "Thesis": ((1,), (1.0,)),
}
WORDS_PAGES_RHO = 0.8
DEFAULT_MIX = {"Research": 0.55, "Slides": 0.10, "Thesis": 0.35}

# Workload sizes.
PIPELINE_EXAMPLES = 300
PIPELINE_SAMPLE = 260
CLASSIFY_DOCS = 480
CLASSIFY_MIX = {"Research": 0.60, "Slides": 0.30, "Thesis": 0.10}
CLASSIFY_AUTHORLESS = 0.05
CLASSIFY_MALFORMED = 0.02
CLASSIFY_DUPLICATE = 0.01
DEPLOYED_TRAIN_EXAMPLES = 3000
KINDS_TRAIN_EXAMPLES = 11500
KINDS_QUERIES = 400
ENGAGEMENT_EVENTS = 30000
ENGAGEMENT_DOCS = 4000
ENGAGEMENT_BAD_SHARE = 0.02
CLICK_PROBABILITY = 0.15

_NORMAL = NormalDist()


def class_counts(total: int, mix: dict[str, float]) -> dict[str, int]:
    """Largest-remainder apportionment of ``total`` over the classes."""
    quotas = {label: total * mix[label] for label in LABELS}
    counts = {label: int(math.floor(q)) for label, q in quotas.items()}
    order = sorted(LABELS, key=lambda label: -(quotas[label] - counts[label]))
    for label in order[: total - sum(counts.values())]:
        counts[label] += 1
    return counts


def stratified_normal(rng: np.random.Generator, n: int) -> np.ndarray:
    """n standard-normal scores, one from each of n equal-probability strata."""
    u = (rng.permutation(n) + rng.uniform(0.0, 1.0, n)) / n
    return np.array([_NORMAL.inv_cdf(min(max(p, 1e-12), 1 - 1e-12)) for p in u])


def draw_counts(rng: np.random.Generator, label: str, n: int):
    """Authors, words and pages for n documents of one class."""
    values, probs = AUTHOR_PMF[label]
    authors = rng.choice(values, size=n, p=probs)
    mu2, sigma2 = LOG_WORDS[label]
    mu3, sigma3 = LOG_PAGES[label]
    z_words = stratified_normal(rng, n)
    z_pages = WORDS_PAGES_RHO * z_words + math.sqrt(
        1.0 - WORDS_PAGES_RHO**2
    ) * stratified_normal(rng, n)
    words = np.maximum(np.rint(np.exp(mu2 + sigma2 * z_words)), 0).astype(int)
    pages = np.maximum(np.rint(np.exp(mu3 + sigma3 * z_pages)), 1).astype(int)
    return authors, words, pages


def labeled_rows(rng: np.random.Generator, n: int, prefix: str, mix=DEFAULT_MIX) -> list[dict]:
    """Labeled feature rows in the interchange format, classes shuffled."""
    rows = []
    for label, size in class_counts(n, mix).items():
        authors, words, pages = draw_counts(rng, label, size)
        for a, w, p in zip(authors, words, pages):
            rows.append(
                {"f1": int(a), "f2": int(w), "f3": int(p), "f4": float(w) / float(p), "label": label}
            )
    rows = [rows[i] for i in rng.permutation(len(rows))]
    for i, row in enumerate(rows):
        row["id"] = f"{prefix}-{i:06d}"
    return rows


def write_jsonl(path: Path, rows) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        for row in rows:
            handle.write(row if isinstance(row, str) else json.dumps(row, sort_keys=True))
            handle.write("\n")


# ---------------------------------------------------------------------------
# Records with page text (classify)
# ---------------------------------------------------------------------------

# Plain vocabulary: no entry contains a rule-label keyword as a substring
# (note "hypothesis" would contain "thesis").
_VOCAB = tuple(
    "the of and to in a is that for on with as by we this are be from at an "
    "results method data model learning analysis network system approach paper "
    "performance evaluation experiment proposed based using two each which these "
    "section figure table value function time set problem algorithm training "
    "test sample feature class error rate study work show first also between "
    "naïve façade größe déjà 2017 3.5 x2 n=40 O(n) e.g i.e (see) [12] {x} "
    "well-known state-of-the-art co-author self-similar".split()
)
_PUNCTUATED = tuple(f"{w}," for w in _VOCAB[:40]) + tuple(f"({w})" for w in _VOCAB[40:60])
_WORD_TOKENS = _VOCAB + _PUNCTUATED
#: Tokens with no alphanumeric character: the tokenizer drops them.
_JUNK_TOKENS = ("-", "—", "...", "•", "|", "(", ")", "--", "*", "§")
_JUNK_SHARE = 0.04

_TOPICS = (
    "graph mining", "query logs", "citation networks", "digital libraries",
    "information retrieval", "metadata quality", "recommender systems",
    "text classification", "scholarly search", "author disambiguation",
)
_THESIS_SUBJECTS = ("PhD Thesis", "Master's thesis", "Doctoral Dissertation", "THESIS", "dissertation")
_SLIDES_TITLES = ("Slides: {}", "{} (presentation)", "Lecture SLIDES on {}", "Invited Presentation - {}")
_PLAIN_TITLES = ("On {}", "A study of {}", "Towards better {}", "{}: an evaluation", "Revisiting {}")
_PLAIN_SUBJECTS = ("Computer Science", "Information Systems", "Statistics", "Article", "Preprint")


def _page_texts(rng: np.random.Generator, words: int, pages: int) -> list[str]:
    """Split ``words`` word tokens over ``pages`` pages, with junk in between."""
    per_page = rng.multinomial(words, np.full(pages, 1.0 / pages)) if words else [0] * pages
    texts = []
    for count in per_page:
        count = int(count)
        n_junk = int(rng.binomial(count, _JUNK_SHARE)) if count else 0
        picks = rng.integers(0, len(_WORD_TOKENS), count)
        tokens = [_WORD_TOKENS[i] for i in picks]
        for pos, j in zip(rng.integers(0, count + 1, n_junk), rng.integers(0, len(_JUNK_TOKENS), n_junk)):
            tokens.insert(int(pos), _JUNK_TOKENS[j])
        texts.append(" ".join(tokens))
    return texts


def _metadata(rng: np.random.Generator, label: str) -> tuple[str, list[str]]:
    topic = _TOPICS[rng.integers(len(_TOPICS))]
    subjects = [_PLAIN_SUBJECTS[rng.integers(len(_PLAIN_SUBJECTS))]]
    if label == "Thesis":
        subjects.append(_THESIS_SUBJECTS[rng.integers(len(_THESIS_SUBJECTS))])
        # Subjects take precedence over the title: some theses carry a
        # slides-like title and must still come out as Thesis.
        pool = _SLIDES_TITLES if rng.random() < 0.2 else _PLAIN_TITLES
    elif label == "Slides":
        pool = _SLIDES_TITLES
    else:
        pool = _PLAIN_TITLES
    return pool[rng.integers(len(pool))].format(topic), subjects


_MALFORMED = (
    lambda rec: json.dumps(rec)[: len(json.dumps(rec)) // 2],  # truncated JSON
    lambda rec: json.dumps([rec["id"], rec["title"]]),  # not an object
    lambda rec: json.dumps({k: v for k, v in rec.items() if k != "id"}),  # no id
    lambda rec: json.dumps({**rec, "authors": "A. Author"}),  # authors not a list
    lambda rec: json.dumps({**rec, "pages": [1, 2]}),  # pages not strings
    lambda rec: json.dumps({**rec, "title": None}),  # title not a string
)


def make_records(rng: np.random.Generator, out: Path) -> dict:
    """records.jsonl plus the truth for every record that must parse."""
    docs = []
    for label, size in class_counts(CLASSIFY_DOCS, CLASSIFY_MIX).items():
        authors, words, pages = draw_counts(rng, label, size)
        docs.extend(zip([label] * size, authors, words, pages))
    docs = [docs[i] for i in rng.permutation(len(docs))]
    n_authorless = round(CLASSIFY_AUTHORLESS * len(docs))
    authorless = set(rng.permutation(len(docs))[:n_authorless].tolist())

    lines, truth = [], {}
    for i, (label, n_authors, words, pages) in enumerate(docs):
        title, subjects = _metadata(rng, label)
        n_authors = 0 if i in authorless else int(n_authors)
        record = {
            "id": f"doc-{i:05d}",
            "authors": [f"Author {i}-{j}" for j in range(n_authors)],
            "title": title,
            "subjects": subjects,
            "pages": _page_texts(rng, int(words), int(pages)),
        }
        lines.append(json.dumps(record))
        truth[record["id"]] = {
            "f1": n_authors or None,
            "f2": int(words),
            "f3": int(pages),
            "label": label,
        }

    n_malformed = round(CLASSIFY_MALFORMED * len(docs))
    n_duplicate = round(CLASSIFY_DUPLICATE * len(docs))
    bad = []
    for k in range(n_malformed):
        base = {"id": f"bad-{k}", "authors": ["X"], "title": "t", "subjects": [], "pages": ["w"]}
        bad.append(_MALFORMED[k % len(_MALFORMED)](base))
    for k in range(n_duplicate):
        # A later line reusing an earlier id is skipped; the first one wins.
        dup_of = int(rng.integers(len(docs) // 2))
        bad.append(json.dumps({"id": f"doc-{dup_of:05d}", "authors": [], "title": "dup",
                               "subjects": [], "pages": ["dup"]}))
    # Bad lines go after the first half, so every duplicate follows its original.
    for line in bad:
        lines.insert(int(rng.integers(len(docs) // 2, len(lines) + 1)), line)
    lines.insert(int(rng.integers(len(lines))), "")  # blank lines are not records
    write_jsonl(out / "records.jsonl", lines)
    return {"docs": truth, "skipped": len(bad)}


# ---------------------------------------------------------------------------
# Click log (engagement)
# ---------------------------------------------------------------------------


def _zero_tallies() -> dict:
    keys = ("event_impressions", "event_clicks", "sets_any", "sets_top", "set_impressions")
    return {
        "n_events": 0,
        "n_sets": 0,
        "set_impressions_total": 0,
        "rejected": 0,
        **{key: {label: 0 for label in LABELS} for key in keys},
    }


def make_click_log(rng: np.random.Generator, out: Path) -> dict:
    """log.jsonl and predictions.jsonl, with the counts a correct report shows."""
    doc_types = [LABELS[i] for i in rng.choice(3, size=ENGAGEMENT_DOCS, p=(0.55, 0.10, 0.35))]
    doc_ids = [f"doc-{i:05d}" for i in range(ENGAGEMENT_DOCS)]
    predictions = [
        {"doc_id": d, "doc_type": t, "scores": {label: float(label == t) for label in LABELS}}
        for d, t in zip(doc_ids, doc_types)
    ]
    tallies = {engine: _zero_tallies() for engine in ENGINES}
    bad_kinds = ("json", "no-impressions", "unresolvable", "duplicate-position",
                 "unimpressed-click", "unknown-engine")
    injected = {kind: 0 for kind in bad_kinds}
    lines = []
    for q in range(ENGAGEMENT_EVENTS):
        engine = ENGINES[int(rng.random() < 0.5)]
        size = int(rng.integers(1, 11))
        picks = rng.integers(0, ENGAGEMENT_DOCS, size)
        impressions, types = [], []
        for pos, d in enumerate(picks, start=1):
            imp = {"doc_id": doc_ids[d], "position": pos}
            if rng.random() < 0.5:
                imp["doc_type"] = doc_types[d]
            impressions.append(imp)
            types.append(doc_types[d])
        clicked = [p for p in range(size) if rng.random() < CLICK_PROBABILITY]
        clicks = [{"doc_id": impressions[p]["doc_id"], "position": p + 1} for p in clicked]
        event = {"engine": engine, "query_id": f"q{q}", "impressions": impressions, "clicks": clicks}

        if rng.random() < ENGAGEMENT_BAD_SHARE:
            kind = bad_kinds[int(rng.integers(len(bad_kinds)))]
            injected[kind] += 1
            if kind == "json":
                lines.append(json.dumps(event)[:-3])
            elif kind == "no-impressions":
                lines.append(json.dumps({k: v for k, v in event.items() if k != "impressions"}))
            elif kind == "unresolvable":
                impressions.append({"doc_id": f"unknown-{q}", "position": size + 1})
                lines.append(json.dumps(event))
            elif kind == "duplicate-position":
                impressions.append({"doc_id": f"again-{q}", "position": 1, "doc_type": types[0]})
                tallies[engine]["rejected"] += 1
                lines.append(json.dumps(event))
            elif kind == "unimpressed-click":
                clicks.append({"doc_id": impressions[0]["doc_id"], "position": size + 5})
                tallies[engine]["rejected"] += 1
                lines.append(json.dumps(event))
            else:
                lines.append(json.dumps({**event, "engine": "email"}))
            continue

        t = tallies[engine]
        t["n_events"] += 1
        for label in types:
            t["event_impressions"][label] += 1
        clicked_types = {}
        for p in clicked:
            label = types[p]
            t["event_clicks"][label] += 1
            clicked_types[label] = clicked_types.get(label, False) or p == 0
        n_sets = max(1, len(clicked_types))
        t["n_sets"] += n_sets
        t["set_impressions_total"] += n_sets * size
        for label in types:
            t["set_impressions"][label] += n_sets
        for label, top in clicked_types.items():
            t["sets_any"][label] += 1
            t["sets_top"][label] += int(top)
        lines.append(json.dumps(event))
    write_jsonl(out / "log.jsonl", lines)
    write_jsonl(out / "predictions.jsonl", predictions)
    return {"engines": tallies, "injected": injected}


# ---------------------------------------------------------------------------


def synthesize(workload: str, seed: int, out: Path) -> None:
    rng = np.random.default_rng([seed, sum(map(ord, workload))])
    out.mkdir(parents=True, exist_ok=True)
    truth: dict = {"workload": workload, "seed": seed}
    if workload == "pipeline":
        write_jsonl(out / "labeled.jsonl", labeled_rows(rng, PIPELINE_EXAMPLES, "ex"))
        config = {
            "seed": seed,
            "paths": {"labeled": str(out / "labeled.jsonl"), "output_dir": str(out / "out")},
            "sample_total": PIPELINE_SAMPLE,
            "k_folds": 10,
            "validation_fraction": 0.2,
        }
        (out / "config.json").write_text(json.dumps(config, indent=2))
        truth.update(labeled=PIPELINE_EXAMPLES, sampled=PIPELINE_SAMPLE)
    elif workload == "classify":
        write_jsonl(out / "deploy_train.jsonl", labeled_rows(rng, DEPLOYED_TRAIN_EXAMPLES, "train"))
        truth.update(make_records(rng, out))
    elif workload == "model-kinds":
        write_jsonl(out / "train.jsonl", labeled_rows(rng, KINDS_TRAIN_EXAMPLES, "train"))
        write_jsonl(out / "queries.jsonl", labeled_rows(rng, KINDS_QUERIES, "query"))
    elif workload == "engagement":
        truth.update(make_click_log(rng, out))
    else:
        raise SystemExit(f"unknown workload: {workload}")
    (out / "truth.json").write_text(json.dumps(truth))


if __name__ == "__main__":
    if len(sys.argv) != 4:
        raise SystemExit("usage: synth.py WORKLOAD SEED OUT_DIR")
    synthesize(sys.argv[1], int(sys.argv[2]), Path(sys.argv[3]))
