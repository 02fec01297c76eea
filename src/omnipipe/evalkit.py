"""Evaluation metrics and score-table reporting.

Word and character error rates via Levenshtein alignment with full edit
counts (the cost matrix filled one vectorised row at a time, then one
backtrace), sentence BLEU-4 against one reference with modified n-gram
precision and brevity penalty, the radar normalization
x_norm = (x - x_min + 10) / (x_max - x_min + 10) applied per benchmark
column, and deterministic CSV/JSON report rendering.
"""

from __future__ import annotations

import json
import math
import string
from collections import Counter
from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from .errors import ContractError

NORM_OFFSET = 10.0
BLEU_MAX_N = 4


@dataclass(frozen=True)
class MetricResult:
    metric: str
    value: float
    counts: dict

    def to_json(self) -> dict:
        return {"metric": self.metric, "value": self.value, "counts": self.counts}


def _edit_ops(ref: list, hyp: list) -> tuple[int, int, int]:
    """Minimal (substitutions, deletions, insertions) aligning hyp to ref.

    The cost matrix is filled one row at a time: substitution and deletion
    come from the row above, and the insertion chain along the row is a
    running minimum of ``cand[k] - k``. Among cost-ties the backtrace prefers
    substitution, then deletion, then insertion, making the counts
    deterministic.
    """
    n, m = len(ref), len(hyp)
    codes: dict = {}
    ref_codes = np.array([codes.setdefault(t, len(codes)) for t in ref], dtype=np.int64)
    hyp_codes = np.array([codes.setdefault(t, len(codes)) for t in hyp], dtype=np.int64)
    diff = (ref_codes[:, None] != hyp_codes[None, :]).astype(np.int32)
    j = np.arange(m + 1, dtype=np.int32)
    cost = np.empty((n + 1, m + 1), dtype=np.int32)
    cost[0] = j
    for i in range(1, n + 1):
        prev, row = cost[i - 1], cost[i]
        row[0] = i
        np.minimum(prev[:-1] + diff[i - 1], prev[1:] + 1, out=row[1:])
        np.minimum.accumulate(row - j, out=row)
        row += j
    subs = dels = ins = 0
    i, j = n, m
    while i > 0 or j > 0:
        if i > 0 and j > 0 and cost[i, j] == cost[i - 1, j - 1] + diff[i - 1, j - 1]:
            subs += int(diff[i - 1, j - 1])
            i, j = i - 1, j - 1
        elif i > 0 and cost[i, j] == cost[i - 1, j] + 1:
            dels += 1
            i -= 1
        else:
            ins += 1
            j -= 1
    return subs, dels, ins


def tokenize_words(text: str) -> list[str]:
    """Lowercase, strip terminal punctuation from each token, split on space."""
    tokens = []
    for raw in text.lower().split():
        token = raw.rstrip(string.punctuation)
        tokens.append(token if token else raw)
    return tokens


def _error_rate(metric: str, ref: list, hyp: list) -> MetricResult:
    s, d, i = _edit_ops(ref, hyp)
    return MetricResult(
        metric=metric,
        value=(s + d + i) / len(ref),
        counts={
            "substitutions": s,
            "deletions": d,
            "insertions": i,
            "reference_length": len(ref),
        },
    )


def wer(reference: str, hypothesis: str) -> MetricResult:
    """(S + D + I) / N over whitespace-tokenized, lightly normalized words."""
    ref = tokenize_words(reference)
    if not ref:
        raise ContractError("reference is empty after tokenization")
    return _error_rate("wer", ref, tokenize_words(hypothesis))


def cer(reference: str, hypothesis: str) -> MetricResult:
    """Character-level edit rate; whitespace counts, code points compared."""
    if not reference:
        raise ContractError("reference is empty")
    return _error_rate("cer", list(reference), list(hypothesis))


def _ngram_counts(tokens: list[str], n: int) -> Counter:
    return Counter(tuple(tokens[i : i + n]) for i in range(len(tokens) - n + 1))


def bleu(reference: str, hypothesis: str) -> MetricResult:
    """Sentence BLEU-4 against one reference: modified n-gram precision for
    n = 1..4, geometric mean, brevity penalty. Any zero precision, including
    an order the hypothesis is too short for, zeroes the score."""
    hyp, ref = hypothesis.split(), reference.split()
    counts: dict = {"hyp_length": len(hyp), "ref_length": len(ref)}
    if not hyp:
        return MetricResult(metric="bleu", value=0.0, counts=counts)
    precisions: list[float] = []
    for n in range(1, BLEU_MAX_N + 1):
        hyp_ngrams, ref_ngrams = _ngram_counts(hyp, n), _ngram_counts(ref, n)
        clipped = sum(min(c, ref_ngrams[gram]) for gram, c in hyp_ngrams.items())
        total = sum(hyp_ngrams.values())
        counts[f"matches_{n}"] = clipped
        counts[f"total_{n}"] = total
        precisions.append(clipped / total if total else 0.0)
    if 0.0 in precisions:
        return MetricResult(metric="bleu", value=0.0, counts=counts)
    log_sum = sum(math.log(p) for p in precisions) / BLEU_MAX_N
    bp = 1.0 if len(hyp) > len(ref) else math.exp(1.0 - len(ref) / len(hyp))
    return MetricResult(metric="bleu", value=bp * math.exp(log_sum), counts=counts)

# ---------------------------------------------------------------------------
# score tables and radar normalization
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ScoreTable:
    scores: dict  # model -> benchmark -> raw score

    def models(self) -> list[str]:
        return sorted(self.scores)

    def benchmarks(self) -> list[str]:
        names = {b for row in self.scores.values() for b in row}
        return sorted(names)

    def column(self, benchmark: str) -> dict:
        return {
            m: row[benchmark] for m, row in self.scores.items() if benchmark in row
        }

    @classmethod
    def from_rows(cls, rows: Iterable[tuple[str, str, float]]) -> "ScoreTable":
        scores: dict = {}
        for model, benchmark, value in rows:
            row = scores.setdefault(model, {})
            if benchmark in row:
                raise ContractError(
                    f"duplicate score for model {model!r} on benchmark {benchmark!r}"
                )
            row[benchmark] = float(value)
        if not scores:
            raise ContractError("score table is empty")
        return cls(scores=scores)


def normalize_scores(table: ScoreTable) -> dict:
    """Apply x_norm = (x - x_min + 10) / (x_max - x_min + 10) per benchmark."""
    normalized: dict = {m: {} for m in table.scores}
    for benchmark in table.benchmarks():
        column = table.column(benchmark)
        lo = min(column.values())
        hi = max(column.values())
        if not math.isfinite(hi - lo):
            raise ContractError(f"benchmark {benchmark!r}: score range {lo!r} to {hi!r} overflows")
        for model, x in column.items():
            normalized[model][benchmark] = (x - lo + NORM_OFFSET) / (
                hi - lo + NORM_OFFSET
            )
    return normalized


def render_report(table: ScoreTable, fmt: str) -> str:
    """Rows sorted by (model, benchmark) with raw and normalized values."""
    normalized = normalize_scores(table)
    rows = []
    for model in table.models():
        for benchmark in sorted(table.scores[model]):
            rows.append(
                {
                    "model": model,
                    "benchmark": benchmark,
                    "raw": table.scores[model][benchmark],
                    "normalized": normalized[model][benchmark],
                }
            )
    if fmt == "csv":
        lines = ["model,benchmark,raw,normalized"]
        for r in rows:
            lines.append(
                f"{r['model']},{r['benchmark']},{r['raw']!r},{r['normalized']!r}"
            )
        return "\n".join(lines) + "\n"
    if fmt == "json":
        return json.dumps(rows, sort_keys=True, indent=2) + "\n"
    raise ContractError(f"unsupported report format {fmt!r}")
