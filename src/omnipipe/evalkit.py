"""Evaluation metrics and score-table reporting.

Word and character error rates via Levenshtein alignment with full edit
counts, BLEU with modified n-gram precision and brevity penalty, the radar
normalization x_norm = (x - x_min + 10) / (x_max - x_min + 10) applied per
benchmark column, and deterministic CSV/JSON report rendering.
"""

from __future__ import annotations

import json
import math
import string
from collections import Counter
from dataclasses import dataclass

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

    Among cost-ties the backtrace prefers substitution, then deletion, then
    insertion, making the counts deterministic.
    """
    n, m = len(ref), len(hyp)
    cost = [[0] * (m + 1) for _ in range(n + 1)]
    for i in range(1, n + 1):
        cost[i][0] = i
    for j in range(1, m + 1):
        cost[0][j] = j
    for i in range(1, n + 1):
        for j in range(1, m + 1):
            same = ref[i - 1] == hyp[j - 1]
            cost[i][j] = min(
                cost[i - 1][j - 1] + (0 if same else 1),
                cost[i - 1][j] + 1,
                cost[i][j - 1] + 1,
            )
    subs = dels = ins = 0
    i, j = n, m
    while i > 0 or j > 0:
        if i > 0 and j > 0 and cost[i][j] == cost[i - 1][j - 1] + (
            0 if ref[i - 1] == hyp[j - 1] else 1
        ):
            if ref[i - 1] != hyp[j - 1]:
                subs += 1
            i, j = i - 1, j - 1
        elif i > 0 and cost[i][j] == cost[i - 1][j] + 1:
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


def bleu(references: list[str], hypothesis: str) -> MetricResult:
    """Sentence BLEU-4: modified n-gram precision for n = 1..4, geometric
    mean, brevity penalty. Any zero precision, including an order the
    hypothesis is too short for, zeroes the score."""
    if not references:
        raise ContractError("at least one reference is required")
    hyp = hypothesis.split()
    refs = [r.split() for r in references]
    counts: dict = {"hyp_length": len(hyp)}
    if not hyp:
        counts["ref_length"] = min(len(r) for r in refs)
        return MetricResult(metric="bleu", value=0.0, counts=counts)
    ref_len = min((len(r) for r in refs), key=lambda L: (abs(L - len(hyp)), L))
    counts["ref_length"] = ref_len
    precisions: list[float] = []
    for n in range(1, BLEU_MAX_N + 1):
        hyp_ngrams = _ngram_counts(hyp, n)
        best = Counter()
        for r in refs:
            for gram, c in _ngram_counts(r, n).items():
                best[gram] = max(best[gram], c)
        clipped = sum(min(c, best[gram]) for gram, c in hyp_ngrams.items())
        total = sum(hyp_ngrams.values())
        counts[f"matches_{n}"] = clipped
        counts[f"total_{n}"] = total
        precisions.append(clipped / total if total else 0.0)
    if 0.0 in precisions:
        return MetricResult(metric="bleu", value=0.0, counts=counts)
    log_sum = sum(math.log(p) for p in precisions) / BLEU_MAX_N
    bp = 1.0 if len(hyp) > ref_len else math.exp(1.0 - ref_len / len(hyp))
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
    def from_rows(cls, rows: list[tuple[str, str, float]]) -> "ScoreTable":
        scores: dict = {}
        for model, benchmark, value in rows:
            scores.setdefault(model, {})[benchmark] = float(value)
        if not scores:
            raise ContractError("score table is empty")
        return cls(scores=scores)


def normalize_scores(table: ScoreTable) -> dict:
    """Apply x_norm = (x - x_min + 10) / (x_max - x_min + 10) per benchmark."""
    normalized: dict = {m: {} for m in table.scores}
    for benchmark in table.benchmarks():
        column = table.column(benchmark)
        if not column:
            raise ContractError(f"benchmark {benchmark!r} has no scores")
        lo = min(column.values())
        hi = max(column.values())
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
