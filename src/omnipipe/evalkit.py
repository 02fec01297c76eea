"""Evaluation metrics and score-table normalization.

Word and character error rates via Levenshtein alignment with full edit
counts (``error_rates`` aligns every pair of a call at once: the cost
matrices of a length-sorted batch of pairs are filled together, one
vectorised row step for all of them, then each pair is backtraced) and their
corpus rate as a fold over those results (``corpus_error_rate``), sentence
BLEU-4 against one reference with modified n-gram precision and brevity
penalty (``bleu_scores`` counts the clipped n-gram matches of every pair of
a call at once: n-grams get call-wide ids by rank, and one ``np.unique`` per
order counts them per pair and side), corpus BLEU-4 as a fold over those
sentence results (``corpus_bleu``), and the radar normalization
x_norm = (x - x_min + 10) / (x_max - x_min + 10) applied per benchmark
column. Results are values, not text: the CLI renders every report.
"""

from __future__ import annotations

import math
import string
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


# Bytes one batch of the edit-distance fill may hold in its cost matrices
# (int32) and mismatch masks (bool). A larger budget takes fewer row steps
# for long pairs, and raises the peak memory of a call by as much.
_DP_BYTES = 1 << 20


def _dp_bytes(n: int, m: int) -> int:
    return 4 * (n + 1) * (m + 1) + n * m


def _edit_ops(pairs: list) -> list[tuple[int, int, int]]:
    """Minimal (substitutions, deletions, insertions) aligning each hyp to its
    ref, for a list of (ref_tokens, hyp_tokens), in input order.

    The pairs are sorted by length and cut into batches whose padded cost
    matrices and masks fit in ``_DP_BYTES``; a pair larger than that runs
    alone. Each batch fills the matrices of all its pairs together, one row
    step for every pair, then backtraces each pair (``_align``).
    """
    batches, batch, rows, cols = [], [], 0, 0
    for k in sorted(range(len(pairs)), key=lambda k: (len(pairs[k][0]), len(pairs[k][1]))):
        n, m = max(rows, len(pairs[k][0])), max(cols, len(pairs[k][1]))
        if batch and (len(batch) + 1) * _dp_bytes(n, m) > _DP_BYTES:
            batches.append(batch)
            batch, n, m = [], len(pairs[k][0]), len(pairs[k][1])
        batch.append(k)
        rows, cols = n, m
    if batch:
        batches.append(batch)
    ops: list = [None] * len(pairs)
    for batch in batches:
        for k, counts in zip(batch, _align([pairs[k] for k in batch])):
            ops[k] = counts
    return ops


def _align(batch: list) -> list[tuple[int, int, int]]:
    """Edit counts for one batch of pairs, padded on the right and bottom.

    Row i of every cost matrix is filled in one step along axis 1:
    substitution and deletion come from the row above, and the insertion
    chain along the row is a running minimum of ``cand[k] - k``. A cell
    depends only on cells above and to its left, so right padding cannot
    change a pair's columns, and rows past a pair's length are never read.
    Among cost-ties the backtrace prefers substitution, then deletion, then
    insertion, making the counts deterministic.
    """
    codes: dict = {}
    rows = max(len(ref) for ref, _ in batch)
    cols = max(len(hyp) for _, hyp in batch)
    ref_codes = np.full((rows, len(batch)), -1, dtype=np.int64)
    hyp_codes = np.full((len(batch), cols), -1, dtype=np.int64)
    for b, (ref, hyp) in enumerate(batch):
        ref_codes[: len(ref), b] = [codes.setdefault(t, len(codes)) for t in ref]
        hyp_codes[b, : len(hyp)] = [codes.setdefault(t, len(codes)) for t in hyp]
    diff = ref_codes[:, :, None] != hyp_codes[None]
    j = np.arange(cols + 1, dtype=np.int32)
    cost = np.empty((rows + 1, len(batch), cols + 1), dtype=np.int32)
    cost[0] = j
    for i in range(1, rows + 1):
        prev, row = cost[i - 1], cost[i]
        row[:, 0] = i
        np.minimum(prev[:, :-1] + diff[i - 1], prev[:, 1:] + 1, out=row[:, 1:])
        np.minimum.accumulate(row - j, axis=1, out=row)
        row += j
    ops = []
    for b, (ref, hyp) in enumerate(batch):
        # .item reads a cell as a Python int, which the loop compares faster
        c, d = cost[:, b].item, diff[:, b].item
        subs = dels = ins = 0
        i, j = len(ref), len(hyp)
        while i > 0 or j > 0:
            if i > 0 and j > 0 and c(i, j) == c(i - 1, j - 1) + d(i - 1, j - 1):
                subs += d(i - 1, j - 1)
                i, j = i - 1, j - 1
            elif i > 0 and c(i, j) == c(i - 1, j) + 1:
                dels += 1
                i -= 1
            else:
                ins += 1
                j -= 1
        ops.append((subs, dels, ins))
    return ops


def tokenize_words(text: str) -> list[str]:
    """Lowercase, strip terminal punctuation from each token, split on space."""
    tokens = []
    for raw in text.lower().split():
        token = raw.rstrip(string.punctuation)
        tokens.append(token if token else raw)
    return tokens


def error_rates(metric: str, pairs: Iterable[tuple[str, str]]) -> list[MetricResult]:
    """WER or CER for each (reference, hypothesis), in input order.

    Each pair is tokenized and checked as it is drawn, so an empty reference
    raises while its record is in use; then one ``_edit_ops`` call aligns
    every pair. ``wer`` tokenizes with ``tokenize_words``, ``cer`` compares
    code points, whitespace included.
    """
    if metric == "wer":
        tokens, empty = tokenize_words, "reference is empty after tokenization"
    elif metric == "cer":
        tokens, empty = list, "reference is empty"
    else:
        raise ContractError(f"unknown error-rate metric {metric!r}")
    token_pairs = []
    for reference, hypothesis in pairs:
        ref = tokens(reference)
        if not ref:
            raise ContractError(empty)
        token_pairs.append((ref, tokens(hypothesis)))
    return [
        MetricResult(
            metric=metric,
            value=(s + d + i) / len(ref),
            counts={
                "substitutions": s,
                "deletions": d,
                "insertions": i,
                "reference_length": len(ref),
            },
        )
        for (ref, _), (s, d, i) in zip(token_pairs, _edit_ops(token_pairs))
    ]


def wer(reference: str, hypothesis: str) -> MetricResult:
    """(S + D + I) / N over whitespace-tokenized, lightly normalized words."""
    return error_rates("wer", [(reference, hypothesis)])[0]


def cer(reference: str, hypothesis: str) -> MetricResult:
    """Character-level edit rate; whitespace counts, code points compared."""
    return error_rates("cer", [(reference, hypothesis)])[0]


def _clipped_matches(sides: list[list[str]]) -> list[list[int]]:
    """Clipped n-gram matches of orders 1..BLEU_MAX_N for every pair, from
    ``sides`` = [hyp_0, ref_0, hyp_1, ref_1, ...] word lists; entry n - 1 of
    the result lists each pair's matches of order n, as Python ints.

    Every word of the call gets one id, and an n-gram starting at a position
    gets the rank of (its (n-1)-gram's id, its last word's id), so equal
    n-grams anywhere in the call share an id. Per order, one ``np.unique``
    counts each (pair, n-gram, side); a hyp count and its ref count sit next
    to each other, and their minimum summed per pair is the clipped matches.
    """
    codes: dict = {}
    ids = np.array([codes.setdefault(w, len(codes)) for side in sides for w in side], np.int64)
    lengths = np.array([len(side) for side in sides], dtype=np.int64)
    sentence = np.repeat(np.arange(len(sides), dtype=np.int64), lengths)
    # tokens from each position to the end of its sentence, itself included
    left = np.repeat(np.cumsum(lengths), lengths) - np.arange(len(ids))
    # ``at`` holds the start positions of the order's n-grams, ``grams`` their
    # ids, all below ``n_grams``. For T tokens every id is below T, so a rank
    # key is below T * (T + 1) and a count key below 2 * pairs * T: neither
    # overflows int64.
    at, grams, n_grams = np.arange(len(ids)), ids, len(codes)
    matches = []
    for n in range(1, BLEU_MAX_N + 1):
        if n > 1:
            fits = left[at] >= n
            at = at[fits]
            ranked, grams = np.unique(
                grams[fits] * (len(codes) + 1) + ids[at + n - 1], return_inverse=True)
            n_grams = len(ranked)
        owner = sentence[at]  # 2 * pair + side, the hyp's side 0 and the ref's 1
        keys, counts = np.unique(
            ((owner >> 1) * n_grams + grams) * 2 + (owner & 1), return_counts=True)
        # a hyp key (even) followed by its key + 1 is an n-gram on both sides
        both = (keys[1:] == keys[:-1] + 1) & (keys[:-1] % 2 == 0)
        clipped = np.minimum(counts[:-1], counts[1:])[both]
        pair = keys[:-1][both] // (2 * n_grams)
        matches.append(np.bincount(pair, clipped, len(sides) // 2).astype(np.int64).tolist())
    return matches


def bleu_scores(pairs: Iterable[tuple[str, str]]) -> list[MetricResult]:
    """Sentence BLEU-4 for each (reference, hypothesis), in input order:
    modified n-gram precision for n = 1..4, geometric mean, brevity penalty.
    Any zero precision, including an order the hypothesis is too short for,
    zeroes the score. Words are split on whitespace.

    The clipped matches of every pair of the call are counted at once, by a
    fixed number of numpy calls whatever the pair count
    (``_clipped_matches``); the formula then runs per pair on Python ints."""
    sides = []
    for reference, hypothesis in pairs:
        sides += [hypothesis.split(), reference.split()]
    results = []
    for hyp, ref, clipped in zip(sides[::2], sides[1::2], zip(*_clipped_matches(sides))):
        counts: dict = {"hyp_length": len(hyp), "ref_length": len(ref)}
        value = 0.0
        if hyp:
            totals = [max(len(hyp) - n, 0) for n in range(BLEU_MAX_N)]
            for n in range(BLEU_MAX_N):
                counts[f"matches_{n + 1}"], counts[f"total_{n + 1}"] = clipped[n], totals[n]
            value = _bleu_value(clipped, totals, len(hyp), len(ref))
        results.append(MetricResult(metric="bleu", value=value, counts=counts))
    return results


def _bleu_value(matches, totals, hyp_length: int, ref_length: int) -> float:
    """BLEU-4 from clipped matches and totals per order and the hyp and ref
    lengths (hyp_length > 0): the geometric mean of the precisions times the
    brevity penalty. A precision is zero exactly when its order has no match,
    and then so is the score."""
    if not all(matches):
        return 0.0
    log_sum = sum(math.log(m / t) for m, t in zip(matches, totals)) / BLEU_MAX_N
    bp = 1.0 if hyp_length > ref_length else math.exp(1.0 - ref_length / hyp_length)
    return bp * math.exp(log_sum)


def corpus_error_rate(results: Iterable[MetricResult]) -> float:
    """Corpus WER or CER of ``error_rates`` results: the total edits
    (S + D + I) over the total reference length, a fold over the counts."""
    counts = [r.counts for r in results]
    edits = sum(c["substitutions"] + c["deletions"] + c["insertions"] for c in counts)
    return edits / sum(c["reference_length"] for c in counts)


def corpus_bleu(results: Iterable[MetricResult]) -> float:
    """Corpus BLEU-4 (Papineni et al. 2002) of ``bleu_scores`` results: each
    order's clipped matches and totals are summed over all pairs, and one
    brevity penalty applies to the summed hyp and ref lengths. 0.0 when an
    order has no match or the summed hyp length is 0. A fold over the
    results' counts; an empty hyp's result holds its lengths only."""
    matches, totals = [0] * BLEU_MAX_N, [0] * BLEU_MAX_N
    hyp_length = ref_length = 0
    for r in results:
        hyp_length += r.counts["hyp_length"]
        ref_length += r.counts["ref_length"]
        for n in range(BLEU_MAX_N):
            matches[n] += r.counts.get(f"matches_{n + 1}", 0)
            totals[n] += r.counts.get(f"total_{n + 1}", 0)
    return _bleu_value(matches, totals, hyp_length, ref_length) if hyp_length else 0.0


def bleu(reference: str, hypothesis: str) -> MetricResult:
    """Sentence BLEU-4 against one reference (``bleu_scores`` for one pair)."""
    return bleu_scores([(reference, hypothesis)])[0]

# ---------------------------------------------------------------------------
# score tables and radar normalization
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ScoreTable:
    scores: dict  # model -> benchmark -> raw score

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

