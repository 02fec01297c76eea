"""Evaluation metrics and score-table normalization.

Word and character error rates via Levenshtein alignment with full edit
counts (``error_rates`` aligns each pair on its own with Myers' bit-vector
algorithm: one column of vertical and horizontal cost deltas per hypothesis
token, then a backtrace that breaks ties substitution, deletion, insertion)
and their corpus rate as a fold over those results (``corpus_error_rate``),
sentence BLEU-4 against one reference with modified n-gram precision and
brevity penalty (``bleu_scores`` counts the clipped n-gram matches of every
pair of a call at once: n-grams get call-wide ids by rank, and one
``np.unique`` per order counts them per pair and side), corpus BLEU-4 as a
fold over those sentence results (``corpus_bleu``), and the radar
normalization x_norm = (x - x_min + 10) / (x_max - x_min + 10) applied per
benchmark column. Results are values, not text: the CLI renders every report.
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


def _edit_ops(ref: list, hyp: list) -> tuple[int, int, int]:
    """Minimal (substitutions, deletions, insertions) aligning hyp to ref.

    Myers' bit-vector algorithm (Myers 1999; Hyyrö 2001 for global distance)
    on Python ints. With c(i, j) the cost of aligning ref[:i] to hyp[:j],
    bit i - 1 of hyp column j's vectors holds row i's deltas: pv / mv mark
    c(i, j) - c(i - 1, j) = +1 / -1, and ph / mh mark c(i, j) - c(i, j - 1)
    = +1 / -1, kept before the shift. The sweep keeps every column; the
    backtrace reads the cost steps from their bits and, among cost ties,
    prefers substitution, then deletion, then insertion.
    """
    mask = (1 << len(ref)) - 1
    where: dict = {}  # token -> bit mask of its positions in ref
    for i, token in enumerate(ref):
        where[token] = where.get(token, 0) | 1 << i
    pv, mv, columns = mask, 0, []
    for token in hyp:
        eq = where.get(token, 0)
        xv = eq | mv
        xh = ((eq & pv) + pv ^ pv) | eq
        ph = mv | ~(xh | pv)
        mh = pv & xh
        shifted = ph << 1 | 1  # c(0, j) - c(0, j - 1) = 1 enters at row 0
        pv, mv = (mh << 1 | ~(xv | shifted)) & mask, shifted & xv
        columns.append((ph, mh, pv, mv))
    subs = dels = ins = 0
    i, j = len(ref), len(hyp)
    while i and j:
        ph, mh, pv, mv = columns[j - 1]
        up = (pv >> i - 1 & 1) - (mv >> i - 1 & 1)  # c(i, j) - c(i - 1, j)
        # c(i, j) - c(i - 1, j - 1): up plus row i - 1's horizontal delta
        diagonal = up + ((ph >> i - 2 & 1) - (mh >> i - 2 & 1) if i > 1 else 1)
        diff = ref[i - 1] != hyp[j - 1]
        if diagonal == diff:
            subs += diff
            i, j = i - 1, j - 1
        elif up == 1:
            dels += 1
            i -= 1
        else:
            ins += 1
            j -= 1
    return subs, dels + i, ins + j


def tokenize_words(text: str) -> list[str]:
    """Lowercase, strip terminal punctuation from each token, split on space."""
    tokens = []
    for raw in text.lower().split():
        token = raw.rstrip(string.punctuation)
        tokens.append(token if token else raw)
    return tokens


def error_rates(metric: str, pairs: Iterable[tuple[str, str]]) -> list[MetricResult]:
    """WER or CER for each (reference, hypothesis), in input order.

    Each pair is tokenized, checked and aligned as it is drawn, so an empty
    reference raises while its record is in use. ``_edit_ops`` aligns a pair
    from bit-vector columns of its cost deltas, breaking ties substitution,
    deletion, insertion. ``wer`` tokenizes with ``tokenize_words``, ``cer``
    compares code points, whitespace included.
    """
    if metric == "wer":
        tokens, empty = tokenize_words, "reference is empty after tokenization"
    elif metric == "cer":
        tokens, empty = list, "reference is empty"
    else:
        raise ContractError(f"unknown error-rate metric {metric!r}")
    results = []
    for reference, hypothesis in pairs:
        ref = tokens(reference)
        if not ref:
            raise ContractError(empty)
        s, d, i = _edit_ops(ref, tokens(hypothesis))
        counts = {"substitutions": s, "deletions": d, "insertions": i, "reference_length": len(ref)}
        results.append(MetricResult(metric=metric, value=(s + d + i) / len(ref), counts=counts))
    return results


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

