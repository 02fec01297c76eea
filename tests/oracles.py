"""Independent oracles the tests check the library against.

Everything here is deliberately naive (triple loops, plain DP, explicit DFT,
a bin scan per sample, a tile-at-a-time shrink loop, a capacity-wide masked
softmax, a window-at-a-time 2x2 pool) and shares no code with the implementation paths it verifies.
The pointwise and melspec references at the end are the formulas the fast
kernels replaced: GELU with numpy's ``x**3``, a sigmoid that gathers and
scatters through boolean masks, melspec frames gathered through an index
array, and melspec on the whole clip at once, each step a new array (both
read only the shared mel filterbank from the library). The last
two are loops the library replaced: a frame-at-a-time VAD run scan and a
finite-difference check with one probe copy per parameter, which runs the
loss once per probe (``per_probe`` maps such a scalar loss over the batch
of probe rows that ``numkit.grad_check`` passes). The streaming
scheduler's reference is the mode-string state machine it replaced. The
last four are earlier forms of library code kept as references, or plain
loops: BLEU over a set of references (n-gram counts max-merged across them,
the closest reference length), corpus BLEU summed pair by pair, the 1:3
split that counts words with ``str.split``
and finds the cut with a second, regex pass, and the round-trip filter's
exact rule, a comparison of normalized texts. ``passes_type_rule`` states
the input type rule on one value, one case per type.
"""

from __future__ import annotations

import math
import re
from collections import Counter

import numpy as np


def naive_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    m, k = a.shape
    k2, n = b.shape
    assert k == k2
    out = np.zeros((m, n))
    for i in range(m):
        for j in range(n):
            acc = 0.0
            for t in range(k):
                acc += a[i, t] * b[t, j]
            out[i, j] = acc
    return out


def naive_conv1d(x: np.ndarray, kernel: np.ndarray, stride: int, pad_right: int) -> np.ndarray:
    length, c_in = x.shape
    k, _, c_out = kernel.shape
    padded = np.concatenate([x, np.zeros((pad_right, c_in))]) if pad_right else x
    l_out = (length + pad_right - k) // stride + 1
    out = np.zeros((l_out, c_out))
    for t in range(l_out):
        for o in range(c_out):
            acc = 0.0
            for tap in range(k):
                for c in range(c_in):
                    acc += padded[t * stride + tap, c] * kernel[tap, c, o]
            out[t, o] = acc
    return out


def naive_pool2x2(grid: np.ndarray) -> np.ndarray:
    """2x2 stride-2 mean pool of an (h, w, c) grid, one row per window in
    row-major order. Rows are floored to whole windows and an odd last column
    is a window of its own; each mean counts only the cells inside the grid."""
    h, w, c = grid.shape
    out = []
    for i in range(h // 2):
        for j in range((w + 1) // 2):
            acc, count = np.zeros(c), 0
            for di, dj in ((0, 0), (0, 1), (1, 0), (1, 1)):
                if 2 * j + dj < w:
                    acc += grid[2 * i + di, 2 * j + dj]
                    count += 1
            out.append(acc / count)
    return np.array(out)


def edit_distance(a, b) -> int:
    """Plain Levenshtein distance over two sequences."""
    prev = list(range(len(b) + 1))
    for i, ca in enumerate(a, 1):
        cur = [i]
        for j, cb in enumerate(b, 1):
            cur.append(min(prev[j] + 1, cur[-1] + 1, prev[j - 1] + (ca != cb)))
        prev = cur
    return prev[-1]


def edit_ops(ref, hyp) -> tuple[int, int, int]:
    """(substitutions, deletions, insertions) from a full cell-by-cell DP;
    the backtrace prefers substitution, then deletion, then insertion."""
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


def first_fit(lengths, capacity: int, order) -> list[tuple[list[int], int]]:
    """(sample ids, free space) per bin: each sample, in ``order``, goes to
    the first open bin it fits, scanning every bin, or opens a new one."""
    bin_ids: list[list[int]] = []
    bin_free: list[int] = []
    for i in order:
        for b, free in enumerate(bin_free):
            if lengths[i] <= free:
                bin_ids[b].append(i)
                bin_free[b] -= lengths[i]
                break
        else:
            bin_ids.append([i])
            bin_free.append(capacity - lengths[i])
    return list(zip(bin_ids, bin_free))


def standalone_causal_attention(x: np.ndarray) -> np.ndarray:
    """Per-sample causal attention with identity q/k/v projections."""
    n, d = x.shape
    out = np.zeros_like(x)
    for i in range(n):
        scores = np.array([x[i] @ x[j] / math.sqrt(d) for j in range(i + 1)])
        scores -= scores.max()
        weights = np.exp(scores)
        weights /= weights.sum()
        for j in range(i + 1):
            out[i] += weights[j] * x[j]
    return out


def shrink_tile_grid(rows: int, cols: int, max_tiles: int) -> tuple[int, int]:
    """Shrink the larger side of a rows x cols grid (rows on a tie) one tile
    at a time until it holds at most max_tiles tiles."""
    while rows * cols > max_tiles:
        if rows >= cols:
            rows -= 1
        else:
            cols -= 1
    return rows, cols


def mask_matrix(cu_seqlens, capacity: int) -> np.ndarray:
    """Explicit boolean capacity x capacity block-causal matrix: i attends to
    j iff both sit in the same segment and j <= i."""
    m = np.zeros((capacity, capacity), dtype=bool)
    for start, end in zip(cu_seqlens, cu_seqlens[1:]):
        n = end - start
        m[start:end, start:end] = np.tril(np.ones((n, n), dtype=bool))
    return m


def masked_attention(x: np.ndarray, cu_seqlens, capacity: int) -> np.ndarray:
    """Capacity-wide softmax with disallowed pairs set to -inf; rows that may
    attend to nothing (padding) come out as zeros."""
    d = x.shape[1]
    scores = (x @ x.T) / np.sqrt(d)
    allowed = mask_matrix(cu_seqlens, capacity)
    neg = np.where(allowed, scores, -np.inf)
    row_max = np.max(neg, axis=1, keepdims=True)
    safe_max = np.where(np.isfinite(row_max), row_max, 0.0)
    weights = np.where(allowed, np.exp(neg - safe_max), 0.0)
    denom = weights.sum(axis=1, keepdims=True)
    has_any = denom > 0
    probs = np.divide(weights, denom, out=np.zeros_like(weights), where=has_any)
    return probs @ x


def direct_dft_magnitude(frame: np.ndarray) -> np.ndarray:
    """O(N^2) DFT magnitudes for the non-negative frequencies of a frame."""
    n = frame.size
    bins = n // 2 + 1
    out = np.zeros(bins)
    for k in range(bins):
        angle = -2.0 * math.pi * k * np.arange(n) / n
        out[k] = abs(np.sum(frame * (np.cos(angle) + 1j * np.sin(angle))))
    return out


_GELU_C0 = math.sqrt(2.0 / math.pi)
_GELU_C1 = 0.044715


def gelu_pow(x: np.ndarray) -> np.ndarray:
    """Tanh-approximation GELU with the cube taken by numpy's ``pow``."""
    inner = _GELU_C0 * (x + _GELU_C1 * x**3)
    return 0.5 * x * (1.0 + np.tanh(inner))


def gelu_backward_pow(x: np.ndarray, grad_out: np.ndarray) -> np.ndarray:
    inner = _GELU_C0 * (x + _GELU_C1 * x**3)
    t = np.tanh(inner)
    local = 0.5 * (1.0 + t) + 0.5 * x * (1.0 - t**2) * _GELU_C0 * (
        1.0 + 3.0 * _GELU_C1 * x**2
    )
    return grad_out * local


def sigmoid_masked(x: np.ndarray) -> np.ndarray:
    """1 / (1 + exp(-x)) where x >= 0 and exp(x) / (1 + exp(x)) elsewhere."""
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    e = np.exp(x[~pos])
    out[~pos] = e / (1.0 + e)
    return out


def melspec_gather(waveform: np.ndarray) -> np.ndarray:
    """The 3000 x 128 log-mel grid with each frame gathered by an index array."""
    from omnipipe.modality import CLIP_SAMPLES, HOP_SAMPLES, WINDOW_SAMPLES, mel_filterbank

    samples = np.asarray(waveform, dtype=np.float64).reshape(-1)[:CLIP_SAMPLES]
    samples = np.concatenate([samples, np.zeros(CLIP_SAMPLES - samples.size)])
    n_frames = CLIP_SAMPLES // HOP_SAMPLES
    tail = (n_frames - 1) * HOP_SAMPLES + WINDOW_SAMPLES - CLIP_SAMPLES
    padded = np.concatenate([samples, np.zeros(tail)])
    idx = (np.arange(n_frames) * HOP_SAMPLES)[:, None] + np.arange(WINDOW_SAMPLES)
    window = 0.5 * (1.0 - np.cos(2.0 * np.pi * np.arange(WINDOW_SAMPLES) / WINDOW_SAMPLES))
    frames = padded[idx] * window[None, :]
    mel = np.abs(np.fft.rfft(frames, axis=1)) @ mel_filterbank()
    log_mel = np.log10(np.maximum(mel, 1e-10))
    log_mel = np.maximum(log_mel, log_mel.max() - 8.0)
    return (log_mel + 4.0) / 4.0


def melspec_whole(waveform: np.ndarray) -> np.ndarray:
    """The 3000 x 128 log-mel grid from whole-clip arrays: every frame is
    windowed, transformed and filtered in one step, then logged and clamped
    into new arrays."""
    from numpy.lib.stride_tricks import sliding_window_view

    from omnipipe.modality import CLIP_SAMPLES, HOP_SAMPLES, WINDOW_SAMPLES, mel_filterbank

    samples = np.asarray(waveform, dtype=np.float64).reshape(-1)
    n_frames = CLIP_SAMPLES // HOP_SAMPLES
    padded = np.zeros((n_frames - 1) * HOP_SAMPLES + WINDOW_SAMPLES)
    clip = samples[:CLIP_SAMPLES]
    padded[: clip.size] = clip
    window = 0.5 * (1.0 - np.cos(2.0 * np.pi * np.arange(WINDOW_SAMPLES) / WINDOW_SAMPLES))
    frames = sliding_window_view(padded, WINDOW_SAMPLES)[::HOP_SAMPLES] * window
    mel = np.abs(np.fft.rfft(frames, axis=1)) @ mel_filterbank()
    log_mel = np.log10(np.maximum(mel, 1e-10))
    log_mel = np.maximum(log_mel, log_mel.max() - 8.0)
    return (log_mel + 4.0) / 4.0


def vad_runs(active, hangover_frames: int) -> list[tuple[int, int]]:
    """[start, end) runs of a boolean frame mask, found a frame at a time;
    runs separated by at most ``hangover_frames`` frames are merged."""
    segments = []
    start = None
    for i, flag in enumerate(active):
        if flag and start is None:
            start = i
        elif not flag and start is not None:
            segments.append((start, i))
            start = None
    if start is not None:
        segments.append((start, len(active)))
    merged = []
    for seg in segments:
        if merged and seg[0] - merged[-1][1] <= hangover_frames:
            merged[-1] = (merged[-1][0], seg[1])
        else:
            merged.append(seg)
    return merged


def per_probe(loss_fn):
    """A batch loss for ``numkit.grad_check`` from a scalar loss of one
    name -> array dict: loss_fn runs on each probe row's views in turn."""

    def batch(probed: dict) -> np.ndarray:
        rows = len(next(iter(probed.values())))
        return np.array([loss_fn({n: a[r] for n, a in probed.items()}) for r in range(rows)])

    return batch


def grad_check_loop(loss_fn, params: list, grads: list, eps: float, tol: float):
    """Central differences with one probe copy per parameter and an offset
    into the concatenated entries; returns (max relative error, flat index of
    the first maximum, passed). loss_fn takes the list of parameters."""
    max_rel, worst, offset = 0.0, 0, 0
    with np.errstate(all="ignore"):
        for i, p in enumerate(params):
            probe = p.copy()
            probed = list(params)
            probed[i] = probe
            flat, base = probe.reshape(-1), p.reshape(-1)
            g_ad = grads[i].reshape(-1)
            for j in range(flat.size):
                flat[j] = base[j] + eps
                loss_plus = float(loss_fn(probed))
                flat[j] = base[j] - eps
                loss_minus = float(loss_fn(probed))
                flat[j] = base[j]
                g_fd = (loss_plus - loss_minus) / (2.0 * eps)
                assert math.isfinite(g_fd)
                rel = float(abs(g_ad[j] - g_fd) / max(abs(g_ad[j]), abs(g_fd), 1e-8))
                if rel > max_rel:
                    max_rel, worst = rel, offset + j
            offset += flat.size
    return max_rel, worst, max_rel < tol


REF_IDLE, REF_AUDIO = "idle", "audio_active"


def reference_step(state: tuple, event: tuple) -> tuple[tuple, list, str | None]:
    """One (t, kind, tokens) event through the mode-string scheduler; state is
    (mode, buffered tokens, last ms), starting at (REF_IDLE, 0, None). Returns
    the next state, the (t, modality, tokens, trigger) entries, and the
    protocol error text (the state unchanged) or None."""
    mode, buffered, last = state
    t, kind, tokens = event
    if last is not None and t < last:
        return state, [], f"time regression: event at {t} ms after {last} ms"
    if kind in ("video_frame", "image", "text"):
        modality = "video" if kind == "video_frame" else kind
        return (mode, buffered, t), [(t, modality, tokens, False)], None
    if kind == "audio_start":
        if mode == REF_AUDIO:
            return state, [], f"audio_start at {t} ms inside an open audio segment"
        return (REF_AUDIO, buffered, t), [], None
    if mode != REF_AUDIO:
        return state, [], f"{kind} at {t} ms with no open audio segment"
    if kind == "audio_frame":
        return (mode, buffered + tokens, t), [], None
    return (REF_IDLE, 0, t), [(t, "audio", buffered, True)], None


def _ngrams(tokens: list[str], n: int) -> Counter:
    return Counter(tuple(tokens[i : i + n]) for i in range(len(tokens) - n + 1))


def bleu_multi_reference(references: list[str], hypothesis: str) -> tuple[float, dict]:
    """Sentence BLEU-4 over a non-empty set of references: each n-gram's
    count clipped by its largest count in any one reference, and the
    brevity penalty against the reference length closest to the hypothesis
    (the shorter on a tie). Returns (value, counts)."""
    hyp = hypothesis.split()
    refs = [r.split() for r in references]
    counts: dict = {"hyp_length": len(hyp)}
    if not hyp:
        counts["ref_length"] = min(len(r) for r in refs)
        return 0.0, counts
    ref_len = min((len(r) for r in refs), key=lambda L: (abs(L - len(hyp)), L))
    counts["ref_length"] = ref_len
    precisions = []
    for n in range(1, 5):
        hyp_ngrams = _ngrams(hyp, n)
        best = Counter()
        for r in refs:
            for gram, c in _ngrams(r, n).items():
                best[gram] = max(best[gram], c)
        clipped = sum(min(c, best[gram]) for gram, c in hyp_ngrams.items())
        total = sum(hyp_ngrams.values())
        counts[f"matches_{n}"] = clipped
        counts[f"total_{n}"] = total
        precisions.append(clipped / total if total else 0.0)
    if 0.0 in precisions:
        return 0.0, counts
    log_sum = sum(math.log(p) for p in precisions) / 4
    bp = 1.0 if len(hyp) > ref_len else math.exp(1.0 - ref_len / len(hyp))
    return bp * math.exp(log_sum), counts


def corpus_bleu_loop(pairs) -> float:
    """Corpus BLEU-4 of (reference, hypothesis) pairs by a plain loop: each
    order's clipped matches (a Counter intersection per pair) and totals are
    summed over the pairs, then the fourth root of the precisions' product
    times one brevity penalty on the summed lengths; 0.0 when an order has
    no match or every hypothesis is empty."""
    matches, totals = [0] * 4, [0] * 4
    hyp_length = ref_length = 0
    for reference, hypothesis in pairs:
        hyp, ref = hypothesis.split(), reference.split()
        hyp_length += len(hyp)
        ref_length += len(ref)
        for n in range(1, 5):
            matches[n - 1] += sum((_ngrams(hyp, n) & _ngrams(ref, n)).values())
            totals[n - 1] += max(len(hyp) - n + 1, 0)
    if hyp_length == 0 or 0 in matches:
        return 0.0
    bp = 1.0 if hyp_length > ref_length else math.exp(1.0 - ref_length / hyp_length)
    return bp * math.prod(m / t for m, t in zip(matches, totals)) ** 0.25


def split_one_three_two_pass(text: str) -> tuple[str, str] | str:
    """(audio_text, target_text) cut at the word end nearest a quarter of
    the text, or the error text for a text of fewer than four words."""
    words = text.split()
    if len(words) < 4:
        return f"text must have at least 4 words, got {len(words)}"
    boundaries = [m.end() for m in re.finditer(r"\S+", text)][:-1]
    target_pos = 0.25 * len(text)
    cut = min(boundaries, key=lambda b: (abs(b - target_pos), b))
    return text[:cut], text[cut:]


def roundtrip_exact(pairs) -> tuple[list, list]:
    """(kept, removed) (prompt, transcript) pairs by the exact rule: a pair
    is kept when both texts are equal once lowercased, their whitespace runs
    collapsed to one space, and trailing terminal punctuation (ASCII and
    CJK) and spaces stripped."""

    def normalize(text: str) -> str:
        return " ".join(text.lower().split()).rstrip(".,!?;:。！？，；： ")

    kept, removed = [], []
    for prompt, transcript in pairs:
        (kept if normalize(prompt) == normalize(transcript) else removed).append(
            (prompt, transcript))
    return kept, removed


def passes_type_rule(value, type_) -> bool:
    """Whether one value is exactly of type_ and in range: an int (not a
    bool) in [-2**63, 2**63), a finite float, any str; object takes all."""
    if type_ is object:
        return True
    if type(value) is not type_:
        return False
    if type_ is int:
        return -(2**63) <= value <= 2**63 - 1
    if type_ is float:
        return not (math.isnan(value) or math.isinf(value))
    return True
