"""Dataset curation stages.

Deterministic, auditable filters and splitters for building a training mix:
a one-standard-deviation loss filter, 1:3 text splitting with timbre
assignment for speech synthesis manifests, size-proportional dataset mixing,
and a transcription round-trip filter. The 1:3 split reads a text's words
(runs of non-whitespace, the same words ``str.split`` gives) in one pass.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, replace

import numpy as np

from .errors import ContractError
from . import evalkit

TIMBRE_COUNT = 44
MIN_SPLIT_WORDS = 4

DEFAULT_PROMPT = (
    "Please listen to the following audio describing the content of the image. "
    "Your task is to supplement more information by integrating the image after "
    "listening"
)

_TERMINAL_PUNCT = ".,!?;:。！？，；："


@dataclass(frozen=True)
class LossFilterReport:
    mu: float
    sigma: float
    kept_ids: tuple
    removed_low_ids: tuple
    removed_high_ids: tuple

    def to_json(self) -> dict:
        return {
            "mu": self.mu,
            "sigma": self.sigma,
            "kept": list(self.kept_ids),
            "removed_low": list(self.removed_low_ids),
            "removed_high": list(self.removed_high_ids),
        }


def gaussian_filter(losses: dict) -> LossFilterReport:
    """Keep ids whose loss lies within one standard deviation of the mean.

    mu is the arithmetic mean, sigma the population standard deviation;
    boundary values are kept (the removed sets are strictly outside). When a
    sum or a square overflows, both are taken on the losses scaled below 1 by
    a power of two, an exact scaling, and scaled back."""
    if len(losses) < 2:
        raise ContractError(f"need at least 2 samples to fit, got {len(losses)}")
    values = np.array([float(v) for v in losses.values()], dtype=np.float64)
    if not np.all(np.isfinite(values)):
        raise ContractError("losses must be finite")
    with np.errstate(over="ignore", invalid="ignore"):
        mu, sigma = float(values.mean()), float(values.std())
    if not (math.isfinite(mu) and math.isfinite(sigma)):
        exp = math.frexp(float(np.abs(values).max()))[1]
        scaled = np.ldexp(values, -exp)
        mu, sigma = math.ldexp(float(scaled.mean()), exp), math.ldexp(float(scaled.std()), exp)
    kept, low, high = [], [], []
    for key in sorted(losses, key=str):
        v = float(losses[key])
        if v < mu - sigma:
            low.append(key)
        elif v > mu + sigma:
            high.append(key)
        else:
            kept.append(key)
    return LossFilterReport(
        mu=mu,
        sigma=sigma,
        kept_ids=tuple(kept),
        removed_low_ids=tuple(low),
        removed_high_ids=tuple(high),
    )


@dataclass(frozen=True)
class CrossModalSample:
    audio_text: str
    target_text: str
    timbre_id: int | None = None
    prompt: str = DEFAULT_PROMPT

    def __post_init__(self):
        if self.timbre_id is not None and not 0 <= self.timbre_id < TIMBRE_COUNT:
            raise ContractError(
                f"timbre_id must be in [0, {TIMBRE_COUNT}), got {self.timbre_id}"
            )

    def to_json(self) -> dict:
        return {
            "audio_text": self.audio_text,
            "target_text": self.target_text,
            "timbre": self.timbre_id,
            "prompt": self.prompt,
        }


def split_one_three(text: str) -> CrossModalSample:
    """Cut the text at the word boundary nearest one quarter of its length.

    The cut lands at the end of a word; the separating whitespace stays at the
    head of target_text, so audio_text + target_text is byte-identical to the
    source.
    """
    word_ends = [m.end() for m in re.finditer(r"\S+", text)]
    if len(word_ends) < MIN_SPLIT_WORDS:
        raise ContractError(
            f"text must have at least {MIN_SPLIT_WORDS} words, got {len(word_ends)}"
        )
    target_pos = 0.25 * len(text)
    cut = min(word_ends[:-1], key=lambda b: (abs(b - target_pos), b))
    return CrossModalSample(audio_text=text[:cut], target_text=text[cut:])


def assign_timbres(samples: list[CrossModalSample], seed: int) -> list[CrossModalSample]:
    """Assign each sample a uniformly random voice id, deterministically."""
    if seed < 0:
        raise ContractError(f"seed must be >= 0, got {seed}")
    rng = np.random.default_rng(seed)
    draws = rng.integers(0, TIMBRE_COUNT, size=len(samples))
    return [replace(s, timbre_id=int(t)) for s, t in zip(samples, draws)]


@dataclass(frozen=True)
class MixPlan:
    names: tuple[str, ...]
    sizes: tuple[int, ...]
    sample_counts: tuple[int, ...]
    seed: int

    def __post_init__(self):
        for n, size, count in zip(self.names, self.sizes, self.sample_counts):
            if count > size:
                raise ContractError(f"dataset {n!r}: count {count} exceeds size {size}")

    @property
    def budget(self) -> int:
        return sum(self.sample_counts)

    def to_json(self) -> dict:
        return {
            "seed": self.seed,
            "budget": self.budget,
            "datasets": [
                {"name": n, "size": s, "count": c}
                for n, s, c in zip(self.names, self.sizes, self.sample_counts)
            ],
        }


def check_draw(budget: int, seed: int) -> None:
    """A mix draws a budget of samples with a seed, both >= 0."""
    if budget < 0:
        raise ContractError(f"budget must be >= 0, got {budget}")
    if seed < 0:
        raise ContractError(f"seed must be >= 0, got {seed}")


def mix_plan(sizes: dict, budget: int, seed: int) -> MixPlan:
    """Sample counts proportional to dataset sizes, largest-remainder rounded.

    Quotas are exact integers: each count starts at budget * size // total,
    and the units left over go one each to the largest remainders
    budget * size % total, ties broken by name, so counts sum to the budget.
    Counts depend only on the name-to-size mapping (dataset order does not
    matter); the seed is carried for downstream per-sample selection.
    """
    check_draw(budget, seed)
    names = sorted(sizes)
    if not names:
        raise ContractError("sizes must be non-empty")
    size_list = [int(sizes[n]) for n in names]
    if any(s < 1 for s in size_list):
        raise ContractError("dataset sizes must be positive")
    total = sum(size_list)
    if budget > total:
        raise ContractError(f"budget {budget} exceeds total pool {total}")
    counts = [budget * s // total for s in size_list]
    remainder = budget - sum(counts)
    order = sorted(
        range(len(names)), key=lambda i: (-(budget * size_list[i] % total), names[i])
    )
    for i in order[:remainder]:
        counts[i] += 1
    return MixPlan(
        names=tuple(names),
        sizes=tuple(size_list),
        sample_counts=tuple(counts),
        seed=seed,
    )


def normalize_transcript(text: str) -> str:
    """Lowercase, collapse whitespace, and strip terminal punctuation."""
    collapsed = " ".join(text.lower().split())
    return collapsed.rstrip(_TERMINAL_PUNCT + " ")


def asr_roundtrip_filter(
    pairs: list[tuple[str, str]],
    mode: str = "exact",
    threshold: float = 0.0,
) -> tuple[list[tuple[str, str]], list[tuple[str, str]]]:
    """Keep (prompt, transcript) pairs whose transcript matches the prompt.

    exact compares normalized texts; cer_threshold keeps pairs whose
    character error rate against the normalized prompt is <= threshold.
    """
    if mode not in ("exact", "cer_threshold"):
        raise ContractError(f"unknown mode {mode!r}")
    if mode == "cer_threshold" and not 0.0 <= threshold <= 1.0:
        raise ContractError(f"threshold must be in [0, 1], got {threshold}")
    kept, removed = [], []
    for prompt, transcript in pairs:
        ref = normalize_transcript(prompt)
        hyp = normalize_transcript(transcript)
        if mode == "exact":
            ok = ref == hyp
        elif not ref:
            ok = not hyp
        else:
            ok = evalkit.cer(ref, hyp).value <= threshold
        (kept if ok else removed).append((prompt, transcript))
    return kept, removed
