"""Deterministic media planners.

Turns raw media geometry into token budgets and feature grids: grid tiling
for images, frame sampling and per-frame token budgets for video, log-mel
features for 16 kHz audio, and an energy-threshold voice activity detector
that supplies audio start/end boundaries for the streaming scheduler.
"""

from __future__ import annotations

import math
import wave
from dataclasses import dataclass

import numpy as np

from .errors import ContractError, FormatError
from .fileio import json_value
from .numkit import Tensor

TILE_PX = 384
TOKENS_PER_TILE = 182
MAX_GRID_TILES = 9

VIDEO_FPS = 1.0
MAX_VIDEO_FRAMES = 48
FRAME_LONG_PX = 768
FRAME_SHORT_PX = 384
FRAME_TOKEN_CHOICES = (182, 364, 546)

SAMPLE_RATE_HZ = 16000
CLIP_SECONDS = 30
CLIP_SAMPLES = SAMPLE_RATE_HZ * CLIP_SECONDS
WINDOW_SAMPLES = 400
HOP_SAMPLES = 160
MEL_BINS = 128
MEL_FMIN_HZ = 0.0
MEL_FMAX_HZ = 8000.0
_MEL_FLOOR = 1e-10
_LOG_RANGE = 8.0
MS_PER_MEL_FRAME = 1000 * HOP_SAMPLES // SAMPLE_RATE_HZ  # 10 ms


# ---------------------------------------------------------------------------
# image tiling
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TilePlan:
    grid_rows: int
    grid_cols: int

    def __post_init__(self):
        if self.grid_rows < 1 or self.grid_cols < 1:
            raise ContractError("tile grid dimensions must be >= 1")

    @property
    def has_global_tile(self) -> bool:
        """A down-sampled global tile accompanies every grid larger than 1x1."""
        return self.grid_rows * self.grid_cols > 1

    @property
    def total_tokens(self) -> int:
        tiles = self.grid_rows * self.grid_cols + int(self.has_global_tile)
        return tiles * TOKENS_PER_TILE

    def to_json(self) -> dict:
        return {
            "grid": [self.grid_rows, self.grid_cols],
            "global": self.has_global_tile,
            "tokens": self.total_tokens,
        }


def _tile_grid(width_px: int, height_px: int, max_tiles: int) -> TilePlan:
    """Ceil-divide by 384 px and shrink the larger side until the grid holds
    at most max_tiles."""
    rows = math.ceil(height_px / TILE_PX)
    cols = math.ceil(width_px / TILE_PX)
    while rows * cols > max_tiles:
        if rows >= cols:
            rows -= 1
        else:
            cols -= 1
    return TilePlan(grid_rows=rows, grid_cols=cols)


def plan_tiles(width_px: int, height_px: int, max_tiles: int = MAX_GRID_TILES) -> TilePlan:
    """Plan the tile grid for an image: ceil-divide by 384 px, cap the grid,
    and add a down-sampled global tile whenever the grid exceeds 1x1."""
    if width_px < 1 or height_px < 1:
        raise ContractError(
            f"image dimensions must be positive, got {width_px}x{height_px}"
        )
    if max_tiles < 1:
        raise ContractError(f"max_tiles must be >= 1, got {max_tiles}")
    return _tile_grid(width_px, height_px, max_tiles)


# ---------------------------------------------------------------------------
# video frame sampling and token budgets
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FramePlan:
    frame_indices: tuple[int, ...]
    per_frame_tokens: int = TOKENS_PER_TILE

    def __post_init__(self):
        if len(self.frame_indices) > MAX_VIDEO_FRAMES:
            raise ContractError(
                f"{len(self.frame_indices)} frames exceeds cap {MAX_VIDEO_FRAMES}"
            )
        if any(b <= a for a, b in zip(self.frame_indices, self.frame_indices[1:])):
            raise ContractError("frame indices must be strictly increasing")
        if self.per_frame_tokens not in FRAME_TOKEN_CHOICES:
            raise ContractError(
                f"per_frame_tokens must be one of {FRAME_TOKEN_CHOICES}, "
                f"got {self.per_frame_tokens}"
            )

    def to_json(self) -> dict:
        return {
            "frames": list(self.frame_indices),
            "per_frame_tokens": self.per_frame_tokens,
        }

    @classmethod
    def from_json(cls, obj: dict) -> "FramePlan":
        """Inverse of to_json; a missing field or a non-integer value raises
        FormatError."""
        try:
            frames = tuple(json_value(i, int) for i in obj["frames"])
            tokens = json_value(obj["per_frame_tokens"], int)
        except (KeyError, TypeError, FormatError) as exc:
            raise FormatError(
                'frame plan needs a "frames" list and "per_frame_tokens", all integers '
                f"({type(exc).__name__}: {exc})"
            ) from None
        return cls(frame_indices=frames, per_frame_tokens=tokens)


def plan_frames(
    duration_s: float,
    total_source_frames: int,
    per_frame_tokens: int = TOKENS_PER_TILE,
) -> FramePlan:
    """Sample source frames at 1 fps, at least one frame, at most 48."""
    if not duration_s > 0:
        raise ContractError(f"duration must be positive, got {duration_s}")
    if total_source_frames < 1:
        raise ContractError(
            f"total_source_frames must be >= 1, got {total_source_frames}"
        )
    count = min(max(int(math.floor(duration_s * VIDEO_FPS)), 1), MAX_VIDEO_FRAMES)
    raw = [i * total_source_frames // count for i in range(count)]
    indices = tuple(dict.fromkeys(raw))
    return FramePlan(frame_indices=indices, per_frame_tokens=per_frame_tokens)


def frame_tokens(width_px: int, height_px: int) -> int:
    """Token budget for one video frame.

    The frame is rescaled (aspect preserved, never upscaled) so its long side
    fits 768 px and its short side fits 384 px, then tiled in 384 px steps;
    a global tile is added when more than one tile results.
    """
    if width_px < 1 or height_px < 1:
        raise ContractError(
            f"frame dimensions must be positive, got {width_px}x{height_px}"
        )
    long_px = max(width_px, height_px)
    short_px = min(width_px, height_px)
    scale = min(1.0, FRAME_LONG_PX / long_px, FRAME_SHORT_PX / short_px)
    scaled_w = max(1, int(round(width_px * scale)))
    scaled_h = max(1, int(round(height_px * scale)))
    # the rescaled frame spans at most 2x1 tiles, so the cap never binds
    return _tile_grid(scaled_w, scaled_h, MAX_GRID_TILES).total_tokens


# ---------------------------------------------------------------------------
# log-mel features
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MelSpec:
    data: Tensor  # frames x MEL_BINS

    def __post_init__(self):
        if len(self.data.shape) != 2 or self.data.shape[1] != MEL_BINS:
            raise ContractError(
                f"mel data shape {self.data.shape} != (frames, {MEL_BINS})"
            )

    @property
    def frames(self) -> int:
        return self.data.shape[0]

    @property
    def bins(self) -> int:
        return self.data.shape[1]


def hz_to_mel(hz: float) -> float:
    return 2595.0 * math.log10(1.0 + hz / 700.0)


def mel_to_hz(mel: float) -> float:
    return 700.0 * (10.0 ** (mel / 2595.0) - 1.0)


def _mel_edges_hz() -> np.ndarray:
    """Edges evenly spaced in mel; filter j peaks at edge j + 1, its centre."""
    mel_points = np.linspace(
        hz_to_mel(MEL_FMIN_HZ), hz_to_mel(MEL_FMAX_HZ), MEL_BINS + 2
    )
    return np.array([mel_to_hz(m) for m in mel_points])


_filterbank: np.ndarray | None = None


def mel_filterbank() -> np.ndarray:
    """Triangular mel filters as a (WINDOW_SAMPLES // 2 + 1, MEL_BINS) matrix,
    built once."""
    global _filterbank
    if _filterbank is None:
        hz_points = _mel_edges_hz()
        fft_freqs = np.arange(WINDOW_SAMPLES // 2 + 1) * SAMPLE_RATE_HZ / WINDOW_SAMPLES
        bank = np.zeros((fft_freqs.size, MEL_BINS), dtype=np.float64)
        for j in range(MEL_BINS):
            left, centre, right = hz_points[j], hz_points[j + 1], hz_points[j + 2]
            rising = (fft_freqs - left) / (centre - left)
            falling = (right - fft_freqs) / (right - centre)
            bank[:, j] = np.clip(np.minimum(rising, falling), 0.0, None)
        _filterbank = bank
    return _filterbank


def mel_bin_for_hz(hz: float) -> int:
    """Index of the mel filter whose centre frequency is nearest ``hz``."""
    centres = _mel_edges_hz()[1:-1]
    return int(np.argmin(np.abs(centres - hz)))


def melspec(waveform) -> MelSpec:
    """Log-mel features of a 16 kHz waveform, padded or trimmed to 30 s.

    400-sample Hann window, 160-sample hop, 128 triangular mel filters over
    0-8000 Hz on the magnitude spectrum; log10 clamped eight decades below
    the peak, then mapped with (x + 4) / 4, giving a 3000 x 128 grid.
    """
    samples = np.asarray(waveform, dtype=np.float64).reshape(-1)
    if samples.size == 0:
        raise ContractError("waveform is empty")
    if not np.all(np.isfinite(samples)):
        raise ContractError("waveform contains non-finite samples")
    if samples.size >= CLIP_SAMPLES:
        samples = samples[:CLIP_SAMPLES]
    else:
        samples = np.concatenate(
            [samples, np.zeros(CLIP_SAMPLES - samples.size, dtype=np.float64)]
        )
    n_frames = CLIP_SAMPLES // HOP_SAMPLES  # 3000
    tail = (n_frames - 1) * HOP_SAMPLES + WINDOW_SAMPLES - CLIP_SAMPLES
    padded = np.concatenate([samples, np.zeros(tail, dtype=np.float64)])
    idx = (np.arange(n_frames) * HOP_SAMPLES)[:, None] + np.arange(WINDOW_SAMPLES)
    window = 0.5 * (1.0 - np.cos(2.0 * np.pi * np.arange(WINDOW_SAMPLES) / WINDOW_SAMPLES))
    frames = padded[idx] * window[None, :]
    magnitude = np.abs(np.fft.rfft(frames, axis=1))
    mel = magnitude @ mel_filterbank()
    log_mel = np.log10(np.maximum(mel, _MEL_FLOOR))
    log_mel = np.maximum(log_mel, log_mel.max() - _LOG_RANGE)
    normalized = (log_mel + 4.0) / 4.0
    return MelSpec(Tensor(normalized))


def load_wav(path) -> np.ndarray:
    """Read a mono 16-bit PCM 16 kHz WAV file as float64 samples in [-1, 1]."""
    try:
        reader = wave.open(str(path), "rb")
    except (wave.Error, EOFError) as exc:
        reason = str(exc) or type(exc).__name__
        raise FormatError(f"not a readable WAV file: {path} ({reason})") from exc
    with reader:
        if reader.getcomptype() != "NONE":
            raise FormatError(f"WAV must be uncompressed PCM, got {reader.getcomptype()}")
        if reader.getnchannels() != 1:
            raise FormatError(f"WAV must be mono, got {reader.getnchannels()} channels")
        if reader.getsampwidth() != 2:
            raise FormatError(
                f"WAV must be 16-bit PCM, got {8 * reader.getsampwidth()}-bit"
            )
        if reader.getframerate() != SAMPLE_RATE_HZ:
            raise FormatError(
                f"WAV must be {SAMPLE_RATE_HZ} Hz, got {reader.getframerate()} Hz"
            )
        raw = reader.readframes(reader.getnframes())
    return np.frombuffer(raw, dtype="<i2").astype(np.float64) / 32768.0


# ---------------------------------------------------------------------------
# energy VAD
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class VadSegment:
    start_frame: int
    end_frame: int  # exclusive

    def __post_init__(self):
        if not self.start_frame < self.end_frame:
            raise ContractError(
                f"VAD segment must be non-empty, got [{self.start_frame}, "
                f"{self.end_frame})"
            )


def frame_energy_db(spec: MelSpec) -> np.ndarray:
    """Per-frame mean log-mel energy in dB (10 * mean log10 mel)."""
    log_mel = 4.0 * spec.data.array - 4.0
    return 10.0 * log_mel.mean(axis=1)


def vad(spec: MelSpec, threshold_db: float, hangover_frames: int) -> list[VadSegment]:
    """Frames louder than the threshold form segments; runs separated by at
    most ``hangover_frames`` silent frames are merged."""
    if hangover_frames < 0:
        raise ContractError(f"hangover_frames must be >= 0, got {hangover_frames}")
    active = frame_energy_db(spec) > threshold_db
    segments: list[VadSegment] = []
    start = None
    for i, flag in enumerate(active):
        if flag and start is None:
            start = i
        elif not flag and start is not None:
            segments.append(VadSegment(start, i))
            start = None
    if start is not None:
        segments.append(VadSegment(start, int(active.size)))
    merged: list[VadSegment] = []
    for seg in segments:
        if merged and seg.start_frame - merged[-1].end_frame <= hangover_frames:
            merged[-1] = VadSegment(merged[-1].start_frame, seg.end_frame)
        else:
            merged.append(seg)
    return merged
