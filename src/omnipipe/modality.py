"""Deterministic media planners.

Turns raw media geometry into token budgets and feature grids: grid tiling
for images, frame sampling and per-frame token budgets for video, log-mel
features for 16 kHz audio, and an energy-threshold voice activity detector
that supplies audio start/end boundaries for the streaming scheduler.
``PATCH_GRID`` is the one copy of a tile's patch grid: the token budget per
tile is derived from it here, and the visual projectors read both.
"""

from __future__ import annotations

import functools
import math
import wave
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ContractError, FormatError
from .fileio import json_value
from .numkit import Tensor

TILE_PX = 384
# a 384 px tile is 27 x 27 patches (SigLIP at patch 14); a 2x2 pool floors the
# rows to whole windows and makes an odd last column a window of its own
PATCH_GRID = 27
TOKENS_PER_TILE = (PATCH_GRID // 2) * ((PATCH_GRID + 1) // 2)
MAX_GRID_TILES = 9

VIDEO_FPS = 1.0
MAX_VIDEO_FRAMES = 48
FRAME_LONG_PX = 768
FRAME_SHORT_PX = 384
FRAME_TOKEN_CHOICES = (TOKENS_PER_TILE, 2 * TOKENS_PER_TILE, 3 * TOKENS_PER_TILE)

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
# Frames per block of melspec's spectra: a whole-clip spectrum would hold
# ~27 MiB of temporaries, a block of 256 frames ~2 MiB.
_MEL_BLOCK = 256
MS_PER_MEL_FRAME = 1000 * HOP_SAMPLES // SAMPLE_RATE_HZ  # 10 ms
MS_PER_VIDEO_FRAME = round(1000 / VIDEO_FPS)  # 1000 ms


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
    """Ceil-divide by 384 px and cap the grid at max_tiles, in closed form, as
    if the larger side (rows on a tie) lost one tile at a time."""
    rows = -(-height_px // TILE_PX)
    cols = -(-width_px // TILE_PX)
    if rows * cols > max_tiles:
        small = min(rows, cols)
        if max_tiles // small >= small:  # only the larger side shrinks
            big = max_tiles // small
            rows, cols = (big, cols) if rows > cols else (rows, big)
        else:  # the sides meet, then shrink in turn, rows first
            s = math.isqrt(max_tiles)
            rows, cols = s, s + 1 if s * (s + 1) <= max_tiles else s
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
        if not self.frame_indices:
            raise ContractError("a frame plan needs at least one frame")
        if self.frame_indices[0] < 0:
            raise ContractError(f"frame indices must be >= 0, got {self.frame_indices[0]}")
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
    if not math.isfinite(duration_s):
        raise ContractError(f"duration must be finite, got {duration_s}")
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


@functools.cache
def mel_filterbank() -> np.ndarray:
    """Triangular mel filters as a (WINDOW_SAMPLES // 2 + 1, MEL_BINS) matrix,
    built once and shared, so it is read-only. Their edges are evenly spaced
    in mel; filter j peaks at edge j + 1, its centre."""
    mel_points = np.linspace(hz_to_mel(MEL_FMIN_HZ), hz_to_mel(MEL_FMAX_HZ), MEL_BINS + 2)
    hz = np.array([mel_to_hz(m) for m in mel_points])
    left, centre, right = hz[:-2], hz[1:-1], hz[2:]
    fft_freqs = (np.arange(WINDOW_SAMPLES // 2 + 1) * SAMPLE_RATE_HZ / WINDOW_SAMPLES)[:, None]
    rising = (fft_freqs - left) / (centre - left)
    falling = (right - fft_freqs) / (right - centre)
    bank = np.clip(np.minimum(rising, falling), 0.0, None)
    bank.flags.writeable = False
    return bank


def melspec(waveform) -> MelSpec:
    """Log-mel features of a 1-D 16 kHz waveform, padded or trimmed to 30 s.

    400-sample Hann window, 160-sample hop, 128 triangular mel filters over
    0-8000 Hz on the magnitude spectrum; log10 clamped eight decades below
    the peak, then mapped with (x + 4) / 4, giving a 3000 x 128 grid.
    The spectra run in blocks of ``_MEL_BLOCK`` frames into the one output
    array, and the log and the clamp run in place on it, so no temporary
    the size of the whole clip is made.
    """
    samples = np.asarray(waveform, dtype=np.float64)
    if samples.ndim != 1:
        raise ContractError(f"waveform must be 1-D, got shape {samples.shape}")
    if samples.size == 0:
        raise ContractError("waveform is empty")
    if not np.all(np.isfinite(samples)):
        raise ContractError("waveform contains non-finite samples")
    n_frames = CLIP_SAMPLES // HOP_SAMPLES  # 3000
    # the clip trimmed to 30 s, zero-padded to the end of the last frame
    padded = np.zeros((n_frames - 1) * HOP_SAMPLES + WINDOW_SAMPLES)
    clip = samples[:CLIP_SAMPLES]
    padded[: clip.size] = clip
    window = 0.5 * (1.0 - np.cos(2.0 * np.pi * np.arange(WINDOW_SAMPLES) / WINDOW_SAMPLES))
    frames = sliding_window_view(padded, WINDOW_SAMPLES)[::HOP_SAMPLES]
    # each frame's spectrum depends on that frame alone, so the spectra are
    # taken _MEL_BLOCK frames at a time, straight into their rows of mel
    mel = np.empty((n_frames, MEL_BINS))
    for a in range(0, n_frames, _MEL_BLOCK):
        b = a + _MEL_BLOCK
        magnitude = np.abs(np.fft.rfft(frames[a:b] * window, axis=1))
        np.matmul(magnitude, mel_filterbank(), out=mel[a:b])
    np.maximum(mel, _MEL_FLOOR, out=mel)
    np.log10(mel, out=mel)
    np.maximum(mel, mel.max() - _LOG_RANGE, out=mel)
    mel += 4.0
    mel /= 4.0
    return MelSpec(Tensor(mel))


def load_wav(path, max_seconds: int | None = None) -> np.ndarray:
    """At most the first 30 s (one clip) of a mono 16-bit PCM 16 kHz WAV file as float64 samples
    in [-1, 1]; one whose header declares more than ``max_seconds`` is rejected unread."""
    try:
        reader = wave.open(str(path), "rb")
    except RuntimeError as exc:
        # wave raises a bare RuntimeError when a chunk size (fmt's, say) makes
        # its reader seek past the end of the RIFF chunk
        raise FormatError(
            f"not a readable WAV file: {path} (a chunk runs past the end of the RIFF chunk)"
        ) from exc
    except (wave.Error, EOFError) as exc:
        reason = str(exc) or type(exc).__name__
        raise FormatError(f"not a readable WAV file: {path} ({reason})") from exc
    with reader:
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
        frames = reader.getnframes()
        if max_seconds is not None and frames > max_seconds * SAMPLE_RATE_HZ:
            raise ContractError(f"WAV file longer than {max_seconds} s: {path} ({frames} samples, "
                                f"at most {max_seconds * SAMPLE_RATE_HZ})")
        wanted = min(frames, CLIP_SAMPLES)
        raw = reader.readframes(wanted)
    if len(raw) % 2:
        raise FormatError(f"truncated WAV file: {path} (its data ends mid-sample)")
    if len(raw) != 2 * wanted:
        raise FormatError(
            f"truncated WAV file: {path} (its header declares {frames} samples, "
            f"its data holds {len(raw) // 2})"
        )
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


def check_hangover(hangover_frames: int) -> None:
    """The VAD merges runs across at most ``hangover_frames`` >= 0 frames."""
    if hangover_frames < 0:
        raise ContractError("hangover_frames must be >= 0")


def vad(spec: MelSpec, threshold_db: float, hangover_frames: int) -> list[VadSegment]:
    """Frames louder than the threshold form segments; runs separated by at
    most ``hangover_frames`` silent frames are merged."""
    check_hangover(hangover_frames)
    active = frame_energy_db(spec) > threshold_db
    # with silence on either side of the mask, its edges alternate run start, run end
    edges = np.flatnonzero(np.diff(active, prepend=False, append=False))
    if edges.size == 0:
        return []
    starts, ends = edges[0::2], edges[1::2]
    # a gap of at most hangover_frames joins the runs on either side of it
    split = starts[1:] - ends[:-1] > hangover_frames
    starts, ends = starts[np.r_[True, split]], ends[np.r_[split, True]]
    return [VadSegment(a, b) for a, b in zip(starts.tolist(), ends.tolist())]
