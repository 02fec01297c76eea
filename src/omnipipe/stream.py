"""Streaming injection scheduler.

A deterministic state machine for interleaved media input: visual and text
tokens are injected the moment they arrive, audio tokens are buffered between
an audio_start and audio_end boundary and flushed as a single entry at the
end, which is what triggers inference. Boundary events may come from the
energy VAD, a trace file, or a test harness.

The scheduler's state is its audio buffer (None while no segment is open) and
the last timestamp. ``step`` applies one event for a caller fed one at a time,
``run`` folds it over any iterable of events, and the VAD binding takes
rates 1, 2, 4 or 8 and budgets each segment with the audio projector's token
law. This module renders no text: the CLI reads event files and writes the
trace as JSON lines of ``TraceEntry.to_json`` records.
"""

from __future__ import annotations

import heapq
from collections.abc import Iterable
from dataclasses import dataclass

from .errors import ContractError, ProtocolError
from .modality import FramePlan, MelSpec, MS_PER_MEL_FRAME, MS_PER_VIDEO_FRAME, check_hangover, vad
from .projectors import audio_tokens, check_rate

EVENT_KINDS = ("audio_start", "audio_frame", "audio_end", "video_frame", "image", "text")
_IMMEDIATE = {"video_frame": "video", "image": "image", "text": "text"}


@dataclass(frozen=True)
class StreamEvent:
    timestamp_ms: int
    kind: str
    payload_tokens: int = 0

    def __post_init__(self):
        if self.kind not in EVENT_KINDS:
            raise ContractError(
                f"unknown event kind {self.kind!r}, expected one of {EVENT_KINDS}"
            )
        if self.timestamp_ms < 0:
            raise ContractError(f"event time must be >= 0 ms, got {self.timestamp_ms}")
        if self.payload_tokens < 0:
            raise ContractError(f"payload_tokens must be >= 0, got {self.payload_tokens}")
        if self.kind in ("audio_start", "audio_end") and self.payload_tokens != 0:
            raise ContractError(f"{self.kind} events carry no tokens")


@dataclass(frozen=True)
class TraceEntry:
    timestamp_ms: int
    modality: str
    token_count: int
    trigger_inference: bool

    def to_json(self) -> dict:
        return {
            "t": self.timestamp_ms,
            "modality": self.modality,
            "tokens": self.token_count,
            "trigger_inference": self.trigger_inference,
        }


@dataclass(frozen=True)
class InjectionTrace:
    entries: tuple[TraceEntry, ...]

    def audio_entries(self) -> tuple[TraceEntry, ...]:
        return tuple(e for e in self.entries if e.modality == "audio")

    def visual_text_entries(self) -> tuple[TraceEntry, ...]:
        """The visual and text entries; the stream tests read it, the library does not."""
        return tuple(e for e in self.entries if e.modality != "audio")


@dataclass(frozen=True)
class SchedulerState:
    """The open audio segment's token count, None while no segment is open."""

    audio_buffer_tokens: int | None = None
    last_timestamp_ms: int | None = None


def step(state: SchedulerState, event: StreamEvent) -> tuple[SchedulerState, list[TraceEntry]]:
    """Apply one event; returns the next state and any injection entries."""
    ts, last, buffered = event.timestamp_ms, state.last_timestamp_ms, state.audio_buffer_tokens
    if last is not None and ts < last:
        raise ProtocolError(f"time regression: event at {ts} ms after {last} ms")
    if event.kind in _IMMEDIATE:
        entry = TraceEntry(ts, _IMMEDIATE[event.kind], event.payload_tokens, False)
        return SchedulerState(buffered, ts), [entry]
    # audio_start needs a closed segment, audio_frame and audio_end an open one
    if (event.kind == "audio_start") != (buffered is None):
        where = "with no open" if buffered is None else "inside an open"
        raise ProtocolError(f"{event.kind} at {ts} ms {where} audio segment")
    if event.kind == "audio_start":
        return SchedulerState(0, ts), []
    if event.kind == "audio_frame":
        return SchedulerState(buffered + event.payload_tokens, ts), []
    return SchedulerState(None, ts), [TraceEntry(ts, "audio", buffered, True)]


def run(events: Iterable[StreamEvent]) -> InjectionTrace:
    """Fold step over any iterable of time-ordered events; must end outside audio."""
    state = SchedulerState()
    entries: list[TraceEntry] = []
    for event in events:
        state, new = step(state, event)
        entries.extend(new)
    if state.audio_buffer_tokens is not None:
        raise ProtocolError("event trace ends inside an unterminated audio segment")
    return InjectionTrace(entries=tuple(entries))


@dataclass(frozen=True)
class VadConfig:
    threshold_db: float = -60.0
    hangover_frames: int = 20
    rate_n: int = 2
    mel_frames_per_chunk: int = 10

    def __post_init__(self):
        check_hangover(self.hangover_frames)
        check_rate(self.rate_n)
        if self.mel_frames_per_chunk < 1:
            raise ContractError("mel_frames_per_chunk must be >= 1")


def _apportion(total: int, parts: int) -> list[int]:
    base, extra = divmod(total, parts)
    return [base + (1 if i < extra else 0) for i in range(parts)]


def events_from_media(
    mel: MelSpec, vad_cfg: VadConfig, frame_plan: FramePlan | None = None
) -> list[StreamEvent]:
    """Bind the planners to the protocol.

    Each VAD segment becomes audio_start / audio_frame chunks / audio_end;
    a segment of F mel frames carries ``audio_tokens(F, rate_n)`` tokens
    apportioned over one audio_frame per mel_frames_per_chunk frames. Planned
    video frames arrive one ``MS_PER_VIDEO_FRAME`` apart. Video events
    precede audio events that share a timestamp (visual data streams in;
    audio waits for its boundary).
    """
    audio_events: list[StreamEvent] = []
    for seg in vad(mel, vad_cfg.threshold_db, vad_cfg.hangover_frames):
        seg_frames = seg.end_frame - seg.start_frame
        total_tokens = audio_tokens(seg_frames, vad_cfg.rate_n)
        chunks = -(-seg_frames // vad_cfg.mel_frames_per_chunk)
        tokens = _apportion(total_tokens, chunks)
        audio_events.append(StreamEvent(seg.start_frame * MS_PER_MEL_FRAME, "audio_start"))
        for i in range(chunks):
            chunk_end = min(
                seg.start_frame + (i + 1) * vad_cfg.mel_frames_per_chunk, seg.end_frame
            )
            audio_events.append(
                StreamEvent(chunk_end * MS_PER_MEL_FRAME, "audio_frame", tokens[i])
            )
        audio_events.append(StreamEvent(seg.end_frame * MS_PER_MEL_FRAME, "audio_end"))

    video_events: list[StreamEvent] = []
    if frame_plan is not None:
        for j in range(len(frame_plan.frame_indices)):
            video_events.append(
                StreamEvent(j * MS_PER_VIDEO_FRAME, "video_frame", frame_plan.per_frame_tokens)
            )

    return list(heapq.merge(video_events, audio_events, key=lambda e: e.timestamp_ms))
