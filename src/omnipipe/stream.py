"""Streaming injection scheduler.

A deterministic state machine for interleaved media input: visual and text
tokens are injected the moment they arrive, audio tokens are buffered between
an audio_start and audio_end boundary and flushed as a single entry at the
end, which is what triggers inference. Boundary events may come from the
energy VAD, a trace file, or a test harness.
"""

from __future__ import annotations

import heapq
import json
from dataclasses import dataclass, replace

from .errors import ContractError, ProtocolError
from .modality import FramePlan, MelSpec, MS_PER_MEL_FRAME, vad

EVENT_KINDS = ("audio_start", "audio_frame", "audio_end", "video_frame", "image", "text")
_IMMEDIATE = {"video_frame": "video", "image": "image", "text": "text"}

MODE_IDLE = "idle"
MODE_AUDIO = "audio_active"


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
        if self.payload_tokens < 0:
            raise ContractError(f"payload_tokens must be >= 0, got {self.payload_tokens}")
        if self.kind in ("audio_start", "audio_end") and self.payload_tokens != 0:
            raise ContractError(f"{self.kind} events carry no tokens")

    def to_json(self) -> dict:
        return {"t": self.timestamp_ms, "kind": self.kind, "tokens": self.payload_tokens}


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
        return tuple(e for e in self.entries if e.modality != "audio")

    def to_jsonl(self) -> str:
        return "".join(json.dumps(e.to_json(), sort_keys=True) + "\n" for e in self.entries)


@dataclass(frozen=True)
class SchedulerState:
    mode: str = MODE_IDLE
    audio_buffer_tokens: int = 0
    last_timestamp_ms: int | None = None

    def __post_init__(self):
        if self.mode == MODE_IDLE and self.audio_buffer_tokens != 0:
            raise ContractError("idle scheduler must have an empty audio buffer")


def step(state: SchedulerState, event: StreamEvent) -> tuple[SchedulerState, list[TraceEntry]]:
    """Apply one event; returns the next state and any injection entries."""
    if state.last_timestamp_ms is not None and event.timestamp_ms < state.last_timestamp_ms:
        raise ProtocolError(
            f"time regression: event at {event.timestamp_ms} ms after "
            f"{state.last_timestamp_ms} ms"
        )
    ts = event.timestamp_ms
    if event.kind in _IMMEDIATE:
        entry = TraceEntry(ts, _IMMEDIATE[event.kind], event.payload_tokens, False)
        return replace(state, last_timestamp_ms=ts), [entry]
    if event.kind == "audio_start":
        if state.mode == MODE_AUDIO:
            raise ProtocolError(f"audio_start at {ts} ms inside an open audio segment")
        return replace(state, mode=MODE_AUDIO, last_timestamp_ms=ts), []
    if event.kind == "audio_frame":
        if state.mode != MODE_AUDIO:
            raise ProtocolError(f"audio_frame at {ts} ms with no open audio segment")
        return (
            replace(
                state,
                audio_buffer_tokens=state.audio_buffer_tokens + event.payload_tokens,
                last_timestamp_ms=ts,
            ),
            [],
        )
    # audio_end
    if state.mode != MODE_AUDIO:
        raise ProtocolError(f"audio_end at {ts} ms with no open audio segment")
    entry = TraceEntry(ts, "audio", state.audio_buffer_tokens, True)
    return SchedulerState(mode=MODE_IDLE, last_timestamp_ms=ts), [entry]


def run(events: list[StreamEvent]) -> InjectionTrace:
    """Fold step over a time-ordered event list; must end outside audio."""
    state = SchedulerState()
    entries: list[TraceEntry] = []
    for event in events:
        state, new = step(state, event)
        entries.extend(new)
    if state.mode != MODE_IDLE:
        raise ProtocolError("event trace ends inside an unterminated audio segment")
    return InjectionTrace(entries=tuple(entries))


@dataclass(frozen=True)
class VadConfig:
    threshold_db: float = -60.0
    hangover_frames: int = 20
    rate_n: int = 2
    mel_frames_per_chunk: int = 10

    def __post_init__(self):
        if self.hangover_frames < 0:
            raise ContractError("hangover_frames must be >= 0")
        if self.rate_n < 1:
            raise ContractError("rate_n must be >= 1")
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
    a segment of F mel frames carries ceil(F / rate_n) tokens apportioned over
    one audio_frame per mel_frames_per_chunk frames. Planned video frames
    arrive at 1000 ms spacing. Video events precede audio events that share a
    timestamp (visual data streams in; audio waits for its boundary).
    """
    audio_events: list[StreamEvent] = []
    for seg in vad(mel, vad_cfg.threshold_db, vad_cfg.hangover_frames):
        seg_frames = seg.end_frame - seg.start_frame
        total_tokens = -(-seg_frames // vad_cfg.rate_n)
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
                StreamEvent(j * 1000, "video_frame", frame_plan.per_frame_tokens)
            )

    return list(heapq.merge(video_events, audio_events, key=lambda e: e.timestamp_ms))
