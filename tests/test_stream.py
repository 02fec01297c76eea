"""Streaming scheduler: protocol rules, trace invariants, media binding."""

import numpy as np
import pytest

from omnipipe.errors import ContractError, ProtocolError
from omnipipe.modality import MelSpec, plan_frames
from omnipipe.numkit import Tensor
from omnipipe.stream import (
    InjectionTrace,
    SchedulerState,
    StreamEvent,
    VadConfig,
    events_from_media,
    run,
    step,
)


def random_event_trace(rng) -> tuple[list[StreamEvent], dict]:
    """A random protocol-valid event list plus the facts a trace must show."""
    events: list[StreamEvent] = []
    t = 0
    segments = []
    visual = []
    for _ in range(int(rng.integers(1, 8))):
        t += int(rng.integers(0, 500))
        if rng.random() < 0.5:
            kind = str(rng.choice(["video_frame", "image", "text"]))
            tokens = int(rng.integers(1, 400))
            events.append(StreamEvent(t, kind, tokens))
            visual.append((t, tokens))
        else:
            events.append(StreamEvent(t, "audio_start"))
            start_t = t
            total = 0
            for _ in range(int(rng.integers(0, 5))):
                t += int(rng.integers(0, 200))
                tokens = int(rng.integers(0, 60))
                total += tokens
                events.append(StreamEvent(t, "audio_frame", tokens))
                if rng.random() < 0.3:
                    vt = t + int(rng.integers(0, 100))
                    vtokens = int(rng.integers(1, 200))
                    events.append(StreamEvent(vt, "video_frame", vtokens))
                    visual.append((vt, vtokens))
                    t = vt
            t += int(rng.integers(0, 200))
            events.append(StreamEvent(t, "audio_end"))
            segments.append({"start": start_t, "end": t, "tokens": total})
    return events, {"segments": segments, "visual": visual}


class TestEventValidation:
    def test_unknown_kind(self):
        with pytest.raises(ContractError):
            StreamEvent(0, "subtitle", 1)

    def test_boundary_events_carry_no_tokens(self):
        with pytest.raises(ContractError):
            StreamEvent(0, "audio_start", 5)

    def test_negative_tokens(self):
        with pytest.raises(ContractError):
            StreamEvent(0, "text", -1)


class TestStep:
    def test_image_injected_immediately(self):
        state, entries = step(SchedulerState(), StreamEvent(0, "image", 182))
        assert [(e.timestamp_ms, e.modality, e.token_count, e.trigger_inference) for e in entries] == [
            (0, "image", 182, False)
        ]
        assert state.mode == "idle"

    def test_video_streams_while_audio_buffers(self):
        events = [
            StreamEvent(0, "audio_start"),
            StreamEvent(100, "video_frame", 182),
            StreamEvent(150, "audio_frame", 50),
            StreamEvent(300, "audio_end"),
        ]
        trace = run(events)
        got = [(e.timestamp_ms, e.modality, e.token_count, e.trigger_inference) for e in trace.entries]
        assert got == [(100, "video", 182, False), (300, "audio", 50, True)]

    def test_audio_end_while_idle(self):
        with pytest.raises(ProtocolError):
            step(SchedulerState(), StreamEvent(0, "audio_end"))

    def test_audio_frame_while_idle(self):
        with pytest.raises(ProtocolError):
            step(SchedulerState(), StreamEvent(0, "audio_frame", 5))

    def test_double_audio_start(self):
        state, _ = step(SchedulerState(), StreamEvent(0, "audio_start"))
        with pytest.raises(ProtocolError):
            step(state, StreamEvent(5, "audio_start"))

    def test_time_regression(self):
        state, _ = step(SchedulerState(), StreamEvent(100, "text", 3))
        with pytest.raises(ProtocolError, match="regression"):
            step(state, StreamEvent(99, "text", 3))

    def test_segment_counter_advances(self):
        state = SchedulerState()
        for event in (StreamEvent(0, "audio_start"), StreamEvent(1, "audio_end")):
            state, _ = step(state, event)
        assert state.segment_counter == 1
        assert state.audio_buffer_tokens == 0


class TestRun:
    def test_empty(self):
        assert run([]) == InjectionTrace(entries=())

    def test_dangling_audio_rejected(self):
        with pytest.raises(ProtocolError, match="unterminated"):
            run([StreamEvent(0, "audio_start")])

    def test_trace_invariants_over_random_traces(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            events, facts = random_event_trace(rng)
            trace = run(events)
            audio = trace.audio_entries()
            assert len(audio) == len(facts["segments"])
            for entry, seg in zip(audio, facts["segments"]):
                assert entry.trigger_inference
                assert entry.timestamp_ms == seg["end"]
                assert entry.token_count == seg["tokens"]
            assert [(e.timestamp_ms, e.token_count) for e in trace.visual_text_entries()] == facts["visual"]
            assert all(not e.trigger_inference for e in trace.visual_text_entries())

    def test_visual_path_independent_of_audio(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            events, _ = random_event_trace(rng)
            no_audio = [e for e in events if not e.kind.startswith("audio")]
            full = run(events).visual_text_entries()
            stripped = run(no_audio).entries
            assert full == stripped

    def test_split_at_idle_boundary_is_associative(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            events, _ = random_event_trace(rng)
            # find an idle boundary: after any audio_end or before any event
            # while not inside a segment
            depth = 0
            cuts = [0]
            for i, e in enumerate(events):
                if e.kind == "audio_start":
                    depth += 1
                elif e.kind == "audio_end":
                    depth -= 1
                if depth == 0:
                    cuts.append(i + 1)
            cut = cuts[int(rng.integers(0, len(cuts)))]
            merged = run(events[:cut]).entries + run(events[cut:]).entries
            assert merged == run(events).entries


def _spec_with_active(frames, active):
    data = np.full((frames, 128), -1.5)
    for a, b in active:
        data[a:b] = 0.5
    return MelSpec(frames=frames, bins=128, data=Tensor(data))


class TestEventsFromMedia:
    def test_silence_with_video_only(self):
        spec = _spec_with_active(300, [])
        plan = plan_frames(3.0, 90)
        events = events_from_media(spec, VadConfig(), plan)
        assert [e.kind for e in events] == ["video_frame"] * 3
        assert [e.timestamp_ms for e in events] == [0, 1000, 2000]

    def test_one_segment_chunking(self):
        spec = _spec_with_active(300, [(100, 200)])
        events = events_from_media(spec, VadConfig(rate_n=2), None)
        kinds = [e.kind for e in events]
        assert kinds == ["audio_start"] + ["audio_frame"] * 10 + ["audio_end"]
        assert events[0].timestamp_ms == 1000
        assert events[-1].timestamp_ms == 2000
        assert sum(e.payload_tokens for e in events) == 50  # ceil(100 / 2)

    def test_two_segments_two_triggers(self):
        spec = _spec_with_active(400, [(50, 90), (200, 230)])
        events = events_from_media(spec, VadConfig(rate_n=4), None)
        trace = run(events)
        audio = trace.audio_entries()
        assert len(audio) == 2
        assert [e.token_count for e in audio] == [10, 8]  # ceil(40/4), ceil(30/4)

    def test_trace_runs_clean_with_video(self):
        spec = _spec_with_active(300, [(100, 200)])
        plan = plan_frames(3.0, 90)
        trace = run(events_from_media(spec, VadConfig(), plan))
        assert len(trace.audio_entries()) == 1
        assert len(trace.visual_text_entries()) == 3

    def test_video_precedes_audio_at_the_same_ms(self):
        spec = _spec_with_active(300, [(100, 200)])  # audio_start at 100 * 10 ms
        events = events_from_media(spec, VadConfig(), plan_frames(2.0, 60))
        at_1000 = [e.kind for e in events if e.timestamp_ms == 1000]
        assert at_1000 == ["video_frame", "audio_start"]
