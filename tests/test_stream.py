"""Streaming scheduler: protocol rules, trace invariants, media binding."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from omnipipe.errors import ContractError, ProtocolError
from omnipipe.modality import MS_PER_MEL_FRAME, MelSpec, plan_frames
from omnipipe.numkit import Tensor
from omnipipe.projectors import SUPPORTED_RATES
from omnipipe.stream import (
    EVENT_KINDS,
    InjectionTrace,
    SchedulerState,
    StreamEvent,
    VadConfig,
    events_from_media,
    run,
    step,
)

from oracles import REF_IDLE, reference_step, vad_runs


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

    def test_negative_time(self):
        with pytest.raises(ContractError, match="event time must be >= 0 ms, got -5"):
            StreamEvent(-5, "text", 2)
        assert StreamEvent(0, "text", 2).timestamp_ms == 0

    def test_negative_tokens(self):
        with pytest.raises(ContractError):
            StreamEvent(0, "text", -1)


class TestStep:
    def test_image_injected_immediately(self):
        state, entries = step(SchedulerState(), StreamEvent(0, "image", 182))
        assert [(e.timestamp_ms, e.modality, e.token_count, e.trigger_inference) for e in entries] == [
            (0, "image", 182, False)
        ]
        assert state.audio_buffer_tokens is None

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
        assert state.audio_buffer_tokens is None


def _drawn_events(draws) -> list[StreamEvent]:
    """Events from (step, kind, tokens, legal) draws. Each event's time is the
    sum of the steps so far, so a negative step is a time regression. An audio
    kind that is illegal at its place becomes the legal boundary when its draw
    says legal, so long legal traces are drawn beside illegal orders. The clock
    starts at 30 ms, so 30 steps of -1 still end at t >= 0."""
    t, open_segment, events = 30, False, []
    for dt, kind, tokens, legal in draws:
        t += dt
        if legal and kind.startswith("audio") and (kind == "audio_start") == open_segment:
            kind = "audio_end" if open_segment else "audio_start"
        if kind in ("audio_start", "audio_end"):
            open_segment, tokens = kind == "audio_start", 0
        events.append(StreamEvent(t, kind, tokens))
    return events


class TestAgainstReference:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(
        st.tuples(st.integers(-1, 60), st.sampled_from(EVENT_KINDS), st.integers(0, 50),
                  st.booleans()),
        max_size=30,
    ))
    def test_run_and_step_match_the_mode_string_scheduler(self, draws):
        events = _drawn_events(draws)
        ref, ref_entries, error = (REF_IDLE, 0, None), [], None
        state = SchedulerState()
        for event in events:
            ref, new, error = reference_step(
                ref, (event.timestamp_ms, event.kind, event.payload_tokens)
            )
            if error is not None:
                with pytest.raises(ProtocolError) as exc:
                    step(state, event)
                assert str(exc.value) == error
                break
            state, _ = step(state, event)
            ref_entries += new
            # after every accepted prefix: no buffer exactly when idle, else the same count
            assert state.audio_buffer_tokens == (None if ref[0] == REF_IDLE else ref[1])
        if error is None and ref[0] != REF_IDLE:
            error = "event trace ends inside an unterminated audio segment"
        if error is not None:
            with pytest.raises(ProtocolError) as exc:
                run(events)
            assert str(exc.value) == error
        else:
            got = [(e.timestamp_ms, e.modality, e.token_count, e.trigger_inference)
                   for e in run(events).entries]
            assert got == ref_entries


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
    return MelSpec(Tensor(data))


class TestVadConfig:
    @pytest.mark.parametrize("rate", [0, 3, 16])
    def test_rate_outside_projector_rates_rejected(self, rate):
        message = rf"^unsupported rate {rate}, expected one of \(1, 2, 4, 8\)$"
        with pytest.raises(ContractError, match=message):
            VadConfig(rate_n=rate)


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

    @settings(max_examples=200, deadline=None)
    @given(
        frames=st.integers(1, 300),
        cuts=st.lists(st.integers(0, 300), max_size=10),
        rate=st.sampled_from(SUPPORTED_RATES),
        chunk=st.integers(1, 40),
        hangover=st.integers(0, 30),
    )
    def test_each_segment_carries_its_tokens(self, frames, cuts, rate, chunk, hangover):
        bounds = sorted(c % (frames + 1) for c in cuts)
        active = list(zip(bounds[0::2], bounds[1::2]))
        cfg = VadConfig(hangover_frames=hangover, rate_n=rate, mel_frames_per_chunk=chunk)
        events = events_from_media(_spec_with_active(frames, active), cfg)
        mask = np.zeros(frames, dtype=bool)
        for a, b in active:
            mask[a:b] = True
        runs = vad_runs(mask, hangover)

        segments = []
        for event in events:
            if event.kind == "audio_start":
                segments.append([event])
            else:
                segments[-1].append(event)
        audio = run(events).audio_entries()
        assert len(segments) == len(audio) == len(runs)
        for (start, *chunks, end), entry, (a, b) in zip(segments, audio, runs):
            assert start.timestamp_ms == a * MS_PER_MEL_FRAME
            assert end.timestamp_ms == b * MS_PER_MEL_FRAME
            assert end.kind == "audio_end" and {c.kind for c in chunks} == {"audio_frame"}
            tokens = sum(c.payload_tokens for c in chunks)
            assert tokens == -(-(b - a) // rate)
            times = [c.timestamp_ms for c in chunks]
            assert all(x < y for x, y in zip(times, times[1:]))
            assert times[-1] == end.timestamp_ms
            assert (entry.timestamp_ms, entry.token_count, entry.trigger_inference) == (
                end.timestamp_ms, tokens, True
            )
