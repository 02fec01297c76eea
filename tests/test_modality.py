"""Planner tests: tiling, frame sampling, token budgets, mel features, VAD."""

import wave

import numpy as np
import pytest

from omnipipe.errors import ContractError, FormatError
from omnipipe.modality import (
    CLIP_SAMPLES,
    FramePlan,
    MelSpec,
    SAMPLE_RATE_HZ,
    TOKENS_PER_TILE,
    VadSegment,
    WINDOW_SAMPLES,
    frame_energy_db,
    frame_tokens,
    load_wav,
    mel_bin_for_hz,
    mel_filterbank,
    melspec,
    plan_frames,
    plan_tiles,
    vad,
)
from omnipipe.numkit import Tensor

from oracles import direct_dft_magnitude


class TestPlanTiles:
    def test_single_tile(self):
        plan = plan_tiles(384, 384)
        assert (plan.grid_rows, plan.grid_cols) == (1, 1)
        assert not plan.has_global_tile
        assert plan.total_tokens == 182

    def test_2x2_with_global(self):
        plan = plan_tiles(768, 768)
        assert (plan.grid_rows, plan.grid_cols) == (2, 2)
        assert plan.has_global_tile
        assert plan.total_tokens == 910

    def test_zero_width_rejected(self):
        with pytest.raises(ContractError):
            plan_tiles(0, 384)

    def test_grid_cap(self):
        plan = plan_tiles(384 * 11, 384 * 11)
        assert plan.grid_rows * plan.grid_cols <= 9

    def test_tokens_always_positive_multiple_of_182(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            w = int(rng.integers(1, 5000))
            h = int(rng.integers(1, 5000))
            plan = plan_tiles(w, h)
            assert plan.total_tokens > 0
            assert plan.total_tokens % TOKENS_PER_TILE == 0

    def test_json_shape(self):
        assert plan_tiles(500, 400).to_json() == {
            "grid": [2, 2],
            "global": True,
            "tokens": 910,
        }


class TestPlanFrames:
    def test_30s_900_frames(self):
        plan = plan_frames(30.0, 900)
        assert plan.frame_indices == tuple(range(0, 900, 30))

    def test_long_video_capped_at_48(self):
        plan = plan_frames(120.0, 3600)
        assert len(plan.frame_indices) == 48

    def test_short_clip_clamps_to_one(self):
        assert plan_frames(0.5, 12).frame_indices == (0,)

    def test_non_positive_duration(self):
        with pytest.raises(ContractError):
            plan_frames(0.0, 10)

    def test_never_more_than_48_never_duplicated(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            duration = float(rng.uniform(0.1, 600))
            total = int(rng.integers(1, 20000))
            plan = plan_frames(duration, total)
            idx = plan.frame_indices
            assert len(idx) <= 48
            assert len(set(idx)) == len(idx)
            assert all(0 <= i < total for i in idx)

    def test_plan_json_roundtrip(self):
        plan = plan_frames(10.0, 100, per_frame_tokens=546)
        assert FramePlan.from_json(plan.to_json()) == plan

    @pytest.mark.parametrize("obj, message", [
        ({"frames": list(range(49)), "per_frame_tokens": 182}, "49 frames exceeds cap 48"),
        ({"frames": [0, 5, 5], "per_frame_tokens": 182}, "strictly increasing"),
        ({"frames": [0], "per_frame_tokens": 100}, "per_frame_tokens must be one of"),
    ])
    def test_from_json_rejects_invalid_plans(self, obj, message):
        with pytest.raises(ContractError, match=message):
            FramePlan.from_json(obj)


class TestFrameTokens:
    def test_square_frame_minimum(self):
        assert frame_tokens(384, 384) == 182

    def test_tall_frame_maximum(self):
        assert frame_tokens(384, 768) == 546

    def test_hd_portrait_rescaled(self):
        assert frame_tokens(1080, 1920) == 546

    def test_orientation_invariant(self):
        assert frame_tokens(1920, 1080) == frame_tokens(1080, 1920)

    def test_membership(self):
        rng = np.random.default_rng(2)
        for _ in range(500):
            w = int(rng.integers(1, 4000))
            h = int(rng.integers(1, 4000))
            assert frame_tokens(w, h) in (182, 364, 546)

    def test_monotone_in_area_for_fixed_aspect(self):
        for w0, h0 in ((4, 3), (16, 9), (1, 1), (9, 21)):
            budgets = [
                frame_tokens(round(w0 * s), round(h0 * s)) for s in range(1, 400, 7)
            ]
            assert budgets == sorted(budgets)

    def test_zero_dimension_rejected(self):
        with pytest.raises(ContractError):
            frame_tokens(100, 0)


def _sine(freq_hz: float, seconds: float, amplitude: float = 0.5) -> np.ndarray:
    t = np.arange(int(seconds * SAMPLE_RATE_HZ)) / SAMPLE_RATE_HZ
    return amplitude * np.sin(2 * np.pi * freq_hz * t)


class TestMelspec:
    def test_silence_sits_at_floor(self):
        spec = melspec(np.zeros(CLIP_SAMPLES))
        assert spec.frames == 3000 and spec.bins == 128
        floor = spec.data.array.min()
        assert np.all(spec.data.array == floor)

    def test_long_input_trimmed(self):
        spec = melspec(_sine(200, 45.0))
        assert spec.data.shape == (3000, 128)

    def test_trim_idempotence(self):
        x = _sine(300, 31.0)
        longer = np.concatenate([x, np.zeros(1000)])
        assert np.array_equal(melspec(x).data.array, melspec(longer).data.array)

    def test_empty_rejected(self):
        with pytest.raises(ContractError):
            melspec(np.array([]))

    def test_non_finite_rejected(self):
        bad = np.zeros(100)
        bad[3] = np.nan
        with pytest.raises(ContractError):
            melspec(bad)

    def test_frames_and_bins_come_from_the_data(self):
        spec = MelSpec(Tensor(np.zeros((7, 128))))
        assert (spec.frames, spec.bins) == (7, 128)

    @pytest.mark.parametrize("shape", [(128,), (3000,), (10, 127), (10, 129), (10, 128, 1)])
    def test_spec_rejects_data_that_is_not_frames_by_128(self, shape):
        with pytest.raises(ContractError, match="mel data shape"):
            MelSpec(Tensor(np.zeros(shape)))

    def test_440hz_energy_lands_in_oracle_bin(self):
        spec = melspec(_sine(440.0, 1.0))
        frame_index = 50  # 0.5 s, well inside the tone
        got_bin = int(np.argmax(spec.data.array[frame_index]))

        # oracle: explicit DFT of the same windowed frame, then the filterbank
        start = frame_index * 160
        window = 0.5 * (1.0 - np.cos(2 * np.pi * np.arange(WINDOW_SAMPLES) / WINDOW_SAMPLES))
        padded = np.concatenate([_sine(440.0, 1.0), np.zeros(CLIP_SAMPLES)])
        frame = padded[start : start + WINDOW_SAMPLES] * window
        oracle_mel = direct_dft_magnitude(frame) @ mel_filterbank()
        oracle_bin = int(np.argmax(oracle_mel))

        assert got_bin == oracle_bin
        assert abs(oracle_bin - mel_bin_for_hz(440.0)) <= 1


class TestLoadWav(object):
    def _write(self, path, rate=16000, channels=1, width=2, seconds=0.1):
        n = int(rate * seconds)
        payload = (32000 * _sine(440, seconds, 0.9)[:n]).astype("<i2")
        if channels == 2:
            payload = np.repeat(payload, 2)
        with wave.open(str(path), "wb") as w:
            w.setnchannels(channels)
            w.setsampwidth(width)
            w.setframerate(rate)
            w.writeframes(payload.astype(f"<i{width}").tobytes())

    def test_roundtrip(self, tmp_path):
        path = tmp_path / "tone.wav"
        self._write(path)
        samples = load_wav(path)
        assert samples.size == 1600
        assert np.max(np.abs(samples)) <= 1.0

    def test_wrong_rate_rejected(self, tmp_path):
        path = tmp_path / "bad.wav"
        self._write(path, rate=44100)
        with pytest.raises(FormatError, match="16000"):
            load_wav(path)

    def test_stereo_rejected(self, tmp_path):
        path = tmp_path / "bad.wav"
        self._write(path, channels=2)
        with pytest.raises(FormatError, match="mono"):
            load_wav(path)

    def test_not_wav_rejected(self, tmp_path):
        path = tmp_path / "bad.wav"
        path.write_bytes(b"definitely not RIFF")
        with pytest.raises(FormatError):
            load_wav(path)


def _synthetic_spec(frames: int, active, silence=-1.5, loud=0.5) -> MelSpec:
    data = np.full((frames, 128), silence)
    for start, end in active:
        data[start:end] = loud
    return MelSpec(Tensor(data))


class TestVad:
    def test_silence_gives_nothing(self):
        spec = _synthetic_spec(300, [])
        assert vad(spec, threshold_db=-60.0, hangover_frames=0) == []

    def test_tone_burst(self):
        spec = _synthetic_spec(300, [(100, 200)])
        assert vad(spec, -60.0, 0) == [VadSegment(100, 200)]

    def test_hangover_merges_nearby_bursts(self):
        spec = _synthetic_spec(300, [(50, 60), (63, 80)])
        assert vad(spec, -60.0, 5) == [VadSegment(50, 80)]
        assert vad(spec, -60.0, 0) == [VadSegment(50, 60), VadSegment(63, 80)]

    def test_negative_hangover_rejected(self):
        with pytest.raises(ContractError):
            vad(_synthetic_spec(10, []), -60.0, -1)

    def test_segments_disjoint_sorted_in_range(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            frames = int(rng.integers(10, 400))
            data = np.where(rng.random((frames, 128)) > 0.5, 0.5, -1.5)
            spec = MelSpec(Tensor(data))
            segments = vad(spec, -60.0, int(rng.integers(0, 4)))
            for a, b in zip(segments, segments[1:]):
                assert a.end_frame < b.start_frame
            for seg in segments:
                assert 0 <= seg.start_frame < seg.end_frame <= frames

    def test_energy_scale(self):
        spec = _synthetic_spec(10, [])
        assert np.allclose(frame_energy_db(spec), -100.0)
