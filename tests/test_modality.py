"""Planner tests: tiling, frame sampling, token budgets, mel features, VAD."""

import tracemalloc
import wave

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from omnipipe.errors import ContractError, FormatError
from omnipipe.modality import (
    CLIP_SAMPLES,
    FRAME_TOKEN_CHOICES,
    FramePlan,
    MelSpec,
    PATCH_GRID,
    SAMPLE_RATE_HZ,
    TILE_PX,
    TOKENS_PER_TILE,
    TilePlan,
    VadSegment,
    WINDOW_SAMPLES,
    frame_energy_db,
    frame_tokens,
    load_wav,
    mel_filterbank,
    melspec,
    plan_frames,
    plan_tiles,
    vad,
)
from omnipipe.numkit import Tensor

from oracles import (
    direct_dft_magnitude, melspec_gather, melspec_whole, shrink_tile_grid, vad_runs,
)


class TestPlanTiles:
    def test_patch_grid_and_budgets_keep_their_values(self):
        # written out here, so that a change to the grid or to the rule that
        # derives the budgets from it cannot pass unseen
        assert PATCH_GRID == 27
        assert PATCH_GRID * PATCH_GRID == 729
        assert TOKENS_PER_TILE == 182
        assert FRAME_TOKEN_CHOICES == (182, 364, 546)

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

    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 100 * TILE_PX), st.integers(1, 100 * TILE_PX), st.integers(1, 80))
    def test_grid_matches_shrink_loop_oracle(self, w, h, max_tiles):
        plan = plan_tiles(w, h, max_tiles)
        rows, cols = -(-h // TILE_PX), -(-w // TILE_PX)
        assert (plan.grid_rows, plan.grid_cols) == shrink_tile_grid(rows, cols, max_tiles)

    @pytest.mark.parametrize("rows, cols", [(0, 1), (1, 0)])
    def test_empty_grid_rejected(self, rows, cols):
        with pytest.raises(ContractError, match="^tile grid dimensions must be >= 1$"):
            TilePlan(rows, cols)

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

    def test_infinite_duration_is_a_contract_error(self):
        # zero, negative and NaN durations keep their message
        for duration in (0.0, -1.0, float("-inf"), float("nan")):
            with pytest.raises(ContractError, match=f"^duration must be positive, got {duration}$"):
                plan_frames(duration, 10)
        with pytest.raises(ContractError, match="^duration must be finite, got inf$"):
            plan_frames(float("inf"), 10)

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
        ({"frames": [], "per_frame_tokens": 182}, "needs at least one frame"),
        ({"frames": [-3, -1], "per_frame_tokens": 182}, r"must be >= 0, got -3"),
        ({"frames": [-1, 0, 4], "per_frame_tokens": 182}, r"must be >= 0, got -1"),
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

    @pytest.mark.parametrize("shape", [(), (1600, 2), (1, 1600), (2, 800, 1)])
    def test_waveform_that_is_not_1d_rejected(self, shape):
        # a stereo (n, 2) array is not read as one interleaved channel, nor a
        # scalar as a one-sample clip
        with pytest.raises(ContractError) as exc:
            melspec(np.zeros(shape))
        assert str(exc.value) == f"waveform must be 1-D, got shape {shape}"

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
        # the filter nearest 440 Hz, read from the filterbank: a filter's peak
        # FFT bin is its centre
        centres_hz = np.argmax(mel_filterbank(), axis=0) * SAMPLE_RATE_HZ / WINDOW_SAMPLES
        assert abs(oracle_bin - int(np.argmin(np.abs(centres_hz - 440.0)))) <= 1

    @given(
        st.one_of(
            st.integers(1, CLIP_SAMPLES - 1),
            st.just(CLIP_SAMPLES),
            st.integers(CLIP_SAMPLES + 1, CLIP_SAMPLES + 4000),
        ),
        st.integers(0, 2**32 - 1),
        st.floats(1e-6, 1.0),
    )
    @settings(max_examples=25, deadline=None)
    def test_strided_frames_are_bit_identical_to_gathered(self, length, seed, scale):
        wave_ = scale * np.random.default_rng(seed).uniform(-1.0, 1.0, size=length)
        got, want = melspec(wave_).data.array, melspec_gather(wave_)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    @given(
        st.one_of(st.integers(1, 4000), st.integers(1, 35 * SAMPLE_RATE_HZ)),
        st.sampled_from(["zero", "tiny", "plain", "clipped"]),
        st.integers(0, 2**32 - 1),
    )
    @example(1, "plain", 0)
    @example(35 * SAMPLE_RATE_HZ, "clipped", 1)
    @settings(max_examples=25, deadline=None)
    def test_blocked_melspec_is_bit_identical_to_the_whole_clip(self, length, amplitude, seed):
        wave_ = np.random.default_rng(seed).uniform(-1.0, 1.0, size=length)
        if amplitude == "zero":
            wave_ = np.zeros(length)
        elif amplitude == "tiny":  # every mel energy below the 1e-10 floor
            wave_ *= 1e-9
        elif amplitude == "clipped":
            wave_ = np.clip(8.0 * wave_, -1.0, 1.0)
        got, want = melspec(wave_).data.array, melspec_whole(wave_)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    def test_working_set_of_a_30s_clip_stays_bounded(self):
        # numpy reports its buffers to tracemalloc; whole-clip temporaries
        # peaked at ~27 MiB, blocks of frames at ~9 MiB
        wave_ = _sine(440.0, 30.0)
        mel_filterbank()
        tracemalloc.start()
        try:
            melspec(wave_)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 10 * 2**20

    def test_filterbank_cache_is_read_only(self):
        before = melspec(_sine(440.0, 1.0)).data.array
        with pytest.raises(ValueError, match="read-only"):
            mel_filterbank()[:] = 0.0
        assert np.array_equal(melspec(_sine(440.0, 1.0)).data.array, before)


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

    def test_8_bit_rejected(self, tmp_path):
        path = tmp_path / "bad.wav"
        with wave.open(str(path), "wb") as w:
            w.setnchannels(1)
            w.setsampwidth(1)
            w.setframerate(16000)
            w.writeframes(bytes(range(256)))
        with pytest.raises(FormatError, match="^WAV must be 16-bit PCM, got 8-bit$"):
            load_wav(path)

    def test_float_format_rejected_by_the_reader(self, tmp_path):
        # wave reads only PCM (format 1): it rejects IEEE float (format 3)
        # while it reads the fmt chunk, before any field can be checked
        path = tmp_path / "float.wav"
        self._write(path)
        data = bytearray(path.read_bytes())
        data[20:22] = (3).to_bytes(2, "little")
        path.write_bytes(data)
        with pytest.raises(FormatError) as exc:
            load_wav(path)
        assert str(exc.value) == f"not a readable WAV file: {path} (unknown format: 3)"

    def test_not_wav_rejected(self, tmp_path):
        path = tmp_path / "bad.wav"
        path.write_bytes(b"definitely not RIFF")
        with pytest.raises(FormatError):
            load_wav(path)

    def test_data_ending_mid_sample_rejected(self, tmp_path):
        path = tmp_path / "cut.wav"
        self._write(path)
        path.write_bytes(path.read_bytes()[:-1])
        with pytest.raises(FormatError, match=f"^truncated WAV file: {path} "):
            load_wav(path)

    def test_data_shorter_than_its_header_rejected(self, tmp_path):
        path = tmp_path / "cut.wav"
        self._write(path)
        path.write_bytes(path.read_bytes()[:-2])
        with pytest.raises(FormatError) as exc:
            load_wav(path)
        assert str(exc.value) == (
            f"truncated WAV file: {path} (its header declares 1600 samples, its data holds 1599)"
        )

    def _declare(self, path, frames):
        """Set the data chunk's declared size (bytes 40-43) to ``frames`` samples."""
        data = bytearray(path.read_bytes())
        data[40:44] = (2 * frames).to_bytes(4, "little")
        path.write_bytes(data)

    def test_reads_at_most_one_clip(self, tmp_path):
        path = tmp_path / "long.wav"
        self._write(path, seconds=31.0)
        samples = load_wav(path)
        assert samples.size == CLIP_SAMPLES
        want = np.frombuffer(path.read_bytes()[44:44 + 2 * CLIP_SAMPLES], dtype="<i2") / 32768.0
        assert np.array_equal(samples, want)

    def test_a_long_header_over_short_data_names_the_header_count(self, tmp_path):
        path = tmp_path / "cut.wav"
        self._write(path, seconds=2.0)
        self._declare(path, 1_801_472)
        with pytest.raises(FormatError) as exc:
            load_wav(path)
        assert str(exc.value) == (
            f"truncated WAV file: {path} (its header declares 1801472 samples, its data holds 32000)"
        )

    def test_one_clip_of_data_under_a_longer_header_reads_that_clip(self, tmp_path):
        # only the first 30 s are read, so data that holds them passes; a
        # length limit still rejects the file from its header
        path = tmp_path / "cut.wav"
        self._write(path, seconds=31.0)
        self._declare(path, 40 * SAMPLE_RATE_HZ)
        assert load_wav(path).size == CLIP_SAMPLES
        with pytest.raises(ContractError, match="^WAV file longer than 30 s: "):
            load_wav(path, max_seconds=30)

    def test_length_limit_reads_the_header_only(self, tmp_path):
        # the header's frame count decides: a file declaring 2 s whose data
        # stops after 0.1 s gets the length error, not the truncation error
        path = tmp_path / "long.wav"
        self._write(path, seconds=2.0)
        assert load_wav(path, max_seconds=2).size == 32000
        path.write_bytes(path.read_bytes()[:44 + 3200])
        with pytest.raises(ContractError) as exc:
            load_wav(path, max_seconds=1)
        assert str(exc.value) == (
            f"WAV file longer than 1 s: {path} (32000 samples, at most 16000)"
        )


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

    @pytest.mark.parametrize("start, end", [(5, 5), (6, 5)])
    def test_empty_segment_rejected(self, start, end):
        with pytest.raises(ContractError, match=rf"^VAD segment must be non-empty, got \[{start}, {end}\)$"):
            VadSegment(start, end)

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

    @settings(max_examples=200, deadline=None)
    @given(
        frames=st.integers(1, 3000),
        density=st.floats(0.0, 1.0),
        run=st.integers(1, 40),
        hangover=st.integers(0, 12),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_the_frame_loop(self, frames, density, run, hangover, seed):
        # runs of about ``run`` frames, each on with probability ``density``
        rng = np.random.default_rng(seed)
        active = np.repeat(rng.random(frames // run + 1) < density, run)[:frames]
        spec = MelSpec(Tensor(np.where(active[:, None], 0.5, -1.5) * np.ones(128)))
        segments = vad(spec, -60.0, hangover)
        assert segments == [VadSegment(a, b) for a, b in vad_runs(active, hangover)]
        assert all(type(s.start_frame) is int and type(s.end_frame) is int for s in segments)

    def test_energy_scale(self):
        spec = _synthetic_spec(10, [])
        assert np.allclose(frame_energy_db(spec), -100.0)
