"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
complete. Every tolerance and runtime budget is asserted here.
"""

import json
import subprocess
import sys
import time
import wave
from contextlib import contextmanager

import numpy as np
import pytest

from omnipipe.curation import gaussian_filter
from omnipipe.errors import ProtocolError
from omnipipe.evalkit import ScoreTable, bleu, cer, normalize_scores, tokenize_words, wer
from omnipipe.modality import frame_tokens, plan_tiles
from omnipipe.numkit import Tensor
from omnipipe.packing import build_mask, pack, packed_attention
from omnipipe.projectors import (
    ConvGmlpConfig,
    _conv_gmlp_forward,
    check_gradients,
    conv_gmlp_shapes,
    init_conv_gmlp_params,
    toy_fit,
)
from omnipipe.stream import StreamEvent, run as run_stream

from oracles import edit_distance, standalone_causal_attention
from test_stream import random_event_trace


@contextmanager
def criterion(number: int, name: str, budget_s: float):
    start = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} {name}: FAIL")
        raise
    elapsed = time.monotonic() - start
    print(f"ACCEPTANCE {number} {name}: PASS ({elapsed:.2f}s, budget {budget_s:g}s)")
    assert elapsed < budget_s, f"criterion {number} took {elapsed:.2f}s > {budget_s}s"


def test_criterion_1_token_budgets():
    with criterion(1, "token-budget reproduction", 1.0):
        assert plan_tiles(384, 384).total_tokens == 182
        assert frame_tokens(384, 768) == 546
        rng = np.random.default_rng(101)
        for _ in range(1000):
            w = int(rng.integers(1, 4097))
            h = int(rng.integers(1, 4097))
            assert frame_tokens(w, h) in (182, 364, 546)


def test_criterion_2_conv_gmlp_shape_laws():
    with criterion(2, "projector shape laws", 5.0):
        rng = np.random.default_rng(202)
        lengths = [int(v) for v in rng.integers(1, 513, size=100)]
        for rate in (2, 4, 8):
            wide = ConvGmlpConfig(rate_n=rate, llm_dim=8, in_channels=1280)
            narrow = ConvGmlpConfig(rate_n=rate, llm_dim=8, in_channels=16)
            params = init_conv_gmlp_params(narrow, 0)
            for length in lengths:
                expected_len = -(-length // rate)
                shapes = conv_gmlp_shapes(wide, length)
                assert shapes["output_len"] == expected_len
                assert shapes["intermediate_channels"] == rate * 1280
                x = Tensor(rng.normal(size=(length, 16)))
                out, cache = _conv_gmlp_forward(narrow, params, x)
                assert out.shape == (expected_len, 8)
                assert cache["gated"].shape == (expected_len, rate * 16)
        # the quarter-length, fourfold-channel case on real full-width tensors
        cfg = ConvGmlpConfig(rate_n=4, llm_dim=16, in_channels=1280)
        params = init_conv_gmlp_params(cfg, 0)
        x = Tensor(np.random.default_rng(1).normal(size=(100, 1280)))
        out, cache = _conv_gmlp_forward(cfg, params, x)
        assert cache["gated"].shape == (25, 5120)
        assert out.shape == (25, 16)


def test_criterion_3_gradient_correctness():
    with criterion(3, "gradient correctness", 120.0):
        for variant in ("mlp", "c_abs", "concat", "mean_pool", "conv_gmlp"):
            for seed in range(10):
                report = check_gradients(variant, seed=seed, eps=1e-5, tol=1e-4)
                assert report.passed, (variant, seed, report.max_relative_error)
                assert report.max_relative_error < 1e-4


def test_criterion_4_end_to_end_backward():
    with criterion(4, "end-to-end backward", 120.0):
        for rate in (2, 4, 8):
            cfg = ConvGmlpConfig(rate_n=rate, llm_dim=16, in_channels=32)
            losses = toy_fit(cfg, steps=200, lr=1e-3, seed=7)
            assert losses[-1] <= 0.5 * losses[0], (rate, losses[0], losses[-1])


def test_criterion_5_packing_isolation():
    with criterion(5, "packing isolation oracle", 60.0):
        rng = np.random.default_rng(505)
        for _ in range(500):
            n_samples = int(rng.integers(1, 7))
            lengths = [int(rng.integers(1, 33)) for _ in range(n_samples)]
            capacity = max(lengths) + int(rng.integers(0, 16))
            d = int(rng.integers(1, 17))
            batch = pack(lengths, capacity)
            samples = [rng.normal(size=(ln, d)) for ln in lengths]
            for b, packed_bin in enumerate(batch.bins):
                tokens = np.zeros((capacity, d))
                spans = list(zip(packed_bin.cu_seqlens, packed_bin.cu_seqlens[1:]))
                for sid, (start, end) in zip(packed_bin.sample_ids, spans):
                    tokens[start:end] = samples[sid]
                out = packed_attention(Tensor(tokens), build_mask(batch, b)).array
                for sid, (start, end) in zip(packed_bin.sample_ids, spans):
                    expected = standalone_causal_attention(samples[sid])
                    assert np.max(np.abs(out[start:end] - expected)) <= 1e-10
                assert np.all(out[packed_bin.cu_seqlens[-1] :] == 0.0)


def test_criterion_6_streaming_protocol():
    with criterion(6, "streaming protocol invariants", 10.0):
        rng = np.random.default_rng(606)
        for _ in range(1000):
            events, facts = random_event_trace(rng)
            trace = run_stream(events)
            audio = trace.audio_entries()
            assert len(audio) == len(facts["segments"])
            for entry, seg in zip(audio, facts["segments"]):
                assert entry.timestamp_ms >= seg["end"]
                assert entry.timestamp_ms == seg["end"]
                assert entry.trigger_inference
                assert entry.token_count == seg["tokens"]
            stripped = run_stream(
                [e for e in events if not e.kind.startswith("audio")]
            ).entries
            assert trace.visual_text_entries() == stripped
        malformed = [
            [StreamEvent(0, "audio_start")],
            [StreamEvent(0, "audio_end")],
            [StreamEvent(0, "audio_frame", 5)],
            [StreamEvent(0, "audio_start"), StreamEvent(1, "audio_start")],
            [StreamEvent(100, "text", 1), StreamEvent(50, "text", 1)],
            [StreamEvent(0, "audio_start"), StreamEvent(5, "audio_frame", 1)],
        ]
        for bad in malformed:
            with pytest.raises(ProtocolError):
                run_stream(bad)


def test_criterion_7_gaussian_filter_calibration():
    with criterion(7, "loss filter calibration", 1.0):
        rng = np.random.default_rng(707)
        losses = {i: float(v) for i, v in enumerate(rng.normal(size=10_000))}
        report = gaussian_filter(losses)
        fraction = len(report.kept_ids) / 10_000
        assert 0.65 <= fraction <= 0.71, fraction
        hand = gaussian_filter({"a": 1, "b": 2, "c": 3, "d": 4, "e": 5})
        assert hand.kept_ids == ("b", "c", "d")
        assert hand.removed_low_ids == ("a",)
        assert hand.removed_high_ids == ("e",)


def test_criterion_8_metric_oracles():
    with criterion(8, "metric oracles", 30.0):
        rng = np.random.default_rng(808)
        vocab = ["go", "red", "blue", "stop", "x"]
        for _ in range(1000):
            ref = " ".join(str(rng.choice(vocab)) for _ in range(int(rng.integers(1, 9))))
            hyp = " ".join(str(rng.choice(vocab)) for _ in range(int(rng.integers(0, 9))))
            got = wer(ref, hyp)
            errors = sum(
                got.counts[k] for k in ("substitutions", "deletions", "insertions")
            )
            assert errors == edit_distance(tokenize_words(ref), tokenize_words(hyp))
            assert got.value == errors / len(tokenize_words(ref))
        alphabet = list("abcd ")
        for _ in range(1000):
            ref = "".join(rng.choice(alphabet) for _ in range(int(rng.integers(1, 12))))
            hyp = "".join(rng.choice(alphabet) for _ in range(int(rng.integers(0, 12))))
            got = cer(ref, hyp)
            errors = sum(
                got.counts[k] for k in ("substitutions", "deletions", "insertions")
            )
            assert errors == edit_distance(list(ref), list(hyp))
        assert bleu("the cat sat on the mat", "the cat sat on the mat").value == 1.0
        assert bleu("aa bb cc", "dd ee ff").value == 0.0
        table = ScoreTable.from_rows(
            [("m1", "bench", 50.0), ("m2", "bench", 70.0), ("m3", "bench", 90.0)]
        )
        normalized = normalize_scores(table)
        assert abs(normalized["m2"]["bench"] - 0.6) < 1e-12
        rng2 = np.random.default_rng(809)
        rows = [
            (f"model{m}", f"bench{b}", float(rng2.uniform(0, 100)))
            for m in range(4)
            for b in range(8)
        ]
        table = ScoreTable.from_rows(rows)
        normalized = normalize_scores(table)
        for b in table.benchmarks():
            raw = table.column(b)
            norm = {m: normalized[m][b] for m in raw}
            assert max(raw, key=raw.get) == max(norm, key=norm.get)


def _write_fixtures(root):
    t = np.arange(16000) / 16000.0
    payload = (20000 * np.sin(2 * np.pi * 440 * t)).astype("<i2")
    with wave.open(str(root / "tone.wav"), "wb") as w:
        w.setnchannels(1)
        w.setsampwidth(2)
        w.setframerate(16000)
        w.writeframes(payload.tobytes())
    (root / "lens.jsonl").write_text(
        '{"id": "s0", "len": 3}\n{"id": "s1", "len": 5}\n{"id": "s2", "len": 2}\n'
    )
    (root / "events.jsonl").write_text(
        '{"t": 0, "kind": "audio_start"}\n'
        '{"t": 100, "kind": "video_frame", "tokens": 182}\n'
        '{"t": 150, "kind": "audio_frame", "tokens": 50}\n'
        '{"t": 300, "kind": "audio_end"}\n'
    )
    (root / "losses.csv").write_text("id,loss\na,1\nb,2\nc,3\nd,4\ne,5\n")
    (root / "texts.jsonl").write_text(
        json.dumps({"text": "one two three four five six seven eight"}) + "\n"
    )
    (root / "sizes.json").write_text(json.dumps({"A": 100, "B": 300}))
    (root / "pairs.jsonl").write_text(
        json.dumps({"ref": "hello world", "hyp": "hello word"}) + "\n"
    )
    (root / "scores.csv").write_text("model,benchmark,raw\nm1,b,50\nm2,b,70\nm3,b,90\n")


def test_criterion_9_cli_determinism(tmp_path):
    with criterion(9, "CLI determinism", 300.0):
        _write_fixtures(tmp_path)
        commands = {
            "tile": ["tile", "--width", "640", "--height", "480"],
            "frames": ["frames", "--duration", "12", "--source-frames", "360"],
            "melspec": ["melspec", "--wav", str(tmp_path / "tone.wav")],
            "gradcheck": ["gradcheck", "--projector", "mean_pool", "--seeds", "1"],
            "ablate-rates": [
                "ablate-rates", "--rates", "2,4", "--steps", "3", "--channels", "8",
                "--llm-dim", "4", "--length", "32",
            ],
            "pack": ["pack", "--capacity", "8", "--manifest", str(tmp_path / "lens.jsonl")],
            "stream-sim": ["stream-sim", "--events", str(tmp_path / "events.jsonl")],
            "filter-loss": ["filter-loss", "--losses", str(tmp_path / "losses.csv")],
            "split-crossmodal": [
                "split-crossmodal", "--input", str(tmp_path / "texts.jsonl"), "--seed", "1",
            ],
            "mix": ["mix", "--sizes", str(tmp_path / "sizes.json"), "--budget", "40"],
            "metrics": ["metrics", "--metric", "wer", "--pairs", str(tmp_path / "pairs.jsonl")],
            "normalize-scores": [
                "normalize-scores", "--scores", str(tmp_path / "scores.csv"),
            ],
        }
        for name, args in commands.items():
            outputs = []
            for attempt in (0, 1):
                out_file = tmp_path / f"{name}.{attempt}.out"
                proc = subprocess.run(
                    [sys.executable, "-m", "omnipipe.cli", *args, "--out", str(out_file)],
                    capture_output=True,
                    timeout=120,
                )
                assert proc.returncode == 0, (name, proc.stderr.decode())
                body = out_file.read_bytes() if out_file.exists() else b""
                outputs.append((proc.stdout, body))
            assert outputs[0] == outputs[1], f"{name} output differs between runs"
