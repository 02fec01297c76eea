"""The four benchmark workloads.

Each workload is a closed loop with one client: an op is prepared (inputs
generated from the seed, outside the timed region), run (the timed call into
omnipipe's public functions or ``cli.main``), then checked against the
library's invariants and the naive oracles in ``tests/oracles.py`` (outside
the timed region again). An op's inputs depend only on the seed and the op
index, so a run can be replayed op for op.

``setup`` holds what a user pays once per process before the first op:
projector parameter init and the first mel-filterbank build. Importing this
module imports omnipipe, which is also part of set-up time.
"""

from __future__ import annotations

import hashlib
import importlib.util
import json
import wave
from collections import Counter
from pathlib import Path

import numpy as np

from omnipipe import cli, curation, evalkit, modality, packing, projectors, stream
from omnipipe.numkit import Tensor

ROOT = Path(__file__).resolve().parent.parent


def _load_oracles():
    path = ROOT / "tests" / "oracles.py"
    spec = importlib.util.spec_from_file_location("omnipipe_test_oracles", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


oracles = _load_oracles()


def _rng(*key: int) -> np.random.Generator:
    return np.random.default_rng([int(k) for k in key])


def _vocabulary(rng: np.random.Generator, size: int = 3000) -> list[str]:
    letters = np.array(list("abcdefghijklmnopqrstuvwxyz"))
    return [
        "".join(rng.choice(letters, int(rng.integers(2, 11)))) for _ in range(size)
    ]


def _sentence(rng, vocab, n_words: int) -> str:
    words = [vocab[k] for k in rng.integers(0, len(vocab), n_words)]
    return " ".join(words) + "."


def _text_of_chars(rng, vocab, target: int) -> str:
    words: list[str] = []
    length = -1
    while length + 1 < target:
        words.append(vocab[int(rng.integers(len(vocab)))])
        length += len(words[-1]) + 1
    return " ".join(words)[:target]


def _corrupt(rng, text: str, rate: float) -> str:
    """ASR-like noise: substitute, delete or insert characters at ``rate``."""
    out = []
    for ch in text:
        r = rng.random()
        if r < rate / 3:
            out.append(chr(97 + int(rng.integers(26))))
        elif r < 2 * rate / 3:
            continue
        elif r < rate:
            out.extend((ch, chr(97 + int(rng.integers(26)))))
        else:
            out.append(ch)
    return "".join(out) or text[:1]


def _corrupt_words(rng, text: str, rate: float) -> str:
    words = text.split()
    out = []
    for w in words:
        r = rng.random()
        if r < rate / 3:
            out.append(w[::-1] + "x")
        elif r < 2 * rate / 3:
            continue
        elif r < rate:
            out.extend((w, "uh"))
        else:
            out.append(w)
    return " ".join(out) or words[0]


def _quartiles(values) -> list[float]:
    return [float(np.percentile(values, q)) for q in (25, 50, 75)] if values else []


def _digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _write_jsonl(path: Path, records) -> None:
    path.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")


def _read_jsonl(path: Path) -> list:
    return [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]


def _check_bins(bins, lengths_by_id: dict, capacity: int) -> list[str]:
    """Every sample placed exactly once; fill plus pad equals capacity."""
    problems = []
    placed = [s for b in bins for s in b["samples"]]
    if sorted(map(str, placed)) != sorted(map(str, lengths_by_id)):
        problems.append("pack: samples not placed exactly once")
    for b in bins:
        cu = b["cu_seqlens"]
        lens = [lengths_by_id[s] for s in b["samples"]]
        if [y - x for x, y in zip(cu, cu[1:])] != lens or cu[-1] + b["pad"] != capacity:
            problems.append("pack: bin boundaries do not match its samples")
            break
    return problems


class Workload:
    name = ""
    cycle = 1  # ops whose mix repeats; runs stop only at a cycle boundary
    item = "ops"

    def __init__(self, seed: int, tmp: Path | None) -> None:
        self.seed = seed
        self.tmp = tmp

    def setup(self) -> None:
        """What a user pays once per process before the first op."""

    def generate(self) -> None:
        """Input pools shared by the ops; benchmark work, not set-up."""

    def prepare(self, i: int):
        raise NotImplementedError

    def run(self, inp):
        raise NotImplementedError

    def check(self, inp, out) -> tuple[list[str], dict]:
        """Output problems (empty when correct) and the op's exact counts."""
        raise NotImplementedError

    def items(self, inp) -> int:
        return 1

    def properties(self, stats: list[dict]) -> dict:
        return {}


# ---------------------------------------------------------------------------
# ingest: one multimodal turn through the forward-only serving path
# ---------------------------------------------------------------------------

SR = modality.SAMPLE_RATE_HZ
VIDEO_SHAPES = ((384, 384), (1280, 720), (1920, 1080), (1080, 1920))
CLIP_POOL = 16
TILE_BANK = 10  # plan_tiles yields at most 9 grid tiles plus a global tile


def _speech_clip(rng) -> np.ndarray:
    """30 s of digital silence with voiced bursts (harmonics plus noise)."""
    x = np.zeros(modality.CLIP_SAMPLES)
    t = int(rng.uniform(0.2, 1.5) * SR)
    while True:
        n = int(rng.uniform(1.0, 3.5) * SR)
        if t + n > x.size:
            break
        tt = np.arange(n) / SR
        f0 = rng.uniform(90.0, 260.0)
        voiced = sum(
            np.sin(2 * np.pi * f0 * h * tt + rng.uniform(0, 2 * np.pi)) / h
            for h in range(1, 6)
        )
        ramp = np.minimum(1.0, np.minimum(np.arange(n), n - 1 - np.arange(n)) / 400)
        x[t : t + n] = (0.02 * voiced + rng.normal(0.0, 0.01, n)) * ramp
        t += n + int(rng.uniform(0.5, 3.0) * SR)
    return x


def _write_wav(path: Path, x: np.ndarray) -> None:
    pcm = np.clip(np.round(x * 32767), -32768, 32767).astype("<i2")
    with wave.open(str(path), "wb") as w:
        w.setnchannels(1)
        w.setsampwidth(2)
        w.setframerate(SR)
        w.writeframes(pcm.tobytes())


class Ingest(Workload):
    name = "ingest"
    cycle = 1
    item = "requests"

    def generate(self):
        rng = _rng(self.seed, 1)
        self.clips = []
        for k in range(CLIP_POOL):
            path = self.tmp / f"clip{k}.wav"
            _write_wav(path, _speech_clip(rng))
            self.clips.append(path)
        self.patch_bank = [Tensor(rng.normal(0.0, 1.0, (729, 64))) for _ in range(TILE_BANK)]

    def setup(self):
        self.gmlp_cfg = projectors.ConvGmlpConfig(rate_n=4, llm_dim=64, in_channels=128)
        self.gmlp_params = projectors.init_conv_gmlp_params(self.gmlp_cfg, 0)
        self.vis_cfg = projectors.VisualProjectorConfig("mean_pool", in_dim=64, llm_dim=64)
        self.vis_params = projectors.init_visual_params(self.vis_cfg, 0)
        self.vad_cfg = stream.VadConfig(rate_n=4)
        modality.mel_filterbank()

    def prepare(self, i):
        rng = _rng(self.seed, 2, i)
        duration = float(rng.uniform(5.0, 120.0))
        fps = float(rng.choice([24.0, 25.0, 30.0]))
        return {
            "clip": self.clips[int(rng.integers(CLIP_POOL))],
            # log-uniform sides spread the grid over 1 to 10 tiles
            "image": tuple(int(v) for v in np.exp(rng.uniform(np.log(200), np.log(3000), 2))),
            "video": VIDEO_SHAPES[int(rng.integers(len(VIDEO_SHAPES)))],
            "duration": duration,
            "source_frames": max(1, int(duration * fps)),
        }

    def run(self, inp):
        mel = modality.melspec(modality.load_wav(inp["clip"]))
        per_frame = modality.frame_tokens(*inp["video"])
        plan = modality.plan_frames(inp["duration"], inp["source_frames"], per_frame)
        events = stream.events_from_media(mel, self.vad_cfg, plan)
        trace = stream.run(events)
        audio = projectors.conv_gmlp_forward(self.gmlp_cfg, self.gmlp_params, mel.data)
        tiles = modality.plan_tiles(*inp["image"])
        n_tiles = tiles.grid_rows * tiles.grid_cols + int(tiles.has_global_tile)
        visual = [
            projectors.visual_project(self.vis_cfg, self.vis_params, self.patch_bank[t])
            for t in range(n_tiles)
        ]
        return mel, plan, events, trace, audio, tiles, visual

    def check(self, inp, out):
        mel, plan, events, trace, audio, tiles, visual = out
        problems = []
        segments = modality.vad(mel, self.vad_cfg.threshold_db, self.vad_cfg.hangover_frames)
        seg_frames = [s.end_frame - s.start_frame for s in segments]
        audio_entries = trace.audio_entries()
        if not all(e.trigger_inference for e in audio_entries):
            problems.append("stream: an audio entry does not trigger inference")
        expected = sum(-(-f // self.vad_cfg.rate_n) for f in seg_frames)
        if len(audio_entries) != len(segments) or sum(e.token_count for e in audio_entries) != expected:
            problems.append("stream: audio tokens != sum of ceil(segment frames / rate)")
        video = [e for e in trace.entries if e.modality == "video"]
        if len(video) != len(plan.frame_indices) or any(
            e.token_count != plan.per_frame_tokens for e in video
        ):
            problems.append("stream: video entries do not match the frame plan")
        if tiles.total_tokens != modality.TOKENS_PER_TILE * len(visual):
            problems.append("tiles: tokens != 182 x tiles")
        if any(v.shape != (modality.TOKENS_PER_TILE, 64) or not np.isfinite(v.array).all() for v in visual):
            problems.append("visual projector: bad tile embedding")
        if audio.shape != (750, 64) or not np.isfinite(audio.array).all():
            problems.append("audio projector: output is not a finite (750, 64) block")
        stats = {
            "vad_segments": len(segments),
            "speech_frac": sum(seg_frames) / mel.frames,
            "tiles": len(visual),
            "video_frames": len(plan.frame_indices),
            "events": len(events),
            "triggers": sum(1 for e in trace.entries if e.trigger_inference),
        }
        return problems, stats

    def properties(self, stats):
        return {
            "vad_segments_per_clip_q": _quartiles([s["vad_segments"] for s in stats]),
            "speech_frac_q": _quartiles([s["speech_frac"] for s in stats]),
            "tiles_per_image_hist": _hist(s["tiles"] for s in stats),
            "video_frames_q": _quartiles([s["video_frames"] for s in stats]),
        }


def _hist(values) -> dict:
    return dict(sorted(Counter(values).items()))


# ---------------------------------------------------------------------------
# train: one training step (pack, attention, projector forward/backward)
# ---------------------------------------------------------------------------

TRAIN_CAPACITY = 1024
# Samples are drawn until the next would pass 3.5 bins of tokens: about 12
# per step, and nearly always 4 bins, so step cost does not jump with the
# bin count from seed to seed.
TRAIN_TOKENS = 3584
TRAIN_RATES = (2, 4, 8)
TRAIN_LR = 1e-3


class Train(Workload):
    name = "train"
    cycle = 12  # rates rotate over 3 and visual variants over 4
    item = "steps"

    def setup(self):
        self.gmlp = {}
        for rate in TRAIN_RATES:
            cfg = projectors.ConvGmlpConfig(rate_n=rate, llm_dim=64, in_channels=64)
            self.gmlp[rate] = (cfg, projectors.init_conv_gmlp_params(cfg, rate))
        self.visual = []
        for k, variant in enumerate(projectors.VISUAL_VARIANTS):
            cfg = projectors.VisualProjectorConfig(variant, in_dim=64, llm_dim=64)
            self.visual.append((cfg, projectors.init_visual_params(cfg, k)))

    def prepare(self, i):
        rng = _rng(self.seed, 3, i)
        lengths: list[int] = []
        while True:
            length = int(rng.integers(16, 513))
            if sum(lengths) + length > TRAIN_TOKENS:
                break
            lengths.append(length)
        return {
            "lengths": lengths,
            # samples are at most half a bin, so first fit leaves at most one
            # bin half empty: 2 * tokens / capacity + 1 bins bound the count
            "tokens": [
                Tensor(rng.normal(0.0, 1.0, (TRAIN_CAPACITY, 64)))
                for _ in range(2 * sum(lengths) // TRAIN_CAPACITY + 1)
            ],
            "rate": TRAIN_RATES[i % len(TRAIN_RATES)],
            "visual": i % len(projectors.VISUAL_VARIANTS),
            "x_audio": Tensor(rng.normal(0.0, 1.0, (512, 64))),
            "x_visual": Tensor(rng.normal(0.0, 1.0, (729, 64))),
        }

    def run(self, inp):
        batch = packing.pack(inp["lengths"], TRAIN_CAPACITY)
        attention = []
        for b in range(len(batch.bins)):
            mask = packing.build_mask(batch, b)
            attention.append(packing.packed_attention(inp["tokens"][b], mask))

        cfg, params = self.gmlp[inp["rate"]]
        out = projectors.conv_gmlp_forward(cfg, params, inp["x_audio"])
        grads, g_x = projectors.conv_gmlp_backward(
            cfg, params, inp["x_audio"], Tensor(out.array / out.size)
        )
        self.gmlp[inp["rate"]] = (
            cfg,
            projectors.ProjectorParams(
                tensors={
                    n: Tensor(t.array - TRAIN_LR * grads[n].array)
                    for n, t in params.tensors.items()
                },
                init_seed=params.init_seed,
            ),
        )

        vcfg, vparams = self.visual[inp["visual"]]
        vout = projectors.visual_project(vcfg, vparams, inp["x_visual"])
        vgrads, vg_x = projectors.visual_project_backward(vcfg, vparams, inp["x_visual"], vout)
        return batch, attention, [*grads.values(), g_x, *vgrads.values(), vg_x]

    def check(self, inp, out):
        batch, attention, gradients = out
        lengths = inp["lengths"]
        problems = _check_bins(batch.to_json()["bins"], dict(enumerate(lengths)), TRAIN_CAPACITY)
        # the shortest segment of the step against standalone causal attention
        b, k = min(
            ((b, k) for b, bin_ in enumerate(batch.bins) for k in range(len(bin_.sample_ids))),
            key=lambda bk: batch.bins[bk[0]].lengths()[bk[1]],
        )
        lo, hi = batch.bins[b].cu_seqlens[k], batch.bins[b].cu_seqlens[k + 1]
        expected = oracles.standalone_causal_attention(inp["tokens"][b].array[lo:hi])
        if not np.max(np.abs(attention[b].array[lo:hi] - expected)) <= 1e-10:
            problems.append("packed attention differs from standalone attention")
        if not all(np.isfinite(g.array).all() for g in gradients):
            problems.append("non-finite gradient")
        fills = [bin_.cu_seqlens[-1] for bin_ in batch.bins]
        stats = {
            "bins": len(batch.bins),
            "samples_per_bin": [len(bin_.sample_ids) for bin_ in batch.bins],
            "fill": sum(fills),
            "capacity": TRAIN_CAPACITY * len(batch.bins),
            "useful_cells": sum(L * L for L in lengths),
            "attention_cells": TRAIN_CAPACITY**2 * len(batch.bins),
        }
        return problems, stats

    def properties(self, stats):
        return {
            "bins_per_step_hist": _hist(s["bins"] for s in stats),
            "samples_per_bin_q": _quartiles([n for s in stats for n in s["samples_per_bin"]]),
        }


# ---------------------------------------------------------------------------
# curate: one 20k-sample shard through the CLI, plus the round-trip filter
# ---------------------------------------------------------------------------

SHARD_SAMPLES = 20000
SHARD_CAPACITY = 4096
SHARD_TEXTS = 2000
SHARD_DATASETS = 12
SHARD_CER_PAIRS = 50
SHARD_ROUNDTRIP_PAIRS = 25
ROUNDTRIP_THRESHOLD = 0.1
ORACLE_SAMPLE = 3


class Curate(Workload):
    name = "curate"
    cycle = 1
    item = "shard samples"

    def generate(self):
        self.vocab = _vocabulary(_rng(self.seed, 4))

    def prepare(self, i):
        rng = _rng(self.seed, 5, i)
        d = self.tmp / f"shard{i}"
        d.mkdir(exist_ok=True)
        lengths = {f"s{i}-{k}": int(v) for k, v in enumerate(rng.integers(16, 2049, SHARD_SAMPLES))}
        _write_jsonl(d / "manifest.jsonl", ({"id": k, "len": v} for k, v in lengths.items()))
        losses = rng.normal(2.0, 0.5, SHARD_SAMPLES)
        (d / "losses.csv").write_text(
            "id,loss\n" + "".join(f"{k},{v!r}\n" for k, v in zip(lengths, losses.tolist())),
            encoding="utf-8",
        )
        texts = [_sentence(rng, self.vocab, int(rng.integers(20, 81))) for _ in range(SHARD_TEXTS)]
        _write_jsonl(d / "texts.jsonl", ({"text": t} for t in texts))
        sizes = {f"ds{j:02d}": int(rng.integers(1000, 100001)) for j in range(SHARD_DATASETS)}
        (d / "sizes.json").write_text(json.dumps(sizes), encoding="utf-8")
        # reference lengths evenly spread over 50-300 characters, in seeded
        # order: every shard does about the same amount of DP work
        ref_lengths = rng.permutation(np.linspace(50, 300, SHARD_CER_PAIRS + SHARD_ROUNDTRIP_PAIRS).astype(int))
        pairs = []
        for n in ref_lengths[:SHARD_CER_PAIRS]:
            ref = _text_of_chars(rng, self.vocab, n)
            pairs.append({"ref": ref, "hyp": _corrupt(rng, ref, float(rng.uniform(0.02, 0.2)))})
        _write_jsonl(d / "pairs.jsonl", pairs)
        roundtrip = []
        for n in ref_lengths[SHARD_CER_PAIRS:]:
            prompt = _text_of_chars(rng, self.vocab, n)
            roundtrip.append((prompt, _corrupt(rng, prompt, float(rng.uniform(0.0, 0.2)))))
        budget = sum(sizes.values()) // 2
        outs = {k: d / f"out-{k}" for k in ("pack", "filter", "split", "mix", "cer")}
        argvs = [
            ["pack", "--manifest", str(d / "manifest.jsonl"), "--capacity", str(SHARD_CAPACITY), "--out", str(outs["pack"])],
            ["filter-loss", "--losses", str(d / "losses.csv"), "--out", str(outs["filter"])],
            ["split-crossmodal", "--input", str(d / "texts.jsonl"), "--seed", str(i), "--out", str(outs["split"])],
            ["mix", "--sizes", str(d / "sizes.json"), "--budget", str(budget), "--seed", str(i), "--out", str(outs["mix"])],
            ["metrics", "--metric", "cer", "--pairs", str(d / "pairs.jsonl"), "--out", str(outs["cer"])],
        ]
        return {
            "dir": d, "argvs": argvs, "outs": outs, "lengths": lengths, "losses": losses,
            "texts": texts, "budget": budget, "pairs": pairs, "roundtrip": roundtrip,
            "sample": [int(v) for v in rng.choice(SHARD_CER_PAIRS, ORACLE_SAMPLE, replace=False)],
        }

    def run(self, inp):
        codes = [cli.main(argv) for argv in inp["argvs"]]
        kept, removed = curation.asr_roundtrip_filter(
            inp["roundtrip"], mode="cer_threshold", threshold=ROUNDTRIP_THRESHOLD
        )
        return codes, kept, removed

    def items(self, inp):
        return SHARD_SAMPLES

    def check(self, inp, out):
        codes, kept, removed = out
        if any(codes):
            return [f"cli exit codes {codes}"], {}
        outs = inp["outs"]
        packed = json.loads(outs["pack"].read_text(encoding="utf-8"))
        problems = _check_bins(packed["bins"], inp["lengths"], SHARD_CAPACITY)

        report = json.loads(outs["filter"].read_text(encoding="utf-8"))
        n_kept = len(report["kept"])
        if n_kept + len(report["removed_low"]) + len(report["removed_high"]) != SHARD_SAMPLES:
            problems.append("filter-loss: kept + removed != samples")
        if not abs(report["mu"] - float(np.mean(inp["losses"]))) <= 1e-9:
            problems.append("filter-loss: mu is not the mean loss")

        split = _read_jsonl(outs["split"])
        if len(split) != len(inp["texts"]) or any(
            s["audio_text"] + s["target_text"] != t or not 0 <= s["timbre"] < curation.TIMBRE_COUNT
            for s, t in zip(split, inp["texts"])
        ):
            problems.append("split-crossmodal: parts do not rebuild the text")

        mix = json.loads(outs["mix"].read_text(encoding="utf-8"))
        if mix["budget"] != inp["budget"] or sum(x["count"] for x in mix["datasets"]) != inp["budget"]:
            problems.append("mix: counts do not add up to the budget")

        metrics = _read_jsonl(outs["cer"])
        if len(metrics) != SHARD_CER_PAIRS + 1 or metrics[-1]["aggregate"]["pairs"] != SHARD_CER_PAIRS:
            problems.append("metrics: wrong number of results")
        else:
            for k in inp["sample"]:
                c, pair = metrics[k]["counts"], inp["pairs"][k]
                if c["substitutions"] + c["deletions"] + c["insertions"] != oracles.edit_distance(
                    pair["ref"], pair["hyp"]
                ):
                    problems.append("metrics: S+D+I != edit distance")

        if len(kept) + len(removed) != SHARD_ROUNDTRIP_PAIRS:
            problems.append("roundtrip: kept + removed != pairs")
        kept_set = set(kept)
        for prompt, transcript in inp["roundtrip"][:ORACLE_SAMPLE]:
            ref = curation.normalize_transcript(prompt)
            hyp = curation.normalize_transcript(transcript)
            ok = oracles.edit_distance(ref, hyp) / len(ref) <= ROUNDTRIP_THRESHOLD
            if ok != ((prompt, transcript) in kept_set):
                problems.append("roundtrip: keep decision disagrees with edit distance")

        digests = {k: _digest(p) for k, p in outs.items()}
        stats = {
            "bins": len(packed["bins"]),
            "samples_per_bin": [len(b["samples"]) for b in packed["bins"]],
            "fill": sum(b["cu_seqlens"][-1] for b in packed["bins"]),
            "capacity": SHARD_CAPACITY * len(packed["bins"]),
            "kept": n_kept,
            "filtered": SHARD_SAMPLES,
            "bytes_out": sum(p.stat().st_size for p in outs.values()),
            "pair_chars": [len(p["ref"]) for p in inp["pairs"]] + [len(p) for p, _ in inp["roundtrip"]],
            "digests": digests,
        }
        for path in inp["dir"].iterdir():
            path.unlink()
        inp["dir"].rmdir()
        return problems, stats

    def properties(self, stats):
        return {
            "bins_per_shard": [s["bins"] for s in stats],
            "samples_per_bin_q": _quartiles([n for s in stats for n in s["samples_per_bin"]]),
            "pair_chars_q": _quartiles([n for s in stats for n in s["pair_chars"]]),
        }


# ---------------------------------------------------------------------------
# evaluate: one CLI call from a seeded, fixed-composition mix
# ---------------------------------------------------------------------------

# Nineteen calls per cycle: a gradient check of every projector and twelve
# short-pair metrics. The counts place each percentile inside one cost class,
# not on a boundary between two: the median among the wer/bleu calls, the
# 90th percentile among the conv_gmlp rate-2 checks.
EVAL_MIX = (
    ("gradcheck", "mlp", None),
    ("gradcheck", "c_abs", None),
    ("gradcheck", "concat", None),
    ("gradcheck", "mean_pool", None),
    ("gradcheck", "conv_gmlp", 2),
    ("gradcheck", "conv_gmlp", 2),
    ("gradcheck", "conv_gmlp", 4),
) + (("metrics", "wer", None), ("metrics", "bleu", None)) * 6
EVAL_PAIRS = 100


class Evaluate(Workload):
    name = "evaluate"
    cycle = len(EVAL_MIX)
    item = "CLI calls"

    def generate(self):
        self.vocab = _vocabulary(_rng(self.seed, 6))
        self.first_digest: dict[str, str] = {}

    def prepare(self, i):
        cycle, pos = divmod(i, self.cycle)
        order = _rng(self.seed, 7, cycle).permutation(self.cycle)
        command, what, rate = EVAL_MIX[int(order[pos])]
        rng = _rng(self.seed, 8, i)
        out = self.tmp / f"eval{i}.out"
        inp = {"command": command, "what": what, "out": out, "kind": f"{command}:{what}" + (f":{rate}" if rate else "")}
        if command == "gradcheck":
            # the CLI's default base seed, as a user runs it
            inp["argv"] = ["gradcheck", "--projector", what, "--seeds", "1", "--out", str(out)]
            if rate:
                inp["argv"] += ["--rate", str(rate)]
        else:
            pairs = []
            for _ in range(EVAL_PAIRS):
                ref = _sentence(rng, self.vocab, int(rng.integers(5, 31)))
                pairs.append({"ref": ref, "hyp": _corrupt_words(rng, ref, float(rng.uniform(0.0, 0.3)))})
            path = self.tmp / f"eval{i}.jsonl"
            _write_jsonl(path, pairs)
            inp["pairs"], inp["pairs_path"] = pairs, path
            inp["sample"] = [int(v) for v in rng.choice(EVAL_PAIRS, ORACLE_SAMPLE, replace=False)]
            inp["argv"] = ["metrics", "--metric", what, "--pairs", str(path), "--out", str(out)]
        return inp

    def run(self, inp):
        return cli.main(inp["argv"])

    def check(self, inp, out):
        problems = []
        if out != 0:
            problems.append(f"{inp['kind']}: exit code {out}")
        elif inp["command"] == "gradcheck":
            payload = json.loads(inp["out"].read_text(encoding="utf-8"))
            if payload["passed"] is not True or payload["seeds"] != 1:
                problems.append(f"{inp['kind']}: gradient check did not pass")
        else:
            lines = _read_jsonl(inp["out"])
            if len(lines) != EVAL_PAIRS + 1:
                problems.append(f"{inp['kind']}: wrong number of results")
            elif inp["what"] == "wer":
                for k in inp["sample"]:
                    c, pair = lines[k]["counts"], inp["pairs"][k]
                    expected = oracles.edit_distance(
                        evalkit.tokenize_words(pair["ref"]), evalkit.tokenize_words(pair["hyp"])
                    )
                    if c["substitutions"] + c["deletions"] + c["insertions"] != expected:
                        problems.append("wer: S+D+I != edit distance")
            elif not all(0.0 <= r["value"] <= 1.0 for r in lines[:-1]):
                problems.append("bleu: score outside [0, 1]")
        stats = {"kind": inp["kind"]}
        if inp["out"].exists():
            stats["bytes_out"] = inp["out"].stat().st_size
            stats["digests"] = {"out": _digest(inp["out"])}
            inp["out"].unlink()
            if inp["command"] == "gradcheck":
                # same arguments every cycle, so the payload must repeat byte for byte
                first = self.first_digest.setdefault(inp["kind"], stats["digests"]["out"])
                if first != stats["digests"]["out"]:
                    problems.append(f"{inp['kind']}: payload differs from an earlier identical call")
        if "pairs" in inp:
            stats["pair_words"] = [len(p["ref"].split()) for p in inp["pairs"]]
            inp["pairs_path"].unlink()
        return problems, stats

    def properties(self, stats):
        return {
            "op_kinds": _hist(s["kind"] for s in stats),
            "pair_words_q": _quartiles([n for s in stats for n in s.get("pair_words", [])]),
        }


WORKLOADS = {w.name: w for w in (Ingest, Train, Curate, Evaluate)}
