"""CLI contract: subcommand behaviour, exit codes, config precedence."""

import ast
import json
import os
import sys
import time
import warnings
import wave
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from omnipipe import evalkit, stream
from omnipipe.errors import ContractError, FormatError, ProtocolError
from omnipipe.fileio import json_value
from omnipipe.cli import _COMMANDS, _jsonl, build_parser, main

SUBCOMMANDS = [
    "tile",
    "frames",
    "melspec",
    "gradcheck",
    "ablate-rates",
    "pack",
    "stream-sim",
    "filter-loss",
    "split-crossmodal",
    "mix",
    "metrics",
    "normalize-scores",
]


def _write_wav(path, seconds=1.0, freq=440.0):
    t = np.arange(int(16000 * seconds)) / 16000
    payload = (20000 * np.sin(2 * np.pi * freq * t)).astype("<i2")
    with wave.open(str(path), "wb") as w:
        w.setnchannels(1)
        w.setsampwidth(2)
        w.setframerate(16000)
        w.writeframes(payload.tobytes())


def _write_wav_with_fmt_size(path, size):
    """A valid tone WAV whose fmt chunk declares ``size`` bytes (bytes 16-19)."""
    _write_wav(path)
    data = bytearray(Path(path).read_bytes())
    data[16:20] = size.to_bytes(4, "little")
    Path(path).write_bytes(data)


class TestExitCodes:
    def test_tile_success(self, capsys):
        assert main(["tile", "--width", "384", "--height", "384"]) == 0
        assert json.loads(capsys.readouterr().out) == {
            "grid": [1, 1],
            "global": False,
            "tokens": 182,
        }

    def test_tile_huge_width_returns_at_once(self, capsys):
        start = time.perf_counter()
        assert main(["tile", "--width", "1000000000000000", "--height", "1"]) == 0
        assert time.perf_counter() - start < 1.0
        assert json.loads(capsys.readouterr().out)["grid"] == [1, 9]

    def test_contract_error_is_exit_1(self, capsys):
        assert main(["tile", "--width", "0", "--height", "384"]) == 1
        assert "error" in capsys.readouterr().err

    def test_unsupported_rate_is_exit_1(self, capsys):
        assert main(["gradcheck", "--projector", "conv_gmlp", "--rate", "16"]) == 1
        assert "unsupported rate" in capsys.readouterr().err

    def test_gradcheck_zero_seeds_is_exit_1(self, capsys):
        assert main(["gradcheck", "--projector", "mlp", "--seeds", "0"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: --seeds must be >= 1, got 0\n"

    def test_unknown_subcommand_is_exit_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_missing_required_flag_is_exit_1(self, capsys):
        assert main(["tile", "--width", "384"]) == 1
        assert "--height" in capsys.readouterr().err

    @pytest.mark.parametrize("name", SUBCOMMANDS)
    def test_help_lists_flags_with_defaults(self, name, capsys):
        with pytest.raises(SystemExit) as exc:
            main([name, "--help"])
        assert exc.value.code == 0
        text = capsys.readouterr().out
        assert "default:" in text
        assert "--config" in text
        assert "--dump-config" in text

    def test_parser_knows_every_subcommand(self):
        parser = build_parser()
        actions = [a for a in parser._actions if hasattr(a, "choices") and a.choices]
        registered = set(actions[0].choices)
        assert registered == set(SUBCOMMANDS)


class TestConfigPrecedence:
    def test_config_file_overrides_defaults(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"width": 768, "height": 768}))
        assert main(["tile", "--config", str(cfg)]) == 0
        assert json.loads(capsys.readouterr().out)["tokens"] == 910

    def test_flags_override_config_file(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"width": 768, "height": 768}))
        assert main(["tile", "--config", str(cfg), "--width", "384", "--height", "384"]) == 0
        assert json.loads(capsys.readouterr().out)["tokens"] == 182

    def test_unknown_config_key_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"sideways": 1}))
        assert main(["tile", "--config", str(cfg)]) == 1

    def test_dump_config(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"width": 500}))
        assert main(["tile", "--config", str(cfg), "--height", "400", "--dump-config"]) == 0
        dumped = json.loads(capsys.readouterr().out)
        assert dumped["command"] == "tile"
        assert dumped["width"] == 500
        assert dumped["height"] == 400
        assert dumped["max_tiles"] == 9

    @pytest.mark.parametrize("name", SUBCOMMANDS)
    def test_dump_config_needs_no_required_flag(self, name, capsys):
        assert main([name, "--dump-config"]) == 0
        assert json.loads(capsys.readouterr().out)["command"] == name


class TestSubcommandBehaviour:
    def test_frames_defaults(self, capsys):
        assert main(["frames", "--duration", "2", "--source-frames", "60"]) == 0
        plan = json.loads(capsys.readouterr().out)
        assert plan == {"frames": [0, 30], "per_frame_tokens": 182}

    def test_frames_tall_frame_budget(self, capsys):
        args = ["frames", "--duration", "1", "--source-frames", "30",
                "--frame-width", "384", "--frame-height", "768"]
        assert main(args) == 0
        assert json.loads(capsys.readouterr().out)["per_frame_tokens"] == 546

    def test_pack_hand_case(self, tmp_path, capsys):
        manifest = tmp_path / "lens.jsonl"
        manifest.write_text(
            '{"id": "s0", "len": 3}\n{"id": "s1", "len": 5}\n{"id": "s2", "len": 2}\n'
        )
        assert main(["pack", "--capacity", "8", "--manifest", str(manifest)]) == 0
        batch = json.loads(capsys.readouterr().out)
        assert batch == {
            "capacity": 8,
            "bins": [
                {"samples": ["s0", "s1"], "cu_seqlens": [0, 3, 8], "pad": 0},
                {"samples": ["s2"], "cu_seqlens": [0, 2], "pad": 6},
            ],
        }

    def test_gradcheck_passes_small(self, capsys):
        assert main(["gradcheck", "--projector", "mlp", "--seeds", "1"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["passed"] is True

    def test_ablate_rates_csv(self, tmp_path):
        out = tmp_path / "table.csv"
        args = ["ablate-rates", "--rates", "2,4", "--steps", "3", "--channels", "8",
                "--llm-dim", "4", "--length", "32", "--out", str(out)]
        assert main(args) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "rate,len_ratio,params,final_loss"
        assert len(lines) == 3

    def test_melspec_summary_and_tensor(self, tmp_path, capsys):
        wav = tmp_path / "tone.wav"
        _write_wav(wav)
        out = tmp_path / "mel.json"
        assert main(["melspec", "--wav", str(wav), "--out", str(out)]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["frames"] == 3000 and summary["bins"] == 128
        tensor = json.loads(out.read_text())
        assert tensor["shape"] == [3000, 128]

    def test_stream_sim_from_events(self, tmp_path, capsys):
        events = tmp_path / "events.jsonl"
        events.write_text(
            '{"t": 0, "kind": "audio_start"}\n'
            '{"t": 100, "kind": "video_frame", "tokens": 182}\n'
            '{"t": 150, "kind": "audio_frame", "tokens": 50}\n'
            '{"t": 300, "kind": "audio_end"}\n'
        )
        assert main(["stream-sim", "--events", str(events)]) == 0
        lines = [json.loads(l) for l in capsys.readouterr().out.splitlines()]
        assert lines == [
            {"t": 100, "modality": "video", "tokens": 182, "trigger_inference": False},
            {"t": 300, "modality": "audio", "tokens": 50, "trigger_inference": True},
        ]

    def test_stream_sim_replays_serialized_events(self, tmp_path, capsys):
        events = [stream.StreamEvent(0, "audio_start"), stream.StreamEvent(5, "audio_frame", 3),
                  stream.StreamEvent(9, "audio_end"), stream.StreamEvent(9, "text", 4)]
        path = tmp_path / "events.jsonl"
        path.write_text("".join(
            json.dumps({"t": e.timestamp_ms, "kind": e.kind, "tokens": e.payload_tokens}) + "\n"
            for e in events))
        assert main(["stream-sim", "--events", str(path)]) == 0
        assert capsys.readouterr().out == _jsonl(e.to_json() for e in stream.run(events).entries)

    def test_stream_sim_from_wav(self, tmp_path, capsys):
        wav = tmp_path / "tone.wav"
        _write_wav(wav, seconds=2.0)
        plan = tmp_path / "plan.json"
        plan.write_text(json.dumps({"frames": [0, 30], "per_frame_tokens": 182}))
        assert main(["stream-sim", "--wav", str(wav), "--frame-plan", str(plan)]) == 0
        lines = [json.loads(l) for l in capsys.readouterr().out.splitlines()]
        modalities = {l["modality"] for l in lines}
        assert "video" in modalities and "audio" in modalities
        audio = [l for l in lines if l["modality"] == "audio"]
        assert all(l["trigger_inference"] for l in audio)

    def test_stream_sim_needs_exactly_one_source(self, tmp_path, capsys):
        assert main(["stream-sim"]) == 1

    def test_filter_loss(self, tmp_path, capsys):
        losses = tmp_path / "losses.csv"
        losses.write_text("id,loss\na,1\nb,2\nc,3\nd,4\ne,5\n")
        assert main(["filter-loss", "--losses", str(losses)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["kept"] == ["b", "c", "d"]
        assert report["mu"] == 3.0

    @pytest.mark.parametrize("losses, mu, sigma", [
        ("1e200\n-1e200\n0", 0.0, 8.16496580927726e199),
        ("1\n1e308\n1e308", 6.666666666666666e307, 4.714045207910317e307),
    ], ids=["spread", "widest"])
    def test_filter_loss_statistics_of_huge_losses(self, tmp_path, capsys, losses, mu, sigma):
        path = tmp_path / "losses.csv"
        path.write_text("id,loss\n" + "".join(
            f"{k},{v}\n" for k, v in zip("abc", losses.split())))
        assert main(["filter-loss", "--losses", str(path)]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        report = json.loads(captured.out)
        assert report["mu"] == mu
        assert report["sigma"] == pytest.approx(sigma, rel=1e-15)

    def test_split_crossmodal(self, tmp_path, capsys):
        texts = tmp_path / "texts.jsonl"
        texts.write_text(json.dumps({"text": "one two three four five six"}) + "\n")
        assert main(["split-crossmodal", "--input", str(texts), "--seed", "3"]) == 0
        record = json.loads(capsys.readouterr().out)
        assert record["audio_text"] + record["target_text"] == "one two three four five six"
        assert 0 <= record["timbre"] < 44
        assert record["prompt"].startswith("Please listen to the following audio")

    def test_mix(self, tmp_path, capsys):
        sizes = tmp_path / "sizes.json"
        sizes.write_text(json.dumps({"A": 100, "B": 300}))
        assert main(["mix", "--sizes", str(sizes), "--budget", "40"]) == 0
        plan = json.loads(capsys.readouterr().out)
        assert plan["datasets"] == [
            {"name": "A", "size": 100, "count": 10},
            {"name": "B", "size": 300, "count": 30},
        ]

    def test_metrics_wer(self, tmp_path, capsys):
        pairs = tmp_path / "pairs.jsonl"
        pairs.write_text(
            json.dumps({"ref": "hello world", "hyp": "hello word"}) + "\n"
            + json.dumps({"ref": "a b", "hyp": "a b"}) + "\n"
        )
        assert main(["metrics", "--metric", "wer", "--pairs", str(pairs)]) == 0
        lines = [json.loads(l) for l in capsys.readouterr().out.splitlines()]
        assert lines[0]["value"] == 0.5
        assert lines[-1]["aggregate"]["corpus_value"] == 0.25

    def test_normalize_scores(self, tmp_path, capsys):
        scores = tmp_path / "scores.csv"
        scores.write_text("model,benchmark,raw\nm1,b,50\nm2,b,70\nm3,b,90\n")
        assert main(["normalize-scores", "--scores", str(scores)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "model,benchmark,raw,normalized"
        m2 = [l for l in lines if l.startswith("m2")][0]
        assert m2.endswith("0.6")

    @pytest.mark.parametrize("argv, text, message", [
        (["filter-loss", "--losses"], "id,loss\na,1\nb,2\na,100\nc,3\n",
         "4: duplicate id 'a', first on line 2"),
        (["normalize-scores", "--scores"], "model,benchmark,raw\nm1,b,50\nm2,b,70\n\nm1,b,90\n",
         "5: duplicate model,benchmark 'm1,b', first on line 2"),
    ])
    def test_repeated_key_names_both_lines(self, tmp_path, capsys, argv, text, message):
        table = tmp_path / "table.csv"
        table.write_text(text)
        assert main([*argv, str(table)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {table}:{message}\n"

    def test_out_files_are_byte_identical_across_runs(self, tmp_path):
        out1 = tmp_path / "a.json"
        out2 = tmp_path / "b.json"
        for out in (out1, out2):
            assert main(["tile", "--width", "1000", "--height", "700", "--out", str(out)]) == 0
        assert out1.read_bytes() == out2.read_bytes()


HUGE = 10**400

# Each case: argv (with {NAME} standing for a file written from FILES, or for
# the fixtures {wav} and {sizes}, which are valid, and {bad_fmt_wav}, {wav}
# with its fmt chunk size set to 18), the files, the expected exit code, and
# for reader errors the failing line.
MALFORMED = {
    "pack len not a number": (
        ["pack", "--capacity", "8", "--manifest", "{m}"], {"m": '{"id": "a", "len": "abc"}\n'}, 1, 1),
    "pack len not integral": (
        ["pack", "--capacity", "8", "--manifest", "{m}"],
        {"m": '{"id": "a", "len": 3}\n{"id": "b", "len": 3.7}\n'}, 1, 2),
    "pack len missing": (
        ["pack", "--capacity", "8", "--manifest", "{m}"], {"m": '{"id": "a"}\n'}, 1, 1),
    "pack line not an object": (
        ["pack", "--capacity", "8", "--manifest", "{m}"], {"m": "\n[1, 2]\n"}, 1, 2),
    "tile config width not a number": (
        ["tile", "--config", "{c}"], {"c": '{"width": "abc", "height": 3}'}, 1, None),
    "tile config out not a string": (
        ["tile", "--width", "3", "--height", "3", "--config", "{c}"], {"c": '{"out": 5}'}, 1, None),
    "tile config unknown key": (["tile", "--config", "{c}"], {"c": '{"bogus": 1}'}, 1, None),
    "tile config max_tiles not integral": (
        ["tile", "--width", "3", "--height", "3", "--config", "{c}"], {"c": '{"max_tiles": 2.5}'},
        1, None),
    "frames duration inf": (["frames", "--duration", "inf", "--source-frames", "3"], {}, 2, None),
    "frames config duration inf": (
        ["frames", "--source-frames", "3", "--config", "{c}"], {"c": '{"duration": Infinity}'},
        1, None),
    "melspec config wav not a string": (["melspec", "--config", "{c}"], {"c": '{"wav": 5}'}, 1, None),
    "melspec wav not a wav file": (["melspec", "--wav", "{w}"], {"w": "hello"}, 1, None),
    "melspec wav fmt chunk size wrong": (["melspec", "--wav", "{bad_fmt_wav}"], {}, 1, None),
    "gradcheck config seeds bool": (
        ["gradcheck", "--projector", "mlp", "--config", "{c}"], {"c": '{"seeds": true}'}, 1, None),
    "gradcheck probe overflows": (
        ["gradcheck", "--projector", "mlp", "--seeds", "1", "--eps", "1e300"], {}, 1, None),
    "gradcheck probe does not move a parameter": (
        ["gradcheck", "--projector", "mlp", "--seeds", "1", "--eps", "1e-320"], {}, 1, None),
    "gradcheck negative seed": (
        ["gradcheck", "--projector", "mlp", "--seeds", "1", "--seed", "-1"], {}, 1, None),
    "ablate-rates rates not integers": (["ablate-rates", "--rates", "a"], {}, 1, None),
    "ablate-rates empty rate item": (["ablate-rates", "--rates", "2,,4"], {}, 1, None),
    "ablate-rates negative seed": (
        ["ablate-rates", "--rates", "2", "--steps", "1", "--seed", "-1"], {}, 1, None),
    "ablate-rates negative lr": (
        ["ablate-rates", "--rates", "2", "--steps", "1", "--lr", "-1"], {}, 1, None),
    # sizes past memory fail at their first allocation (hundreds of PiB);
    # sizes past what numpy can address fail before it
    "ablate-rates length past memory": (
        ["ablate-rates", "--rates", "2", "--steps", "1", "--length", str(10**15)], {}, 1, None),
    "ablate-rates channels past memory": (
        ["ablate-rates", "--rates", "2", "--steps", "1", "--channels", str(10**15)], {}, 1, None),
    "ablate-rates llm-dim past memory": (
        ["ablate-rates", "--rates", "2", "--steps", "1", "--llm-dim", str(10**15)], {}, 1, None),
    "ablate-rates length past addressable memory": (
        ["ablate-rates", "--rates", "2", "--steps", "1", "--length", str(10**17)], {}, 1, None),
    "ablate-rates channels past addressable memory": (
        ["ablate-rates", "--rates", "2", "--steps", "1", "--channels", str(2**63 - 1)], {}, 1, None),
    "stream-sim event t not a number": (
        ["stream-sim", "--events", "{e}"], {"e": '{"t": "x", "kind": "text"}\n'}, 1, 1),
    "stream-sim event tokens not integral": (
        ["stream-sim", "--events", "{e}"], {"e": '{"t": 0, "kind": "text", "tokens": 1.7}\n'},
        1, 1),
    "stream-sim event kind unknown": (
        ["stream-sim", "--events", "{e}"], {"e": '{"t": 0, "kind": "bogus"}\n'}, 1, 1),
    "stream-sim event tokens negative after a blank line": (
        ["stream-sim", "--events", "{e}"], {"e": '\n{"t": 0, "kind": "text", "tokens": -1}\n'},
        1, 2),
    "stream-sim negative event time on line 2": (
        ["stream-sim", "--events", "{e}"], {"e": '\n{"t": -5, "kind": "text", "tokens": 2}\n'},
        1, 2),
    "stream-sim audio_start with tokens": (
        ["stream-sim", "--events", "{e}"],
        {"e": '{"t": 0, "kind": "text"}\n\n{"t": 5, "kind": "audio_start", "tokens": 3}\n'},
        1, 3),
    "stream-sim audio_end with no open segment on line 2": (
        ["stream-sim", "--events", "{e}"],
        {"e": '{"t": 0, "kind": "text", "tokens": 1}\n{"t": 5, "kind": "audio_end"}\n'}, 1, 2),
    "stream-sim time regression on line 3 after a blank line": (
        ["stream-sim", "--events", "{e}"],
        {"e": '{"t": 10, "kind": "text"}\n\n{"t": 5, "kind": "image", "tokens": 2}\n'}, 1, 3),
    "stream-sim trace ends inside an audio segment": (
        ["stream-sim", "--events", "{e}"],
        {"e": '{"t": 0, "kind": "audio_start"}\n{"t": 5, "kind": "audio_frame", "tokens": 2}\n'},
        1, None),
    "stream-sim wav at rate 3": (["stream-sim", "--wav", "{wav}", "--rate", "3"], {}, 1, None),
    "stream-sim wav fmt chunk size wrong": (
        ["stream-sim", "--wav", "{bad_fmt_wav}"], {}, 1, None),
    "stream-sim frame plan without per_frame_tokens": (
        ["stream-sim", "--wav", "{wav}", "--frame-plan", "{p}"], {"p": '{"frames": [0, 30]}'},
        1, None),
    "stream-sim frame plan without a wav": (
        ["stream-sim", "--events", os.devnull, "--frame-plan", "no-such-plan.json"], {}, 1, None),
    "stream-sim frame plan frames not a list": (
        ["stream-sim", "--wav", "{wav}", "--frame-plan", "{p}"],
        {"p": '{"frames": "ab", "per_frame_tokens": 182}'}, 1, None),
    "filter-loss loss not finite": (
        ["filter-loss", "--losses", "{l}"], {"l": "id,loss\na,1\nb,inf\n"}, 1, 3),
    "filter-loss duplicate id": (
        ["filter-loss", "--losses", "{l}"], {"l": "id,loss\na,1\nb,2\na,100\nc,3\n"}, 1, 4),
    "split-crossmodal text not a string": (
        ["split-crossmodal", "--input", "{i}"], {"i": '{"text": 5}\n'}, 1, 1),
    "split-crossmodal short text on line 2": (
        ["split-crossmodal", "--input", "{i}"],
        {"i": '{"text": "one two three four"}\n{"text": "too short"}\n'}, 1, 2),
    "split-crossmodal negative seed": (
        ["split-crossmodal", "--input", os.devnull, "--seed", "-1"], {}, 1, None),
    "mix size not a number": (["mix", "--budget", "1", "--sizes", "{s}"], {"s": '{"a": "x"}'}, 1, None),
    "mix size not integral": (["mix", "--budget", "1", "--sizes", "{s}"], {"s": '{"a": 1.5}'}, 1, None),
    "mix size past int64": (
        ["mix", "--budget", "1", "--sizes", "{s}"], {"s": f'{{"a": {HUGE}, "b": 1}}'}, 1,
        None),
    "mix size not positive": (
        ["mix", "--budget", "1", "--sizes", "{s}"], {"s": '{"a": -1, "b": 2}'}, 1, None),
    "mix sizes empty": (["mix", "--budget", "1", "--sizes", "{s}"], {"s": "{}"}, 1, None),
    "mix negative seed": (["mix", "--budget", "1", "--seed", "-1", "--sizes", "{sizes}"], {}, 1, None),
    "mix negative budget": (["mix", "--budget", "-1", "--sizes", "{sizes}"], {}, 1, None),
    "mix budget exceeds the pool": (["mix", "--budget", "3", "--sizes", "{s}"], {"s": '{"a": 2}'}, 1, None),
    "metrics ref not a string": (
        ["metrics", "--metric", "wer", "--pairs", "{p}"], {"p": '{"ref": 5, "hyp": "a"}\n'}, 1, 1),
    "metrics cer empty ref on line 2": (
        ["metrics", "--metric", "cer", "--pairs", "{p}"],
        {"p": '{"ref": "a", "hyp": "a"}\n{"ref": "", "hyp": "x"}\n'}, 1, 2),
    "metrics wer blank ref on line 2": (
        ["metrics", "--metric", "wer", "--pairs", "{p}"],
        {"p": '{"ref": "a", "hyp": "a"}\n{"ref": "  ", "hyp": "x"}\n'}, 1, 2),
    "metrics no pairs": (["metrics", "--metric", "wer", "--pairs", "{p}"], {"p": "\n\n"}, 1, None),
    "metrics config metric not a choice": (
        ["metrics", "--pairs", "{p}", "--config", "{c}"],
        {"p": '{"ref": "a", "hyp": "a"}\n', "c": '{"metric": "ter"}'}, 1, None),
    "normalize-scores raw nan": (
        ["normalize-scores", "--scores", "{s}"], {"s": "model,benchmark,raw\nm,b,nan\n"}, 1, 2),
    "normalize-scores range overflows": (
        ["normalize-scores", "--scores", "{s}", "--format", "json"],
        {"s": "model,benchmark,raw\nm1,b,1e308\nm2,b,-1e308\n"}, 1, None),
    "normalize-scores duplicate model and benchmark": (
        ["normalize-scores", "--scores", "{s}"],
        {"s": "model,benchmark,raw\nm1,b,50\nm2,b,70\nm1,b,90\n"}, 1, 4),
}


@pytest.mark.parametrize("case", MALFORMED)
def test_malformed_input_is_one_error_line(case, tmp_path, capsys):
    argv, files, code, line = MALFORMED[case]
    paths = {
        "wav": str(tmp_path / "tone.wav"),
        "sizes": str(tmp_path / "sizes.json"),
        "bad_fmt_wav": str(tmp_path / "bad_fmt.wav"),
    }
    _write_wav(paths["wav"])
    _write_wav_with_fmt_size(paths["bad_fmt_wav"], 18)
    (tmp_path / "sizes.json").write_text('{"a": 2}')
    for key, text in files.items():
        paths[key] = str(tmp_path / f"{key}.in")
        (tmp_path / f"{key}.in").write_text(text)
    argv = [a.format(**paths) for a in argv]
    if code == 2:
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err.splitlines()
        assert err[0].startswith("usage: omnipipe ")
        assert [e for e in err if "error:" in e] == [err[-1]]
        return
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    assert "Traceback" not in captured.err and "()" not in err[0]
    if files:
        (named,) = [p for k, p in paths.items() if k in files and p in err[0]]
        if line is not None:
            assert err[0].startswith(f"error: {named}:{line}: ")


@pytest.mark.parametrize("command", ["melspec", "stream-sim"])
def test_wav_ending_mid_sample_is_one_error_line(command, tmp_path, capsys):
    path = tmp_path / "cut.wav"
    _write_wav(path)
    path.write_bytes(path.read_bytes()[:-1])
    assert main([command, "--wav", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: truncated WAV file: {path} (its data ends mid-sample)\n"


@pytest.mark.parametrize("size", [17, 18, 32, 113])
@pytest.mark.parametrize("command", ["melspec", "stream-sim"])
def test_wav_with_a_wrong_fmt_chunk_size_is_one_error_line(command, size, tmp_path, capsys):
    path = tmp_path / "bad_fmt.wav"
    _write_wav_with_fmt_size(path, size)
    assert main([command, "--wav", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"error: not a readable WAV file: {path} "
        "(a chunk runs past the end of the RIFF chunk)\n"
    )


@pytest.mark.parametrize("command", ["melspec", "stream-sim"])
def test_wav_shorter_than_its_header_is_one_error_line(command, tmp_path, capsys):
    path = tmp_path / "cut.wav"
    _write_wav(path)
    path.write_bytes(path.read_bytes()[:-2])
    assert main([command, "--wav", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"error: truncated WAV file: {path} "
        "(its header declares 16000 samples, its data holds 15999)\n"
    )


def _equivalent_int(value):
    if type(value) is float and np.isfinite(value) and value.is_integer():
        value = int(value)
    if type(value) is int and -(2**63) <= value < 2**63:
        return value
    return None


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.one_of(st.none(), st.booleans(), st.integers(), st.floats(), st.text(max_size=5)))
def test_pack_len_is_an_integer_or_an_error(tmp_path, capsys, value):
    manifest = tmp_path / "m.jsonl"
    argv = ["pack", "--capacity", "8", "--manifest", str(manifest)]

    def run(length):
        manifest.write_text(json.dumps({"id": "a", "len": length}) + '\n{"id": "b", "len": 3}\n')
        code = main(argv)
        return code, capsys.readouterr()

    code, captured = run(value)
    expected = _equivalent_int(value)
    if expected is None:
        assert code == 1 and captured.out == ""
        assert len(captured.err.splitlines()) == 1
    else:
        assert (code, captured) == run(expected)


@st.composite
def _event_lines(draw):
    """Lines of an event trace: events (t mostly growing), blank lines,
    malformed lines and values of the wrong type, in any order."""
    lines, t = [], 0
    for _ in range(draw(st.integers(0, 12))):
        shape = draw(st.sampled_from(["event"] * 6 + ["no tokens", "blank", "malformed", "bad type"]))
        t += draw(st.integers(-5, 40))
        kind = draw(st.sampled_from(stream.EVENT_KINDS + ("bogus",)))
        tokens = draw(st.sampled_from([0, 0, 0, 3, 17, -1]))
        lines.append({
            "event": lambda: json.dumps({"t": t, "kind": kind, "tokens": tokens}),
            "no tokens": lambda: json.dumps({"kind": kind, "t": t}),
            "blank": lambda: draw(st.sampled_from(["", "  ", "\t"])),
            "malformed": lambda: draw(st.sampled_from(["{", "[1, 2]", '{"t": 1,', "null"])),
            "bad type": lambda: json.dumps(
                {"t": draw(st.sampled_from([t, "5", 1.5, True, None])),
                 "kind": draw(st.sampled_from([kind, 3, None])),
                 "tokens": draw(st.sampled_from([tokens, "2", 0.5, False]))}),
        }[shape]())
    return lines


def _replay_events(lines):
    """The first line a line-by-line ``stream.step`` replay rejects (None if
    none) and the events before it."""
    state, events = stream.SchedulerState(), []
    for n, text in enumerate(lines, 1):
        if not text.strip():
            continue
        try:
            obj = json.loads(text)
        except ValueError:
            return n, events
        if not (isinstance(obj, dict) and type(obj.get("t")) is int
                and type(obj.get("kind")) is str and type(obj.get("tokens", 0)) is int):
            return n, events
        try:
            event = stream.StreamEvent(obj["t"], obj["kind"], obj.get("tokens", 0))
            state, _ = stream.step(state, event)
        except ContractError:
            return n, events
        events.append(event)
    return None, events


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(_event_lines())
@example(['{"t": 0, "kind": "audio_start"}', "", '{"t": 4, "kind": "image", "tokens": 9}',
          '{"t": 5, "kind": "audio_frame", "tokens": 2}', '{"t": 5, "kind": "audio_end"}'])
@example(['{"t": 0, "kind": "text", "tokens": 1}', '{"t": 3, "kind": "audio_start"}', " "])
def test_stream_sim_names_the_first_line_a_replay_rejects(tmp_path, capsys, lines):
    path = tmp_path / "events.jsonl"
    path.write_text("".join(line + "\n" for line in lines))
    code = main(["stream-sim", "--events", str(path)])
    captured = capsys.readouterr()
    bad_line, events = _replay_events(lines)
    if bad_line is not None:
        assert (code, captured.out, len(captured.err.splitlines())) == (1, "", 1)
        assert captured.err.startswith(f"error: {path}:{bad_line}: ")
        return
    try:
        trace = stream.run(events)
    except ProtocolError:
        assert (code, captured.out) == (1, "")
        assert captured.err == (
            f"error: {path}: event trace ends inside an unterminated audio segment\n")
        return
    assert (code, captured.err, captured.out) == (0, "", _jsonl(e.to_json() for e in trace.entries))


@st.composite
def _pair_lines(draw):
    """Lines of a pairs file: pairs whose reference a metric may reject,
    blank lines, malformed lines and values of the wrong type."""
    texts = st.sampled_from(["", " ", "a", "a b", "b c d", "Hello, world."])
    lines = []
    for _ in range(draw(st.integers(0, 6))):
        shape = draw(st.sampled_from(["pair"] * 4 + ["blank", "malformed", "bad type"]))
        lines.append({
            "pair": lambda: json.dumps({"ref": draw(texts), "hyp": draw(texts)}),
            "blank": lambda: "",
            "malformed": lambda: '{"ref": "a"',
            "bad type": lambda: json.dumps({"ref": draw(st.sampled_from([1, None])), "hyp": "a"}),
        }[shape]())
    return lines


@settings(max_examples=80, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(_pair_lines(), st.sampled_from(["wer", "cer"]))
def test_metrics_names_the_first_line_its_reader_or_metric_rejects(tmp_path, capsys, lines,
                                                                    metric):
    path = tmp_path / "pairs.jsonl"
    path.write_text("".join(line + "\n" for line in lines))
    code = main(["metrics", "--metric", metric, "--pairs", str(path)])
    captured = capsys.readouterr()
    bad_line, pairs = _replay_pairs(lines, metric)
    if bad_line is not None:
        assert (code, captured.out, len(captured.err.splitlines())) == (1, "", 1)
        assert captured.err.startswith(f"error: {path}:{bad_line}: ")
    elif pairs == 0:
        assert (code, captured.out) == (1, "")
        assert captured.err == f"error: {path}: no ref/hyp pairs\n"
    else:
        assert (code, captured.err) == (0, "")
        assert json.loads(captured.out.splitlines()[-1])["aggregate"]["pairs"] == pairs


def _replay_pairs(lines, metric):
    """The first line a line-by-line replay of the metric rejects (None if
    none) and the number of pairs before it."""
    pairs = 0
    for n, text in enumerate(lines, 1):
        if not text.strip():
            continue
        try:
            obj = json.loads(text)
            if not (isinstance(obj, dict) and all(type(obj.get(k)) is str for k in ("ref", "hyp"))):
                return n, pairs
            getattr(evalkit, metric)(obj["ref"], obj["hyp"])
        except ValueError:  # invalid JSON, or the metric's ContractError
            return n, pairs
        pairs += 1
    return None, pairs


INT_FLAGS = [
    (command, name)
    for command, spec in _COMMANDS.items()
    for name, flag in spec["flags"].items()
    if flag["type"] is int
]


@pytest.mark.parametrize("command, name", INT_FLAGS)
def test_int_past_int64_is_one_error_line(command, name, tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main([command, "--" + name.replace("_", "-"), str(HUGE)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert [e for e in err.splitlines() if "error:" in e] == [err.splitlines()[-1]]

    config = tmp_path / "config.json"
    config.write_text(json.dumps({name: HUGE}))
    assert main([command, "--config", str(config)]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and "Traceback" not in captured.err
    assert len(captured.err.splitlines()) == 1
    assert captured.err.startswith(f"error: {config}: field {name!r} must be a 64-bit integer")


def test_int64_bounds_are_the_int_range(capsys):
    assert main(["tile", "--width", str(2**63 - 1), "--height", "1"]) == 0
    assert json.loads(capsys.readouterr().out)["grid"] == [1, 9]
    with pytest.raises(SystemExit) as exc:
        main(["tile", "--width", str(2**63), "--height", "1"])
    assert exc.value.code == 2
    assert main(["tile", "--width", str(-(2**63)), "--height", "1"]) == 1
    err = capsys.readouterr().err
    assert err.endswith(f"error: image dimensions must be positive, got {-(2**63)}x1\n")


INT_BOUNDS = [-(2**63), -1, 0, 1, 2**63 - 1]
FLOAT_BOUNDS = [1e308, -1e308, 0.0, -0.0, 5e-324]
# a cheap valid run of each command with a numeric flag; "{name}" is an input file
BOUNDARY_BASE = {
    "tile": ["--width", "500", "--height", "400"],
    "frames": ["--duration", "3", "--source-frames", "90"],
    "gradcheck": ["--projector", "conv_gmlp", "--seeds", "1"],
    "ablate-rates": ["--rates", "2", "--steps", "1", "--length", "8"],
    "pack": ["--capacity", "8", "--manifest", "{manifest}"],
    "stream-sim": ["--wav", "{wav}"],
    "split-crossmodal": ["--input", "{texts}"],
    "mix": ["--budget", "2", "--sizes", "{sizes}"],
}
# flags that count work: 2**63 - 1 seeds or steps would run that many checks
# or fit steps, so they take only the other values
WORK_COUNTS = {("gradcheck", "seeds"), ("ablate-rates", "steps")}
BOUNDARY_CASES = [
    (command, name, value)
    for command, spec in _COMMANDS.items()
    for name, flag in spec["flags"].items()
    for value in {int: INT_BOUNDS, float: FLOAT_BOUNDS}.get(flag["type"], [])
    if not ((command, name) in WORK_COUNTS and value == 2**63 - 1)
]


@pytest.mark.parametrize("command, name, value", BOUNDARY_CASES)
def test_numeric_flag_boundary_values(command, name, value, tmp_path, capsys):
    files = {"manifest": '{"id": "a", "len": 3}\n', "texts": '{"text": "one two three four"}\n',
             "sizes": '{"a": 2, "b": 3}'}
    paths = {"wav": str(tmp_path / "tone.wav")}
    _write_wav(paths["wav"])
    for key, text in files.items():
        paths[key] = str(tmp_path / key)
        (tmp_path / key).write_text(text)
    argv = [command, *[a.format(**paths) for a in BOUNDARY_BASE[command]],
            f"--{name.replace('_', '-')}={value!r}"]
    # a warning printed to stderr would be a second line, so it fails the run
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    captured = capsys.readouterr()
    err = captured.err.splitlines()
    assert "Traceback" not in captured.err
    if code == 2:
        assert err[0].startswith("usage: omnipipe ")
        assert [e for e in err if "error:" in e] == [err[-1]]
    elif code == 1 and not err:
        # a gradcheck that fails its tolerance reports that on stdout
        assert command == "gradcheck" and json.loads(captured.out)["passed"] is False
    else:
        assert code in (0, 1) and len(err) == code
        assert all(e.startswith("error: ") for e in err)


def test_a_rejected_value_past_the_recursion_limit_shows_its_head():
    value = 1
    for _ in range(sys.getrecursionlimit() + 100):
        value = [value]
    with pytest.raises(FormatError) as exc:
        json_value(value, int)
    assert str(exc.value) == "must be a 64-bit integer, got " + "[" * 37 + "..."


def test_a_deeply_nested_len_gets_its_type_error(tmp_path, capsys):
    manifest = tmp_path / "m.jsonl"
    type_error = f"error: {manifest}:1: field 'len' must be a 64-bit integer, got {'[' * 37}...\n"
    for depth in range(900, 1001):
        manifest.write_text('{"id": 1, "len": ' + "[" * depth + "]" * depth + "}\n")
        assert main(["pack", "--capacity", "8", "--manifest", str(manifest)]) == 1
        err = capsys.readouterr().err
        # past the parser's own depth limit the line is rejected as it is read
        assert err == type_error or "while decoding" in err


@pytest.mark.parametrize("flag, message", [
    ("--budget=-1", "budget must be >= 0, got -1"),
    ("--seed=-1", "seed must be >= 0, got -1"),
])
def test_mix_flag_errors_name_no_file(flag, message, tmp_path, capsys):
    sizes = tmp_path / "sizes.json"
    sizes.write_text('{"a": 2}')
    assert main(["mix", "--budget", "1", "--sizes", str(sizes), flag]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


# Each file-reading flag: the argv that reads the mutated file {f}, and the
# key of the valid input its mutants start from.
READERS = {
    "config": (["tile", "--config", "{f}"], "config"),
    "melspec wav": (["melspec", "--wav", "{f}"], "wav"),
    "stream-sim wav": (["stream-sim", "--wav", "{f}"], "wav"),
    "stream-sim frame-plan": (["stream-sim", "--wav", "{wav}", "--frame-plan", "{f}"],
                              "frame_plan"),
    "stream-sim events": (["stream-sim", "--events", "{f}"], "events"),
    "pack manifest": (["pack", "--capacity", "1024", "--manifest", "{f}"], "manifest"),
    "filter-loss losses": (["filter-loss", "--losses", "{f}"], "losses"),
    "split-crossmodal input": (["split-crossmodal", "--input", "{f}"], "texts"),
    "mix sizes": (["mix", "--budget", "1000", "--sizes", "{f}"], "sizes"),
    "metrics pairs": (["metrics", "--metric", "wer", "--pairs", "{f}"], "pairs"),
    "normalize-scores scores": (["normalize-scores", "--scores", "{f}"], "scores"),
}


def test_readers_cover_every_file_flag():
    # a file flag is a str flag without choices, other than --out (written)
    # and --rates (a list); every command reads --config alike, so tile stands
    # for all
    read = {(argv[0], argv[argv.index("{f}") - 1]) for argv, _ in READERS.values()}
    files = {
        (command, "--" + name.replace("_", "-"))
        for command, spec in _COMMANDS.items()
        for name, flag in spec["flags"].items()
        if flag["type"] is str and not flag["choices"] and name not in ("out", "rates")
    }
    assert read == files | {("tile", "--config")}


@pytest.fixture(scope="module")
def seed_inputs(tmp_path_factory):
    """The golden corpus's valid input files: their paths and their bytes."""
    from test_golden import inputs  # imported here: test_golden imports this module

    root = tmp_path_factory.mktemp("seeds")
    data = inputs()
    for key, content in data.items():
        (root / key).write_bytes(content)
    return {key: str(root / key) for key in data}, data


# one edit: an operation, a position (taken modulo the span it edits) and a byte
_EDITS = st.lists(
    st.tuples(
        st.sampled_from(("replace", "insert", "delete", "truncate")),
        st.integers(0, 2**20),
        st.sampled_from(b'{}[]",:-.019eE \n\r\x00\xff\\') | st.integers(0, 255),
    ),
    min_size=1,
    max_size=4,
)


def _edit(data: bytes, edits, span: int) -> bytes:
    """data after the edits; replace, insert and delete land in the first
    ``span`` bytes, a truncation anywhere."""
    for op, at, byte in edits:
        if op == "truncate":
            data = data[: at % (len(data) + 1)]
            continue
        at %= min(span, len(data)) + 1
        if op == "replace":
            data = data[:at] + bytes([byte]) + data[at + 1:]
        elif op == "insert":
            data = data[:at] + bytes([byte]) + data[at:]
        else:
            data = data[:at] + data[at + 1:]
    return data


@pytest.mark.parametrize("reader", READERS)
@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(edits=_EDITS)
def test_mutated_input_is_a_result_or_one_error_line(reader, edits, seed_inputs, tmp_path,
                                                     capsys):
    paths, data = seed_inputs
    argv, key = READERS[reader]
    # a WAV's byte edits land in its header and first samples
    mutant = tmp_path / "mutant"
    mutant.write_bytes(_edit(data[key], edits, 64 if key == "wav" else len(data[key])))
    argv = [a.format(**paths, f=str(mutant)) for a in argv]
    # a warning printed to stderr would be a second line, so it fails the run
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    captured = capsys.readouterr()
    err = captured.err.splitlines()
    if code == 2:
        assert err[0].startswith("usage: omnipipe ")
        assert [e for e in err if "error:" in e] == [err[-1]]
    elif code == 1:
        assert captured.out == ""
        assert len(err) == 1 and err[0].startswith("error: ")
    else:
        assert (code, err) == (0, [])


def test_only_cli_and_fileio_import_json_or_csv():
    """Text formats are the package's edge: fileio reads and the CLI renders."""
    importers = set()
    for path in sorted(Path(evalkit.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                modules = [node.module]
            else:
                continue
            if any(m.split(".")[0] in ("json", "csv") for m in modules):
                importers.add(path.stem)
    assert importers == {"cli", "fileio"}
