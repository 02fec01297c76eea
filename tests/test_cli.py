"""CLI contract: subcommand behaviour, exit codes, config precedence."""

import json
import os
import wave

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from omnipipe import stream
from omnipipe.cli import build_parser, main

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


class TestExitCodes:
    def test_tile_success(self, capsys):
        assert main(["tile", "--width", "384", "--height", "384"]) == 0
        assert json.loads(capsys.readouterr().out) == {
            "grid": [1, 1],
            "global": False,
            "tokens": 182,
        }

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
        path.write_text("".join(json.dumps(e.to_json()) + "\n" for e in events))
        assert main(["stream-sim", "--events", str(path)]) == 0
        assert capsys.readouterr().out == stream.run(events).to_jsonl()

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

    def test_out_files_are_byte_identical_across_runs(self, tmp_path):
        out1 = tmp_path / "a.json"
        out2 = tmp_path / "b.json"
        for out in (out1, out2):
            assert main(["tile", "--width", "1000", "--height", "700", "--out", str(out)]) == 0
        assert out1.read_bytes() == out2.read_bytes()


# Each case: argv (with {NAME} standing for a file written from FILES, or for
# the valid fixtures {wav} and {sizes}), the files, the expected exit code,
# and for reader errors the failing line.
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
    "tile config max_tiles not integral": (
        ["tile", "--width", "3", "--height", "3", "--config", "{c}"], {"c": '{"max_tiles": 2.5}'},
        1, None),
    "frames duration inf": (["frames", "--duration", "inf", "--source-frames", "3"], {}, 2, None),
    "frames config duration inf": (
        ["frames", "--source-frames", "3", "--config", "{c}"], {"c": '{"duration": Infinity}'},
        1, None),
    "melspec config wav not a string": (["melspec", "--config", "{c}"], {"c": '{"wav": 5}'}, 1, None),
    "melspec wav not a wav file": (["melspec", "--wav", "{w}"], {"w": "hello"}, 1, None),
    "gradcheck config seeds bool": (
        ["gradcheck", "--projector", "mlp", "--config", "{c}"], {"c": '{"seeds": true}'}, 1, None),
    "gradcheck negative seed": (
        ["gradcheck", "--projector", "mlp", "--seeds", "1", "--seed", "-1"], {}, 1, None),
    "ablate-rates rates not integers": (["ablate-rates", "--rates", "a"], {}, 1, None),
    "ablate-rates negative seed": (
        ["ablate-rates", "--rates", "2", "--steps", "1", "--seed", "-1"], {}, 1, None),
    "ablate-rates negative lr": (
        ["ablate-rates", "--rates", "2", "--steps", "1", "--lr", "-1"], {}, 1, None),
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
    "stream-sim audio_start with tokens": (
        ["stream-sim", "--events", "{e}"],
        {"e": '{"t": 0, "kind": "text"}\n\n{"t": 5, "kind": "audio_start", "tokens": 3}\n'},
        1, 3),
    "stream-sim frame plan without per_frame_tokens": (
        ["stream-sim", "--wav", "{wav}", "--frame-plan", "{p}"], {"p": '{"frames": [0, 30]}'},
        1, None),
    "stream-sim frame plan frames not a list": (
        ["stream-sim", "--wav", "{wav}", "--frame-plan", "{p}"],
        {"p": '{"frames": "ab", "per_frame_tokens": 182}'}, 1, None),
    "filter-loss loss not finite": (
        ["filter-loss", "--losses", "{l}"], {"l": "id,loss\na,1\nb,inf\n"}, 1, 3),
    "split-crossmodal text not a string": (
        ["split-crossmodal", "--input", "{i}"], {"i": '{"text": 5}\n'}, 1, 1),
    "split-crossmodal negative seed": (
        ["split-crossmodal", "--input", os.devnull, "--seed", "-1"], {}, 1, None),
    "mix size not a number": (["mix", "--budget", "1", "--sizes", "{s}"], {"s": '{"a": "x"}'}, 1, None),
    "mix size not integral": (["mix", "--budget", "1", "--sizes", "{s}"], {"s": '{"a": 1.5}'}, 1, None),
    "mix negative seed": (["mix", "--budget", "1", "--seed", "-1", "--sizes", "{sizes}"], {}, 1, None),
    "metrics ref not a string": (
        ["metrics", "--metric", "wer", "--pairs", "{p}"], {"p": '{"ref": 5, "hyp": "a"}\n'}, 1, 1),
    "metrics config metric not a choice": (
        ["metrics", "--pairs", "{p}", "--config", "{c}"],
        {"p": '{"ref": "a", "hyp": "a"}\n', "c": '{"metric": "ter"}'}, 1, None),
    "normalize-scores raw nan": (
        ["normalize-scores", "--scores", "{s}"], {"s": "model,benchmark,raw\nm,b,nan\n"}, 1, 2),
}


@pytest.mark.parametrize("case", MALFORMED)
def test_malformed_input_is_one_error_line(case, tmp_path, capsys):
    argv, files, code, line = MALFORMED[case]
    paths = {"wav": str(tmp_path / "tone.wav"), "sizes": str(tmp_path / "sizes.json")}
    _write_wav(paths["wav"])
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


def _equivalent_int(value):
    if type(value) is int:
        return value
    if type(value) is float and np.isfinite(value) and value.is_integer():
        return int(value)
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
