"""Golden CLI corpus: every subcommand's bytes, pinned by digest.

The inputs are generated here from fixed seeds (WAVs, manifests, loss CSVs,
event traces, pair files, sizes, configs, frame plans and score tables),
together with seeded byte and line mutants of each file that a flag reads.
Each case runs ``cli.main`` in-process and hashes its exit code, stdout,
stderr (the temporary directory replaced by ``<TMP>``) and ``--out`` file;
the digests must equal ``tests/golden_digests.json``.

A deliberate output change is one reviewed diff of named entries. Regenerate
the manifest with

    PYTHONPATH=src python tests/test_golden.py --regenerate

Entries marked ``depends_on`` may also change with the environment: the
gradcheck, ablate-rates and melspec digits (and stream-sim's WAV path, which
runs melspec) with BLAS and FFT rounding, help and usage text with the
Python version's argparse.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import re
import sys
import tempfile
from pathlib import Path
from unittest import mock

import pytest

from omnipipe.cli import _CHUNK, _COMMANDS, main
from test_cli import MALFORMED, READERS

MANIFEST = Path(__file__).with_name("golden_digests.json")
REGENERATE = "PYTHONPATH=src python tests/test_golden.py --regenerate"
ROUNDING = "BLAS/FFT rounding"
ARGPARSE = "argparse version"

WORDS = ("the a cat sat on mat dog ran far away big small red blue green sky sea sun "
         "we go to see it now").split()


# ---------------------------------------------------------------------------
# inputs, from fixed seeds
# ---------------------------------------------------------------------------

def _wav(rng: random.Random, seconds: float = 2.0) -> bytes:
    """Mono 16-bit 16 kHz PCM: noisy tone bursts (integer triangle waves)
    between stretches of silence, so the VAD finds several segments."""
    samples = []
    while len(samples) < int(16000 * seconds):
        period = rng.choice((20, 36, 50))
        amp = rng.choice((0, 0, 8000, 16000))
        for i in range(rng.randint(1600, 5000)):
            phase = i % period
            tri = (4 * phase - period if phase < period // 2 else 3 * period - 4 * phase)
            samples.append(amp * tri // period + (rng.randint(-3, 3) if amp else 0))
    return _riff(b"".join(s.to_bytes(2, "little", signed=True)
                          for s in samples[: int(16000 * seconds)]))


def _riff(data: bytes) -> bytes:
    """A mono 16-bit 16 kHz PCM WAV file of the sample bytes ``data``."""
    header = (b"RIFF" + (36 + len(data)).to_bytes(4, "little") + b"WAVEfmt "
              + (16).to_bytes(4, "little") + (1).to_bytes(2, "little") + (1).to_bytes(2, "little")
              + (16000).to_bytes(4, "little") + (32000).to_bytes(4, "little")
              + (2).to_bytes(2, "little") + (16).to_bytes(2, "little")
              + b"data" + len(data).to_bytes(4, "little"))
    return header + data


def _jsonl(records) -> bytes:
    return "".join(json.dumps(r) + "\n" for r in records).encode()


def _text(rng: random.Random, low: int, high: int) -> str:
    return " ".join(rng.choice(WORDS) for _ in range(rng.randint(low, high)))


def _events(rng: random.Random) -> list[dict]:
    events, t = [], 0
    for _ in range(10):
        t += rng.randint(0, 40)
        kind = rng.choice(("audio", "video_frame", "image", "text"))
        if kind != "audio":
            events.append({"t": t, "kind": kind, "tokens": rng.randint(0, 400)})
            continue
        events.append({"t": t, "kind": "audio_start"})
        for _ in range(rng.randint(0, 3)):
            t += rng.randint(0, 30)
            events.append({"t": t, "kind": "audio_frame", "tokens": rng.randint(0, 60)})
        t += rng.randint(0, 30)
        events.append({"t": t, "kind": "audio_end"})
    return events


def inputs() -> dict[str, bytes]:
    """The valid input files, by key."""
    rng = random.Random(20241011)
    manifest = [{"id": f"s{i:03d}", "len": rng.randint(1, 700)} for i in range(40)]
    manifest[7]["id"], manifest[11]["id"] = 7, ["nested", {"id": 11}]
    pairs = []
    for _ in range(12):
        ref = _text(rng, 1, 9).split()
        hyp = [w for w in ref if rng.random() > 0.2] + ([rng.choice(WORDS)] if rng.random() < 0.4 else [])
        pairs.append({"ref": " ".join(ref), "hyp": " ".join(hyp)})
    models, benchmarks = ("m0", "m1", "m2", "m3"), ("b0", "b1", "b2")
    scores = "model,benchmark,raw\n" + "".join(
        f"{m},{b},{round(rng.uniform(0, 100), 2)!r}\n" for m in models for b in benchmarks
        if rng.random() < 0.85
    )
    return {
        "wav": _wav(rng),
        "manifest": _jsonl(manifest),
        "losses": ("id,loss\n" + "".join(
            f"x{i:02d},{rng.gauss(2.0, 0.5)!r}\n" for i in range(40))).encode(),
        "events": _jsonl(_events(rng)),
        "frame_plan": b'{"frames": [0, 30, 60], "per_frame_tokens": 182}',
        "texts": _jsonl({"text": _text(rng, 4, 20)} for _ in range(12)),
        "sizes": json.dumps({f"set{k}": rng.randint(1, 10**6) for k in range(5)}).encode(),
        "pairs": _jsonl(pairs),
        "scores": scores.encode(),
        "config": b'{"width": 1000, "height": 700, "max_tiles": 6}',
        "pack_config": b'{"capacity": 1024, "policy": "first_fit_decreasing"}',
    }


# ---------------------------------------------------------------------------
# cases
# ---------------------------------------------------------------------------

RUNS = {
    "tile 384x384": ["tile", "--width", "384", "--height", "384"],
    "tile 1000x700 to out": ["tile", "--width", "1000", "--height", "700", "--out", "{out}"],
    "tile wide strip": ["tile", "--width", "4000", "--height", "300", "--max-tiles", "4"],
    "frames defaults": ["frames", "--duration", "2", "--source-frames", "60"],
    "frames tall to out": ["frames", "--duration", "120", "--source-frames", "3600",
                           "--frame-width", "1080", "--frame-height", "1920", "--out", "{out}"],
    "melspec to out": ["melspec", "--wav", "{wav}", "--out", "{out}"],
    **{f"gradcheck {p}": ["gradcheck", "--projector", p, "--seeds", "1"]
       for p in ("mlp", "c_abs", "concat", "mean_pool")},
    **{f"gradcheck conv_gmlp rate {r}": ["gradcheck", "--projector", "conv_gmlp", "--rate", r,
                                         "--seeds", "1"] for r in ("1", "2", "4", "8")},
    "gradcheck mlp two seeds to out": ["gradcheck", "--projector", "mlp", "--seeds", "2",
                                       "--seed", "5", "--out", "{out}"],
    "ablate-rates small to out": ["ablate-rates", "--rates", "2,4,8", "--steps", "3",
                                  "--channels", "8", "--llm-dim", "4", "--length", "32",
                                  "--out", "{out}"],
    "pack first_fit": ["pack", "--capacity", "1024", "--manifest", "{manifest}"],
    "pack first_fit_decreasing to out": ["pack", "--capacity", "1024", "--manifest", "{manifest}",
                                         "--policy", "first_fit_decreasing", "--out", "{out}"],
    "pack from config": ["pack", "--config", "{pack_config}", "--manifest", "{manifest}"],
    "stream-sim events": ["stream-sim", "--events", "{events}"],
    "stream-sim events to out": ["stream-sim", "--events", "{events}", "--out", "{out}"],
    "stream-sim wav": ["stream-sim", "--wav", "{wav}"],
    "stream-sim wav frame plan rate 4": ["stream-sim", "--wav", "{wav}", "--frame-plan",
                                         "{frame_plan}", "--rate", "4", "--chunk-frames", "7"],
    "filter-loss": ["filter-loss", "--losses", "{losses}"],
    "filter-loss to out": ["filter-loss", "--losses", "{losses}", "--out", "{out}"],
    "split-crossmodal": ["split-crossmodal", "--input", "{texts}"],
    "split-crossmodal seed 7 to out": ["split-crossmodal", "--input", "{texts}", "--seed", "7",
                                       "--out", "{out}"],
    "mix": ["mix", "--sizes", "{sizes}", "--budget", "1000"],
    "mix whole pool to out": ["mix", "--sizes", "{sizes}", "--budget", "0", "--seed", "3",
                              "--out", "{out}"],
    **{f"metrics {m}": ["metrics", "--metric", m, "--pairs", "{pairs}"]
       for m in ("wer", "cer", "bleu")},
    "metrics bleu to out": ["metrics", "--metric", "bleu", "--pairs", "{pairs}", "--out", "{out}"],
    "normalize-scores csv": ["normalize-scores", "--scores", "{scores}"],
    "normalize-scores json to out": ["normalize-scores", "--scores", "{scores}", "--format", "json",
                                     "--out", "{out}"],
    "tile from config": ["tile", "--config", "{config}"],
    "tile config overridden by flags": ["tile", "--config", "{config}", "--width", "384"],
    "usage unknown subcommand": ["frobnicate"],
    "usage no subcommand": [],
    "usage bad choice": ["metrics", "--metric", "ter", "--pairs", "{pairs}"],
    "usage int past int64": ["tile", "--width", str(2**63), "--height", "1"],
    "help": ["--help"],
    **{f"help {c}": [c, "--help"] for c in _COMMANDS},
    **{f"dump-config {c}": [c, "--dump-config"] for c in _COMMANDS},
    "dump-config tile from config": ["tile", "--config", "{config}", "--height", "9",
                                     "--dump-config"],
}

# Hand-picked edge inputs: bad UTF-8, NUL, byte-order marks, deep nesting,
# CRLF endings, quoted multi-line CSV cells, header-only and blank files.
EDGE = {
    "pack bad utf-8": (["pack", "--capacity", "8", "--manifest", "{f}"],
                       b'{"id": "a", "len": 3}\n{"id": "\xff", "len": 3}\n'),
    "pack nul byte": (["pack", "--capacity", "8", "--manifest", "{f}"],
                      b'{"id": "a", "len": 3}\n\x00\n'),
    "pack byte-order mark": (["pack", "--capacity", "8", "--manifest", "{f}"],
                             b'\xef\xbb\xbf{"id": "a", "len": 3}\n'),
    "pack crlf endings": (["pack", "--capacity", "8", "--manifest", "{f}"],
                          b'{"id": "a", "len": 3}\r\n\r\n{"id": "b", "len": 5}\r\n'),
    "pack id nested 200 deep": (["pack", "--capacity", "8", "--manifest", "{f}"],
                                b'{"id": ' + b"[" * 200 + b"]" * 200 + b', "len": 3}\n'),
    "pack len nested 200 deep": (["pack", "--capacity", "8", "--manifest", "{f}"],
                                 b'{"id": 1, "len": ' + b"[" * 200 + b"]" * 200 + b"}\n"),
    "pack line split across two lines": (["pack", "--capacity", "8", "--manifest", "{f}"],
                                         b'{"id": [1\n2], "len": 3}\n'),
    "pack sample longer than capacity": (["pack", "--capacity", "8", "--manifest", "{f}"],
                                         b'{"id": "a", "len": 3}\n{"id": "b", "len": 9}\n'),
    "pack empty manifest": (["pack", "--capacity", "8", "--manifest", "{f}"], b"\n \n"),
    "stream-sim events blank file": (["stream-sim", "--events", "{f}"], b"\n\n"),
    "stream-sim events nested tokens": (["stream-sim", "--events", "{f}"],
                                        b'{"t": 0, "kind": "text", "tokens": [[3]]}\n'),
    "filter-loss quoted multi-line id": (["filter-loss", "--losses", "{f}"],
                                         b'id,loss\n"a\nb",1\nc,2\n"a\nb",3\n'),
    "filter-loss quoted multi-line id valid": (["filter-loss", "--losses", "{f}"],
                                               b'id,loss\n"a\nb",1\nc,2\nd,4\n'),
    "filter-loss bad utf-8": (["filter-loss", "--losses", "{f}"], b"id,loss\na,1\n\xfe,2\n"),
    "filter-loss nul byte": (["filter-loss", "--losses", "{f}"], b"id,loss\na,1\nb\x00,2\n"),
    "filter-loss unterminated quote": (["filter-loss", "--losses", "{f}"],
                                       b'id,loss\na,1\n"b,2\n'),
    "filter-loss empty file": (["filter-loss", "--losses", "{f}"], b""),
    "filter-loss header only": (["filter-loss", "--losses", "{f}"], b"id,loss\n"),
    "filter-loss one row": (["filter-loss", "--losses", "{f}"], b"id,loss\na,1\n"),
    "filter-loss short row": (["filter-loss", "--losses", "{f}"], b"id,loss\na,1\nb\n"),
    "filter-loss mean overflows": (["filter-loss", "--losses", "{f}"],
                                   b"id,loss\na,1\nb,1e308\nc,1e308\n"),
    "filter-loss deviation overflows": (["filter-loss", "--losses", "{f}"],
                                        b"id,loss\na,1e200\nb,-1e200\nc,0\n"),
    "filter-loss losses near 1e-170": (["filter-loss", "--losses", "{f}"],
                                       b"id,loss\na,1e-170\nb,1.5e-170\nc,2e-170\n"
                                       b"d,2.5e-170\ne,3e-170\n"),
    "filter-loss extra columns and spaced header": (["filter-loss", "--losses", "{f}"],
                                                    b"id , loss,note\na,1,x\nb,3,y\n"),
    "normalize-scores header only": (["normalize-scores", "--scores", "{f}"],
                                     b"model,benchmark,raw\n"),
    "normalize-scores crlf endings": (["normalize-scores", "--scores", "{f}"],
                                      b"model,benchmark,raw\r\nm1,b,1\r\nm2,b,2\r\n"),
    "normalize-scores quoted names": (["normalize-scores", "--scores", "{f}"],
                                      b'model,benchmark,raw\n"m,1",b,5\n"m\n""2""",b,7\n'
                                      b'plain,"b\r\nx",3\n'),
    "split-crossmodal surrogate text": (["split-crossmodal", "--input", "{f}"],
                                        b'{"text": "\\ud800 one two three four"}\n'),
    "metrics pairs not objects": (["metrics", "--metric", "cer", "--pairs", "{f}"], b"[]\n"),
    "mix sizes not an object": (["mix", "--budget", "1", "--sizes", "{f}"], b"[1, 2]"),
    "mix sizes bad utf-8": (["mix", "--budget", "1", "--sizes", "{f}"], b'{"\xff": 1}'),
    "mix size nested 200 deep": (["mix", "--budget", "1", "--sizes", "{f}"],
                                 b'{"a": ' + b"[" * 200 + b"]" * 200 + b"}"),
    "config not an object": (["tile", "--config", "{f}"], b"[]"),
    "config empty file": (["tile", "--config", "{f}"], b""),
    "config nul byte": (["tile", "--config", "{f}"], b'{"width": 3\x00}'),
    "frame plan not an object": (["stream-sim", "--wav", "{wav}", "--frame-plan", "{f}"], b"[1]"),
    "frame plan bad json": (["stream-sim", "--wav", "{wav}", "--frame-plan", "{f}"], b"{"),
    # each line of a JSON-lines file is parsed alone: joined, these two lines
    # would be two valid records
    "pack two lines that join into records": (
        ["pack", "--capacity", "8", "--manifest", "{f}"],
        b'{"id": [{}\n{"x": 2}], "len": 3}, {"id": 1, "len": 2}\n'),
}


def _manifest_lines(n: int) -> list[bytes]:
    return [b'{"id": "s%d", "len": %d}\n' % (i, i % 7 + 1) for i in range(n)]


def _at(lines: list[bytes], index: int, line: bytes) -> bytes:
    return b"".join(lines[:index] + [line] + lines[index:])


def _bleu_pairs(n: int) -> bytes:
    """n ref/hyp pairs over eight words, so n-grams repeat within and across
    pairs: a hyp keeps most of its ref's words, and some sides are empty."""
    rng = random.Random(22)
    pairs = []
    for _ in range(n):
        ref = [rng.choice(WORDS[:8]) for _ in range(rng.randint(0, 14))]
        hyp = [w for w in ref if rng.random() > 0.15] + [rng.choice(WORDS[:8])] * (rng.random() < 0.3)
        pairs.append({"ref": " ".join(ref), "hyp": " ".join(hyp)})
    return _jsonl(pairs)


# Files that cross the readers' chunk boundary (cli._CHUNK lines or rows);
# their sizes, and so their digests, follow _CHUNK.
_LOSS_ROWS = [b"x%d,%r\n" % (i, 1.0 + i % 11 / 4) for i in range(_CHUNK + 5)]
EDGE.update({
    "pack bad len after the first chunk": (
        ["pack", "--capacity", "64", "--manifest", "{f}"],
        b"".join(_manifest_lines(_CHUNK + 5)) + b'{"id": "z", "len": "3"}\n'),
    "pack len 3.0 past the first chunk": (
        ["pack", "--capacity", "64", "--manifest", "{f}"],
        _at(_manifest_lines(_CHUNK + 5), _CHUNK + 2, b'{"id": "f", "len": 3.0}\n')),
    "stream-sim time regression before invalid json in a later chunk": (
        ["stream-sim", "--events", "{f}"],
        b'{"t": 10, "kind": "text"}\n\n{"t": 5, "kind": "image", "tokens": 2}\n'
        + b'{"t": 20, "kind": "text"}\n' * _CHUNK + b"{\n"),
    "filter-loss quoted multi-line id after the first chunk": (
        ["filter-loss", "--losses", "{f}"],
        b"id,loss\n" + _at(_LOSS_ROWS, _CHUNK + 2, b'"multi\nline",2.5\n')),
    "filter-loss duplicate multi-line id across chunks": (
        ["filter-loss", "--losses", "{f}"],
        b'id,loss\n"a\nb",1\n' + _at(_LOSS_ROWS, _CHUNK + 2, b'"a\nb",2.5\n')),
    "metrics bleu past the first chunk": (
        ["metrics", "--metric", "bleu", "--pairs", "{f}"], _bleu_pairs(_CHUNK + 5)),
})

# mutants of the valid input of each file-reading flag in test_cli.READERS
MUTANTS_PER_READER = 20
_NOISE = b'{}[]",:0123456789-.eE \n\r\t\x00\xff\xc3abtruenl\\'


def mutate(data: bytes, rng: random.Random, header: int | None = None) -> bytes:
    """One seeded byte or line edit of data; byte edits land in the first
    ``header`` bytes when given (a WAV's header and first samples)."""
    op = rng.choice(("replace", "insert", "delete", "truncate", "drop line", "repeat line",
                     "swap lines", "blank line"))
    span = min(len(data), header or len(data))
    at = rng.randrange(max(span, 1))
    if op == "replace":
        return data[:at] + bytes([rng.choice(_NOISE)]) + data[at + 1:]
    if op == "insert":
        return data[:at] + bytes([rng.choice(_NOISE)]) + data[at:]
    if op == "delete":
        return data[:at] + data[at + 1:]
    if op == "truncate":
        return data[: rng.randrange(len(data) + 1)]
    lines = data.splitlines(keepends=True)
    i = rng.randrange(len(lines))
    if op == "drop line":
        del lines[i]
    elif op == "repeat line":
        lines.insert(i, lines[i])
    elif op == "swap lines" and i + 1 < len(lines):
        lines[i], lines[i + 1] = lines[i + 1], lines[i]
    elif op == "blank line":
        lines.insert(i, b"\n")
    return b"".join(lines)


def cases() -> dict[str, tuple[list[str], dict[str, bytes]]]:
    """Every case: its argv (``{KEY}`` stands for a file path) and the files
    of its own, which take precedence over the shared inputs."""
    base = inputs()
    found = {f"run: {name}": (argv, {}) for name, argv in RUNS.items()}
    found.update({f"edge: {name}": (argv, {"f": data}) for name, (argv, data) in EDGE.items()})
    for n, (reader, (argv, key)) in enumerate(READERS.items()):
        header = 64 if key == "wav" else None
        for i in range(MUTANTS_PER_READER):
            rng = random.Random(1000 * n + i)
            found[f"mutant: {reader} {i:02d}"] = (argv, {"f": mutate(base[key], rng, header)})
    # the MALFORMED fixtures: a valid WAV, that WAV with fmt chunk size 18,
    # with 8 bits per sample and with format 3 (IEEE float), a WAV of no
    # samples, its samples 16 times over (32 s), and sizes {"a": 2}; a case
    # carries only the fixtures its argv names
    wav = base["wav"]
    fixtures = {"wav": wav, "bad_fmt_wav": wav[:16] + (18).to_bytes(4, "little") + wav[20:],
                "pcm8_wav": wav[:34] + (8).to_bytes(2, "little") + wav[36:],
                "float_wav": wav[:20] + (3).to_bytes(2, "little") + wav[22:],
                "empty_wav": _riff(b""), "long_wav": _riff(wav[44:] * 16),
                "sizes": b'{"a": 2}'}
    for name, (argv, files, _, _) in MALFORMED.items():
        named = {k: data for k, data in fixtures.items() if any(f"{{{k}}}" in a for a in argv)}
        found[f"malformed: {name}"] = (
            argv, {**named, **{k: text.encode() for k, text in files.items()}})
    return found


def depends_on(argv: list[str], code) -> str | None:
    """What besides this code a case's bytes depend on: argparse for help
    and usage output (exit via SystemExit), BLAS and FFT rounding for the
    commands that print their digits."""
    if code == 2 or "--help" in argv:
        return ARGPARSE
    if argv[0] in ("gradcheck", "ablate-rates", "melspec") or "--wav" in argv:
        return ROUNDING
    return None


# ---------------------------------------------------------------------------
# running a case
# ---------------------------------------------------------------------------

def _slug(name: str) -> str:
    return re.sub(r"[^A-Za-z0-9]+", "-", name).strip("-")


def write_inputs(root: Path) -> dict[str, str]:
    (root / "inputs").mkdir(parents=True, exist_ok=True)
    paths = {}
    for key, data in inputs().items():
        paths[key] = str(root / "inputs" / key)
        Path(paths[key]).write_bytes(data)
    return paths


def run_case(root: Path, shared: dict[str, str], name: str, argv: list[str],
             files: dict[str, bytes]) -> tuple[str, object]:
    """The digest of one run (exit code, stdout, stderr and --out bytes) and
    its exit code."""
    case_dir = root / "cases" / _slug(name)
    case_dir.mkdir(parents=True)
    paths = {**shared, "out": str(case_dir / "out")}
    for key, data in files.items():
        paths[key] = str(case_dir / f"{key}.in")
        Path(paths[key]).write_bytes(data)
    argv = [a.format(**paths) for a in argv]
    stdout, stderr = io.StringIO(), io.StringIO()
    # argparse wraps help and usage text to the terminal's width
    with mock.patch.dict(os.environ, {"COLUMNS": "80"}), \
            contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    out = Path(paths["out"])
    parts = [str(code).encode(),
             stdout.getvalue().replace(str(root), "<TMP>").encode("utf-8", "surrogatepass"),
             stderr.getvalue().replace(str(root), "<TMP>").encode("utf-8", "surrogatepass"),
             out.read_bytes() if out.exists() else b"<no out file>"]
    h = hashlib.sha256()
    for part in parts:
        h.update(len(part).to_bytes(8, "little") + part)
    return h.hexdigest()[:24], code


CASES = cases()


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    root = tmp_path_factory.mktemp("golden")
    return root, write_inputs(root), json.loads(MANIFEST.read_text())["cases"]


def test_manifest_names_every_case(corpus):
    _, _, golden = corpus
    assert sorted(golden) == sorted(CASES), f"case list changed: run {REGENERATE}"


@pytest.mark.parametrize("name", CASES)
def test_case_matches_its_digest(name, corpus):
    root, shared, golden = corpus
    argv, files = CASES[name]
    digest, _ = run_case(root, shared, name, argv, files)
    entry = golden.get(name, {})
    note = f" (may also follow {entry['depends_on']})" if "depends_on" in entry else ""
    assert digest == entry.get("digest"), (
        f"golden case {name!r} changed{note}: argv {argv}; if deliberate, run {REGENERATE} "
        "and list the entry in CHANGES.md"
    )


def regenerate() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        shared = write_inputs(root)
        golden = {}
        for name, (argv, files) in CASES.items():
            digest, code = run_case(root, shared, name, argv, files)
            golden[name] = {"digest": digest}
            if depends_on(argv, code):
                golden[name]["depends_on"] = depends_on(argv, code)
    # one line per case, so a deliberate change is a diff of named lines
    lines = [f" {json.dumps(name)}: {json.dumps(golden[name], sort_keys=True)}"
             for name in sorted(golden)]
    MANIFEST.write_text(
        f'{{"regenerate": {json.dumps(REGENERATE)},\n"cases": {{\n' + ",\n".join(lines) + "\n}}\n")
    print(f"wrote {len(golden)} digests to {MANIFEST}")


if __name__ == "__main__":
    if sys.argv[1:] != ["--regenerate"]:
        sys.exit(f"usage: {REGENERATE}")
    regenerate()
