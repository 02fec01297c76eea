"""Command-line entry point wiring the pipeline stages together.

Subcommands: tile, frames, melspec, gradcheck, ablate-rates, pack,
stream-sim, filter-loss, split-crossmodal, mix, metrics, normalize-scores.

Each subcommand is one entry of the command table below: its help, its
runner and its flags, each flag declared once with its type, default,
choices and whether it is required. Configuration precedence is flags >
--config JSON file > defaults; --dump-config prints the resolved
configuration instead of running.

All outside input passes one type rule (``fileio.json_value``): int takes an
integral number in the signed 64-bit range, float a finite number, str a
string. Argparse applies it to argv values, resolve_config to --config values
and the ``_Input`` readers (json, jsonl, csv) to every declared field of the
typed records they yield, one at a time, to their consumers. An error raised
inside ``with _Input(path)`` while a record is in use, by the reader or by
the record's consumer, names FILE:LINE; any other names FILE.

The CLI renders every payload itself, as JSON lines (``_jsonl``), CSV
(``_csv``) or the normalize-scores JSON array; the library returns values.

Exit codes: 0 success, 1 contract error (one ``error:`` line on stderr), 2
usage error (argparse). All outputs are deterministic for a fixed
configuration and written atomically.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import sys

from . import curation, evalkit, modality, packing, projectors, stream
from .errors import ContractError, FormatError
from .fileio import atomic_write, json_value


def _jsonl(records) -> str:
    return "".join(json.dumps(r, sort_keys=True) + "\n" for r in records)


def _csv(header, rows) -> str:
    """A header line, then one line per row: text cells as they are, numbers
    by repr."""
    return "".join(
        ",".join(c if isinstance(c, str) else repr(c) for c in row) + "\n"
        for row in [header, *rows]
    )


# ---------------------------------------------------------------------------
# typed input readers
# ---------------------------------------------------------------------------

_REQUIRED = object()


def _field(obj: dict, name: str, type_, default=_REQUIRED):
    if name not in obj:
        if default is _REQUIRED:
            raise FormatError(f"missing field {name!r}")
        return default
    try:
        return json_value(obj[name], type_)
    except FormatError as exc:
        raise FormatError(f"field {name!r} {exc}") from None


class _Input:
    """One input file. Its readers set ``line`` to the line of the record in
    use and back to None once done; leaving ``with`` re-raises a ContractError
    as ``PATH:LINE: ...`` or ``PATH: ...`` by it. OSError passes unchanged."""

    def __init__(self, path: str):
        self.path, self.line = path, None

    def __enter__(self):
        return self

    def __exit__(self, kind, exc, tb):
        if isinstance(exc, ContractError):
            where = self.path if self.line is None else f"{self.path}:{self.line}"
            raise type(exc)(f"{where}: {exc}") from None

    def json(self):
        """One JSON document (configs, sizes, frame plans)."""
        try:
            with open(self.path, encoding="utf-8") as handle:
                return json.load(handle)
        except (ValueError, RecursionError) as exc:
            raise FormatError(f"invalid JSON ({exc})") from None

    def jsonl(self, fields: dict):
        """One tuple per non-blank line, its values in ``fields`` order;
        ``fields`` maps a name to its type, or to ``(type, default)`` for a
        field that may be absent. Each line holds a JSON object."""
        specs = [(n, *(s if isinstance(s, tuple) else (s, _REQUIRED))) for n, s in fields.items()]
        with open(self.path, "rb") as handle:
            for self.line, raw in enumerate(handle, 1):
                try:
                    text = raw.decode("utf-8")
                    if not text.strip():
                        continue
                    obj = json.loads(text)
                    if not isinstance(obj, dict):
                        raise FormatError("expected a JSON object")
                    record = tuple([_field(obj, n, t, d) for n, t, d in specs])
                except ContractError:
                    raise
                except (ValueError, RecursionError) as exc:
                    raise FormatError(f"invalid JSON ({exc})") from None
                yield record
        self.line = None

    def csv(self, fields: dict, key: int):
        """One tuple per non-empty row under a header that starts with the
        names in ``fields`` (name -> type), each cell parsed with its type.
        The first ``key`` cells are the row's key, which no two rows share;
        a row's line is the last line it spans."""
        types = list(fields.values())
        key_names = ",".join(list(fields)[:key])
        first_line: dict[tuple, int] = {}
        with open(self.path, newline="", encoding="utf-8") as handle:
            reader = csv.reader(handle)
            try:
                header = next(reader, None)
                if header is None or [h.strip() for h in header[: len(types)]] != list(fields):
                    raise FormatError(f'header must start with "{",".join(fields)}"')
                for row in reader:
                    if not row:
                        continue
                    if len(row) < len(types):
                        raise FormatError(f"expected {len(types)} columns, got {len(row)}")
                    record = tuple([json_value(t(cell), t) for t, cell in zip(types, row)])
                    k = record[:key]
                    if k in first_line:
                        raise FormatError(
                            f"duplicate {key_names} {','.join(map(str, k))!r}, "
                            f"first on line {first_line[k]}"
                        )
                    self.line = first_line[k] = reader.line_num
                    yield record
            except (csv.Error, ValueError) as exc:
                self.line = max(reader.line_num, 1)
                raise FormatError(str(exc)) from None
        self.line = None


# ---------------------------------------------------------------------------
# subcommand handlers: each returns (stdout payload, exit code)
# ---------------------------------------------------------------------------

def run_tile(cfg: dict) -> tuple[str, int]:
    plan = modality.plan_tiles(cfg["width"], cfg["height"], cfg["max_tiles"])
    return _jsonl([plan.to_json()]), 0


def run_frames(cfg: dict) -> tuple[str, int]:
    tokens = modality.frame_tokens(cfg["frame_width"], cfg["frame_height"])
    plan = modality.plan_frames(cfg["duration"], cfg["source_frames"], tokens)
    return _jsonl([plan.to_json()]), 0


def run_melspec(cfg: dict) -> tuple[str, int]:
    spec = modality.melspec(modality.load_wav(cfg["wav"]))
    if cfg["out"]:
        tensor = {"shape": list(spec.data.shape), "data": spec.data.array.reshape(-1).tolist()}
        atomic_write(cfg["out"], _jsonl([tensor]))
    summary = {
        "frames": spec.frames,
        "bins": spec.bins,
        "min": float(spec.data.array.min()),
        "max": float(spec.data.array.max()),
    }
    return _jsonl([summary]), 0


def run_gradcheck(cfg: dict) -> tuple[str, int]:
    if cfg["seeds"] < 1:
        raise ContractError(f"--seeds must be >= 1, got {cfg['seeds']}")
    reports = [
        projectors.check_gradients(
            cfg["projector"], seed=cfg["seed"] + i, eps=cfg["eps"], tol=cfg["tol"], rate=cfg["rate"]
        )
        for i in range(cfg["seeds"])
    ]
    passed = all(r.passed for r in reports)
    payload = {
        "projector": cfg["projector"],
        "rate": cfg["rate"] if cfg["projector"] == "conv_gmlp" else None,
        "seeds": cfg["seeds"],
        "max_relative_error": max(r.max_relative_error for r in reports),
        "passed": passed,
    }
    return _jsonl([payload]), 0 if passed else 1


def run_ablate_rates(cfg: dict) -> tuple[str, int]:
    try:
        rates = [int(r) for r in cfg["rates"].split(",")]
    except ValueError:
        raise FormatError(
            f"--rates must be comma-separated integers, got {cfg['rates']!r}"
        ) from None
    rows = projectors.ablate_rates(
        rates,
        task_seed=cfg["seed"],
        steps=cfg["steps"],
        lr=cfg["lr"],
        in_channels=cfg["channels"],
        llm_dim=cfg["llm_dim"],
        seq_len=cfg["length"],
    )
    return _csv(("rate", "len_ratio", "params", "final_loss"), [r.values() for r in rows]), 0


def run_pack(cfg: dict) -> tuple[str, int]:
    with _Input(cfg["manifest"]) as f:
        rows = list(f.jsonl({"id": object, "len": int}))
    batch = packing.pack([n for _, n in rows], cfg["capacity"], cfg["policy"])
    payload = batch.to_json()
    for bin_obj in payload["bins"]:
        bin_obj["samples"] = [rows[i][0] for i in bin_obj["samples"]]
    return _jsonl([payload]), 0


def run_stream_sim(cfg: dict) -> tuple[str, int]:
    if bool(cfg["events"]) == bool(cfg["wav"]):
        raise ContractError("provide exactly one of --events or --wav")
    if cfg["frame_plan"] and not cfg["wav"]:
        raise ContractError("--frame-plan needs --wav")
    if cfg["events"]:
        with _Input(cfg["events"]) as f:
            records = f.jsonl({"t": int, "kind": str, "tokens": (int, 0)})
            trace = stream.run(stream.StreamEvent(*r) for r in records)
    else:
        spec = modality.melspec(modality.load_wav(cfg["wav"]))
        plan = None
        if cfg["frame_plan"]:
            with _Input(cfg["frame_plan"]) as f:
                plan = modality.FramePlan.from_json(f.json())
        vad_cfg = stream.VadConfig(
            threshold_db=cfg["threshold_db"],
            hangover_frames=cfg["hangover"],
            rate_n=cfg["rate"],
            mel_frames_per_chunk=cfg["chunk_frames"],
        )
        trace = stream.run(stream.events_from_media(spec, vad_cfg, plan))
    return _jsonl(e.to_json() for e in trace.entries), 0


def run_filter_loss(cfg: dict) -> tuple[str, int]:
    with _Input(cfg["losses"]) as f:
        report = curation.gaussian_filter(dict(f.csv({"id": str, "loss": float}, key=1)))
    return _jsonl([report.to_json()]), 0


def run_split_crossmodal(cfg: dict) -> tuple[str, int]:
    with _Input(cfg["input"]) as f:
        samples = [curation.split_one_three(text) for text, in f.jsonl({"text": str})]
    samples = curation.assign_timbres(samples, cfg["seed"])
    return _jsonl(s.to_json() for s in samples), 0


def run_mix(cfg: dict) -> tuple[str, int]:
    # the flags' own errors are checked first, so they name no file
    curation.check_draw(cfg["budget"], cfg["seed"])
    with _Input(cfg["sizes"]) as f:
        sizes = f.json()
        if not isinstance(sizes, dict):
            raise FormatError("must be a JSON object of name -> size")
        sizes = {name: _field(sizes, name, int) for name in sizes}
        plan = curation.mix_plan(sizes, cfg["budget"], cfg["seed"])
    return _jsonl([plan.to_json()]), 0


def run_metrics(cfg: dict) -> tuple[str, int]:
    metric = {
        "wer": evalkit.wer,
        "cer": evalkit.cer,
        "bleu": evalkit.bleu,
    }[cfg["metric"]]
    with _Input(cfg["pairs"]) as f:
        results = [metric(ref, hyp) for ref, hyp in f.jsonl({"ref": str, "hyp": str})]
        if not results:
            raise FormatError("no ref/hyp pairs")
    lines = [r.to_json() for r in results]
    if cfg["metric"] in ("wer", "cer"):
        errors = sum(
            r.counts["substitutions"] + r.counts["deletions"] + r.counts["insertions"]
            for r in results
        )
        total = sum(r.counts["reference_length"] for r in results)
        aggregate = {"corpus_value": errors / total, "pairs": len(results)}
    else:
        aggregate = {
            "mean_value": sum(r.value for r in results) / len(results),
            "pairs": len(results),
        }
    lines.append({"aggregate": aggregate, "metric": cfg["metric"]})
    return _jsonl(lines), 0


def run_normalize_scores(cfg: dict) -> tuple[str, int]:
    with _Input(cfg["scores"]) as f:
        table = evalkit.ScoreTable.from_rows(
            f.csv({"model": str, "benchmark": str, "raw": float}, key=2))
        normalized = evalkit.normalize_scores(table)
    header = ("model", "benchmark", "raw", "normalized")
    rows = sorted(
        (model, benchmark, raw, normalized[model][benchmark])
        for model, row in table.scores.items()
        for benchmark, raw in row.items()
    )
    if cfg["format"] == "json":
        records = [dict(zip(header, r)) for r in rows]
        return json.dumps(records, sort_keys=True, indent=2) + "\n", 0
    return _csv(header, rows), 0


# ---------------------------------------------------------------------------
# the command table
# ---------------------------------------------------------------------------

_COMMANDS: dict[str, dict] = {}


def _flag(name, type_, help_, default=None, choices=None, required=False):
    return dict(
        name=name, type=type_, help=help_, default=default, choices=choices, required=required
    )


def _command(name, help_, runner, flags, writes_out=False):
    """Register a subcommand. ``writes_out`` marks a runner that writes its
    own --out file, so its payload always goes to stdout."""
    _COMMANDS[name] = {
        "help": help_,
        "runner": runner,
        "flags": {f["name"]: f for f in flags},
        "writes_out": writes_out,
    }


_command("tile", "plan the tile grid and token budget for an image", run_tile, [
    _flag("width", int, "image width in pixels", required=True),
    _flag("height", int, "image height in pixels", required=True),
    _flag("max_tiles", int, "grid tile cap", 9),
    _flag("out", str, "write the JSON plan to this path"),
])
_command("frames", "sample video frames at 1 fps and budget tokens per frame", run_frames, [
    _flag("duration", float, "video duration in seconds", required=True),
    _flag("source_frames", int, "total frames in the source video", required=True),
    _flag("frame_width", int, "frame width in pixels", 384),
    _flag("frame_height", int, "frame height in pixels", 384),
    _flag("out", str, "write the JSON plan to this path"),
])
_command("melspec", "compute 30 s / 128-bin log-mel features from a WAV file", run_melspec, [
    _flag("wav", str, "mono 16-bit 16 kHz WAV input", required=True),
    _flag("out", str, "write the full 3000x128 tensor JSON to this path"),
], writes_out=True)
_command("gradcheck", "verify a projector's backward pass with finite differences", run_gradcheck, [
    _flag("projector", str, "projector to check",
          choices=list(projectors.VISUAL_VARIANTS) + ["conv_gmlp"], required=True),
    _flag("rate", int, "down-sampling rate for conv_gmlp", 2),
    _flag("seeds", int, "number of random seeds to check", 3),
    _flag("seed", int, "base random seed", 0),
    _flag("eps", float, "finite-difference step", 1e-5),
    _flag("tol", float, "max relative error allowed", 1e-4),
    _flag("out", str, "write the JSON report to this path"),
])
_command("ablate-rates", "fit the audio projector at several down-sampling rates", run_ablate_rates, [
    _flag("rates", str, "comma-separated down-sampling rates", "2,4,8"),
    _flag("seed", int, "random seed for the toy task", 0),
    _flag("steps", int, "gradient-descent steps per rate", 200),
    _flag("lr", float, "learning rate", 1e-3),
    _flag("channels", int, "input channels of the toy projector", 32),
    _flag("llm_dim", int, "output embedding width", 16),
    _flag("length", int, "input sequence length", 128),
    _flag("out", str, "write the CSV table to this path"),
])
_command("pack", "pack a manifest of sample lengths into fixed-capacity bins", run_pack, [
    _flag("manifest", str, 'JSON lines of {"id":...,"len":...}', required=True),
    _flag("capacity", int, "bin capacity in tokens", required=True),
    _flag("policy", str, "packing heuristic", "first_fit", choices=list(packing.PACK_POLICIES)),
    _flag("out", str, "write the packed batch JSON to this path"),
])
_command("stream-sim", "replay or derive a stream and emit the injection trace", run_stream_sim, [
    _flag("events", str, "raw event trace (JSON lines) to replay"),
    _flag("wav", str, "derive events from this WAV via the energy VAD"),
    _flag("frame_plan", str, "frame-plan JSON accompanying the WAV"),
    _flag("threshold_db", float, "VAD activity threshold", -60.0),
    _flag("hangover", int, "VAD merge gap in mel frames", 20),
    _flag("rate", int, "audio token down-sampling rate", 2),
    _flag("chunk_frames", int, "mel frames per audio_frame event", 10),
    _flag("out", str, "write the injection trace (JSON lines) to this path"),
])
_command("filter-loss", "keep samples whose loss lies within one sigma of the mean", run_filter_loss, [
    _flag("losses", str, 'CSV with an "id,loss" header', required=True),
    _flag("out", str, "write the JSON report to this path"),
])
_command("split-crossmodal", "split texts 1:3 and assign speech timbres", run_split_crossmodal, [
    _flag("input", str, 'JSON lines of {"text":...}', required=True),
    _flag("seed", int, "seed for timbre assignment", 0),
    _flag("out", str, "write the manifest (JSON lines) to this path"),
])
_command("mix", "draw a size-proportional sample budget across datasets", run_mix, [
    _flag("sizes", str, "JSON object of dataset name -> size", required=True),
    _flag("budget", int, "total samples to draw", required=True),
    _flag("seed", int, "seed carried into the plan", 0),
    _flag("out", str, "write the mix plan JSON to this path"),
])
_command("metrics", "compute wer, cer, or bleu over ref/hyp pairs", run_metrics, [
    _flag("metric", str, "metric to compute", choices=["wer", "cer", "bleu"], required=True),
    _flag("pairs", str, 'JSON lines of {"ref":...,"hyp":...}', required=True),
    _flag("out", str, "write results (JSON lines) to this path"),
])
_command("normalize-scores", "normalize a score table per benchmark column", run_normalize_scores, [
    _flag("scores", str, 'CSV with a "model,benchmark,raw" header', required=True),
    _flag("format", str, "report format", "csv", choices=["csv", "json"]),
    _flag("out", str, "write the report to this path"),
])


def _argv_type(type_):
    """The type rule for an argv value; named after type_ so argparse's
    usage error reads "invalid float value: 'inf'"."""
    def parse(text: str):
        return json_value(type_(text), type_)

    parse.__name__ = type_.__name__
    return parse


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built on first use; parse_args does not change it."""
    parser = argparse.ArgumentParser(
        prog="omnipipe",
        description="Deterministic multimodal input-pipeline toolkit.",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="SUBCOMMAND")
    for name, spec in _COMMANDS.items():
        sp = sub.add_parser(name, help=spec["help"], description=spec["help"])
        sp.add_argument("--config", type=str, default=None, help="JSON config file")
        sp.add_argument(
            "--dump-config",
            action="store_true",
            help="print the resolved configuration and exit",
        )
        for flag in spec["flags"].values():
            shown = "required" if flag["required"] else flag["default"]
            sp.add_argument(
                "--" + flag["name"].replace("_", "-"),
                type=_argv_type(flag["type"]),
                default=None,
                choices=flag["choices"],
                help=f"{flag['help']} (default: {shown})",
            )
    return parser


def resolve_config(args: argparse.Namespace) -> dict:
    """Defaults, then --config values, then flags; each --config value passes
    the flag's type rule and choices. Required flags are checked unless the
    configuration is only being dumped."""
    flags = _COMMANDS[args.command]["flags"]
    cfg = {name: flag["default"] for name, flag in flags.items()}
    if args.config:
        with _Input(args.config) as f:
            file_cfg = f.json()
            if not isinstance(file_cfg, dict):
                raise FormatError("config file must hold a JSON object")
            for key in file_cfg:
                if key not in flags:
                    raise ContractError(f"config key {key!r} is not a flag of {args.command!r}")
                flag = flags[key]
                cfg[key] = _field(file_cfg, key, flag["type"])
                if flag["choices"] and cfg[key] not in flag["choices"]:
                    raise ContractError(
                        f"field {key!r} must be one of {flag['choices']}, got {cfg[key]!r}"
                    )
    for key in cfg:
        value = getattr(args, key)
        if value is not None:
            cfg[key] = value
    if not args.dump_config:
        for name, flag in flags.items():
            if flag["required"] and cfg[name] is None:
                raise ContractError(f"--{name.replace('_', '-')} is required")
    return cfg


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    spec = _COMMANDS[args.command]
    try:
        cfg = resolve_config(args)
        if args.dump_config:
            sys.stdout.write(_jsonl([{"command": args.command, **cfg}]))
            return 0
        payload, code = spec["runner"](cfg)
        if cfg["out"] and not spec["writes_out"]:
            atomic_write(cfg["out"], payload)
        else:
            sys.stdout.write(payload)
        return code
    except (ContractError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        print(f"error: out of memory: {str(exc) or 'allocation failed'}", file=sys.stderr)
        return 1


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
