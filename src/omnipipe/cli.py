"""Command-line entry point wiring the pipeline stages together.

Subcommands: tile, frames, melspec, gradcheck, ablate-rates, pack,
stream-sim, filter-loss, split-crossmodal, mix, metrics, normalize-scores.

Configuration precedence is flags > --config JSON file > built-in defaults;
--dump-config prints the resolved configuration instead of running. Exit
codes: 0 success, 1 contract error, 2 usage error. All outputs are
deterministic for a fixed configuration and written atomically.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from pathlib import Path

from . import curation, evalkit, modality, packing, projectors, stream
from .errors import ContractError, FormatError
from .fileio import atomic_write


def _jsonl(records) -> str:
    return "".join(json.dumps(r, sort_keys=True) + "\n" for r in records)


def _read_jsonl(path: str) -> list[dict]:
    records = []
    text = Path(path).read_text(encoding="utf-8")
    for line_no, line in enumerate(text.splitlines(), 1):
        if not line.strip():
            continue
        try:
            records.append(json.loads(line))
        except json.JSONDecodeError as exc:
            raise FormatError(f"{path}:{line_no}: invalid JSON ({exc})") from exc
    return records


# ---------------------------------------------------------------------------
# subcommand handlers: each returns (stdout payload, exit code)
# ---------------------------------------------------------------------------

def run_tile(cfg: dict) -> tuple[str, int]:
    plan = modality.plan_tiles(cfg["width"], cfg["height"], cfg["max_tiles"])
    return json.dumps(plan.to_json(), sort_keys=True) + "\n", 0


def run_frames(cfg: dict) -> tuple[str, int]:
    tokens = modality.frame_tokens(cfg["frame_width"], cfg["frame_height"])
    plan = modality.plan_frames(cfg["duration"], cfg["source_frames"], tokens)
    return json.dumps(plan.to_json(), sort_keys=True) + "\n", 0


def run_melspec(cfg: dict) -> tuple[str, int]:
    spec = modality.melspec(modality.load_wav(cfg["wav"]))
    if cfg["out"]:
        atomic_write(cfg["out"], json.dumps(spec.data.to_json(), sort_keys=True) + "\n")
    summary = {
        "frames": spec.frames,
        "bins": spec.bins,
        "min": float(spec.data.array.min()),
        "max": float(spec.data.array.max()),
    }
    return json.dumps(summary, sort_keys=True) + "\n", 0


def run_gradcheck(cfg: dict) -> tuple[str, int]:
    if cfg["seeds"] < 1:
        raise ContractError(f"--seeds must be >= 1, got {cfg['seeds']}")
    worst = 0.0
    for i in range(cfg["seeds"]):
        report = projectors.check_gradients(
            cfg["projector"],
            seed=cfg["seed"] + i,
            eps=cfg["eps"],
            tol=cfg["tol"],
            rate=cfg["rate"],
        )
        worst = max(worst, report.max_relative_error)
    passed = worst < cfg["tol"]
    payload = {
        "projector": cfg["projector"],
        "rate": cfg["rate"] if cfg["projector"] == "conv_gmlp" else None,
        "seeds": cfg["seeds"],
        "max_relative_error": worst,
        "passed": passed,
    }
    return json.dumps(payload, sort_keys=True) + "\n", 0 if passed else 1


def run_ablate_rates(cfg: dict) -> tuple[str, int]:
    rates = [int(r) for r in str(cfg["rates"]).split(",") if r != ""]
    rows = projectors.ablate_rates(
        rates,
        task_seed=cfg["seed"],
        steps=cfg["steps"],
        lr=cfg["lr"],
        in_channels=cfg["channels"],
        llm_dim=cfg["llm_dim"],
        seq_len=cfg["length"],
    )
    return projectors.ablation_csv(rows), 0


def run_pack(cfg: dict) -> tuple[str, int]:
    records = _read_jsonl(cfg["manifest"])
    try:
        ids = [r["id"] for r in records]
        lengths = [int(r["len"]) for r in records]
    except (KeyError, TypeError) as exc:
        raise FormatError(f"manifest lines must carry id and len: {exc}") from exc
    batch = packing.pack(lengths, cfg["capacity"], cfg["policy"])
    payload = batch.to_json()
    for bin_obj in payload["bins"]:
        bin_obj["samples"] = [ids[i] for i in bin_obj["samples"]]
    return json.dumps(payload, sort_keys=True) + "\n", 0


def run_stream_sim(cfg: dict) -> tuple[str, int]:
    if bool(cfg["events"]) == bool(cfg["wav"]):
        raise ContractError("provide exactly one of --events or --wav")
    if cfg["events"]:
        events = stream.read_events_jsonl(Path(cfg["events"]).read_text(encoding="utf-8"))
    else:
        spec = modality.melspec(modality.load_wav(cfg["wav"]))
        plan = None
        if cfg["frame_plan"]:
            plan = modality.FramePlan.from_json(
                json.loads(Path(cfg["frame_plan"]).read_text(encoding="utf-8"))
            )
        vad_cfg = stream.VadConfig(
            threshold_db=cfg["threshold_db"],
            hangover_frames=cfg["hangover"],
            rate_n=cfg["rate"],
            mel_frames_per_chunk=cfg["chunk_frames"],
        )
        events = stream.events_from_media(spec, vad_cfg, plan)
    trace = stream.run(events)
    return trace.to_jsonl(), 0


def run_filter_loss(cfg: dict) -> tuple[str, int]:
    losses: dict[str, float] = {}
    with open(cfg["losses"], newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        if header is None or [h.strip() for h in header[:2]] != ["id", "loss"]:
            raise FormatError('loss file must start with an "id,loss" header')
        for row in reader:
            if not row:
                continue
            try:
                losses[row[0]] = float(row[1])
            except (IndexError, ValueError) as exc:
                raise FormatError(f"bad loss row {row!r}: {exc}") from exc
    report = curation.gaussian_filter(losses)
    return json.dumps(report.to_json(), sort_keys=True) + "\n", 0


def run_split_crossmodal(cfg: dict) -> tuple[str, int]:
    records = _read_jsonl(cfg["input"])
    try:
        texts = [r["text"] for r in records]
    except (KeyError, TypeError) as exc:
        raise FormatError(f"input lines must carry a text field: {exc}") from exc
    samples = [curation.split_one_three(t) for t in texts]
    samples = curation.assign_timbres(samples, cfg["seed"])
    return _jsonl(s.to_json() for s in samples), 0


def run_mix(cfg: dict) -> tuple[str, int]:
    sizes = json.loads(Path(cfg["sizes"]).read_text(encoding="utf-8"))
    if not isinstance(sizes, dict):
        raise FormatError("sizes file must be a JSON object of name -> size")
    plan = curation.mix_plan(sizes, cfg["budget"], cfg["seed"])
    return json.dumps(plan.to_json(), sort_keys=True) + "\n", 0


def run_metrics(cfg: dict) -> tuple[str, int]:
    records = _read_jsonl(cfg["pairs"])
    results = []
    for r in records:
        try:
            ref, hyp = r["ref"], r["hyp"]
        except (KeyError, TypeError) as exc:
            raise FormatError(f"pair lines must carry ref and hyp: {exc}") from exc
        if cfg["metric"] == "wer":
            results.append(evalkit.wer(ref, hyp))
        elif cfg["metric"] == "cer":
            results.append(evalkit.cer(ref, hyp))
        else:
            results.append(evalkit.bleu([ref], hyp))
    lines = [r.to_json() for r in results]
    if cfg["metric"] in ("wer", "cer"):
        errors = sum(
            r.counts["substitutions"] + r.counts["deletions"] + r.counts["insertions"]
            for r in results
        )
        total = sum(r.counts["reference_length"] for r in results)
        aggregate = {"corpus_value": errors / total if total else 0.0, "pairs": len(results)}
    else:
        aggregate = {
            "mean_value": sum(r.value for r in results) / len(results) if results else 0.0,
            "pairs": len(results),
        }
    lines.append({"aggregate": aggregate, "metric": cfg["metric"]})
    return _jsonl(lines), 0


def run_normalize_scores(cfg: dict) -> tuple[str, int]:
    rows = []
    with open(cfg["scores"], newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        if header is None or [h.strip() for h in header[:3]] != ["model", "benchmark", "raw"]:
            raise FormatError('scores file must start with a "model,benchmark,raw" header')
        for row in reader:
            if not row:
                continue
            try:
                rows.append((row[0], row[1], float(row[2])))
            except (IndexError, ValueError) as exc:
                raise FormatError(f"bad score row {row!r}: {exc}") from exc
    table = evalkit.ScoreTable.from_rows(rows)
    return evalkit.render_report(table, cfg["format"]), 0


# ---------------------------------------------------------------------------
# parser construction
# ---------------------------------------------------------------------------

_COMMANDS: dict[str, dict] = {}

_HELP = {
    "tile": "plan the tile grid and token budget for an image",
    "frames": "sample video frames at 1 fps and budget tokens per frame",
    "melspec": "compute 30 s / 128-bin log-mel features from a WAV file",
    "gradcheck": "verify a projector's backward pass with finite differences",
    "ablate-rates": "fit the audio projector at several down-sampling rates",
    "pack": "pack a manifest of sample lengths into fixed-capacity bins",
    "stream-sim": "replay or derive a stream and emit the injection trace",
    "filter-loss": "keep samples whose loss lies within one sigma of the mean",
    "split-crossmodal": "split texts 1:3 and assign speech timbres",
    "mix": "draw a size-proportional sample budget across datasets",
    "metrics": "compute wer, cer, or bleu over ref/hyp pairs",
    "normalize-scores": "normalize a score table per benchmark column",
}


def _command(name, runner, defaults, flags):
    _COMMANDS[name] = {"runner": runner, "defaults": defaults, "flags": flags}


def _flag(name, type_, help_, choices=None, required=False):
    return dict(name=name, type=type_, help=help_, choices=choices, required=required)


_command(
    "tile",
    run_tile,
    {"width": None, "height": None, "max_tiles": 9, "out": None},
    [
        _flag("width", int, "image width in pixels", required=True),
        _flag("height", int, "image height in pixels", required=True),
        _flag("max_tiles", int, "grid tile cap"),
        _flag("out", str, "write the JSON plan to this path"),
    ],
)
_command(
    "frames",
    run_frames,
    {
        "duration": None,
        "source_frames": None,
        "frame_width": 384,
        "frame_height": 384,
        "out": None,
    },
    [
        _flag("duration", float, "video duration in seconds", required=True),
        _flag("source_frames", int, "total frames in the source video", required=True),
        _flag("frame_width", int, "frame width in pixels"),
        _flag("frame_height", int, "frame height in pixels"),
        _flag("out", str, "write the JSON plan to this path"),
    ],
)
_command(
    "melspec",
    run_melspec,
    {"wav": None, "out": None},
    [
        _flag("wav", str, "mono 16-bit 16 kHz WAV input", required=True),
        _flag("out", str, "write the full 3000x128 tensor JSON to this path"),
    ],
)
_command(
    "gradcheck",
    run_gradcheck,
    {
        "projector": None,
        "rate": 2,
        "seeds": 3,
        "seed": 0,
        "eps": 1e-5,
        "tol": 1e-4,
        "out": None,
    },
    [
        _flag(
            "projector",
            str,
            "projector to check",
            choices=list(projectors.VISUAL_VARIANTS) + ["conv_gmlp"],
            required=True,
        ),
        _flag("rate", int, "down-sampling rate for conv_gmlp"),
        _flag("seeds", int, "number of random seeds to check"),
        _flag("seed", int, "base random seed"),
        _flag("eps", float, "finite-difference step"),
        _flag("tol", float, "max relative error allowed"),
        _flag("out", str, "write the JSON report to this path"),
    ],
)
_command(
    "ablate-rates",
    run_ablate_rates,
    {
        "rates": "2,4,8",
        "seed": 0,
        "steps": 200,
        "lr": 1e-3,
        "channels": 32,
        "llm_dim": 16,
        "length": 128,
        "out": None,
    },
    [
        _flag("rates", str, "comma-separated down-sampling rates"),
        _flag("seed", int, "random seed for the toy task"),
        _flag("steps", int, "gradient-descent steps per rate"),
        _flag("lr", float, "learning rate"),
        _flag("channels", int, "input channels of the toy projector"),
        _flag("llm_dim", int, "output embedding width"),
        _flag("length", int, "input sequence length"),
        _flag("out", str, "write the CSV table to this path"),
    ],
)
_command(
    "pack",
    run_pack,
    {"manifest": None, "capacity": None, "policy": "first_fit", "out": None},
    [
        _flag("manifest", str, 'JSON lines of {"id":...,"len":...}', required=True),
        _flag("capacity", int, "bin capacity in tokens", required=True),
        _flag("policy", str, "packing heuristic", choices=list(packing.PACK_POLICIES)),
        _flag("out", str, "write the packed batch JSON to this path"),
    ],
)
_command(
    "stream-sim",
    run_stream_sim,
    {
        "events": None,
        "wav": None,
        "frame_plan": None,
        "threshold_db": -60.0,
        "hangover": 20,
        "rate": 2,
        "chunk_frames": 10,
        "out": None,
    },
    [
        _flag("events", str, "raw event trace (JSON lines) to replay"),
        _flag("wav", str, "derive events from this WAV via the energy VAD"),
        _flag("frame_plan", str, "frame-plan JSON accompanying the WAV"),
        _flag("threshold_db", float, "VAD activity threshold"),
        _flag("hangover", int, "VAD merge gap in mel frames"),
        _flag("rate", int, "audio token down-sampling rate"),
        _flag("chunk_frames", int, "mel frames per audio_frame event"),
        _flag("out", str, "write the injection trace (JSON lines) to this path"),
    ],
)
_command(
    "filter-loss",
    run_filter_loss,
    {"losses": None, "out": None},
    [
        _flag("losses", str, 'CSV with an "id,loss" header', required=True),
        _flag("out", str, "write the JSON report to this path"),
    ],
)
_command(
    "split-crossmodal",
    run_split_crossmodal,
    {"input": None, "seed": 0, "out": None},
    [
        _flag("input", str, 'JSON lines of {"text":...}', required=True),
        _flag("seed", int, "seed for timbre assignment"),
        _flag("out", str, "write the manifest (JSON lines) to this path"),
    ],
)
_command(
    "mix",
    run_mix,
    {"sizes": None, "budget": None, "seed": 0, "out": None},
    [
        _flag("sizes", str, "JSON object of dataset name -> size", required=True),
        _flag("budget", int, "total samples to draw", required=True),
        _flag("seed", int, "seed carried into the plan"),
        _flag("out", str, "write the mix plan JSON to this path"),
    ],
)
_command(
    "metrics",
    run_metrics,
    {"metric": None, "pairs": None, "out": None},
    [
        _flag("metric", str, "metric to compute", choices=["wer", "cer", "bleu"], required=True),
        _flag("pairs", str, 'JSON lines of {"ref":...,"hyp":...}', required=True),
        _flag("out", str, "write results (JSON lines) to this path"),
    ],
)
_command(
    "normalize-scores",
    run_normalize_scores,
    {"scores": None, "format": "csv", "out": None},
    [
        _flag("scores", str, 'CSV with a "model,benchmark,raw" header', required=True),
        _flag("format", str, "report format", choices=["csv", "json"]),
        _flag("out", str, "write the report to this path"),
    ],
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="omnipipe",
        description="Deterministic multimodal input-pipeline toolkit.",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="SUBCOMMAND")
    for name, spec in _COMMANDS.items():
        sp = sub.add_parser(name, help=_HELP[name], description=_HELP[name])
        sp.add_argument("--config", type=str, default=None, help="JSON config file")
        sp.add_argument(
            "--dump-config",
            action="store_true",
            help="print the resolved configuration and exit",
        )
        for flag in spec["flags"]:
            shown = "required" if flag["required"] else spec["defaults"][flag["name"]]
            kwargs = {
                "type": flag["type"],
                "default": None,
                "help": f"{flag['help']} (default: {shown})",
            }
            if flag["choices"]:
                kwargs["choices"] = flag["choices"]
            sp.add_argument("--" + flag["name"].replace("_", "-"), **kwargs)
    return parser


def resolve_config(args: argparse.Namespace) -> dict:
    spec = _COMMANDS[args.command]
    cfg = dict(spec["defaults"])
    if args.config:
        try:
            file_cfg = json.loads(Path(args.config).read_text(encoding="utf-8"))
        except json.JSONDecodeError as exc:
            raise FormatError(f"config file is not valid JSON: {exc}") from exc
        if not isinstance(file_cfg, dict):
            raise FormatError("config file must hold a JSON object")
        for key, value in file_cfg.items():
            if key not in cfg:
                raise ContractError(
                    f"config key {key!r} is not a flag of {args.command!r}"
                )
            cfg[key] = value
    for key in cfg:
        value = getattr(args, key, None)
        if value is not None:
            cfg[key] = value
    return cfg


def _check_required(command: str, cfg: dict) -> None:
    spec = _COMMANDS[command]
    for flag in spec["flags"]:
        name = flag["name"]
        if flag["required"] and cfg[name] is None:
            raise ContractError(f"--{name.replace('_', '-')} is required")


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = resolve_config(args)
        if args.dump_config:
            print(json.dumps({"command": args.command, **cfg}, sort_keys=True))
            return 0
        _check_required(args.command, cfg)
        payload, code = _COMMANDS[args.command]["runner"](cfg)
        if cfg.get("out") and args.command != "melspec":
            atomic_write(cfg["out"], payload)
        else:
            sys.stdout.write(payload)
        return code
    except ContractError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
