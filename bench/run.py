#!/usr/bin/env python3
"""Benchmark for omnipipe, driven from outside the package.

    python3 bench/run.py --workload ingest|train|curate|evaluate \\
        --seed N --seconds S --trace 0|1

Each workload is a closed loop with one client (see ``workloads.py``). The
workload seed is an argument; omnipipe receives only the generated inputs.
Every op's output is checked outside the timed region; an op that raises or
fails its check counts in ``failed``.

``--trace 0`` measures the end-to-end metrics with tracing off.
``--trace 1`` runs one warm-up cycle, half the time untraced and half
traced, then replays the first cycle of ops a second time; it reports the per-layer metrics, and the
exact work counts of the first cycle must repeat across the two passes.

The metric names and units come from ``BENCHMARK.json``; which end-to-end
metric each per-layer metric should move, and on which workload, is in
``bench/expectations.json``. A run record (environment, workload
properties, payload digests, counts) and, when traced, the spans are written
to ``.bench_out/``. The last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

import os

# One BLAS thread, set before numpy loads: the load stays within the CPU
# count and the process runs no thread besides its main one.
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_ENV:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"
sys.path.insert(0, str(ROOT / "src"))

from tracer import LAYERS, Tracer  # noqa: E402

WORKLOAD_NAMES = ("ingest", "train", "curate", "evaluate")

# Set-up is short and noisy (interpreter start, imports), so it is taken as
# the median over several fresh processes.
SETUP_PROBES = 5

NUMKIT_KERNELS = [
    f"numkit.{k}{suffix}"
    for k in ("matmul", "conv1d", "pool2x2", "gelu", "sigmoid", "elementwise_mul", "add_bias")
    for suffix in ("", "_backward")
]
DENSE_KERNELS = ["numkit.matmul", "numkit.matmul_backward", "numkit.conv1d", "numkit.conv1d_backward"]
BACKWARD = ["projectors.conv_gmlp_backward", "projectors.visual_project_backward"]
FORWARD = ["projectors.conv_gmlp_forward", "projectors.visual_project"]


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument(
        "--workload", required=True, choices=[*WORKLOAD_NAMES, "all"],
        help="one workload, or all of them, each in its own process",
    )
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


class Phase:
    """Ops run back to back, each op's latency, items, problems and counts."""

    def __init__(self) -> None:
        self.latencies: list[float] = []
        self.items = 0
        self.failed = 0
        self.problems: list[str] = []
        self.stats: list[dict] = []

    @property
    def busy(self) -> float:
        return sum(self.latencies)

    @property
    def items_per_s(self) -> float:
        return self.items / self.busy


def run_phase(w, seconds: float, tracer=None, min_ops: int = 0) -> Phase:
    """Run ops until ``seconds`` of op time have passed, stopping only at a
    cycle boundary and after at least ``min_ops`` ops."""
    phase = Phase()
    i = 0
    while not (i % w.cycle == 0 and i >= min_ops and phase.busy >= seconds):
        inp = w.prepare(i)
        if tracer is not None:
            tracer.current_op = i
        error = None
        t0 = time.perf_counter()
        try:
            out = w.run(inp)
        except Exception:  # an op that raises is a failed op; the run goes on
            error = traceback.format_exc()
        phase.latencies.append(time.perf_counter() - t0)
        if tracer is not None:
            tracer.current_op = -1
        problems, stats = [error], {}
        if error is None:
            try:
                problems, stats = w.check(inp, out)
            except Exception:
                problems = [traceback.format_exc()]
        phase.stats.append(stats)
        if problems:
            phase.failed += 1
            phase.problems.extend(f"op {i}: {p}" for p in problems)
        else:
            phase.items += w.items(inp)
        i += 1
    return phase


def _sum_stat(stats, key):
    return sum(s.get(key, 0) for s in stats)


def _ratio(num, den):
    return float(num) / den if den else 0.0


def exact_counts(spans, stats: list[dict], n_ops: int) -> dict:
    """Work counts of ops 0..n_ops-1; they depend only on the inputs."""
    first = (spans.op >= 0) & (spans.op < n_ops)
    kernels = spans.select(NUMKIT_KERNELS) & first
    checks = spans.select(["projectors.check_gradients"]) & first
    backward = spans.select(BACKWARD) & first
    stats = stats[:n_ops]
    return {
        "numkit.calls_per_op": _ratio(kernels.sum(), n_ops),
        "numkit.tensors_per_op": _ratio(sum(c for op, c in spans.tensors.items() if 0 <= op < n_ops), n_ops),
        "numkit.gflop_per_op": _ratio(spans.work[kernels].sum() / 1e9, n_ops),
        "projectors.loss_calls_per_check": _ratio(
            (spans.select(FORWARD) & first & (spans.with_ancestor(["projectors.check_gradients"]) >= 0)).sum(),
            checks.sum(),
        ),
        "projectors.numkit_calls_per_bwd": _ratio(
            (kernels & (spans.with_ancestor(BACKWARD) >= 0)).sum(), backward.sum()
        ),
        "evalkit.dp_mcells_per_op": _ratio(
            spans.work[spans.select(["evalkit.cer", "evalkit.wer"]) & first].sum() / 1e6, n_ops
        ),
        "modality.speech_frac": _ratio(_sum_stat(stats, "speech_frac"), n_ops),
        "stream.events_per_op": _ratio(_sum_stat(stats, "events"), n_ops),
        "stream.triggers_per_op": _ratio(_sum_stat(stats, "triggers"), n_ops),
        "packing.bins_per_op": _ratio(_sum_stat(stats, "bins"), n_ops),
        "packing.fill_frac": _ratio(_sum_stat(stats, "fill"), _sum_stat(stats, "capacity")),
        "packing.attention_useful_frac": _ratio(
            _sum_stat(stats, "useful_cells"), _sum_stat(stats, "attention_cells")
        ),
        "curation.kept_frac": _ratio(_sum_stat(stats, "kept"), _sum_stat(stats, "filtered")),
        "cli.bytes_out_per_op": _ratio(_sum_stat(stats, "bytes_out"), n_ops),
    }


def layer_times(spans, phase: Phase, untraced: Phase) -> dict:
    """Per-layer time metrics of a traced phase, in ms."""
    n = len(phase.latencies)
    timed = spans.op >= 0

    def per_op(mask, values):
        return 1e3 * values[mask & timed].sum() / n

    def per_call(names, values=None):
        mask = spans.select(names) & timed
        values = spans.dur if values is None else values
        return _ratio(1e3 * values[mask].sum(), mask.sum())

    def incl(names):
        return per_op(spans.select(names), spans.dur)

    out = {f"{layer}.self_ms_per_op": per_op(spans.layer_mask(layer), spans.self_time) for layer in LAYERS}
    top = per_op(spans.parent < 0, spans.dur)
    dense = spans.select(DENSE_KERNELS) & timed
    dp = spans.select(["evalkit.cer", "evalkit.wer"]) & timed
    out.update({
        "trace.unattributed_ms_per_op": 1e3 * phase.busy / n - top,
        "trace.overhead_frac": 1.0 - phase.items_per_s / untraced.items_per_s,
        "numkit.grad_check_self_ms": per_call(["numkit.grad_check"], spans.self_time),
        "numkit.gflops": _ratio(spans.work[dense].sum() / 1e9, spans.self_time[dense].sum()),
        "modality.load_wav_ms": incl(["modality.load_wav"]),
        "modality.melspec_ms": incl(["modality.melspec"]),
        "modality.vad_ms": incl(["modality.vad"]),
        "modality.plan_ms": incl(["modality.plan_tiles", "modality.plan_frames", "modality.frame_tokens"]),
        "stream.events_from_media_ms": per_op(spans.select(["stream.events_from_media"]), spans.self_time),
        "stream.run_ms": incl(["stream.run"]),
        "projectors.gmlp_fwd_ms": per_call(["projectors.conv_gmlp_forward"]),
        "projectors.gmlp_bwd_ms": per_call(["projectors.conv_gmlp_backward"]),
        "projectors.visual_fwd_ms": per_call(["projectors.visual_project"]),
        "projectors.visual_bwd_ms": per_call(["projectors.visual_project_backward"]),
        "packing.pack_ms": incl(["packing.pack"]),
        "packing.mask_ms": incl(["packing.build_mask"]),
        "packing.attention_ms": incl(["packing.packed_attention"]),
        "curation.filter_ms": incl(["curation.gaussian_filter"]),
        "curation.split_ms": incl(["curation.split_one_three", "curation.assign_timbres"]),
        "curation.mix_ms": incl(["curation.mix_plan"]),
        "curation.roundtrip_ms": incl(["curation.asr_roundtrip_filter"]),
        "evalkit.cer_ms_per_pair": per_call(["evalkit.cer"]),
        "evalkit.wer_ms_per_pair": per_call(["evalkit.wer"]),
        "evalkit.bleu_ms_per_pair": per_call(["evalkit.bleu"]),
        "evalkit.mcells_per_s": _ratio(spans.work[dp].sum() / 1e6, spans.dur[dp].sum()),
    })
    return out


def traced_phase(w, seconds: float, modules, tensor_cls):
    tracer = Tracer()
    tracer.install(modules, tensor_cls)
    try:
        phase = run_phase(w, seconds, tracer, min_ops=w.cycle)
    finally:
        tracer.uninstall()
    return tracer, phase


def setup_seconds(workload: str) -> list[float]:
    """Wall time from process start until set-up is done, in fresh processes."""
    samples = []
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--setup-probe"]
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE) as proc:
            try:
                line = proc.stdout.readline()
                t1 = time.perf_counter()
                proc.stdout.read()
                code = proc.wait(timeout=60)
            except BaseException:
                proc.kill()
                raise
        if code != 0 or line.strip() != b"ready":
            raise RuntimeError(f"set-up probe exited with code {code}")
        samples.append(t1 - t0)
    return samples


def git_rev():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(seed: int) -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (AttributeError, KeyError, TypeError):
        blas = None
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "blas_threads": {v: os.environ.get(v) for v in BLAS_ENV},
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "git_rev": git_rev(),
        "seed": seed,
        "threads": threading.active_count(),
    }


def run_all(args) -> int:
    """Run every workload in its own process and print one table."""
    results = {}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(BENCH / "run.py"), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, check=False)
        if proc.returncode != 0:
            print(f"error: workload {name} exited with code {proc.returncode}", file=sys.stderr)
            return proc.returncode
        results[name] = json.loads(proc.stdout.strip().splitlines()[-1])
    metrics = {m: r["metrics"][m]["unit"] for r in results.values() for m in r["metrics"]}
    print(f"{'metric':34s} {'unit':8s}" + "".join(f" {n:>12s}" for n in results))
    print(f"{'fail_frac':34s} {'ratio':8s}" + "".join(
        f" {r['failed'] / r['attempted']:12.6g}" for r in results.values()))
    for m, unit in metrics.items():
        print(f"{m:34s} {unit:8s}" + "".join(f" {r['metrics'][m]['value']:12.6g}" for r in results.values()))
    print(json.dumps(results))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        expectations = json.loads((BENCH / "expectations.json").read_text(encoding="utf-8"))
        import workloads
        from omnipipe import cli, curation, evalkit, fileio, modality, numkit, packing, projectors, stream
    except (ImportError, OSError, ValueError) as exc:
        print(f"error: cannot load omnipipe or the benchmark files: {exc}", file=sys.stderr)
        return 2

    cls = workloads.WORKLOADS[args.workload]
    if args.setup_probe:
        cls(args.seed, None).setup()
        print("ready", flush=True)
        return 0

    OUT.mkdir(exist_ok=True)
    tmp = OUT / f"tmp-{args.workload}-{os.getpid()}"
    tmp.mkdir()
    try:
        w = cls(args.seed, tmp)
        w.setup()
        w.generate()
        if args.trace:
            modules = [numkit, modality, stream, projectors, packing, curation, evalkit, cli, fileio]
            # one untraced cycle first, so heap growth and cold caches do not
            # land in the untraced half and bias trace.overhead_frac
            warmup = run_phase(w, 0.0, min_ops=w.cycle)
            untraced = run_phase(w, args.seconds / 2)
            tracer, traced = traced_phase(w, args.seconds / 2, modules, numkit.Tensor)
            # replay the first cycle: its exact counts must repeat
            replay_tracer, replay = traced_phase(w, 0.0, modules, numkit.Tensor)
            spans = tracer.spans()
            counts = exact_counts(spans, traced.stats, w.cycle)
            replay_counts = exact_counts(replay_tracer.spans(), replay.stats, w.cycle)
            metrics = {**layer_times(spans, traced, untraced), **counts}
            phases, repeat_ok = [untraced, traced, replay, warmup], counts == replay_counts
            wanted = spec["per_layer"]
        else:
            phase = run_phase(w, args.seconds)
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            lat_ms = sorted(1e3 * x for x in phase.latencies)
            metrics = {
                "setup_s": statistics.median(setup_seconds(args.workload)),
                "items_per_s": phase.items_per_s,
                "op_p50_ms": statistics.median(lat_ms),
                "op_p90_ms": (
                    statistics.quantiles(lat_ms, n=10, method="inclusive")[8]
                    if len(lat_ms) > 1 else lat_ms[0]
                ),
                "peak_rss_mb": peak_rss_mb,
            }
            phases, repeat_ok = [phase], True
            wanted = spec["end_to_end"]
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    units = {m["name"]: m["unit"] for m in wanted}
    unmapped = [m for m in spec["per_layer"] if m["name"] not in expectations["per_layer"]]
    if set(metrics) != set(units) or unmapped:
        print(f"error: metrics {sorted(set(metrics) ^ set(units))} or map entries "
              f"{[m['name'] for m in unmapped]} disagree with BENCHMARK.json", file=sys.stderr)
        return 1

    main_phase = phases[0]
    attempted = sum(len(p.latencies) for p in phases)
    failed = sum(p.failed for p in phases)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(args.seed),
        "item": w.item,
        "ops": len(main_phase.latencies),
        "attempted": attempted,
        "failed": failed,
        "fail_frac": failed / attempted,
        "problems": [p for ph in phases for p in ph.problems][:20],
        "metrics": metrics,
        "properties": w.properties(main_phase.stats),
        "digests": [s["digests"] for s in main_phase.stats if "digests" in s],
        "latencies_ms": [1e3 * x for x in main_phase.latencies],
    }
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        record["counts_repeat"] = repeat_ok
        if not repeat_ok:
            record["counts"], record["replay_counts"] = counts, replay_counts
        tracer.save(OUT / f"{args.workload}-seed{args.seed}-spans.npz")
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")

    print(f"workload={args.workload} seed={args.seed} trace={args.trace} "
          f"ops={record['ops']} ({w.item}) fail_frac={failed}/{attempted}={record['fail_frac']:g}"
          + ("" if repeat_ok else " COUNTS DID NOT REPEAT"))
    for name, value in metrics.items():
        print(f"  {name:34s} {value:14.6g} {units[name]}")
    print(f"  properties: {json.dumps(record['properties'])}")
    for problem in record["problems"][:5]:
        print(f"  FAILED {problem.strip().splitlines()[-1]}")
    print(json.dumps({
        "correct": failed == 0 and repeat_ok,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
