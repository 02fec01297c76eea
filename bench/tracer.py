"""In-memory span tracer that wraps omnipipe's public functions from outside.

The package itself carries no instrumentation. ``Tracer.install`` replaces
every public function of the layer modules, wherever a module attribute
refers to it (so ``stream.vad``, imported from ``modality``, is traced as
``modality.vad``), with a wrapper that records one span per call: name, start,
end, parent span and op id. ``Tensor.__init__`` is wrapped to count tensor
constructions per op. ``uninstall`` restores every replaced attribute.

Spans live in flat typed arrays (about 40 bytes each) so a traced run of a
few hundred thousand calls stays small; ``save`` writes them out at the end.
"""

from __future__ import annotations

import functools
import inspect
import time
from array import array
from collections import defaultdict

import numpy as np

# fileio.atomic_write is the CLI's output path, so it counts as CLI work.
LAYER_OF_MODULE = {"fileio": "cli"}
LAYERS = ("numkit", "modality", "stream", "projectors", "packing", "curation", "evalkit", "cli")


def _arg(args, kwargs, pos, name, default=None):
    if len(args) > pos:
        return args[pos]
    return kwargs.get(name, default)


def _matmul_flop(args, kwargs):
    a, b = _arg(args, kwargs, 0, "a"), _arg(args, kwargs, 1, "b")
    return 2.0 * a.shape[0] * a.shape[1] * b.shape[1]


def _conv1d_flop(args, kwargs):
    x, kernel = _arg(args, kwargs, 0, "x"), _arg(args, kwargs, 1, "kernel")
    stride = _arg(args, kwargs, 2, "stride", 1)
    pad = _arg(args, kwargs, 3, "pad_right", 0)
    k, c_in, c_out = kernel.shape
    l_out = (x.shape[0] + pad - k) // stride + 1
    return 2.0 * l_out * k * c_in * c_out


def _dp_cells(args, kwargs):
    ref, hyp = _arg(args, kwargs, 0, "reference"), _arg(args, kwargs, 1, "hypothesis")
    return float(len(ref) * len(hyp))


def _dp_word_cells(args, kwargs):
    ref, hyp = _arg(args, kwargs, 0, "reference"), _arg(args, kwargs, 1, "hypothesis")
    return float(len(ref.split()) * len(hyp.split()))


# Work computed from call arguments: floating-point operations for the dense
# kernels (a backward pass does two products of the forward's size) and
# edit-distance DP cells (n * m) for the metrics.
WORK = {
    "numkit.matmul": _matmul_flop,
    "numkit.matmul_backward": lambda a, k: 2.0 * _matmul_flop(a, k),
    "numkit.conv1d": _conv1d_flop,
    "numkit.conv1d_backward": lambda a, k: 2.0 * _conv1d_flop(a, k),
    "evalkit.cer": _dp_cells,
    "evalkit.wer": _dp_word_cells,
}


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.op = array("i")
        self.work = array("d")
        self.tensors: dict[int, int] = defaultdict(int)
        self.current_op = -1
        self._stack = [-1]
        self._restore: list[tuple[object, str, object]] = []

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _wrap(self, fn, name: str):
        nid = self._name_id(name)
        work = WORK.get(name)
        names, starts, ends, parents, ops, works = (
            self.name, self.start, self.end, self.parent, self.op, self.work
        )
        stack = self._stack
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1])
            ops.append(tracer.current_op)
            works.append(work(args, kwargs) if work else 0.0)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                starts[idx] = t0
                stack.pop()

        return wrapper

    def install(self, modules: list, tensor_cls) -> None:
        """Wrap the public functions defined in ``modules`` and rebind every
        module attribute that refers to one of them."""
        wrapped = {}
        for mod in modules:
            short = mod.__name__.rsplit(".", 1)[-1]
            layer = LAYER_OF_MODULE.get(short, short)
            for attr, obj in vars(mod).items():
                if (
                    inspect.isfunction(obj)
                    and obj.__module__ == mod.__name__
                    and not attr.startswith("_")
                ):
                    wrapped[obj] = self._wrap(obj, f"{layer}.{attr}")
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    self._restore.append((mod, attr, obj))
                    setattr(mod, attr, wrapped[obj])

        init = tensor_cls.__init__
        counts = self.tensors
        tracer = self

        @functools.wraps(init)
        def counting_init(obj, *args, **kwargs):
            counts[tracer.current_op] += 1
            init(obj, *args, **kwargs)

        self._restore.append((tensor_cls, "__init__", init))
        tensor_cls.__init__ = counting_init

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def spans(self) -> "Spans":
        return Spans(self)

    def save(self, path) -> None:
        np.savez(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.name, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            parent=np.frombuffer(self.parent, dtype=np.int64),
            op=np.frombuffer(self.op, dtype=np.int32),
            work=np.frombuffer(self.work, dtype=np.float64),
        )


class Spans:
    """Columnar view of a tracer's spans with self time per span.

    A span's self time is its duration minus the part covered by its child
    spans; calls are single-threaded and strictly nested, so that part is the
    sum of the children's durations.
    """

    def __init__(self, tracer: Tracer) -> None:
        self.names = list(tracer.names)
        self.name = np.array(tracer.name, dtype=np.int64)
        self.parent = np.array(tracer.parent, dtype=np.int64)
        self.op = np.array(tracer.op, dtype=np.int64)
        self.work = np.array(tracer.work, dtype=np.float64)
        self.dur = np.array(tracer.end, dtype=np.float64) - np.array(tracer.start)
        child = self.parent >= 0
        covered = np.bincount(
            self.parent[child], weights=self.dur[child], minlength=self.dur.size
        )
        self.self_time = self.dur - covered[: self.dur.size]
        self.tensors = dict(tracer.tensors)

    def select(self, names) -> np.ndarray:
        wanted = set(names)
        return np.isin(self.name, [i for i, n in enumerate(self.names) if n in wanted])

    def layer_mask(self, layer: str) -> np.ndarray:
        ids = [i for i, n in enumerate(self.names) if n.split(".", 1)[0] == layer]
        return np.isin(self.name, ids)

    def with_ancestor(self, names) -> np.ndarray:
        """For each span, the index of its nearest ancestor named in
        ``names`` (the span itself excluded), or -1."""
        marks = self.select(names)
        anc = np.full(self.name.size, -1, dtype=np.int64)
        for i, p in enumerate(self.parent.tolist()):
            if p >= 0:
                anc[i] = p if marks[p] else anc[p]
        return anc
