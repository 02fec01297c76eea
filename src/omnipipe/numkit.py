"""Minimal float64 numeric kernel.

Matmul, GELU and sigmoid, each with a hand-written adjoint (no autodiff
tape), and a finite-difference gradient checker. Convolutions are a reshape
into windows and a matmul (each kernel is as wide as its stride), the 2x2
window rule lives in ``projectors``, and a bias add or a gate product is
plain numpy arithmetic there, on parameters ``projectors`` checks once
against its parameter table. Every kernel takes and returns plain float64
arrays and checks the shapes it relies on; ``Tensor`` is the validated type
at the package's public edge, not inside the kernels. Everything is float64:
the gradient checker relies on it. The pointwise kernels are elementwise
IEEE arithmetic with no scalar ``pow`` (``**2`` is numpy's square) and no
masked gather: GELU's cube is ``x * x * x`` and sigmoid selects its
numerator with ``np.where``. No ``<op>_backward`` calls a forward op.
``matmul`` also takes operands with a leading probe axis, one 2-D product
per probe, so a forward can run many parameter probes in one call.
``grad_check`` probes a loss-only function of a name -> array dict of
parameters against gradients the caller computed once. It passes the loss
a chunk of probes at a time, as views of rows of copies of one flat vector,
each name with a leading probe axis, and takes one loss per probe back. A
probe that does not move its entry, a non-finite probe, or a check with no
entries is an error. ``check_seed`` is the package's one seed rule, for
projector init and every curation draw.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ContractError, ShapeError

_GELU_C0 = math.sqrt(2.0 / math.pi)
_GELU_C1 = 0.044715

# Relative-error denominator floor in grad_check.
_REL_FLOOR = 1e-8

# Bytes of probe rows one grad_check loss call may hold: each row's copy of
# the flat parameters plus the loss's own working set per row.
_PROBE_BUDGET = 1 << 19


class Tensor:
    """Dense row-major float64 array with all dimension sizes >= 1.

    The validated type at the package's public edge; the kernels below take
    and return plain float64 arrays.
    """

    __slots__ = ("array",)

    def __init__(self, values) -> None:
        arr = np.ascontiguousarray(values, dtype=np.float64)
        if arr.ndim == 0:
            arr = arr.reshape(1)
        if any(d < 1 for d in arr.shape):
            raise ShapeError(f"tensor dimensions must all be >= 1, got {arr.shape}")
        self.array = arr

    @property
    def shape(self) -> tuple[int, ...]:
        return self.array.shape

    @property
    def size(self) -> int:
        return self.array.size

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape})"


def check_seed(seed: int) -> None:
    """A seeded draw (projector init, timbres, a mix) takes a seed >= 0."""
    if seed < 0:
        raise ContractError(f"seed must be >= 0, got {seed}")


def _require_ndim(t: np.ndarray, ndims: tuple[int, ...], name: str) -> None:
    if t.ndim not in ndims:
        wanted = " or ".join(map(str, ndims))
        raise ShapeError(f"{name} must be {wanted}-dimensional, got shape {t.shape}")


# ---------------------------------------------------------------------------
# matmul
# ---------------------------------------------------------------------------

def matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """c[..., i, j] = sum_k a[..., i, k] * b[..., k, j].

    Either side may carry a leading probe axis (3-D), over which np.matmul
    broadcasts; each probe's product is the 2-D product of its slices.
    """
    _require_ndim(a, (2, 3), "matmul lhs")
    _require_ndim(b, (2, 3), "matmul rhs")
    if a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"matmul inner dimensions differ: {a.shape} x {b.shape}")
    if a.ndim == b.ndim == 3 and a.shape[0] != b.shape[0]:
        raise ShapeError(f"matmul probe axes differ: {a.shape} x {b.shape}")
    return a @ b


def matmul_backward(
    a: np.ndarray, b: np.ndarray, grad_out: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    if grad_out.shape != (a.shape[0], b.shape[1]):
        raise ShapeError(
            f"matmul upstream gradient has shape {grad_out.shape}, "
            f"expected {(a.shape[0], b.shape[1])}"
        )
    return grad_out @ b.T, a.T @ grad_out


# ---------------------------------------------------------------------------
# pointwise operations
# ---------------------------------------------------------------------------

def gelu(x: np.ndarray) -> np.ndarray:
    """GELU, tanh approximation (fixed so outputs are reproducible)."""
    inner = _GELU_C0 * (x + _GELU_C1 * (x * x * x))
    return 0.5 * x * (1.0 + np.tanh(inner))


def gelu_backward(x: np.ndarray, grad_out: np.ndarray) -> np.ndarray:
    if grad_out.shape != x.shape:
        raise ShapeError(
            f"gelu upstream gradient shape {grad_out.shape} != input {x.shape}"
        )
    with np.errstate(over="ignore", invalid="ignore"):
        inner = _GELU_C0 * (x + _GELU_C1 * (x * x * x))
        t = np.tanh(inner)
        sech2 = 1.0 - t**2
        slope = 0.5 * x * sech2 * _GELU_C0 * (1.0 + 3.0 * _GELU_C1 * x**2)
    # where tanh has saturated the slope term is 0, even past |x| ~ 1.3e154,
    # where x**2 overflows and the product would be 0 * inf
    return grad_out * (0.5 * (1.0 + t) + np.where(sech2 == 0.0, 0.0, slope))


def sigmoid(x: np.ndarray) -> np.ndarray:
    """1 / (1 + e) for x >= 0 and e / (1 + e) below, with e = exp(-|x|), so
    no exp overflows. -|x| is taken as min(x, -x), which returns a NaN input
    itself, so a NaN keeps its sign bit."""
    e = np.exp(np.minimum(x, -x))
    return np.where(x >= 0, 1.0, e) / (1.0 + e)


def sigmoid_backward(s: np.ndarray, grad_out: np.ndarray) -> np.ndarray:
    """Adjoint of sigmoid, given its output s."""
    if grad_out.shape != s.shape:
        raise ShapeError(
            f"sigmoid upstream gradient shape {grad_out.shape} != output {s.shape}"
        )
    return grad_out * s * (1.0 - s)


# ---------------------------------------------------------------------------
# finite-difference gradient checking
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GradCheckReport:
    max_relative_error: float
    worst_parameter_index: int
    passed: bool


def grad_check(
    loss_fn: Callable[[dict[str, np.ndarray]], object],
    params: dict[str, np.ndarray],
    grads: dict[str, np.ndarray],
    eps: float = 1e-5,
    tol: float = 1e-4,
    probe_bytes: int = 0,
) -> GradCheckReport:
    """Compare analytic gradients against central finite differences.

    ``params`` is copied once into one flat vector theta. The probes run in
    chunks: a chunk is rows of copies of theta, where rows 2i and 2i + 1 move
    the chunk's i-th entry by +eps and -eps. loss_fn gets a dict of views
    into the chunk with the same names and the shapes behind a leading probe
    axis, and returns one loss per row, so it runs once per chunk. A chunk holds as
    many rows as fit ``_PROBE_BUDGET`` bytes, counting each row's copy of
    theta and ``probe_bytes``, the caller's estimate of what loss_fn holds
    per row. grads holds the caller's gradient for each name.

    The relative error per entry is |g_ad - g_fd| / max(|g_ad|, |g_fd|,
    1e-8); worst_parameter_index is the flat index into theta (``params``
    order). A probe that does not move its entry (eps below the entry's
    spacing) or whose finite difference is not finite raises, naming the
    entry.
    """
    if eps <= 0:
        raise ContractError(f"eps must be positive, got {eps}")
    if set(grads) != set(params):
        raise ContractError(f"gradients are named {sorted(grads)}, parameters {sorted(params)}")
    for name, p in params.items():
        g = grads[name]
        if g.shape != p.shape:
            raise ContractError(
                f"gradient shape {g.shape} does not match parameter shape {p.shape}"
            )
        if not np.all(np.isfinite(g)):
            raise ContractError("analytic gradients contain non-finite values")
    sizes = [p.size for p in params.values()]
    if sum(sizes) == 0:
        raise ContractError("grad_check has no parameter entries to probe")

    theta = np.concatenate([p.reshape(-1) for p in params.values()], dtype=np.float64)
    g_ad = np.concatenate([grads[name].reshape(-1) for name in params])
    g_fd = np.empty_like(theta)
    # a probe that overflows is reported below, not as a numpy warning
    with np.errstate(all="ignore"):
        plus, minus = theta + eps, theta - eps
        still = np.flatnonzero((plus == theta) | (minus == theta))
        if still.size:
            j = int(still[0])
            raise ContractError(
                f"probe at flat parameter entry {j} does not move it "
                f"({float(theta[j])!r} +- eps {eps!r} rounds back to it)"
            )
        entries = max(1, _PROBE_BUDGET // (2 * (theta.nbytes + probe_bytes)))
        # one buffer of rows for every chunk; each chunk moves its entries
        # and puts them back, as a one-entry probe would
        buffer = np.repeat(theta[None, :], 2 * min(entries, theta.size), axis=0)
        bounds = np.cumsum([0] + sizes)
        for start in range(0, theta.size, entries):
            j = np.arange(start, min(start + entries, theta.size))
            rows = buffer[: 2 * j.size]
            i = np.arange(j.size)
            rows[2 * i, j] = plus[j]
            rows[2 * i + 1, j] = minus[j]
            probed = {
                name: rows[:, lo:hi].reshape(-1, *p.shape)
                for (name, p), lo, hi in zip(params.items(), bounds, bounds[1:])
            }
            losses = np.asarray(loss_fn(probed), dtype=np.float64)
            if losses.shape != (rows.shape[0],):
                raise ContractError(
                    f"loss must hold one value per probe row, shape {(rows.shape[0],)}, "
                    f"got {losses.shape}"
                )
            rows[2 * i, j] = rows[2 * i + 1, j] = theta[j]
            g_fd[j] = (losses[0::2] - losses[1::2]) / (2.0 * eps)
            # a NaN error would never be the maximum and would pass unseen
            bad = np.flatnonzero(~np.isfinite(g_fd[j]))
            if bad.size:
                k = int(bad[0])
                raise ContractError(
                    f"finite difference at flat parameter entry {j[k]} is not finite "
                    f"(losses {float(losses[2 * k])!r}, {float(losses[2 * k + 1])!r} "
                    f"at +-eps {eps!r})"
                )
        denom = np.maximum(np.maximum(np.abs(g_ad), np.abs(g_fd)), _REL_FLOOR)
        rel = np.abs(g_ad - g_fd) / denom
    worst = int(np.argmax(rel))  # the first maximum
    return GradCheckReport(
        max_relative_error=float(rel[worst]),
        worst_parameter_index=worst,
        passed=bool(rel[worst] < tol),
    )
