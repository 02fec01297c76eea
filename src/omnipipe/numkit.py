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
``grad_check`` probes a loss-only function of a name -> array dict of
parameters, through views of one flat copy, against gradients the caller
computed once; a non-finite probe, or a check with no entries, is an error.
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

    def to_json(self) -> dict:
        return {"shape": list(self.shape), "data": self.array.reshape(-1).tolist()}

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape})"


def _require_ndim(t: np.ndarray, ndim: int, name: str) -> None:
    if t.ndim != ndim:
        raise ShapeError(f"{name} must be {ndim}-dimensional, got shape {t.shape}")


# ---------------------------------------------------------------------------
# matmul
# ---------------------------------------------------------------------------

def matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """c[i,j] = sum_k a[i,k] * b[k,j]."""
    _require_ndim(a, 2, "matmul lhs")
    _require_ndim(b, 2, "matmul rhs")
    if a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul inner dimensions differ: {a.shape} x {b.shape}")
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


def _scalar_loss(value) -> float:
    arr = np.asarray(value, dtype=np.float64)
    if arr.size != 1:
        raise ContractError(f"loss must be scalar, got array of shape {arr.shape}")
    return float(arr.reshape(-1)[0])


def grad_check(
    loss_fn: Callable[[dict[str, np.ndarray]], object],
    params: dict[str, np.ndarray],
    grads: dict[str, np.ndarray],
    eps: float = 1e-5,
    tol: float = 1e-4,
) -> GradCheckReport:
    """Compare analytic gradients against central finite differences.

    ``params`` is copied once into one flat vector theta, and loss_fn gets a
    dict of views into it with the same names and shapes; each probe moves
    one entry of theta and restores it, so loss_fn runs twice per entry.
    grads holds the caller's gradient for each name. The relative error per
    entry is |g_ad - g_fd| / max(|g_ad|, |g_fd|, 1e-8); worst_parameter_index
    is the flat index into theta (``params`` order), and a probe whose finite
    difference is not finite raises, naming it.
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
    chunks = np.split(theta, np.cumsum(sizes)[:-1])
    probed = {name: c.reshape(p.shape) for (name, p), c in zip(params.items(), chunks)}
    g_ad = np.concatenate([grads[name].reshape(-1) for name in params])
    g_fd = np.empty_like(theta)
    # a probe that overflows is reported below, not as a numpy warning
    with np.errstate(all="ignore"):
        for j, base in enumerate(theta.tolist()):
            theta[j] = base + eps
            loss_plus = _scalar_loss(loss_fn(probed))
            theta[j] = base - eps
            loss_minus = _scalar_loss(loss_fn(probed))
            theta[j] = base
            g_fd[j] = (loss_plus - loss_minus) / (2.0 * eps)
            # a NaN error would never be the maximum and would pass unseen
            if not math.isfinite(g_fd[j]):
                raise ContractError(
                    f"finite difference at flat parameter entry {j} is not "
                    f"finite (losses {loss_plus!r}, {loss_minus!r} at +-eps {eps!r})"
                )
        denom = np.maximum(np.maximum(np.abs(g_ad), np.abs(g_fd)), _REL_FLOOR)
        rel = np.abs(g_ad - g_fd) / denom
    worst = int(np.argmax(rel))  # the first maximum
    return GradCheckReport(
        max_relative_error=float(rel[worst]),
        worst_parameter_index=worst,
        passed=bool(rel[worst] < tol),
    )
