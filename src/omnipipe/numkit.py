"""Minimal float64 numeric kernel.

The handful of layer operations the projectors need, a hand-written adjoint
for each operation (no general autodiff tape), and a finite-difference
gradient checker. Every kernel takes and returns plain float64 numpy arrays
and checks the shapes it relies on; ``Tensor`` is the validated type at the
package's public edge (projector inputs and outputs, mel features, packed
attention), not inside the kernels. Everything is float64: the gradient
checker relies on it. No ``<op>_backward`` calls a forward op.
``grad_check`` probes a loss-only function and compares against gradients
the caller computed once.
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
# conv1d: valid cross-correlation over a right-zero-padded sequence
# ---------------------------------------------------------------------------

def _conv1d_prepare(x: np.ndarray, kernel: np.ndarray, stride: int, pad_right: int):
    _require_ndim(x, 2, "conv1d input")
    _require_ndim(kernel, 3, "conv1d kernel")
    if stride < 1:
        raise ContractError(f"conv1d stride must be >= 1, got {stride}")
    if pad_right < 0:
        raise ContractError(f"conv1d pad_right must be >= 0, got {pad_right}")
    length, c_in = x.shape
    k, kc_in, c_out = kernel.shape
    if kc_in != c_in:
        raise ShapeError(
            f"conv1d kernel expects {kc_in} input channels, input has {c_in}"
        )
    if length + pad_right < k:
        raise ShapeError(
            f"conv1d window underflow: length {length} + pad {pad_right} < kernel {k}"
        )
    l_out = (length + pad_right - k) // stride + 1
    padded = x
    if pad_right:
        padded = np.concatenate(
            [padded, np.zeros((pad_right, c_in), dtype=np.float64)], axis=0
        )
    idx = (np.arange(l_out) * stride)[:, None] + np.arange(k)[None, :]
    return padded, idx, l_out, (k, c_in, c_out)


def conv1d(
    x: np.ndarray, kernel: np.ndarray, stride: int = 1, pad_right: int = 0
) -> np.ndarray:
    """Strided valid cross-correlation; output length (L+pad-k)//stride + 1."""
    padded, idx, l_out, (k, c_in, c_out) = _conv1d_prepare(x, kernel, stride, pad_right)
    cols = padded[idx].reshape(l_out, k * c_in)
    return cols @ kernel.reshape(k * c_in, c_out)


def conv1d_backward(
    x: np.ndarray, kernel: np.ndarray, stride: int, pad_right: int, grad_out: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    padded, idx, l_out, (k, c_in, c_out) = _conv1d_prepare(x, kernel, stride, pad_right)
    if grad_out.shape != (l_out, c_out):
        raise ShapeError(
            f"conv1d upstream gradient has shape {grad_out.shape}, "
            f"expected {(l_out, c_out)}"
        )
    cols = padded[idx].reshape(l_out, k * c_in)
    grad_kernel = (cols.T @ grad_out).reshape(k, c_in, c_out)
    grad_cols = (grad_out @ kernel.reshape(k * c_in, c_out).T).reshape(
        l_out, k, c_in
    )
    grad_padded = np.zeros_like(padded)
    np.add.at(grad_padded, idx, grad_cols)
    return grad_padded[: x.shape[0]], grad_kernel


# ---------------------------------------------------------------------------
# pool2x2: stride-2 mean pooling over 2x2 windows of an HxWxC grid
# ---------------------------------------------------------------------------

def pool2x2_size(h: int, w: int) -> tuple[int, int]:
    """Output rows and columns of pool2x2 on an h x w grid."""
    return (h - 2) // 2 + 1, (w + w % 2) // 2


def _pool2x2_windows(x: np.ndarray):
    """The in-bounds (rows, cols) of each of the four window offsets, and the
    number of in-bounds cells in each output window."""
    _require_ndim(x, 3, "pool2x2 input")
    h, w, _ = x.shape
    if h < 2:
        raise ShapeError(f"pool2x2 window underflow: height {h} < 2")
    h_out, w_out = pool2x2_size(h, w)
    windows = []
    counts = np.zeros((h_out, w_out), dtype=np.float64)
    for di in (0, 1):
        for dj in (0, 1):
            cols = np.arange(w_out) * 2 + dj
            cols = cols[cols < w]  # a prefix: only the padded last column drops
            windows.append((np.arange(h_out) * 2 + di, cols))
            counts[:, : cols.size] += 1.0
    return windows, counts


def pool2x2(x: np.ndarray) -> np.ndarray:
    """2x2 stride-2 mean pooling; the mean counts only in-bounds cells.

    Rows are floored to whole windows; an odd last column is right-padded to
    a window of its own. A constant field pools to the same constant.
    """
    windows, counts = _pool2x2_windows(x)
    out = np.zeros(counts.shape + (x.shape[2],), dtype=np.float64)
    for rows, cols in windows:
        out[:, : cols.size] += x[np.ix_(rows, cols)]
    return out / counts[:, :, None]


def pool2x2_backward(x: np.ndarray, grad_out: np.ndarray) -> np.ndarray:
    windows, counts = _pool2x2_windows(x)
    expected = counts.shape + (x.shape[2],)
    if grad_out.shape != expected:
        raise ShapeError(
            f"pool2x2 upstream gradient has shape {grad_out.shape}, "
            f"expected {expected}"
        )
    scaled = grad_out / counts[:, :, None]
    grad_x = np.zeros_like(x)
    for rows, cols in windows:
        grad_x[np.ix_(rows, cols)] += scaled[:, : cols.size]
    return grad_x


# ---------------------------------------------------------------------------
# pointwise operations
# ---------------------------------------------------------------------------

def gelu(x: np.ndarray) -> np.ndarray:
    """GELU, tanh approximation (fixed so outputs are reproducible)."""
    inner = _GELU_C0 * (x + _GELU_C1 * x**3)
    return 0.5 * x * (1.0 + np.tanh(inner))


def gelu_backward(x: np.ndarray, grad_out: np.ndarray) -> np.ndarray:
    if grad_out.shape != x.shape:
        raise ShapeError(
            f"gelu upstream gradient shape {grad_out.shape} != input {x.shape}"
        )
    inner = _GELU_C0 * (x + _GELU_C1 * x**3)
    t = np.tanh(inner)
    local = 0.5 * (1.0 + t) + 0.5 * x * (1.0 - t**2) * _GELU_C0 * (
        1.0 + 3.0 * _GELU_C1 * x**2
    )
    return grad_out * local


def sigmoid(x: np.ndarray) -> np.ndarray:
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    e = np.exp(x[~pos])
    out[~pos] = e / (1.0 + e)
    return out


def sigmoid_backward(s: np.ndarray, grad_out: np.ndarray) -> np.ndarray:
    """Adjoint of sigmoid, given its output s."""
    if grad_out.shape != s.shape:
        raise ShapeError(
            f"sigmoid upstream gradient shape {grad_out.shape} != output {s.shape}"
        )
    return grad_out * s * (1.0 - s)


def elementwise_mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    if a.shape != b.shape:
        raise ShapeError(f"elementwise_mul shapes differ: {a.shape} vs {b.shape}")
    return a * b


def elementwise_mul_backward(
    a: np.ndarray, b: np.ndarray, grad_out: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    if grad_out.shape != a.shape or a.shape != b.shape:
        raise ShapeError(
            f"elementwise_mul gradient shapes differ: {a.shape}, {b.shape}, "
            f"{grad_out.shape}"
        )
    return grad_out * b, grad_out * a


def add_bias(x: np.ndarray, bias: np.ndarray) -> np.ndarray:
    """Add a per-column bias to every row of a 2-D array."""
    _require_ndim(x, 2, "add_bias input")
    _require_ndim(bias, 1, "bias")
    if bias.shape[0] != x.shape[1]:
        raise ShapeError(f"bias length {bias.shape[0]} != columns {x.shape[1]}")
    return x + bias[None, :]


def add_bias_backward(grad_out: np.ndarray) -> np.ndarray:
    """Gradient wrt the bias; the gradient wrt the input is grad_out itself."""
    _require_ndim(grad_out, 2, "add_bias upstream gradient")
    return grad_out.sum(axis=0)


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
    loss_fn: Callable[[list[np.ndarray], np.ndarray], object],
    params: list[np.ndarray],
    x: np.ndarray,
    grads: list[np.ndarray],
    eps: float = 1e-5,
    tol: float = 1e-4,
) -> GradCheckReport:
    """Compare analytic gradients against central finite differences.

    loss_fn(params, x) returns the scalar loss and is called twice per
    parameter entry; grads holds the caller's gradient for each parameter.
    The relative error per entry is |g_ad - g_fd| / max(|g_ad|, |g_fd|, 1e-8);
    worst_parameter_index is the flat index into the concatenated parameters.
    """
    if eps <= 0:
        raise ContractError(f"eps must be positive, got {eps}")
    if len(grads) != len(params):
        raise ContractError(f"got {len(grads)} gradients for {len(params)} parameters")
    for g, p in zip(grads, params):
        if g.shape != p.shape:
            raise ContractError(
                f"gradient shape {g.shape} does not match parameter shape {p.shape}"
            )

    max_rel = 0.0
    worst = 0
    offset = 0
    for i, p in enumerate(params):
        # one working copy per parameter, perturbed and restored in place
        probe = p.copy()
        probed = list(params)
        probed[i] = probe
        flat, base = probe.reshape(-1), p.reshape(-1)
        g_ad = grads[i].reshape(-1)
        for j in range(flat.size):
            flat[j] = base[j] + eps
            loss_plus = _scalar_loss(loss_fn(probed, x))
            flat[j] = base[j] - eps
            loss_minus = _scalar_loss(loss_fn(probed, x))
            flat[j] = base[j]
            g_fd = (loss_plus - loss_minus) / (2.0 * eps)
            rel = float(abs(g_ad[j] - g_fd) / max(abs(g_ad[j]), abs(g_fd), _REL_FLOOR))
            if rel > max_rel:
                max_rel = rel
                worst = offset + j
        offset += flat.size
    return GradCheckReport(
        max_relative_error=max_rel,
        worst_parameter_index=int(worst),
        passed=bool(max_rel < tol),
    )
