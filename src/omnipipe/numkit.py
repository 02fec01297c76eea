"""Minimal float64 numeric kernel.

Tensors, the handful of layer operations the projectors need, a hand-written
adjoint for each operation (no general autodiff tape), and a finite-difference
gradient checker. Everything is float64: the gradient checker relies on it.
No ``<op>_backward`` calls a forward op. ``grad_check`` probes a loss-only
function and compares against gradients the caller computed once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import ContractError, ShapeError

_GELU_C0 = math.sqrt(2.0 / math.pi)
_GELU_C1 = 0.044715

# Relative-error denominator floor in grad_check.
_REL_FLOOR = 1e-8


class Tensor:
    """Dense row-major float64 array with all dimension sizes >= 1."""

    __slots__ = ("array",)

    def __init__(self, values) -> None:
        arr = np.ascontiguousarray(values, dtype=np.float64)
        if arr.ndim == 0:
            arr = arr.reshape(1)
        if any(d < 1 for d in arr.shape):
            raise ShapeError(f"tensor dimensions must all be >= 1, got {arr.shape}")
        self.array = arr

    @classmethod
    def from_flat(cls, shape: Sequence[int], data: Sequence[float]) -> "Tensor":
        shape = tuple(int(d) for d in shape)
        if any(d < 1 for d in shape):
            raise ShapeError(f"tensor dimensions must all be >= 1, got {shape}")
        n = math.prod(shape)
        arr = np.asarray(data, dtype=np.float64)
        if arr.size != n:
            raise ShapeError(
                f"flat data has {arr.size} values, shape {shape} needs {n}"
            )
        return cls(arr.reshape(shape))

    @property
    def shape(self) -> tuple[int, ...]:
        return self.array.shape

    @property
    def size(self) -> int:
        return self.array.size

    @property
    def data(self) -> np.ndarray:
        """Flat row-major view of the values."""
        return self.array.reshape(-1)

    def copy(self) -> "Tensor":
        return Tensor(self.array.copy())

    def to_json(self) -> dict:
        return {"shape": list(self.shape), "data": self.data.tolist()}

    @classmethod
    def from_json(cls, obj: dict) -> "Tensor":
        return cls.from_flat(obj["shape"], obj["data"])

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape})"


def _require_ndim(t: Tensor, ndim: int, name: str) -> None:
    if t.array.ndim != ndim:
        raise ShapeError(f"{name} must be {ndim}-dimensional, got shape {t.shape}")


# ---------------------------------------------------------------------------
# matmul
# ---------------------------------------------------------------------------

def matmul(a: Tensor, b: Tensor) -> Tensor:
    """c[i,j] = sum_k a[i,k] * b[k,j]."""
    _require_ndim(a, 2, "matmul lhs")
    _require_ndim(b, 2, "matmul rhs")
    if a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul inner dimensions differ: {a.shape} x {b.shape}")
    return Tensor(a.array @ b.array)


def matmul_backward(a: Tensor, b: Tensor, grad_out: Tensor) -> tuple[Tensor, Tensor]:
    if grad_out.shape != (a.shape[0], b.shape[1]):
        raise ShapeError(
            f"matmul upstream gradient has shape {grad_out.shape}, "
            f"expected {(a.shape[0], b.shape[1])}"
        )
    return Tensor(grad_out.array @ b.array.T), Tensor(a.array.T @ grad_out.array)


# ---------------------------------------------------------------------------
# conv1d: valid cross-correlation over a right-zero-padded sequence
# ---------------------------------------------------------------------------

def _conv1d_prepare(x: Tensor, kernel: Tensor, stride: int, pad_right: int):
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
    padded = x.array
    if pad_right:
        padded = np.concatenate(
            [padded, np.zeros((pad_right, c_in), dtype=np.float64)], axis=0
        )
    idx = (np.arange(l_out) * stride)[:, None] + np.arange(k)[None, :]
    return padded, idx, l_out, (k, c_in, c_out)


def conv1d(x: Tensor, kernel: Tensor, stride: int = 1, pad_right: int = 0) -> Tensor:
    """Strided valid cross-correlation; output length (L+pad-k)//stride + 1."""
    padded, idx, l_out, (k, c_in, c_out) = _conv1d_prepare(x, kernel, stride, pad_right)
    cols = padded[idx].reshape(l_out, k * c_in)
    return Tensor(cols @ kernel.array.reshape(k * c_in, c_out))


def conv1d_backward(
    x: Tensor, kernel: Tensor, stride: int, pad_right: int, grad_out: Tensor
) -> tuple[Tensor, Tensor]:
    padded, idx, l_out, (k, c_in, c_out) = _conv1d_prepare(x, kernel, stride, pad_right)
    if grad_out.shape != (l_out, c_out):
        raise ShapeError(
            f"conv1d upstream gradient has shape {grad_out.shape}, "
            f"expected {(l_out, c_out)}"
        )
    cols = padded[idx].reshape(l_out, k * c_in)
    grad_kernel = (cols.T @ grad_out.array).reshape(k, c_in, c_out)
    grad_cols = (grad_out.array @ kernel.array.reshape(k * c_in, c_out).T).reshape(
        l_out, k, c_in
    )
    grad_padded = np.zeros_like(padded)
    np.add.at(grad_padded, idx, grad_cols)
    return Tensor(grad_padded[: x.shape[0]]), Tensor(grad_kernel)


# ---------------------------------------------------------------------------
# pool2x2: stride-2 mean pooling over 2x2 windows of an HxWxC grid
# ---------------------------------------------------------------------------

POOL_FLOOR_ROWS = "floor_rows"
POOL_PAD_COLS = "pad_cols"
_POOL_POLICIES = (POOL_FLOOR_ROWS, POOL_PAD_COLS)


def pool2x2_size(h: int, w: int, pad_policy: str) -> tuple[int, int]:
    """Output rows and columns of pool2x2 on an h x w grid."""
    w_out = (w + w % 2) // 2 if pad_policy == POOL_PAD_COLS else (w - 2) // 2 + 1
    return (h - 2) // 2 + 1, w_out


def _pool2x2_windows(x: Tensor, pad_policy: str):
    """The in-bounds (rows, cols) of each of the four window offsets, and the
    number of in-bounds cells in each output window."""
    _require_ndim(x, 3, "pool2x2 input")
    if pad_policy not in _POOL_POLICIES:
        raise ContractError(
            f"unknown pad_policy {pad_policy!r}, expected one of {_POOL_POLICIES}"
        )
    h, w, _ = x.shape
    if h < 2:
        raise ShapeError(f"pool2x2 window underflow: height {h} < 2")
    if pad_policy == POOL_FLOOR_ROWS and w < 2:
        raise ShapeError(f"pool2x2 window underflow: width {w} < 2 without padding")
    h_out, w_out = pool2x2_size(h, w, pad_policy)
    windows = []
    counts = np.zeros((h_out, w_out), dtype=np.float64)
    for di in (0, 1):
        for dj in (0, 1):
            cols = np.arange(w_out) * 2 + dj
            cols = cols[cols < w]  # a prefix: only the padded last column drops
            windows.append((np.arange(h_out) * 2 + di, cols))
            counts[:, : cols.size] += 1.0
    return windows, counts


def pool2x2(x: Tensor, pad_policy: str = POOL_PAD_COLS) -> Tensor:
    """2x2 stride-2 mean pooling; the mean counts only in-bounds cells.

    Rows are floored to whole windows; columns are floored or right-padded to
    even per pad_policy. A constant field pools to the same constant.
    """
    windows, counts = _pool2x2_windows(x, pad_policy)
    out = np.zeros(counts.shape + (x.shape[2],), dtype=np.float64)
    for rows, cols in windows:
        out[:, : cols.size] += x.array[np.ix_(rows, cols)]
    return Tensor(out / counts[:, :, None])


def pool2x2_backward(x: Tensor, pad_policy: str, grad_out: Tensor) -> Tensor:
    windows, counts = _pool2x2_windows(x, pad_policy)
    expected = counts.shape + (x.shape[2],)
    if grad_out.shape != expected:
        raise ShapeError(
            f"pool2x2 upstream gradient has shape {grad_out.shape}, "
            f"expected {expected}"
        )
    scaled = grad_out.array / counts[:, :, None]
    grad_x = np.zeros_like(x.array)
    for rows, cols in windows:
        grad_x[np.ix_(rows, cols)] += scaled[:, : cols.size]
    return Tensor(grad_x)


# ---------------------------------------------------------------------------
# pointwise operations
# ---------------------------------------------------------------------------

def gelu(x: Tensor) -> Tensor:
    """GELU, tanh approximation (fixed so outputs are reproducible)."""
    a = x.array
    inner = _GELU_C0 * (a + _GELU_C1 * a**3)
    return Tensor(0.5 * a * (1.0 + np.tanh(inner)))


def gelu_backward(x: Tensor, grad_out: Tensor) -> Tensor:
    a = x.array
    if grad_out.shape != x.shape:
        raise ShapeError(
            f"gelu upstream gradient shape {grad_out.shape} != input {x.shape}"
        )
    inner = _GELU_C0 * (a + _GELU_C1 * a**3)
    t = np.tanh(inner)
    local = 0.5 * (1.0 + t) + 0.5 * a * (1.0 - t**2) * _GELU_C0 * (
        1.0 + 3.0 * _GELU_C1 * a**2
    )
    return Tensor(grad_out.array * local)


def sigmoid(x: Tensor) -> Tensor:
    a = x.array
    out = np.empty_like(a)
    pos = a >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-a[pos]))
    e = np.exp(a[~pos])
    out[~pos] = e / (1.0 + e)
    return Tensor(out)


def sigmoid_backward(s: Tensor, grad_out: Tensor) -> Tensor:
    """Adjoint of sigmoid, given its output s."""
    if grad_out.shape != s.shape:
        raise ShapeError(
            f"sigmoid upstream gradient shape {grad_out.shape} != output {s.shape}"
        )
    return Tensor(grad_out.array * s.array * (1.0 - s.array))


def elementwise_mul(a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape:
        raise ShapeError(f"elementwise_mul shapes differ: {a.shape} vs {b.shape}")
    return Tensor(a.array * b.array)


def elementwise_mul_backward(
    a: Tensor, b: Tensor, grad_out: Tensor
) -> tuple[Tensor, Tensor]:
    if grad_out.shape != a.shape or a.shape != b.shape:
        raise ShapeError(
            f"elementwise_mul gradient shapes differ: {a.shape}, {b.shape}, "
            f"{grad_out.shape}"
        )
    return Tensor(grad_out.array * b.array), Tensor(grad_out.array * a.array)


def add_bias(x: Tensor, bias: Tensor) -> Tensor:
    """Add a per-column bias to every row of a 2-D tensor."""
    _require_ndim(x, 2, "add_bias input")
    _require_ndim(bias, 1, "bias")
    if bias.shape[0] != x.shape[1]:
        raise ShapeError(f"bias length {bias.shape[0]} != columns {x.shape[1]}")
    return Tensor(x.array + bias.array[None, :])


def add_bias_backward(grad_out: Tensor) -> Tensor:
    """Gradient wrt the bias; the gradient wrt the input is grad_out itself."""
    _require_ndim(grad_out, 2, "add_bias upstream gradient")
    return Tensor(grad_out.array.sum(axis=0))


# ---------------------------------------------------------------------------
# finite-difference gradient checking
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GradCheckReport:
    max_relative_error: float
    worst_parameter_index: int
    passed: bool


def _scalar_loss(value) -> float:
    if isinstance(value, Tensor):
        if value.size != 1:
            raise ContractError(
                f"loss must be scalar, got tensor of shape {value.shape}"
            )
        return float(value.data[0])
    arr = np.asarray(value, dtype=np.float64)
    if arr.size != 1:
        raise ContractError(f"loss must be scalar, got array of shape {arr.shape}")
    return float(arr.reshape(-1)[0])


def grad_check(
    loss_fn: Callable[[list[Tensor], Tensor], object],
    params: list[Tensor],
    x: Tensor,
    grads: list[Tensor],
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
        flat, base = probe.data, p.data
        g_ad = grads[i].data
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
