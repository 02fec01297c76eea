"""Projector blocks with forward and hand-chained backward passes.

Four visual projector variants (mlp, c_abs, concat, mean_pool) that map a
27x27 patch grid to LLM embeddings, and a convolutional gated-MLP audio
projector that shortens a feature sequence by a configurable rate while
expanding channels proportionally, with a mean-pooled residual shortcut.
A toy gradient-descent fit and a down-sampling-rate ablation harness verify
the backward passes end to end.

Each projector's private trunk runs it up to the output layer and returns
the cache its backward reads; the private forward (``_visual_forward``,
``_conv_gmlp_apply``) adds that layer and returns ``(out, cache)``; the
private backward reads the cache and runs no forward op. These work on plain
float64 arrays, with the parameters as a dict of name -> array, and so do
the gradient check and the toy fit. ``Tensor`` and ``ProjectorParams`` are
the public edge: the public functions unwrap them on entry and wrap their
results on exit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ContractError, DivergenceError, ShapeError
from . import numkit
from .numkit import Tensor

VISUAL_VARIANTS = ("mlp", "c_abs", "concat", "mean_pool")
SUPPORTED_RATES = (1, 2, 4, 8)

_TOY_INPUT_SCALE = 5.0

# Widths of the small projectors that check_gradients builds.
_CHECK_IN_DIM = 5
_CHECK_LLM_DIM = 3
_CHECK_CHANNELS = 4


# ---------------------------------------------------------------------------
# configs and parameters
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class VisualProjectorConfig:
    variant: str
    in_dim: int
    llm_dim: int
    grid: tuple[int, int] = (27, 27)

    def __post_init__(self):
        if self.variant not in VISUAL_VARIANTS:
            raise ContractError(
                f"unknown visual projector variant {self.variant!r}, "
                f"expected one of {VISUAL_VARIANTS}"
            )
        if self.in_dim < 1 or self.llm_dim < 1:
            raise ContractError("projector dimensions must be >= 1")
        if self.grid[0] < 2 or self.grid[1] < 1:
            raise ContractError(f"invalid patch grid {self.grid}")

    @property
    def input_tokens(self) -> int:
        return self.grid[0] * self.grid[1]

    @property
    def output_tokens(self) -> int:
        if self.variant == "mlp":
            return self.input_tokens
        return math.prod(numkit.pool2x2_size(*self.grid))


@dataclass(frozen=True)
class ConvGmlpConfig:
    rate_n: int
    llm_dim: int
    in_channels: int = 1280
    strides: tuple[int, int] | None = None  # None means (rate_n, 1)

    def __post_init__(self):
        if self.rate_n not in SUPPORTED_RATES:
            raise ContractError(
                f"unsupported rate {self.rate_n}, expected one of {SUPPORTED_RATES}"
            )
        if self.in_channels < 1 or self.llm_dim < 1:
            raise ContractError("projector dimensions must be >= 1")
        if self.strides is None:
            object.__setattr__(self, "strides", (self.rate_n, 1))
        s1, s2 = self.strides
        if s1 < 1 or s2 < 1 or s1 * s2 != self.rate_n:
            raise ContractError(
                f"strides {self.strides} must be positive and multiply to "
                f"rate {self.rate_n}"
            )

    @property
    def hidden_channels(self) -> int:
        """Width of each of the value and gate paths."""
        return self.rate_n * self.in_channels


@dataclass(frozen=True)
class ProjectorParams:
    tensors: dict[str, Tensor]
    init_seed: int

    def __post_init__(self):
        for name, t in self.tensors.items():
            if not np.all(np.isfinite(t.array)):
                raise ContractError(f"parameter {name!r} contains non-finite values")

    @property
    def param_count(self) -> int:
        return sum(t.size for t in self.tensors.values())


def _arrays(params: ProjectorParams) -> dict[str, np.ndarray]:
    return {name: t.array for name, t in params.tensors.items()}


def _tensors(arrays: dict[str, np.ndarray]) -> dict[str, Tensor]:
    return {name: Tensor(a) for name, a in arrays.items()}


def _rng(seed: int) -> np.random.Generator:
    if seed < 0:
        raise ContractError(f"seed must be >= 0, got {seed}")
    return np.random.default_rng(seed)


def _init(specs: list[tuple[str, tuple[int, ...], int]], seed: int) -> dict[str, np.ndarray]:
    rng = _rng(seed)
    arrays = {}
    for name, shape, fan_in in specs:
        bound = math.sqrt(1.0 / fan_in)
        arrays[name] = rng.uniform(-bound, bound, shape)
    return arrays


def init_visual_params(cfg: VisualProjectorConfig, seed: int) -> ProjectorParams:
    return ProjectorParams(tensors=_tensors(_visual_init(cfg, seed)), init_seed=seed)


def init_conv_gmlp_params(cfg: ConvGmlpConfig, seed: int) -> ProjectorParams:
    return ProjectorParams(tensors=_tensors(_conv_gmlp_init(cfg, seed)), init_seed=seed)


def _visual_init(cfg: VisualProjectorConfig, seed: int) -> dict[str, np.ndarray]:
    d_in, d_llm = cfg.in_dim, cfg.llm_dim
    if cfg.variant == "concat":
        first = 4 * d_in
        specs = [
            ("w1", (first, d_llm), first),
            ("b1", (d_llm,), first),
            ("w2", (d_llm, d_llm), d_llm),
            ("b2", (d_llm,), d_llm),
        ]
    elif cfg.variant == "c_abs":
        specs = [
            ("conv1", (1, d_in, d_llm), d_in),
            ("b1", (d_llm,), d_in),
            ("conv2", (1, d_llm, d_llm), d_llm),
            ("b2", (d_llm,), d_llm),
        ]
    else:  # mlp and mean_pool share the same two-layer MLP shape
        specs = [
            ("w1", (d_in, d_llm), d_in),
            ("b1", (d_llm,), d_in),
            ("w2", (d_llm, d_llm), d_llm),
            ("b2", (d_llm,), d_llm),
        ]
    return _init(specs, seed)


def _conv_gmlp_init(cfg: ConvGmlpConfig, seed: int) -> dict[str, np.ndarray]:
    s1, s2 = cfg.strides
    c = cfg.in_channels
    mid = s1 * c
    wide = 2 * cfg.hidden_channels
    specs = [
        ("conv_in", (s1, c, mid), s1 * c),
        ("b_in", (mid,), s1 * c),
        ("conv_mid", (s2, mid, wide), s2 * mid),
        ("b_mid", (wide,), s2 * mid),
        ("w_out", (cfg.hidden_channels, cfg.llm_dim), cfg.hidden_channels),
        ("b_out", (cfg.llm_dim,), cfg.hidden_channels),
        ("w_res", (c, cfg.llm_dim), c),
    ]
    return _init(specs, seed)


# ---------------------------------------------------------------------------
# visual projector
# ---------------------------------------------------------------------------

def _check_visual_input(cfg: VisualProjectorConfig, x: np.ndarray) -> None:
    if x.ndim != 2 or x.shape != (cfg.input_tokens, cfg.in_dim):
        raise ShapeError(
            f"visual projector expects {(cfg.input_tokens, cfg.in_dim)} input, "
            f"got {x.shape}"
        )


def _concat_groups(cfg: VisualProjectorConfig) -> np.ndarray:
    """Token indices of each 2x2 neighbourhood, -1 where the grid was padded."""
    rows, cols = cfg.grid
    out_rows, out_cols = numkit.pool2x2_size(rows, cols)
    # window (i, j) covers rows 2i + (0, 0, 1, 1) and columns 2j + (0, 1, 0, 1);
    # rows are floored to whole windows, so only a column can fall outside
    r = 2 * np.arange(out_rows)[:, None, None] + np.array([0, 0, 1, 1])
    c = 2 * np.arange(out_cols)[None, :, None] + np.array([0, 1, 0, 1])
    return np.where(c < cols, r * cols + c, -1).reshape(-1, 4)


def _pool_tokens(
    cfg: VisualProjectorConfig, tokens: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The token grid and its 2x2 mean pool, one row per window."""
    grid = tokens.reshape(*cfg.grid, tokens.shape[1])
    pooled = numkit.pool2x2(grid)
    return grid, pooled.reshape(-1, tokens.shape[1])


def _unpool_tokens(grid: np.ndarray, g_pooled: np.ndarray) -> np.ndarray:
    """Adjoint of _pool_tokens: one gradient row per grid token."""
    rows, cols, c = grid.shape
    out_rows, out_cols = numkit.pool2x2_size(rows, cols)
    g_windows = g_pooled.reshape(out_rows, out_cols, c)
    g_grid = numkit.pool2x2_backward(grid, g_windows)
    return g_grid.reshape(rows * cols, c)


def visual_project(cfg: VisualProjectorConfig, params: ProjectorParams, x: Tensor) -> Tensor:
    """Project a (grid tokens x in_dim) feature block to LLM embeddings."""
    out, _ = _visual_forward(cfg, _arrays(params), x.array)
    return Tensor(out)


def _visual_trunk(cfg: VisualProjectorConfig, p: dict, x: np.ndarray) -> dict:
    """The backward's cache; ``last`` is the output layer's input."""
    _check_visual_input(cfg, x)
    if cfg.variant == "c_abs":  # pointwise conv, GELU, pool, pointwise conv
        z1 = numkit.add_bias(numkit.conv1d(x, p["conv1"]), p["b1"])
        grid, last = _pool_tokens(cfg, numkit.gelu(z1))
        return {"first": x, "z1": z1, "grid": grid, "last": last}
    cache = {}
    if cfg.variant == "mean_pool":
        cache["grid"], first = _pool_tokens(cfg, x)
    elif cfg.variant == "concat":
        idx = cache["idx"] = _concat_groups(cfg)
        gathered = np.where((idx >= 0)[:, :, None], x[np.clip(idx, 0, None)], 0.0)
        first = gathered.reshape(idx.shape[0], 4 * cfg.in_dim)
    else:
        first = x
    z1 = numkit.add_bias(numkit.matmul(first, p["w1"]), p["b1"])
    cache.update(first=first, z1=z1, last=numkit.gelu(z1))
    return cache


def _visual_forward(cfg: VisualProjectorConfig, p: dict, x: np.ndarray):
    cache = _visual_trunk(cfg, p, x)
    if cfg.variant == "c_abs":
        pre_out = numkit.conv1d(cache["last"], p["conv2"])
    else:
        pre_out = numkit.matmul(cache["last"], p["w2"])
    return numkit.add_bias(pre_out, p["b2"]), cache


def _visual_backward(
    cfg: VisualProjectorConfig, p: dict, cache: dict, grad_out: np.ndarray
) -> tuple[dict[str, np.ndarray], np.ndarray]:
    if cfg.variant == "c_abs":
        w1, w2 = "conv1", "conv2"
        g_last, g_w2 = numkit.conv1d_backward(cache["last"], p[w2], 1, 0, grad_out)
        g_z1 = numkit.gelu_backward(cache["z1"], _unpool_tokens(cache["grid"], g_last))
        g_x, g_w1 = numkit.conv1d_backward(cache["first"], p[w1], 1, 0, g_z1)
    else:
        w1, w2 = "w1", "w2"
        g_h, g_w2 = numkit.matmul_backward(cache["last"], p[w2], grad_out)
        g_z1 = numkit.gelu_backward(cache["z1"], g_h)
        g_x, g_w1 = numkit.matmul_backward(cache["first"], p[w1], g_z1)
    if cfg.variant == "mean_pool":
        g_x = _unpool_tokens(cache["grid"], g_x)
    elif cfg.variant == "concat":
        idx = cache["idx"]
        g_groups = g_x.reshape(idx.shape[0], 4, cfg.in_dim)
        g_x = np.zeros((cfg.input_tokens, cfg.in_dim), dtype=np.float64)
        valid = idx >= 0
        np.add.at(g_x, idx[valid], g_groups[valid])
    b1, b2 = numkit.add_bias_backward(g_z1), numkit.add_bias_backward(grad_out)
    return {w1: g_w1, "b1": b1, w2: g_w2, "b2": b2}, g_x


def visual_project_backward(
    cfg: VisualProjectorConfig,
    params: ProjectorParams,
    x: Tensor,
    upstream_grad: Tensor,
) -> tuple[dict[str, Tensor], Tensor]:
    """Gradients of a scalar loss wrt every parameter and the input.

    Runs the forward once, up to the output layer, whose result it never reads.
    """
    p = _arrays(params)
    cache = _visual_trunk(cfg, p, x.array)
    grads, g_x = _visual_backward(cfg, p, cache, upstream_grad.array)
    return _tensors(grads), Tensor(g_x)


# ---------------------------------------------------------------------------
# convolutional gated-MLP audio projector
# ---------------------------------------------------------------------------

def conv_gmlp_shapes(cfg: ConvGmlpConfig, seq_len: int) -> dict:
    """Length and width laws for a given input length, without running it."""
    if seq_len < 1:
        raise ContractError(f"sequence length must be >= 1, got {seq_len}")
    padded = seq_len + (-seq_len) % cfg.rate_n
    out_len = padded // cfg.rate_n
    return {
        "padded_len": padded,
        "output_len": out_len,
        "intermediate_channels": cfg.hidden_channels,
        "intermediate_shape": (out_len, cfg.hidden_channels),
        "output_shape": (out_len, cfg.llm_dim),
    }


def _block_mean(x_arr: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Mean over consecutive blocks of n rows; the last block may be short."""
    length = x_arr.shape[0]
    t = (length + n - 1) // n
    pad = t * n - length
    padded = np.concatenate([x_arr, np.zeros((pad, x_arr.shape[1]))]) if pad else x_arr
    counts = np.full(t, n, dtype=np.float64)
    if pad:
        counts[-1] = n - pad
    summed = padded.reshape(t, n, x_arr.shape[1]).sum(axis=1)
    return summed / counts[:, None], counts


def _check_conv_gmlp_input(cfg: ConvGmlpConfig, x: np.ndarray) -> None:
    if x.ndim != 2:
        raise ShapeError(f"projector input must be 2-D, got shape {x.shape}")
    if x.shape[1] != cfg.in_channels:
        raise ShapeError(
            f"projector expects {cfg.in_channels} channels, input has {x.shape[1]}"
        )


def _conv_gmlp_trunk(cfg: ConvGmlpConfig, p: dict, x: np.ndarray) -> dict:
    """The backward's cache: every value before the output layer."""
    _check_conv_gmlp_input(cfg, x)
    s1, s2 = cfg.strides
    pad = (-x.shape[0]) % cfg.rate_n
    z1 = numkit.add_bias(numkit.conv1d(x, p["conv_in"], s1, pad), p["b_in"])
    h = numkit.gelu(z1)
    pre2 = numkit.add_bias(numkit.conv1d(h, p["conv_mid"], s2, 0), p["b_mid"])
    width = cfg.hidden_channels
    value = pre2[:, :width]
    sig = numkit.sigmoid(pre2[:, width:])
    mp, counts = _block_mean(x, cfg.rate_n)
    return {
        "x": x,
        "pad": pad,
        "z1": z1,
        "h": h,
        "value": value,
        "sig": sig,
        "gated": numkit.elementwise_mul(value, sig),
        "mp": mp,
        "counts": counts,
    }


def _conv_gmlp_apply(cfg: ConvGmlpConfig, p: dict, x: np.ndarray):
    cache = _conv_gmlp_trunk(cfg, p, x)
    proj = numkit.add_bias(numkit.matmul(cache["gated"], p["w_out"]), p["b_out"])
    res = numkit.matmul(cache["mp"], p["w_res"])
    return proj + res, cache


def conv_gmlp_forward(cfg: ConvGmlpConfig, params: ProjectorParams, x: Tensor) -> Tensor:
    """Shorten an (L x in_channels) sequence to ceil(L / rate) LLM embeddings.

    The input is right-zero-padded to a multiple of the rate; two strided
    convolutions expand channels to rate x in_channels for a value path and a
    sigmoid gate path, their product is projected to llm_dim, and a
    block-mean-pooled linear shortcut of the input is added.
    """
    out, _ = _conv_gmlp_forward(cfg, params, x)
    return Tensor(out)


def _conv_gmlp_forward(cfg: ConvGmlpConfig, params: ProjectorParams, x: Tensor):
    """``_conv_gmlp_apply`` on the arrays inside ``params`` and ``x``: the
    output and the cache, as arrays. The acceptance suite checks the length
    and width laws through it."""
    return _conv_gmlp_apply(cfg, _arrays(params), x.array)


def _conv_gmlp_backward(
    cfg: ConvGmlpConfig, p: dict, cache: dict, grad_out: np.ndarray
) -> tuple[dict[str, np.ndarray], np.ndarray]:
    s1, s2 = cfg.strides
    x = cache["x"]

    # residual shortcut
    g_mp, g_w_res = numkit.matmul_backward(cache["mp"], p["w_res"], grad_out)
    per_row = g_mp / cache["counts"][:, None]
    g_x_res = np.repeat(per_row, cfg.rate_n, axis=0)[: x.shape[0]]

    # gated projection path
    g_gated, g_w_out = numkit.matmul_backward(cache["gated"], p["w_out"], grad_out)
    g_value, g_sig = numkit.elementwise_mul_backward(
        cache["value"], cache["sig"], g_gated
    )
    g_gate = numkit.sigmoid_backward(cache["sig"], g_sig)
    g_pre2 = np.concatenate([g_value, g_gate], axis=1)
    g_h, g_conv_mid = numkit.conv1d_backward(cache["h"], p["conv_mid"], s2, 0, g_pre2)
    g_z1 = numkit.gelu_backward(cache["z1"], g_h)
    g_x_conv, g_conv_in = numkit.conv1d_backward(
        x, p["conv_in"], s1, cache["pad"], g_z1
    )

    grads = {
        "conv_in": g_conv_in,
        "b_in": numkit.add_bias_backward(g_z1),
        "conv_mid": g_conv_mid,
        "b_mid": numkit.add_bias_backward(g_pre2),
        "w_out": g_w_out,
        "b_out": numkit.add_bias_backward(grad_out),
        "w_res": g_w_res,
    }
    return grads, g_x_conv + g_x_res


def conv_gmlp_backward(
    cfg: ConvGmlpConfig,
    params: ProjectorParams,
    x: Tensor,
    upstream_grad: Tensor,
) -> tuple[dict[str, Tensor], Tensor]:
    """Gradients wrt every parameter tensor and the input.

    Runs the forward once, up to the output layer, whose result it never reads.
    """
    p = _arrays(params)
    cache = _conv_gmlp_trunk(cfg, p, x.array)
    grads, g_x = _conv_gmlp_backward(cfg, p, cache, upstream_grad.array)
    return _tensors(grads), Tensor(g_x)


# ---------------------------------------------------------------------------
# gradient checking harness
# ---------------------------------------------------------------------------

def check_gradients(
    projector: str,
    seed: int,
    eps: float = 1e-5,
    tol: float = 1e-4,
    rate: int = 2,
    seq_len: int = 11,
    grid: tuple[int, int] = (27, 27),
) -> numkit.GradCheckReport:
    """Finite-difference check of one projector's backward pass.

    The loss is half the squared Frobenius norm of the output, so the
    upstream gradient is the output itself. The backward runs once; each
    finite-difference probe runs only the forward.
    """
    rng = _rng(seed)
    if projector == "conv_gmlp":
        cfg = ConvGmlpConfig(
            rate_n=rate, llm_dim=_CHECK_LLM_DIM, in_channels=_CHECK_CHANNELS
        )
        params = _conv_gmlp_init(cfg, seed)
        x = rng.normal(0.0, 1.0, (seq_len, _CHECK_CHANNELS))
        forward, backward = _conv_gmlp_apply, _conv_gmlp_backward
    else:
        cfg = VisualProjectorConfig(
            variant=projector, in_dim=_CHECK_IN_DIM, llm_dim=_CHECK_LLM_DIM, grid=grid
        )
        params = _visual_init(cfg, seed)
        x = rng.normal(0.0, 1.0, (cfg.input_tokens, _CHECK_IN_DIM))
        forward, backward = _visual_forward, _visual_backward
    names = sorted(params)

    def loss(plist, xin):
        out, _ = forward(cfg, dict(zip(names, plist)), xin)
        return 0.5 * float(np.sum(out**2))

    out, cache = forward(cfg, params, x)
    grads, _ = backward(cfg, params, cache, out)
    plist = [params[n] for n in names]
    return numkit.grad_check(loss, plist, x, [grads[n] for n in names], eps=eps, tol=tol)


# ---------------------------------------------------------------------------
# toy fit and rate ablation
# ---------------------------------------------------------------------------

def toy_fit(
    cfg: ConvGmlpConfig,
    steps: int,
    lr: float,
    seed: int,
    seq_len: int = 128,
) -> list[float]:
    """Fit the projector by plain gradient descent to a synthetic target.

    The target is a fixed random linear map of the block-mean-pooled input;
    returns the mean-squared loss observed at each step.
    """
    if steps < 1:
        raise ContractError(f"steps must be >= 1, got {steps}")
    if seq_len < 1:
        raise ContractError(f"seq_len must be >= 1, got {seq_len}")
    if lr < 0:
        raise ContractError(f"lr must be >= 0, got {lr}")
    rng = _rng(seed)
    x = rng.normal(0.0, _TOY_INPUT_SCALE, (seq_len, cfg.in_channels))
    w_target = rng.normal(0.0, 1.0, (cfg.in_channels, cfg.llm_dim))
    w_target /= math.sqrt(cfg.in_channels)
    mp, _ = _block_mean(x, cfg.rate_n)
    target = mp @ w_target
    t_len = target.shape[0]

    params = _conv_gmlp_init(cfg, seed)
    losses: list[float] = []
    with np.errstate(over="ignore", invalid="ignore"):
        for step in range(steps):
            out, cache = _conv_gmlp_apply(cfg, params, x)
            err = out - target
            loss = 0.5 * float(np.sum(err * err)) / t_len
            if not math.isfinite(loss):
                raise DivergenceError(f"non-finite loss at step {step}")
            losses.append(loss)
            grads, _ = _conv_gmlp_backward(cfg, params, cache, err / t_len)
            params = {name: a - lr * grads[name] for name, a in params.items()}
            # parameters that blew up to non-finite values during the update
            if not all(np.all(np.isfinite(a)) for a in params.values()):
                raise DivergenceError(f"non-finite loss at step {step}")
    return losses


def ablate_rates(
    rates: list[int],
    task_seed: int,
    steps: int = 200,
    lr: float = 1e-3,
    in_channels: int = 32,
    llm_dim: int = 16,
    seq_len: int = 128,
) -> list[dict]:
    """Run the toy fit at each down-sampling rate with a matched budget."""
    if not rates:
        raise ContractError("rates must be non-empty")
    rows = []
    for rate in rates:
        if rate not in SUPPORTED_RATES:
            raise ContractError(
                f"unsupported rate {rate}, expected one of {SUPPORTED_RATES}"
            )
        cfg = ConvGmlpConfig(rate_n=rate, llm_dim=llm_dim, in_channels=in_channels)
        losses = toy_fit(cfg, steps=steps, lr=lr, seed=task_seed, seq_len=seq_len)
        out_len = conv_gmlp_shapes(cfg, seq_len)["output_len"]
        rows.append(
            {
                "rate": rate,
                "output_length_ratio": out_len / seq_len,
                "param_count": init_conv_gmlp_params(cfg, task_seed).param_count,
                "final_loss": losses[-1],
            }
        )
    return rows


def ablation_csv(rows: list[dict]) -> str:
    lines = ["rate,len_ratio,params,final_loss"]
    for r in rows:
        lines.append(
            f"{r['rate']},{r['output_length_ratio']!r},{r['param_count']},"
            f"{r['final_loss']!r}"
        )
    return "\n".join(lines) + "\n"
