"""Projector blocks with forward and hand-chained backward passes.

Four visual projector variants (mlp, c_abs, concat, mean_pool) that map a
27x27 patch grid to LLM embeddings, and a convolutional gated-MLP audio
projector that shortens a feature sequence by a configurable rate while
expanding channels proportionally, with a mean-pooled residual shortcut.
Every layer is a matmul on a 2-D weight: c_abs's pointwise convolutions are
plain linear layers, and the conv-gMLP's strided first convolution, whose
kernel is as wide as its stride, is a matmul over windows of rate rows.
The grid is ``modality.PATCH_GRID`` on a side, fixed, and the three pooled
visual variants read one table of its 2x2 windows (``_WINDOWS``), built once
at import and read-only: concat concatenates each window's four tokens,
mean_pool (on the input) and c_abs (between its two layers) average its
in-bounds tokens, and each backward scatters through the same table. A toy
gradient-descent fit and a down-sampling-rate ablation harness verify the
backward passes end to end.

Each projector has one array-level forward (``_visual_forward``,
``_conv_gmlp_apply``) that checks its input, runs every layer and returns
``(out, cache)``; the private backward reads the cache and runs no forward
op. One function owns the conv-gMLP's window layout (``_windows``): it checks
the input, right-zero-pads it to whole windows of rate rows and counts each
window's real rows, and ``_conv_gmlp_apply`` runs the layers on its windows.
The public conv-gMLP forward needs no cache and projects each run of
repeated windows once: a window whose bytes and real rows equal the window
before it takes that window's row. A repeated window's row is bit-equal to
the row before it and every row is within 1e-14 of max |out| of the
whole-array forward's; with no repeated window it is that forward's output
bit for bit at layers under 512 wide. These work on plain float64 arrays,
with the parameters as a dict of name -> array, and so does the toy fit. The
forwards also take parameters with a leading probe axis (bias adds index
``b[..., None, :]`` and the matmuls broadcast), giving each probe the output
of its own 2-D forward;
the gradient check hands the parameter dict and the backward's gradient
dict to ``numkit.grad_check`` as they are, and its loss runs the forward
once per chunk of probes.
``Tensor`` and ``ProjectorParams`` are the public edge: the public functions
unwrap them on entry, checking the parameters against the projector's one
parameter table (``_arrays``), and wrap their results on exit. Init and the
ablation's parameter count read the same table. With the input checks, the
entry check fixes every shape inside, so bias adds and the gate product are
plain arithmetic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ContractError, DivergenceError, ShapeError
from . import numkit
from .modality import PATCH_GRID, TOKENS_PER_TILE
from .numkit import Tensor

VISUAL_VARIANTS = ("mlp", "c_abs", "concat", "mean_pool")
SUPPORTED_RATES = (1, 2, 4, 8)

_TOY_INPUT_SCALE = 5.0

# Windows per block of the public conv-gMLP forward. A fixed row count, not
# a byte budget: every matmul keeps at least 128 rows, so each weight is read
# once per 128 windows at any channel count.
_GMLP_BLOCK = 128

# Sizes of the small projectors that check_gradients builds. 11 rows take
# the pad path at rates 2, 4 and 8 (5 padded rows at rate 8).
_CHECK_IN_DIM = 5
_CHECK_LLM_DIM = 3
_CHECK_CHANNELS = 4
_CHECK_SEQ_LEN = 11


# ---------------------------------------------------------------------------
# configs and parameters
# ---------------------------------------------------------------------------

def check_rate(rate: int) -> None:
    """Reject a down-sampling rate the conv-gMLP projector cannot build."""
    if rate not in SUPPORTED_RATES:
        raise ContractError(f"unsupported rate {rate}, expected one of {SUPPORTED_RATES}")


@dataclass(frozen=True)
class VisualProjectorConfig:
    variant: str
    in_dim: int
    llm_dim: int

    def __post_init__(self):
        if self.variant not in VISUAL_VARIANTS:
            raise ContractError(
                f"unknown visual projector variant {self.variant!r}, "
                f"expected one of {VISUAL_VARIANTS}"
            )
        if self.in_dim < 1 or self.llm_dim < 1:
            raise ContractError("projector dimensions must be >= 1")

    @property
    def output_tokens(self) -> int:
        """Rows of the output; the projector tests read it, the library does not."""
        return _PATCHES if self.variant == "mlp" else TOKENS_PER_TILE


@dataclass(frozen=True)
class ConvGmlpConfig:
    rate_n: int
    llm_dim: int
    in_channels: int = 1280

    def __post_init__(self):
        check_rate(self.rate_n)
        if self.in_channels < 1 or self.llm_dim < 1:
            raise ContractError("projector dimensions must be >= 1")

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


# A projector's parameter table: (name, shape, fan_in) per tensor.
_Specs = list[tuple[str, tuple[int, ...], int]]


def _visual_specs(cfg: VisualProjectorConfig) -> _Specs:
    """Every variant is a two-layer MLP; concat's first layer reads 2x2
    neighbourhoods of four tokens each."""
    first = 4 * cfg.in_dim if cfg.variant == "concat" else cfg.in_dim
    d_llm = cfg.llm_dim
    return [
        ("w1", (first, d_llm), first),
        ("b1", (d_llm,), first),
        ("w2", (d_llm, d_llm), d_llm),
        ("b2", (d_llm,), d_llm),
    ]


def _conv_gmlp_specs(cfg: ConvGmlpConfig) -> _Specs:
    # one window of rate rows is rate x in_channels wide, as is each path
    c, width, d_llm = cfg.in_channels, cfg.hidden_channels, cfg.llm_dim
    return [
        ("w_in", (width, width), width),
        ("b_in", (width,), width),
        ("w_mid", (width, 2 * width), width),
        ("b_mid", (2 * width,), width),
        ("w_out", (width, d_llm), width),
        ("b_out", (d_llm,), width),
        ("w_res", (c, d_llm), c),
    ]


def _arrays(params: ProjectorParams, specs: _Specs) -> dict[str, np.ndarray]:
    """The arrays of ``params``: exactly the table's names, each at its shape."""
    want = [name for name, _, _ in specs]
    if sorted(params.tensors) != sorted(want):
        raise ContractError(
            f"projector parameters must be named {want}, got {list(params.tensors)}"
        )
    for name, shape, _ in specs:
        if params.tensors[name].shape != shape:
            raise ShapeError(
                f"parameter {name!r} must have shape {shape}, "
                f"got {params.tensors[name].shape}"
            )
    return {name: t.array for name, t in params.tensors.items()}


def _tensors(arrays: dict[str, np.ndarray]) -> dict[str, Tensor]:
    return {name: Tensor(a) for name, a in arrays.items()}


def _rng(seed: int) -> np.random.Generator:
    numkit.check_seed(seed)
    return np.random.default_rng(seed)


def _init(specs: _Specs, seed: int) -> dict[str, np.ndarray]:
    rng = _rng(seed)
    arrays = {}
    for name, shape, fan_in in specs:
        bound = math.sqrt(1.0 / fan_in)
        arrays[name] = rng.uniform(-bound, bound, shape)
    return arrays


def init_visual_params(cfg: VisualProjectorConfig, seed: int) -> ProjectorParams:
    return ProjectorParams(tensors=_tensors(_init(_visual_specs(cfg), seed)), init_seed=seed)


def init_conv_gmlp_params(cfg: ConvGmlpConfig, seed: int) -> ProjectorParams:
    return ProjectorParams(tensors=_tensors(_init(_conv_gmlp_specs(cfg), seed)), init_seed=seed)


# ---------------------------------------------------------------------------
# visual projector
# ---------------------------------------------------------------------------

_PATCHES = PATCH_GRID * PATCH_GRID


def _check_visual_input(cfg: VisualProjectorConfig, x: np.ndarray) -> None:
    if x.shape != (_PATCHES, cfg.in_dim):
        raise ShapeError(
            f"visual projector expects {(_PATCHES, cfg.in_dim)} input, got {x.shape}"
        )


def _window_table() -> np.ndarray:
    """The four token indices of each 2x2 window, -1 in a slot past the
    grid's last column.

    Window (i, j) covers rows 2i + (0, 0, 1, 1) and columns 2j + (0, 1, 0, 1).
    Rows are floored to whole windows and an odd last column is a window of
    its own, so only a column can fall outside the grid, and the windows are
    modality's TOKENS_PER_TILE, as the reshape checks.
    """
    r = np.arange(0, PATCH_GRID - 1, 2)[:, None, None] + np.array([0, 0, 1, 1])
    c = np.arange(0, PATCH_GRID, 2)[None, :, None] + np.array([0, 1, 0, 1])
    return np.where(c < PATCH_GRID, r * PATCH_GRID + c, -1).reshape(TOKENS_PER_TILE, 4)


# built once and shared read-only: the window table and each window's
# in-bounds slots, as a column
_WINDOWS = _window_table()
_COUNTS = np.count_nonzero(_WINDOWS >= 0, axis=1)[:, None]
_WINDOWS.flags.writeable = _COUNTS.flags.writeable = False


def _gather(tokens: np.ndarray) -> np.ndarray:
    """(..., windows, 4, channels): each window's tokens, zero in a -1 slot;
    ``tokens`` may carry a leading probe axis."""
    windows = tokens[..., _WINDOWS, :]
    windows[..., _WINDOWS < 0, :] = 0.0
    return windows


def _scatter(g: np.ndarray) -> np.ndarray:
    """Adjoint of _gather. Windows never overlap, so each token takes at most
    one slot's gradient; the -1 slots write a dropped extra row."""
    out = np.zeros((_PATCHES + 1, g.shape[2]))
    out[_WINDOWS] = g
    return out[:-1]


def _pool(tokens: np.ndarray) -> np.ndarray:
    """2x2 mean pool, one row per window; the mean counts in-bounds slots.
    Each sum starts at +0.0, so a window of -0.0 pools to +0.0."""
    return _gather(tokens).sum(axis=-2, initial=0.0) / _COUNTS


def _unpool(g: np.ndarray) -> np.ndarray:
    """Adjoint of _pool: each in-bounds slot gets its window's gradient
    divided by the window's count."""
    return _scatter((g / _COUNTS)[:, None, :])


def visual_project(cfg: VisualProjectorConfig, params: ProjectorParams, x: Tensor) -> Tensor:
    """Project a (729 patches x in_dim) feature block to LLM embeddings."""
    out, _ = _visual_forward(cfg, _arrays(params, _visual_specs(cfg)), x.array)
    return Tensor(out)


def _visual_forward(cfg: VisualProjectorConfig, p: dict, x: np.ndarray):
    """The output and the backward's cache; ``last`` is the output layer's input."""
    _check_visual_input(cfg, x)
    if cfg.variant == "mean_pool":
        first = _pool(x)
    elif cfg.variant == "concat":
        first = _gather(x).reshape(TOKENS_PER_TILE, 4 * cfg.in_dim)
    else:
        first = x
    z1 = numkit.matmul(first, p["w1"]) + p["b1"][..., None, :]
    last = numkit.gelu(z1)
    if cfg.variant == "c_abs":  # pools between its two layers
        last = _pool(last)
    cache = {"first": first, "z1": z1, "last": last}
    return numkit.matmul(last, p["w2"]) + p["b2"][..., None, :], cache


def _visual_backward(
    cfg: VisualProjectorConfig, p: dict, cache: dict, grad_out: np.ndarray
) -> tuple[dict[str, np.ndarray], np.ndarray]:
    g_h, g_w2 = numkit.matmul_backward(cache["last"], p["w2"], grad_out)
    if cfg.variant == "c_abs":
        g_h = _unpool(g_h)
    g_z1 = numkit.gelu_backward(cache["z1"], g_h)
    g_x, g_w1 = numkit.matmul_backward(cache["first"], p["w1"], g_z1)
    if cfg.variant == "mean_pool":
        g_x = _unpool(g_x)
    elif cfg.variant == "concat":
        g_x = _scatter(g_x.reshape(TOKENS_PER_TILE, 4, cfg.in_dim))
    grads = {"w1": g_w1, "b1": g_z1.sum(axis=0), "w2": g_w2, "b2": grad_out.sum(axis=0)}
    return grads, g_x


def visual_project_backward(
    cfg: VisualProjectorConfig,
    params: ProjectorParams,
    x: Tensor,
    upstream_grad: Tensor,
) -> tuple[dict[str, Tensor], Tensor]:
    """Gradients of a scalar loss wrt every parameter and the input."""
    p = _arrays(params, _visual_specs(cfg))
    _, cache = _visual_forward(cfg, p, x.array)
    grads, g_x = _visual_backward(cfg, p, cache, upstream_grad.array)
    return _tensors(grads), Tensor(g_x)


# ---------------------------------------------------------------------------
# convolutional gated-MLP audio projector
# ---------------------------------------------------------------------------

def audio_tokens(frames: int, rate: int) -> int:
    """The audio-token law: ceil(frames / rate) tokens for ``frames`` rows."""
    return -(-frames // rate)


def conv_gmlp_shapes(cfg: ConvGmlpConfig, seq_len: int) -> dict:
    """Length and width laws for a given input length, without running it.
    Acceptance criterion 2 reads it; the library does not."""
    if seq_len < 1:
        raise ContractError(f"sequence length must be >= 1, got {seq_len}")
    out_len = audio_tokens(seq_len, cfg.rate_n)
    return {
        "padded_len": out_len * cfg.rate_n,
        "output_len": out_len,
        "intermediate_channels": cfg.hidden_channels,
        "intermediate_shape": (out_len, cfg.hidden_channels),
        "output_shape": (out_len, cfg.llm_dim),
    }


def _windows(cfg: ConvGmlpConfig, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The conv-gMLP window layout: ``x`` checked, right-zero-padded to whole
    windows of rate rows, as a (windows, rate x in_channels) array, and each
    window's count of real rows."""
    if x.ndim != 2:
        raise ShapeError(f"projector input must be 2-D, got shape {x.shape}")
    if x.shape[1] != cfg.in_channels:
        raise ShapeError(
            f"projector expects {cfg.in_channels} channels, input has {x.shape[1]}"
        )
    rate, (length, c) = cfg.rate_n, x.shape
    pad = (-length) % rate
    if pad:
        x = np.concatenate([x, np.zeros((pad, c))])
    counts = np.full(len(x) // rate, rate, dtype=np.float64)
    counts[-1] -= pad
    return x.reshape(-1, rate * c), counts


def _means(cfg: ConvGmlpConfig, windows: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Each window's mean over its real rows."""
    return windows.reshape(-1, cfg.rate_n, cfg.in_channels).sum(axis=1) / counts[:, None]


def _conv_gmlp_layers(cfg: ConvGmlpConfig, p: dict, windows: np.ndarray, counts: np.ndarray):
    """The output of each window and the backward's cache: every value before
    the output layer. The first layer, a matmul over windows, is the strided
    convolution: its kernel is as wide as its stride."""
    width = cfg.hidden_channels
    mp = _means(cfg, windows, counts)
    z1 = numkit.matmul(windows, p["w_in"]) + p["b_in"][..., None, :]
    h = numkit.gelu(z1)
    pre2 = numkit.matmul(h, p["w_mid"]) + p["b_mid"][..., None, :]
    value = pre2[..., :width]
    sig = numkit.sigmoid(pre2[..., width:])
    gated = value * sig
    out = (
        numkit.matmul(gated, p["w_out"])
        + p["b_out"][..., None, :]
        + numkit.matmul(mp, p["w_res"])
    )
    return out, {
        "windows": windows,
        "z1": z1,
        "h": h,
        "value": value,
        "sig": sig,
        "gated": gated,
        "mp": mp,
        "counts": counts,
    }


def _conv_gmlp_apply(cfg: ConvGmlpConfig, p: dict, x: np.ndarray):
    """The layers on the windows of ``x``: the output and the backward's cache."""
    return _conv_gmlp_layers(cfg, p, *_windows(cfg, x))


def conv_gmlp_forward(cfg: ConvGmlpConfig, params: ProjectorParams, x: Tensor) -> Tensor:
    """Shorten an (L x in_channels) sequence to ceil(L / rate) LLM embeddings.

    The input is right-zero-padded to a multiple of the rate; a matmul over
    each window of rate rows (a convolution with kernel and stride both equal
    to the rate) and a pointwise layer expand channels to rate x in_channels
    for a value path and a sigmoid gate path, their product is projected to
    llm_dim, and a block-mean-pooled linear shortcut of the input is added.

    Each output row reads only its own window, so a window whose bytes and
    real rows equal the window before it takes that window's row (bytes, not
    values: -0.0 and +0.0 stay apart). The kept windows go ``_GMLP_BLOCK`` at
    a time; every row is within 1e-14 of max |out| of ``_conv_gmlp_forward``'s,
    and bit-equal to it at layers (rate x in_channels) under 512 wide when no
    window repeats. A wider layer or a merged run (llm_dim 3 too) can move a
    row by an ulp: BLAS may sum a row in another order elsewhere in a block.
    """
    p = _arrays(params, _conv_gmlp_specs(cfg))
    windows, counts = _windows(cfg, x.array)
    # the first window of each run of equal bytes and real rows
    w = windows.view(np.int64)
    first = np.ones(len(windows), dtype=bool)
    first[1:] = np.any(w[1:] != w[:-1], axis=1) | (counts[1:] != counts[:-1])
    kept = np.flatnonzero(first)
    cuts = list(range(_GMLP_BLOCK, len(kept), _GMLP_BLOCK))
    # numpy runs a one-row matmul as a matrix-vector product, whose sums can
    # differ in the last bit from a matrix product's, so a lone last window
    # joins the block before it
    if cuts and cuts[-1] == len(kept) - 1:
        cuts.pop()
    outs = []
    for block in np.split(kept, cuts):
        if block[-1] - block[0] == len(block) - 1:  # consecutive windows
            block = slice(block[0], block[-1] + 1)
        outs.append(_conv_gmlp_layers(cfg, p, windows[block], counts[block])[0])
    return Tensor(np.repeat(np.concatenate(outs), np.diff(kept, append=len(windows)), axis=0))


def _conv_gmlp_forward(cfg: ConvGmlpConfig, params: ProjectorParams, x: Tensor):
    """``_conv_gmlp_apply`` on the arrays inside ``params`` and ``x``: the
    output and the cache, as arrays. The acceptance suite checks the length
    and width laws through it."""
    return _conv_gmlp_apply(cfg, _arrays(params, _conv_gmlp_specs(cfg)), x.array)


def _conv_gmlp_backward(
    cfg: ConvGmlpConfig, p: dict, cache: dict, grad_out: np.ndarray
) -> tuple[dict[str, np.ndarray], np.ndarray]:
    # residual shortcut: each row of a block gets its share of the block mean
    g_mp, g_w_res = numkit.matmul_backward(cache["mp"], p["w_res"], grad_out)
    per_row = g_mp / cache["counts"][:, None]

    # gated projection path
    g_gated, g_w_out = numkit.matmul_backward(cache["gated"], p["w_out"], grad_out)
    g_value = g_gated * cache["sig"]
    g_gate = numkit.sigmoid_backward(cache["sig"], g_gated * cache["value"])
    g_pre2 = np.concatenate([g_value, g_gate], axis=1)
    g_h, g_w_mid = numkit.matmul_backward(cache["h"], p["w_mid"], g_pre2)
    g_z1 = numkit.gelu_backward(cache["z1"], g_h)
    g_windows, g_w_in = numkit.matmul_backward(cache["windows"], p["w_in"], g_z1)

    grads = {
        "w_in": g_w_in,
        "b_in": g_z1.sum(axis=0),
        "w_mid": g_w_mid,
        "b_mid": g_pre2.sum(axis=0),
        "w_out": g_w_out,
        "b_out": grad_out.sum(axis=0),
        "w_res": g_w_res,
    }
    # both paths meet in the window layout; the padding rows drop
    c = cfg.in_channels
    g_rows = (g_windows.reshape(-1, cfg.rate_n, c) + per_row[:, None, :]).reshape(-1, c)
    return grads, g_rows[: int(cache["counts"].sum())]


def conv_gmlp_backward(
    cfg: ConvGmlpConfig,
    params: ProjectorParams,
    x: Tensor,
    upstream_grad: Tensor,
) -> tuple[dict[str, Tensor], Tensor]:
    """Gradients wrt every parameter tensor and the input."""
    p = _arrays(params, _conv_gmlp_specs(cfg))
    _, cache = _conv_gmlp_apply(cfg, p, x.array)
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
) -> numkit.GradCheckReport:
    """Finite-difference check of one projector's backward pass.

    A visual projector reads the 27x27 grid; the conv-gMLP reads
    ``_CHECK_SEQ_LEN`` rows. The loss is half the squared Frobenius norm of
    the output, so the upstream gradient is the output itself. The backward
    runs once; each chunk of finite-difference probes runs only the forward,
    once, on parameters with a leading probe axis. The output and cache of
    the first forward size the chunks. Every projector checks ``rate``.
    """
    check_rate(rate)
    rng = _rng(seed)
    if projector == "conv_gmlp":
        cfg = ConvGmlpConfig(
            rate_n=rate, llm_dim=_CHECK_LLM_DIM, in_channels=_CHECK_CHANNELS
        )
        params = _init(_conv_gmlp_specs(cfg), seed)
        x = rng.normal(0.0, 1.0, (_CHECK_SEQ_LEN, _CHECK_CHANNELS))
        forward, backward = _conv_gmlp_apply, _conv_gmlp_backward
    else:
        cfg = VisualProjectorConfig(projector, _CHECK_IN_DIM, _CHECK_LLM_DIM)
        params = _init(_visual_specs(cfg), seed)
        x = rng.normal(0.0, 1.0, (_PATCHES, _CHECK_IN_DIM))
        forward, backward = _visual_forward, _visual_backward

    def loss(probed):
        out, _ = forward(cfg, probed, x)
        return 0.5 * np.sum(out**2, axis=(-2, -1))

    out, cache = forward(cfg, params, x)
    grads, _ = backward(cfg, params, cache, out)
    # what one probe row of the forward holds: its output and its cache
    probe_bytes = out.nbytes + sum(a.nbytes for a in cache.values())
    return numkit.grad_check(loss, params, grads, eps=eps, tol=tol, probe_bytes=probe_bytes)


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
    returns the mean-squared loss of each step. The first step whose loss or
    updated parameters are not finite raises DivergenceError, naming it.
    """
    if steps < 1:
        raise ContractError(f"steps must be >= 1, got {steps}")
    if seq_len < 1:
        raise ContractError(f"seq_len must be >= 1, got {seq_len}")
    if lr < 0:
        raise ContractError(f"lr must be >= 0, got {lr}")
    # numpy cannot describe a float64 array of more than intp-max bytes; the
    # gate layer holds twice the entries of the padded input's block layout
    gate = (audio_tokens(seq_len, cfg.rate_n), 2 * cfg.hidden_channels)
    shapes = [("input", (seq_len, cfg.in_channels)), ("target map", (cfg.in_channels, cfg.llm_dim)),
              ("gate layer", gate), *[spec[:2] for spec in _conv_gmlp_specs(cfg)]]
    for name, shape in shapes:
        if 8 * math.prod(shape) > np.iinfo(np.intp).max:
            raise ContractError(f"toy fit {name} of shape {shape} is too large to address")
    rng = _rng(seed)
    x = rng.normal(0.0, _TOY_INPUT_SCALE, (seq_len, cfg.in_channels))
    w_target = rng.normal(0.0, 1.0, (cfg.in_channels, cfg.llm_dim))
    w_target /= math.sqrt(cfg.in_channels)
    windows, counts = _windows(cfg, x)
    target = _means(cfg, windows, counts) @ w_target
    t_len = target.shape[0]

    params = _init(_conv_gmlp_specs(cfg), seed)
    losses: list[float] = []
    with np.errstate(over="ignore", invalid="ignore"):
        for step in range(steps):
            out, cache = _conv_gmlp_layers(cfg, params, windows, counts)
            err = out - target
            loss = 0.5 * float(np.sum(err * err)) / t_len
            grads, _ = _conv_gmlp_backward(cfg, params, cache, err / t_len)
            params = {name: a - lr * grads[name] for name, a in params.items()}
            if not (math.isfinite(loss) and all(np.isfinite(a).all() for a in params.values())):
                raise DivergenceError(f"non-finite loss at step {step}")
            losses.append(loss)
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
    # every rate is checked before the first fit
    cfgs = [ConvGmlpConfig(rate_n=r, llm_dim=llm_dim, in_channels=in_channels) for r in rates]
    rows = []
    for cfg in cfgs:
        losses = toy_fit(cfg, steps=steps, lr=lr, seed=task_seed, seq_len=seq_len)
        rows.append(
            {
                "rate": cfg.rate_n,
                "output_length_ratio": audio_tokens(seq_len, cfg.rate_n) / seq_len,
                "param_count": sum(math.prod(s) for _, s, _ in _conv_gmlp_specs(cfg)),
                "final_loss": losses[-1],
            }
        )
    return rows

