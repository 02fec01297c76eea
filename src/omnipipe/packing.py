"""Sample packing with attention isolation.

Bins variable-length samples into fixed-capacity rows by first fit over a
max segment tree of the bins' free space (Johnson 1974, "Fast algorithms for
bin packing") and records cumulative sequence-length boundaries per bin.
A bin is its own isolation mask: its boundaries, checked when it is built,
and its capacity (fill plus padding) are all that packed attention reads.
Attention runs plain causal attention on each segment alone, the varlen
formulation of FlashAttention (Dao et al. 2022), which takes ``cu_seqlens``
itself as the mask, and leaves padding rows at zero, so no capacity x
capacity matrix is ever built. Within a segment, rows go in fixed-size tiles
that score only the columns up to their last row, the causal block skipping
of FlashAttention-2 (Dao 2023) without its streaming: each row sees its
whole past in one pass, so the softmax stays exact, and only the diagonal
block of a tile needs a mask.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractError, ShapeError
from .numkit import Tensor

PACK_POLICIES = ("first_fit", "first_fit_decreasing")

# Rows per attention tile, and the future half of one diagonal tile block.
_TILE = 64
_FUTURE = ~np.tri(_TILE, dtype=bool)


@dataclass(frozen=True)
class PackedBin:
    """One packed row and its block-causal mask: position i attends to j iff
    both sit in the same segment and j <= i; padding attends to nothing."""

    sample_ids: tuple[int, ...]
    cu_seqlens: tuple[int, ...]
    pad_len: int

    def __post_init__(self):
        # boundaries are non-empty, start at 0 and rise strictly; the padding
        # is not negative, so they fit the capacity
        cu = self.cu_seqlens
        if not cu or cu[0] != 0 or self.pad_len < 0 or any(y <= x for x, y in zip(cu, cu[1:])):
            raise ContractError(f"invalid cu_seqlens {cu} with padding {self.pad_len}")

    @property
    def capacity(self) -> int:
        return self.cu_seqlens[-1] + self.pad_len

    def lengths(self) -> tuple[int, ...]:
        return tuple(
            b - a for a, b in zip(self.cu_seqlens, self.cu_seqlens[1:])
        )


@dataclass(frozen=True)
class PackedBatch:
    capacity: int
    bins: tuple[PackedBin, ...]

    def __post_init__(self):
        for b in self.bins:
            if b.capacity != self.capacity:
                raise ContractError(
                    f"bin fill {b.cu_seqlens[-1]} + pad {b.pad_len} != "
                    f"capacity {self.capacity}"
                )

    def to_json(self) -> dict:
        return {
            "capacity": self.capacity,
            "bins": [
                {
                    "samples": list(b.sample_ids),
                    "cu_seqlens": list(b.cu_seqlens),
                    "pad": b.pad_len,
                }
                for b in self.bins
            ],
        }


def pack(lengths: list[int], capacity: int, policy: str = "first_fit") -> PackedBatch:
    """Place samples into capacity-sized bins with the first-fit heuristic.

    first_fit keeps arrival order; first_fit_decreasing visits samples longest
    first (ties in arrival order). Both are deterministic. Each sample finds
    its bin by one descent of a max segment tree over free space, so packing
    n samples costs O(n log n) rather than O(n * bins).
    """
    if capacity < 1:
        raise ContractError(f"capacity must be >= 1, got {capacity}")
    if policy not in PACK_POLICIES:
        raise ContractError(f"unknown policy {policy!r}, expected {PACK_POLICIES}")
    for i, length in enumerate(lengths):
        if length < 1:
            raise ContractError(f"sample {i} has non-positive length {length}")
        if length > capacity:
            raise ContractError(
                f"sample {i} length {length} exceeds capacity {capacity}"
            )
    order = list(range(len(lengths)))
    if policy == "first_fit_decreasing":
        order.sort(key=lambda i: (-lengths[i], i))
    # Max segment tree over bin free space: leaf size + b is bin b, an
    # unopened bin holds the full capacity, and bins open left to right, so
    # the leftmost leaf that fits is the bin a left-to-right scan would pick.
    size = 1
    while size < len(lengths):
        size *= 2
    tree = [capacity] * (2 * size)
    bin_ids: list[list[int]] = []
    for i in order:
        need = lengths[i]
        node = 1
        while node < size:
            node *= 2
            if tree[node] < need:
                node += 1
        b = node - size
        if b == len(bin_ids):
            bin_ids.append([])
        bin_ids[b].append(i)
        tree[node] -= need
        # raise the new maximum of node and its sibling (node ^ 1) until a
        # parent already holds it
        while node > 1:
            top = tree[node] if tree[node] > tree[node ^ 1] else tree[node ^ 1]
            node //= 2
            if tree[node] == top:
                break
            tree[node] = top
    bins = []
    for b, ids in enumerate(bin_ids):
        cu = [0]
        for i in ids:
            cu.append(cu[-1] + lengths[i])
        bins.append(
            PackedBin(sample_ids=tuple(ids), cu_seqlens=tuple(cu), pad_len=tree[size + b])
        )
    return PackedBatch(capacity=capacity, bins=tuple(bins))


def build_mask(batch: PackedBatch, bin_index: int) -> PackedBin:
    """The mask of one bin of the batch, which is the bin itself."""
    if not 0 <= bin_index < len(batch.bins):
        raise ContractError(
            f"bin index {bin_index} out of range for {len(batch.bins)} bins"
        )
    return batch.bins[bin_index]


def packed_attention(bin_tokens: Tensor, mask: PackedBin) -> Tensor:
    """Single-head scaled dot-product attention with identity projections.

    Each segment attends causally within itself; padding rows stay zero.
    """
    if bin_tokens.array.ndim != 2 or bin_tokens.shape[0] != mask.capacity:
        raise ShapeError(
            f"tokens shape {bin_tokens.shape} does not match mask capacity "
            f"{mask.capacity}"
        )
    x = bin_tokens.array
    out = np.zeros_like(x)
    root_d = np.sqrt(x.shape[1])
    for start, end in zip(mask.cu_seqlens, mask.cu_seqlens[1:]):
        seg, seg_out = x[start:end], out[start:end]
        for r0 in range(0, end - start, _TILE):
            r1 = min(r0 + _TILE, end - start)
            scores = (seg[r0:r1] @ seg[:r1].T) / root_d
            # only the tile's diagonal block holds future columns
            scores[:, r0:][_FUTURE[: r1 - r0, : r1 - r0]] = -np.inf
            weights = np.exp(scores - scores.max(axis=1, keepdims=True))
            seg_out[r0:r1] = weights @ seg[:r1] / weights.sum(axis=1, keepdims=True)
    return Tensor(out)
