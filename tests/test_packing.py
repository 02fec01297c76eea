"""Packing: first-fit bins, cu_seqlens, block-causal masks, isolation proof."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from omnipipe.errors import ContractError, ShapeError
from omnipipe.numkit import Tensor
from omnipipe.packing import (
    _TILE,
    PackedBatch,
    PackedBin,
    build_mask,
    check_capacity,
    check_length,
    pack,
    packed_attention,
)

from oracles import first_fit, mask_matrix, masked_attention, standalone_causal_attention

B = _TILE  # rows per attention tile


def _bin(cu, capacity):
    """A bin with boundaries cu, filled with samples 0, 1, ... and padded to
    capacity."""
    return PackedBin(tuple(range(len(cu) - 1)), tuple(cu), capacity - cu[-1])


class TestPack:
    def test_first_fit_hand_case(self):
        batch = pack([3, 5, 2], capacity=8)
        assert [list(b.sample_ids) for b in batch.bins] == [[0, 1], [2]]
        assert [list(b.cu_seqlens) for b in batch.bins] == [[0, 3, 8], [0, 2]]
        assert [b.pad_len for b in batch.bins] == [0, 6]

    def test_empty_input(self):
        assert pack([], capacity=8).bins == ()

    def test_oversize_names_sample(self):
        # the one message of the length rule, as the CLI prints it after FILE:LINE
        with pytest.raises(ContractError, match="^sample length 9 exceeds capacity 8$"):
            pack([9], capacity=8)

    def test_non_positive_length_rejected(self):
        with pytest.raises(ContractError, match="^sample has non-positive length 0$"):
            pack([3, 0], capacity=8)
        with pytest.raises(ContractError, match="^sample has non-positive length -2$"):
            check_length(-2, 8)

    def test_a_length_of_the_capacity_fits_and_the_capacity_is_at_least_one(self):
        check_length(8, 8)
        assert pack([8], capacity=8).bins[0].pad_len == 0
        with pytest.raises(ContractError, match="^capacity must be >= 1, got 0$"):
            check_capacity(0)

    def test_stops_drawing_at_the_first_bad_length(self):
        drawn = []

        def lengths():
            for n in (3, 5, 0, 2, 9):
                drawn.append(n)
                yield n

        with pytest.raises(ContractError, match="^sample has non-positive length 0$"):
            pack(lengths(), capacity=8)
        assert drawn == [3, 5, 0]

    def test_any_iterable_packs_as_its_list(self):
        lengths = [3, 5, 2, 8, 1, 4]
        for policy in ("first_fit", "first_fit_decreasing"):
            assert pack(iter(lengths), 8, policy) == pack(lengths, 8, policy)

    def test_deterministic(self):
        lengths = [5, 1, 7, 3, 3, 2, 6]
        a = pack(lengths, capacity=8)
        b = pack(lengths, capacity=8)
        assert a == b

    def test_first_fit_keeps_arrival_order_within_bins(self):
        batch = pack([2, 2, 2], capacity=6)
        assert list(batch.bins[0].sample_ids) == [0, 1, 2]

    def test_ffd_visits_longest_first(self):
        batch = pack([2, 7, 5, 3], capacity=8, policy="first_fit_decreasing")
        assert [list(b.sample_ids) for b in batch.bins] == [[1], [2, 3], [0]]

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 64).flatmap(
        lambda cap: st.tuples(st.just(cap), st.lists(st.integers(1, cap), max_size=200))
    ))
    def test_matches_bin_scan_oracle(self, case):
        capacity, lengths = case
        orders = {
            "first_fit": range(len(lengths)),
            "first_fit_decreasing": sorted(range(len(lengths)), key=lambda i: (-lengths[i], i)),
        }
        for policy, order in orders.items():
            got = [(list(b.sample_ids), b.pad_len) for b in pack(lengths, capacity, policy).bins]
            assert got == first_fit(lengths, capacity, order)

    def test_unknown_policy(self):
        with pytest.raises(ContractError):
            pack([1], capacity=2, policy="best_fit")

    def test_lengths_roundtrip_and_waste(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            capacity = int(rng.integers(4, 40))
            lengths = [int(rng.integers(1, capacity + 1)) for _ in range(int(rng.integers(0, 12)))]
            batch = pack(lengths, capacity)
            assert len(batch.bins) <= len(lengths)
            reconstructed = {}
            for b in batch.bins:
                for sid, ln in zip(b.sample_ids, b.lengths()):
                    reconstructed[sid] = ln
            assert reconstructed == dict(enumerate(lengths))
            assert sum(b.pad_len for b in batch.bins) == len(batch.bins) * capacity - sum(lengths)

    def test_json_shape(self):
        assert pack([3, 5, 2], capacity=8).to_json() == {
            "capacity": 8,
            "bins": [
                {"samples": [0, 1], "cu_seqlens": [0, 3, 8], "pad": 0},
                {"samples": [2], "cu_seqlens": [0, 2], "pad": 6},
            ],
        }


def _segment_of(cu, i):
    for s, (a, b) in enumerate(zip(cu, cu[1:])):
        if a <= i < b:
            return s
    return None


def _attends(mask, d=3, seed=0):
    """(i, j) pairs where perturbing token j changes packed attention row i."""
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(mask.capacity, d))
    base = packed_attention(Tensor(x), mask).array
    pairs = set()
    for j in range(mask.capacity):
        y = x.copy()
        y[j] += rng.normal(size=d)
        changed = np.any(packed_attention(Tensor(y), mask).array != base, axis=1)
        pairs |= {(int(i), j) for i in np.flatnonzero(changed)}
    return pairs


def _pairs(matrix):
    return {(int(i), int(j)) for i, j in zip(*np.nonzero(matrix))}


class TestBuildMask:
    def test_enumerated_hand_case(self):
        mask = _bin([0, 2, 4], 4)
        expected = {(0, 0), (1, 0), (1, 1), (2, 2), (3, 2), (3, 3)}
        assert _pairs(mask_matrix(mask.cu_seqlens, mask.capacity)) == expected
        assert _attends(mask) == expected

    def test_single_full_sample_is_causal_triangle(self):
        batch = pack([4], capacity=4)
        mask = build_mask(batch, 0)
        triangle = np.tril(np.ones((4, 4), dtype=bool))
        assert np.array_equal(mask_matrix(mask.cu_seqlens, mask.capacity), triangle)
        assert _attends(mask) == _pairs(triangle)

    def test_padding_rows_attend_nowhere(self):
        batch = pack([2], capacity=4)
        mask = build_mask(batch, 0)
        matrix = mask_matrix(mask.cu_seqlens, mask.capacity)
        assert not matrix[2:].any()
        assert not matrix[:, 2:].any()
        assert all(i < 2 and j < 2 for i, j in _attends(mask))
        out = packed_attention(Tensor(np.random.default_rng(5).normal(size=(4, 3))), mask)
        assert np.all(out.array[2:] == 0.0)

    def test_batch_bin_overfilling_capacity_rejected(self):
        with pytest.raises(ContractError, match="invalid cu_seqlens"):
            PackedBatch(capacity=4, bins=(PackedBin((0,), (0, 5), -1),))

    def test_empty_cu_seqlens_rejected(self):
        with pytest.raises(ContractError, match="invalid cu_seqlens"):
            PackedBin((), (), 4)

    @pytest.mark.parametrize("cu, pad", [
        ((1, 3), 0), ((0, 2, 2), 1), ((0, 3, 2), 1), ((0, 2), -1),
    ], ids=["not from 0", "empty segment", "falling", "negative padding"])
    def test_invalid_bin_rejected_when_built(self, cu, pad):
        with pytest.raises(ContractError, match="invalid cu_seqlens"):
            PackedBin(tuple(range(len(cu) - 1)), cu, pad)

    def test_mask_is_the_bin(self):
        batch = pack([3, 5, 2], capacity=8)
        for i, b in enumerate(batch.bins):
            assert build_mask(batch, i) is b
            assert b.capacity == batch.capacity

    def test_bin_capacity_must_be_the_batch_capacity(self):
        with pytest.raises(ContractError, match=r"bin fill 3 \+ pad 2 != capacity 4"):
            PackedBatch(capacity=4, bins=(PackedBin((0,), (0, 3), 2),))

    def test_index_out_of_range(self):
        batch = pack([2], capacity=4)
        with pytest.raises(ContractError):
            build_mask(batch, 1)

    def test_every_row_attends_to_its_whole_past_across_tiles(self):
        # a segment of three tiles after a length-1 one, a segment that
        # stops one row short of a tile, then padding
        cu = [0, 1, 2 * B + 3, 3 * B + 2]
        mask = _bin(cu, 3 * B + 5)
        assert _attends(mask, d=2) == _pairs(mask_matrix(cu, mask.capacity))

    def test_matrix_matches_definition(self):
        rng = np.random.default_rng(1)
        for _ in range(30):
            capacity = int(rng.integers(3, 20))
            lengths = []
            room = capacity
            while room > 0 and rng.random() > 0.2:
                ln = int(rng.integers(1, room + 1))
                lengths.append(ln)
                room -= ln
            cu = [0]
            for ln in lengths:
                cu.append(cu[-1] + ln)
            matrix = mask_matrix(cu, capacity)
            for i in range(capacity):
                for j in range(capacity):
                    si, sj = _segment_of(cu, i), _segment_of(cu, j)
                    expected = si is not None and si == sj and j <= i
                    assert matrix[i, j] == expected


def _check_oracle_padding_and_isolation(case, d, seed):
    """Packed attention on a (capacity, segment ends) case is within 1e-10 of
    the masked-softmax oracle, leaves padding rows exactly 0, and gives each
    segment the same bits whatever the other tokens hold."""
    capacity, ends = case
    cu = [0, *sorted(ends)]
    mask = _bin(cu, capacity)
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(capacity, d))
    out = packed_attention(Tensor(x), mask).array
    assert np.max(np.abs(out - masked_attention(x, cu, capacity))) <= 1e-10
    assert np.all(out[cu[-1] :] == 0.0)
    other = rng.normal(size=(capacity, d))
    for start, end in zip(cu, cu[1:]):
        y = other.copy()
        y[start:end] = x[start:end]
        again = packed_attention(Tensor(y), mask).array
        assert np.array_equal(again[start:end], out[start:end])


class TestPackedAttention:
    def test_single_sample_equals_plain_causal(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(5, 3))
        mask = _bin([0, 5], 5)
        got = packed_attention(Tensor(x), mask).array
        assert np.max(np.abs(got - standalone_causal_attention(x))) <= 1e-10

    def test_two_packed_samples_match_standalone(self):
        rng = np.random.default_rng(3)
        a = rng.normal(size=(3, 4))
        b = rng.normal(size=(4, 4))
        tokens = np.concatenate([a, b, np.zeros((1, 4))])
        mask = _bin([0, 3, 7], 8)
        got = packed_attention(Tensor(tokens), mask).array
        assert np.max(np.abs(got[0:3] - standalone_causal_attention(a))) <= 1e-10
        assert np.max(np.abs(got[3:7] - standalone_causal_attention(b))) <= 1e-10
        assert np.all(got[7] == 0.0)

    def test_all_padding_bin_is_zero(self):
        mask = _bin([0], 3)
        out = packed_attention(Tensor(np.ones((3, 2))), mask)
        assert np.all(out.array == 0.0)

    def test_size_mismatch(self):
        mask = _bin([0, 2], 4)
        with pytest.raises(ShapeError):
            packed_attention(Tensor(np.ones((3, 2))), mask)

    def test_isolation_over_random_packings(self):
        rng = np.random.default_rng(4)
        for _ in range(60):
            n_samples = int(rng.integers(1, 7))
            lengths = [int(rng.integers(1, 9)) for _ in range(n_samples)]
            capacity = max(lengths) + int(rng.integers(0, 8))
            d = int(rng.integers(1, 17))
            batch = pack(lengths, capacity)
            samples = [rng.normal(size=(ln, d)) for ln in lengths]
            for b, packed_bin in enumerate(batch.bins):
                tokens = np.zeros((capacity, d))
                for sid, (start, end) in zip(
                    packed_bin.sample_ids,
                    zip(packed_bin.cu_seqlens, packed_bin.cu_seqlens[1:]),
                ):
                    tokens[start:end] = samples[sid]
                out = packed_attention(Tensor(tokens), build_mask(batch, b)).array
                for sid, (start, end) in zip(
                    packed_bin.sample_ids,
                    zip(packed_bin.cu_seqlens, packed_bin.cu_seqlens[1:]),
                ):
                    expected = standalone_causal_attention(samples[sid])
                    assert np.max(np.abs(out[start:end] - expected)) <= 1e-10
                assert np.all(out[packed_bin.cu_seqlens[-1] :] == 0.0)

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(1, 48).flatmap(
            lambda cap: st.tuples(st.just(cap), st.sets(st.integers(1, cap), max_size=cap))
        ),
        st.integers(1, 6),
        st.integers(0, 2**32 - 1),
    )
    @example((5, {1, 2, 3, 4, 5}), 2, 0)  # length-1 segments filling the bin
    @example((4, set()), 3, 1)  # an all-padding bin
    @example((7, {3, 7}), 4, 2)  # a bin filled to capacity
    def test_matches_masked_softmax_oracle_and_isolates(self, case, d, seed):
        _check_oracle_padding_and_isolation(case, d, seed)

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(1, 4 * B).flatmap(
            lambda cap: st.tuples(st.just(cap), st.sets(st.integers(1, cap), max_size=4))
        ),
        st.integers(1, 4),
        st.integers(0, 2**32 - 1),
    )
    @example((3 * B + 2, {B - 1, 2 * B - 1, 3 * B}), 2, 0)  # lengths B - 1, B, B + 1
    @example((2 * B, {2 * B}), 3, 1)  # two full tiles
    @example((4 * B, {3 * B + 1}), 2, 2)  # a one-row fourth tile, then padding
    @example((B + 1, {B, B + 1}), 1, 3)  # a length-1 segment after a full tile
    def test_segments_spanning_several_tiles(self, case, d, seed):
        _check_oracle_padding_and_isolation(case, d, seed)

    def test_cost_does_not_scale_with_capacity_squared(self):
        capacity = 100_000
        rng = np.random.default_rng(6)
        x = rng.normal(size=(capacity, 1))
        mask = _bin([0, 3, 5], capacity)
        out = packed_attention(Tensor(x), mask).array
        assert np.max(np.abs(out[0:3] - standalone_causal_attention(x[0:3]))) <= 1e-10
        assert np.max(np.abs(out[3:5] - standalone_causal_attention(x[3:5]))) <= 1e-10
        assert not out[5:].any()
