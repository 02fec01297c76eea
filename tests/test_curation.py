"""Curation stages: loss filter, 1:3 splitting, timbres, mixing, roundtrip."""

import math

import numpy as np
import pytest

from omnipipe.curation import (
    DEFAULT_PROMPT,
    TIMBRE_COUNT,
    CrossModalSample,
    asr_roundtrip_filter,
    assign_timbres,
    gaussian_filter,
    mix_plan,
    normalize_transcript,
    split_one_three,
)
from omnipipe.errors import ContractError


class TestGaussianFilter:
    def test_hand_case(self):
        report = gaussian_filter({"a": 1, "b": 2, "c": 3, "d": 4, "e": 5})
        assert report.mu == 3.0
        assert math.isclose(report.sigma, math.sqrt(2.0))
        assert report.kept_ids == ("b", "c", "d")
        assert report.removed_low_ids == ("a",)
        assert report.removed_high_ids == ("e",)

    def test_all_equal_losses_all_kept(self):
        report = gaussian_filter({"x": 2.0, "y": 2.0, "z": 2.0})
        assert report.sigma == 0.0
        assert report.kept_ids == ("x", "y", "z")
        assert report.removed_low_ids == () and report.removed_high_ids == ()

    def test_single_sample_rejected(self):
        with pytest.raises(ContractError):
            gaussian_filter({"a": 1.0})

    def test_non_finite_rejected(self):
        with pytest.raises(ContractError):
            gaussian_filter({"a": 1.0, "b": float("nan")})

    def test_boundary_values_kept(self):
        # losses 0,0,2,2 -> mu=1, sigma=1; all values sit on mu +/- sigma
        report = gaussian_filter({"a": 0.0, "b": 0.0, "c": 2.0, "d": 2.0})
        assert report.kept_ids == ("a", "b", "c", "d")

    def test_standard_normal_keep_fraction(self):
        rng = np.random.default_rng(123)
        losses = {i: float(v) for i, v in enumerate(rng.normal(size=10_000))}
        report = gaussian_filter(losses)
        fraction = len(report.kept_ids) / len(losses)
        assert 0.65 <= fraction <= 0.71


class TestSplitOneThree:
    def test_reconstruction_byte_exact(self):
        rng = np.random.default_rng(0)
        words = ["alpha", "bee", "c", "delta", "ee", "ffff", "gg", "hi"]
        for _ in range(100):
            n = int(rng.integers(4, 30))
            text = " ".join(str(rng.choice(words)) for _ in range(n))
            sample = split_one_three(text)
            assert sample.audio_text + sample.target_text == text

    def test_four_words(self):
        sample = split_one_three("a b c d")
        assert sample.audio_text == "a"
        assert sample.target_text == " b c d"

    def test_cut_lands_on_quarter_boundary(self):
        text = ("x" * 24 + " ") + "y" * 30 + " tail words here"
        sample = split_one_three(text)
        assert sample.audio_text == "x" * 24

    def test_too_short_rejected(self):
        with pytest.raises(ContractError):
            split_one_three("ab")

    def test_default_prompt_attached(self):
        sample = split_one_three("one two three four")
        assert sample.prompt == DEFAULT_PROMPT
        assert sample.timbre_id is None


class TestAssignTimbres:
    def _samples(self, n):
        return [
            CrossModalSample(audio_text="a", target_text=" b c d") for _ in range(n)
        ]

    def test_range(self):
        out = assign_timbres(self._samples(1), seed=0)
        assert 0 <= out[0].timbre_id < TIMBRE_COUNT

    def test_deterministic(self):
        a = assign_timbres(self._samples(50), seed=9)
        b = assign_timbres(self._samples(50), seed=9)
        assert [s.timbre_id for s in a] == [s.timbre_id for s in b]

    def test_coupon_collector_at_10k(self):
        out = assign_timbres(self._samples(10_000), seed=5)
        assert {s.timbre_id for s in out} == set(range(TIMBRE_COUNT))


class TestMixPlan:
    def test_proportional_hand_case(self):
        plan = mix_plan({"A": 100, "B": 300}, budget=40, seed=0)
        assert dict(zip(plan.names, plan.sample_counts)) == {"A": 10, "B": 30}

    def test_single_dataset_takes_budget(self):
        plan = mix_plan({"only": 50}, budget=17, seed=0)
        assert plan.sample_counts == (17,)

    def test_negative_seed_rejected(self):
        with pytest.raises(ContractError, match=r"^seed must be >= 0, got -1$"):
            mix_plan({"A": 3}, budget=1, seed=-1)

    def test_budget_above_total_rejected(self):
        with pytest.raises(ContractError):
            mix_plan({"A": 3, "B": 4}, budget=8, seed=0)

    def test_counts_sum_and_caps(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            sizes = {f"d{i}": int(rng.integers(1, 500)) for i in range(int(rng.integers(1, 8)))}
            budget = int(rng.integers(0, sum(sizes.values()) + 1))
            plan = mix_plan(sizes, budget, seed=0)
            assert sum(plan.sample_counts) == budget
            for name, count in zip(plan.names, plan.sample_counts):
                assert count <= sizes[name]

    def test_order_invariant(self):
        sizes = {"a": 7, "b": 11, "c": 13}
        reordered = {"c": 13, "a": 7, "b": 11}
        p1 = mix_plan(sizes, budget=10, seed=0)
        p2 = mix_plan(reordered, budget=10, seed=0)
        assert dict(zip(p1.names, p1.sample_counts)) == dict(
            zip(p2.names, p2.sample_counts)
        )


class TestAsrRoundtrip:
    def test_exact_mode_normalizes(self):
        kept, removed = asr_roundtrip_filter([("Hello world", "hello world")])
        assert kept and not removed

    def test_cer_threshold(self):
        kept, removed = asr_roundtrip_filter(
            [("abc", "abd")], mode="cer_threshold", threshold=0.5
        )
        assert kept and not removed
        kept, removed = asr_roundtrip_filter(
            [("abc", "xyz")], mode="cer_threshold", threshold=0.5
        )
        assert removed and not kept

    def test_identical_kept_in_both_modes(self):
        pair = [("same text", "same text")]
        assert asr_roundtrip_filter(pair, "exact")[0] == pair
        assert asr_roundtrip_filter(pair, "cer_threshold", 0.0)[0] == pair

    def test_exact_equals_cer_zero(self):
        rng = np.random.default_rng(2)
        vocab = ["go", "stop", "left", "right", "up"]
        for _ in range(100):
            prompt = " ".join(str(rng.choice(vocab)) for _ in range(int(rng.integers(1, 6))))
            transcript = " ".join(str(rng.choice(vocab)) for _ in range(int(rng.integers(0, 6))))
            exact_kept = bool(asr_roundtrip_filter([(prompt, transcript)], "exact")[0])
            cer0_kept = bool(
                asr_roundtrip_filter([(prompt, transcript)], "cer_threshold", 0.0)[0]
            )
            assert exact_kept == cer0_kept

    def test_bad_threshold_rejected(self):
        with pytest.raises(ContractError):
            asr_roundtrip_filter([("a", "a")], "cer_threshold", 1.5)

    def test_normalize_transcript(self):
        assert normalize_transcript("  Hello,   WORLD!! ") == "hello, world"
