"""Curation stages: loss filter, 1:3 splitting, timbres, mixing, roundtrip."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from omnipipe.curation import (
    DEFAULT_PROMPT,
    TIMBRE_COUNT,
    CrossModalSample,
    MixPlan,
    asr_roundtrip_filter,
    assign_timbres,
    gaussian_filter,
    mix_plan,
    normalize_transcript,
    split_one_three,
)
from omnipipe.errors import ContractError

from oracles import edit_distance, roundtrip_exact, split_one_three_two_pass


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

    def test_overflowing_sums_give_the_true_statistics(self):
        # the plain sum of squares overflows in the first case, the plain sum
        # in the other three; no numpy warning escapes
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            spread = gaussian_filter(dict(enumerate([1e200, -1e200, 0.0])))
            assert spread.mu == 0.0
            assert spread.sigma == pytest.approx(math.sqrt(2 / 3) * 1e200, rel=1e-15)
            assert (spread.kept_ids, spread.removed_low_ids, spread.removed_high_ids) == (
                (2,), (1,), (0,))
            for value in (1e308, -1e308):
                equal = gaussian_filter(dict(enumerate([value, value])))
                assert (equal.mu, equal.sigma, equal.kept_ids) == (value, 0.0, (0, 1))
            widest = gaussian_filter(dict(enumerate([1.0, 1e308, 1e308])))
            assert widest.mu == pytest.approx(1e308 / 3 * 2, rel=1e-15)
            assert widest.sigma == pytest.approx(math.sqrt(2) / 3 * 1e308, rel=1e-15)

    def test_underflowing_squares_give_the_true_statistics(self):
        # every squared deviation of these losses is below the smallest
        # double; plain statistics read sigma 0.0 and keep only "c"
        losses = dict(zip("abcde", [1e-170, 1.5e-170, 2e-170, 2.5e-170, 3e-170]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = gaussian_filter(losses)
        assert (report.mu, report.sigma) == (2e-170, 7.071067811865476e-171)
        assert (report.kept_ids, report.removed_low_ids, report.removed_high_ids) == (
            ("b", "c", "d"), ("a",), ("e",))

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.integers(-10**6, 10**6).map(float), min_size=2, max_size=30),
           st.integers(-1000, 1000))
    @example([1.0, 2.0, 3.0, 4.0, 5.0], -600)
    def test_power_of_two_scaling_is_exact_at_any_magnitude(self, losses, exp):
        # past 2**512 a plain sum of squares overflows, and below 2**-512 a
        # plain squared deviation underflows; the statistics are the unscaled
        # ones, scaled exactly
        plain = gaussian_filter(dict(enumerate(losses)))
        scaled = gaussian_filter({k: math.ldexp(v, exp) for k, v in enumerate(losses)})
        assert scaled.mu == math.ldexp(plain.mu, exp)
        assert scaled.sigma == math.ldexp(plain.sigma, exp)
        assert scaled.kept_ids == plain.kept_ids

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

    @settings(max_examples=400, deadline=None)
    @given(st.lists(st.sampled_from(["a", "bc", "\u00e9", " ", "\t", "\n", "\x1c", "\x1f",
                                     "\x85", "\xa0", "\u2028", "\u3000", "\u200b"]),
                    max_size=40).map("".join))
    @example("ab c ddd eee")  # word ends 2 and 4 tie around the quarter mark 3
    @example("a b c d" + " " * 40)  # the quarter mark lies past the last word
    @example("\u3000 a b\x1c c d")
    def test_one_pass_matches_the_two_pass_split(self, text):
        expected = split_one_three_two_pass(text)
        try:
            sample = split_one_three(text)
        except ContractError as exc:
            assert str(exc) == expected
        else:
            assert (sample.audio_text, sample.target_text) == expected

    def test_default_prompt_attached(self):
        sample = split_one_three("one two three four")
        assert sample.to_json()["prompt"] == DEFAULT_PROMPT
        assert sample.timbre_id is None

    @pytest.mark.parametrize("timbre", [-1, TIMBRE_COUNT])
    def test_timbre_outside_the_voices_rejected(self, timbre):
        with pytest.raises(ContractError, match=rf"^timbre_id must be in \[0, 44\), got {timbre}$"):
            CrossModalSample(audio_text="a", target_text=" b c d", timbre_id=timbre)


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

    def test_a_count_above_its_size_rejected(self):
        with pytest.raises(ContractError, match=r"^dataset 'B': count 5 exceeds size 4$"):
            MixPlan(names=("A", "B"), sizes=(3, 4), sample_counts=(1, 5), seed=0)

    def test_counts_sum_and_caps(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            sizes = {f"d{i}": int(rng.integers(1, 500)) for i in range(int(rng.integers(1, 8)))}
            budget = int(rng.integers(0, sum(sizes.values()) + 1))
            plan = mix_plan(sizes, budget, seed=0)
            assert sum(plan.sample_counts) == budget
            for name, count in zip(plan.names, plan.sample_counts):
                assert count <= sizes[name]

    def test_int64_budget_stays_within_budget(self):
        top = 2**63 - 1
        plan = mix_plan({"a": top, "b": top}, budget=top, seed=0)
        assert plan.sample_counts == (4611686018427387904, 4611686018427387903)

    def test_equal_remainders_go_by_name(self):
        # a and b both leave 9/15 of a unit; float fractions ranked b first
        plan = mix_plan({"a": 7, "b": 2, "c": 6}, budget=12, seed=0)
        assert plan.sample_counts == (6, 1, 5)

    @given(
        st.lists(st.integers(1, 20) | st.integers(1, 2**63 - 1), min_size=1, max_size=6),
        st.integers(0, 2**70),
    )
    @settings(max_examples=300, deadline=None)
    def test_counts_are_exact_largest_remainder(self, size_list, budget_seed):
        sizes = {f"d{i}": s for i, s in enumerate(size_list)}
        total = sum(size_list)
        budget = budget_seed % (total + 1)
        plan = mix_plan(sizes, budget, seed=0)
        assert sum(plan.sample_counts) == budget
        rounded_up = []
        for name, count in zip(plan.names, plan.sample_counts):
            floor = budget * sizes[name] // total
            assert count in (floor, floor + 1) and count <= sizes[name]
            rounded_up.append(count > floor)
        # every rounded-up remainder beats (or ties by an earlier name) every other
        rems = [budget * sizes[n] % total for n in plan.names]
        up = [(-r, n) for r, n, u in zip(rems, plan.names, rounded_up) if u]
        down = [(-r, n) for r, n, u in zip(rems, plan.names, rounded_up) if not u]
        assert not up or not down or max(up) < min(down)

    def test_order_invariant(self):
        sizes = {"a": 7, "b": 11, "c": 13}
        reordered = {"c": 13, "a": 7, "b": 11}
        p1 = mix_plan(sizes, budget=10, seed=0)
        p2 = mix_plan(reordered, budget=10, seed=0)
        assert dict(zip(p1.names, p1.sample_counts)) == dict(
            zip(p2.names, p2.sample_counts)
        )


# prompts and transcripts, some of which normalize to ""
_ROUNDTRIP_TEXT = st.one_of(st.sampled_from(["", " ", "!?", ". ."]), st.text("ab .!", max_size=30))
# texts that normalize to "" (empty, whitespace-only, ASCII and CJK
# punctuation), mixed case, and Unicode whitespace runs
_EXACT_TEXT = st.one_of(
    st.sampled_from(["", " ", "\t\n", "\u3000", "!?", ". .", "。", "！？，", "Ab。", "a b"]),
    st.text("aAb .!?,;:。！？，；：\t\n\u3000", max_size=20),
)


@st.composite
def _exact_pair(draw):
    # a transcript is an independent text or a variant of its prompt in
    # case, whitespace and trailing punctuation
    prompt = draw(_EXACT_TEXT)
    variant = st.sampled_from([
        prompt.upper(), f"  {prompt}\t", prompt.replace(" ", "\u3000 "), prompt + "。",
        prompt + " !", prompt.rstrip(".!?。"),
    ])
    return prompt, draw(st.one_of(_EXACT_TEXT, variant))


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

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(st.tuples(_ROUNDTRIP_TEXT, _ROUNDTRIP_TEXT), max_size=12),
        st.floats(0.0, 1.0),
    )
    def test_cer_threshold_equals_per_pair_decisions(self, pairs, threshold):
        expected: tuple[list, list] = ([], [])
        for prompt, transcript in pairs:
            ref, hyp = normalize_transcript(prompt), normalize_transcript(transcript)
            ok = edit_distance(ref, hyp) / len(ref) <= threshold if ref else not hyp
            expected[0 if ok else 1].append((prompt, transcript))
        assert asr_roundtrip_filter(pairs, "cer_threshold", threshold) == expected

    @settings(max_examples=1000, deadline=None)
    @given(st.lists(_exact_pair(), max_size=8), st.floats(-1.0, 2.0))
    def test_exact_mode_equals_the_exact_rule(self, pairs, threshold):
        # exact is the CER threshold 0, whatever threshold is passed
        assert asr_roundtrip_filter(pairs, "exact", threshold) == roundtrip_exact(pairs)

    def test_bad_threshold_rejected(self):
        with pytest.raises(ContractError):
            asr_roundtrip_filter([("a", "a")], "cer_threshold", 1.5)

    def test_unknown_mode_rejected(self):
        with pytest.raises(ContractError, match=r"^unknown mode 'fuzzy'$"):
            asr_roundtrip_filter([("a", "a")], "fuzzy")

    def test_normalize_transcript(self):
        assert normalize_transcript("  Hello,   WORLD!! ") == "hello, world"
