"""Metrics: WER/CER against a DP oracle, BLEU, score normalization, reports."""

import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from omnipipe import evalkit
from omnipipe.cli import _CHUNK, main
from omnipipe.errors import ContractError
from omnipipe.evalkit import (
    MetricResult,
    ScoreTable,
    _edit_ops,
    bleu,
    bleu_scores,
    cer,
    corpus_bleu,
    corpus_error_rate,
    error_rates,
    normalize_scores,
    tokenize_words,
    wer,
)

from oracles import bleu_multi_reference, corpus_bleu_loop, edit_distance, edit_ops


def _random_string(rng, vocab, max_len):
    return " ".join(str(rng.choice(vocab)) for _ in range(int(rng.integers(0, max_len))))


class TestEditOps:
    @settings(max_examples=300, deadline=None)
    @given(st.text("abc", max_size=100), st.text("abc", max_size=100))
    def test_characters_match_dp_oracle(self, ref, hyp):
        # a three-letter alphabet forces many cost ties in the backtrace
        assert _edit_ops(list(ref), list(hyp)) == edit_ops(list(ref), list(hyp))

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(st.sampled_from(["a", "dog", "cat", "the"]), max_size=100),
        st.lists(st.sampled_from(["a", "dog", "cat", "the", "uh"]), max_size=100),
    )
    def test_words_match_dp_oracle(self, ref, hyp):
        assert _edit_ops(ref, hyp) == edit_ops(ref, hyp)

    def test_empty_hypothesis_is_all_deletions(self):
        assert _edit_ops(list("abca"), []) == edit_ops(list("abca"), []) == (0, 4, 0)


# Token lists that join into texts of exactly those WER or CER tokens: a
# small alphabet forces cost ties, three of its code points are not ASCII,
# and 65-200 tokens span more than one 64-bit word of the bit masks.
_TOKEN = st.sampled_from(["a", "b", "é", "中", "🙂"])
_SIDE = st.one_of(st.lists(_TOKEN, max_size=12), st.lists(_TOKEN, min_size=65, max_size=200))


class TestErrorRates:
    @settings(max_examples=100, deadline=None)
    @given(
        st.sampled_from([("wer", " "), ("cer", "")]),
        st.lists(st.tuples(_SIDE.filter(bool), st.one_of(st.just([]), _SIDE)), max_size=5),
    )
    def test_a_whole_call_matches_the_oracle_pair_by_pair(self, metric_sep, pairs):
        metric, sep = metric_sep
        results = error_rates(metric, [(sep.join(ref), sep.join(hyp)) for ref, hyp in pairs])
        want = []
        for ref, hyp in pairs:
            s, d, i = edit_ops(ref, hyp)
            counts = {"substitutions": s, "deletions": d, "insertions": i,
                      "reference_length": len(ref)}
            want.append(MetricResult(metric, (s + d + i) / len(ref), counts))
        assert results == want

    def test_working_set_of_a_long_cer_pair_stays_bounded(self):
        # four 2000-bit ints per hyp character, about 2.4 MiB
        rng = np.random.default_rng(0)
        ref, hyp = ("".join(rng.choice(list("abcdefgh "), 2000)) for _ in range(2))
        tracemalloc.start()
        try:
            error_rates("cer", [(ref, hyp)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4 * 2**20

    def test_checks_each_pair_as_it_is_drawn(self):
        drawn = []

        def pairs():
            for ref in ("a b", "", "c"):
                drawn.append(ref)
                yield ref, "x"

        with pytest.raises(ContractError, match="reference is empty after tokenization"):
            error_rates("wer", pairs())
        assert drawn == ["a b", ""]

    def test_results_in_input_order(self):
        pairs = [("a b c d e f", "a x c"), ("a", "b"), ("abc", "abc"), ("a b c", "")]
        for metric in ("wer", "cer"):
            results = error_rates(metric, pairs)
            assert [r.metric for r in results] == [metric] * 4
            assert results == [getattr(evalkit, metric)(r, h) for r, h in pairs]
        assert [r.value for r in error_rates("wer", pairs)] == [4 / 6, 1.0, 0.0, 1.0]

    def test_unknown_metric_rejected(self):
        with pytest.raises(ContractError, match="unknown error-rate metric 'bleu'"):
            error_rates("bleu", [("a", "a")])


class TestWer:
    def test_identical(self):
        assert wer("hello world", "hello world").value == 0.0

    def test_single_substitution(self):
        result = wer("hello world", "hello word")
        assert result.value == 0.5
        assert result.counts["substitutions"] == 1

    def test_empty_hypothesis_all_deletions(self):
        result = wer("a b c", "")
        assert result.value == 1.0
        assert result.counts["deletions"] == 3

    def test_empty_reference_rejected(self):
        with pytest.raises(ContractError):
            wer("", "something")

    def test_case_and_terminal_punctuation_ignored(self):
        assert wer("Hello, World.", "hello world").value == 0.0

    def test_matches_dp_oracle(self):
        rng = np.random.default_rng(0)
        vocab = ["a", "b", "c", "dog", "cat"]
        for _ in range(300):
            ref = _random_string(rng, vocab, 8)
            hyp = _random_string(rng, vocab, 8)
            if not tokenize_words(ref):
                continue
            result = wer(ref, hyp)
            distance = edit_distance(tokenize_words(ref), tokenize_words(hyp))
            errors = sum(
                result.counts[k] for k in ("substitutions", "deletions", "insertions")
            )
            assert errors == distance
            assert result.value == distance / len(tokenize_words(ref))


class TestCer:
    def test_identical(self):
        assert cer("same", "same").value == 0.0

    def test_one_of_three(self):
        assert math.isclose(cer("abc", "abd").value, 1 / 3)

    def test_cjk_code_points(self):
        assert cer("你好", "你号").value == 0.5

    def test_whitespace_counts(self):
        assert cer("a b", "ab").value == pytest.approx(1 / 3)

    def test_matches_dp_oracle(self):
        rng = np.random.default_rng(1)
        alphabet = list("abcd ")
        for _ in range(300):
            ref = "".join(rng.choice(alphabet) for _ in range(int(rng.integers(1, 10))))
            hyp = "".join(rng.choice(alphabet) for _ in range(int(rng.integers(0, 10))))
            result = cer(ref, hyp)
            distance = edit_distance(list(ref), list(hyp))
            errors = sum(
                result.counts[k] for k in ("substitutions", "deletions", "insertions")
            )
            assert errors == distance

    def test_distance_triangle_inequality(self):
        rng = np.random.default_rng(2)
        alphabet = list("abc")
        for _ in range(100):
            a, b, c = (
                "".join(rng.choice(alphabet) for _ in range(int(rng.integers(1, 8))))
                for _ in range(3)
            )
            dist = lambda x, y: edit_distance(list(x), list(y))
            assert dist(a, c) <= dist(a, b) + dist(b, c)
            errors = sum(
                cer(a, c).counts[k]
                for k in ("substitutions", "deletions", "insertions")
            )
            assert errors == dist(a, c)


class TestBleu:
    def test_identity_is_one(self):
        assert bleu("the cat sat on the mat", "the cat sat on the mat").value == 1.0

    def test_disjoint_vocabulary_is_zero(self):
        assert bleu("aa bb cc dd", "ee ff gg hh").value == 0.0

    def test_brevity_penalty_case(self):
        result = bleu("a b c d e f", "a b c d e")
        assert math.isclose(result.value, math.exp(1 - 6 / 5))

    def test_empty_hypothesis_zero_not_error(self):
        assert bleu("anything", "").value == 0.0

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(st.sampled_from(["a", "b", "c", "the"]), max_size=12).map(" ".join),
        st.lists(st.sampled_from(["a", "b", "c", "d"]), max_size=12).map(" ".join),
    )
    def test_matches_the_multi_reference_form_with_one_reference(self, ref, hyp):
        result = bleu(ref, hyp)
        assert (result.value, result.counts) == bleu_multi_reference([ref], hyp)

    def test_smoothing_helps_tiny_hypothesis(self):
        assert bleu("one two three four five", "one two").value == 0.0

    def test_value_in_unit_interval(self):
        rng = np.random.default_rng(3)
        vocab = ["u", "v", "w", "x"]
        for _ in range(200):
            ref = _random_string(rng, vocab, 8) or "u"
            hyp = _random_string(rng, vocab, 8)
            assert 0.0 <= bleu(ref, hyp).value <= 1.0


# four words and at most seven per side, so n-grams repeat within and across
# pairs, and empty sides and hyps too short for some orders are common
_BLEU_SIDE = st.lists(st.sampled_from(["a", "b", "c", "d"]), max_size=7).map(" ".join)


class TestBleuScores:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.tuples(_BLEU_SIDE, _BLEU_SIDE), max_size=8))
    def test_a_whole_call_matches_the_oracle_pair_by_pair(self, pairs):
        results = bleu_scores(pairs)
        assert [r.metric for r in results] == ["bleu"] * len(pairs)
        assert [(r.value, r.counts) for r in results] == [
            bleu_multi_reference([ref], hyp) for ref, hyp in pairs
        ]
        assert all(type(v) is int for r in results for v in r.counts.values())
        # no count leaks from one pair into another
        assert bleu_scores(pairs[::-1]) == results[::-1]

    def test_no_pairs_no_results(self):
        assert bleu_scores([]) == []

    @pytest.mark.parametrize("n_pairs", [1, 7, _CHUNK + 3])
    def test_a_bleu_run_scores_every_pair_in_one_call(self, n_pairs, tmp_path, monkeypatch,
                                                      capsys):
        calls = []
        score = evalkit.bleu_scores

        def counting(pairs):
            calls.append(pairs)
            return score(pairs)

        monkeypatch.setattr(evalkit, "bleu_scores", counting)
        path = tmp_path / "pairs.jsonl"
        path.write_text("".join(
            json.dumps({"ref": "a b c d e", "hyp": "a b c d" if k % 3 else ""}) + "\n"
            for k in range(n_pairs)))
        assert main(["metrics", "--metric", "bleu", "--pairs", str(path)]) == 0
        assert len(capsys.readouterr().out.splitlines()) == n_pairs + 1
        assert len(calls) == 1


class TestCorpusErrorRate:
    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from(["wer", "cer"]),
           st.lists(st.tuples(st.text("ab c", max_size=12).filter(lambda t: t.split()),
                              st.text("ab c", max_size=12)), min_size=1, max_size=8))
    def test_the_fold_matches_a_plain_loop(self, metric, pairs):
        tokens = tokenize_words if metric == "wer" else list
        edits = length = 0
        for ref, hyp in pairs:
            edits += sum(edit_ops(tokens(ref), tokens(hyp)))
            length += len(tokens(ref))
        assert corpus_error_rate(error_rates(metric, pairs)) == edits / length

    def test_one_pair_is_its_sentence_rate(self):
        result = cer("abcd", "abd")
        assert corpus_error_rate([result]) == result.value == 0.25

    def test_no_results_is_a_contract_error(self):
        # no reference tokens give no rate, not a vacuous 0; corpus BLEU of
        # nothing stays 0.0
        with pytest.raises(ContractError, match="^corpus error rate needs at least one result$"):
            corpus_error_rate([])
        assert corpus_bleu([]) == 0.0

    def test_metrics_reports_it_as_the_corpus_value(self, tmp_path, capsys):
        pairs = [("a b c d", "a b d"), ("x y", "x y z w")]
        path = tmp_path / "pairs.jsonl"
        path.write_text("".join(json.dumps({"ref": r, "hyp": h}) + "\n" for r, h in pairs))
        assert main(["metrics", "--metric", "wer", "--pairs", str(path)]) == 0
        aggregate = json.loads(capsys.readouterr().out.splitlines()[-1])["aggregate"]
        assert aggregate == {"corpus_value": 3 / 6, "pairs": 2}


class TestCorpusBleu:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.tuples(_BLEU_SIDE, _BLEU_SIDE), min_size=1, max_size=8))
    def test_the_fold_matches_a_plain_loop(self, pairs):
        got, want = corpus_bleu(bleu_scores(pairs)), corpus_bleu_loop(pairs)
        assert (got == 0.0) == (want == 0.0)
        assert got == pytest.approx(want, rel=1e-12, abs=0.0)

    @settings(max_examples=300, deadline=None)
    @given(_BLEU_SIDE, _BLEU_SIDE)
    def test_one_pair_is_its_sentence_bleu(self, ref, hyp):
        result = bleu(ref, hyp)
        assert corpus_bleu([result]) == result.value

    def test_sums_before_one_brevity_penalty(self):
        # every n-gram matches; 9 hyp words against 10 ref words overall,
        # although the first pair alone has no brevity penalty
        results = bleu_scores([("a b c d", "a b c d"), ("a b c d e f", "a b c d e")])
        assert corpus_bleu(results) == math.exp(1.0 - 10 / 9)

    def test_an_order_with_no_match_or_no_hyp_words_gives_zero(self):
        assert corpus_bleu(bleu_scores([("a b c", "a b c"), ("a b c d", "")])) == 0.0
        assert corpus_bleu(bleu_scores([("a b", ""), ("c", "")])) == 0.0

    def test_metrics_reports_it_beside_the_mean(self, tmp_path, capsys):
        pairs = [("a b c d", "a b c d"), ("a b c d e f", "a b c d e"), ("x y", "")]
        path = tmp_path / "pairs.jsonl"
        path.write_text("".join(json.dumps({"ref": r, "hyp": h}) + "\n" for r, h in pairs))
        assert main(["metrics", "--metric", "bleu", "--pairs", str(path)]) == 0
        aggregate = json.loads(capsys.readouterr().out.splitlines()[-1])["aggregate"]
        results = bleu_scores(pairs)
        assert aggregate == {
            "corpus_value": corpus_bleu(results),
            "mean_value": sum(r.value for r in results) / 3,
            "pairs": 3,
        }

class TestNormalizeScores:
    def test_formula_cases(self):
        table = ScoreTable.from_rows(
            [("m1", "bench", 50.0), ("m2", "bench", 70.0), ("m3", "bench", 90.0)]
        )
        normalized = normalize_scores(table)
        assert normalized["m3"]["bench"] == 1.0
        assert abs(normalized["m2"]["bench"] - 0.6) < 1e-12
        assert math.isclose(normalized["m1"]["bench"], 10.0 / 50.0)

    def test_duplicate_model_and_benchmark_rejected(self):
        rows = [("m1", "b", 50.0), ("m2", "b", 70.0), ("m1", "b", 90.0)]
        with pytest.raises(ContractError, match="'m1'.*'b'"):
            ScoreTable.from_rows(rows)

    def test_single_score_column_is_one(self):
        table = ScoreTable.from_rows([("m", "b", 12.3)])
        assert normalize_scores(table)["m"]["b"] == 1.0

    def test_overflowing_range_names_its_benchmark(self):
        table = ScoreTable.from_rows(
            [("m1", "ok", 1.0), ("m2", "ok", 2.0), ("m1", "wide", 1e308), ("m2", "wide", -1e308)]
        )
        with pytest.raises(ContractError, match="benchmark 'wide'.*overflows"):
            normalize_scores(table)
        # the widest range that does not overflow still normalizes
        table = ScoreTable.from_rows([("m1", "b", 8e307), ("m2", "b", -8e307)])
        assert normalize_scores(table) == {"m1": {"b": 1.0}, "m2": {"b": 10.0 / 1.6e308}}

    def test_range_and_monotonicity(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            models = [f"m{i}" for i in range(int(rng.integers(1, 6)))]
            rows = [("bench", m, float(rng.uniform(-50, 150))) for m in models]
            table = ScoreTable.from_rows([(m, b, v) for b, m, v in rows])
            normalized = normalize_scores(table)
            values = {m: normalized[m]["bench"] for m in models}
            assert all(0.0 < v <= 1.0 for v in values.values())
            raw = {m: table.scores[m]["bench"] for m in models}
            assert max(values, key=values.get) == max(raw, key=raw.get)
            assert sorted(models, key=values.get) == sorted(models, key=raw.get)

    def test_argmax_preserved_per_benchmark(self):
        rng = np.random.default_rng(5)
        rows = []
        for b in range(10):
            for m in range(3):
                rows.append((f"model{m}", f"bench{b}", float(rng.uniform(0, 100))))
        table = ScoreTable.from_rows(rows)
        normalized = normalize_scores(table)
        for b in table.benchmarks():
            raw = table.column(b)
            norm = {m: normalized[m][b] for m in raw}
            assert max(raw, key=raw.get) == max(norm, key=norm.get)


def _report(tmp_path, capsys, rows, fmt):
    """The normalize-scores report of a score table, run through the CLI."""
    scores = tmp_path / "scores.csv"
    scores.write_text("model,benchmark,raw\n" + "".join(f"{m},{b},{x!r}\n" for m, b, x in rows))
    assert main(["normalize-scores", "--scores", str(scores), "--format", fmt]) == 0
    return capsys.readouterr().out


class TestReports:
    def test_single_cell_csv(self, tmp_path, capsys):
        text = _report(tmp_path, capsys, [("m", "b", 5.0)], "csv")
        assert text.splitlines()[0] == "model,benchmark,raw,normalized"
        assert text.splitlines()[1] == "m,b,5.0,1.0"

    def test_synthetic_radar_table(self, tmp_path, capsys):
        rng = np.random.default_rng(6)
        rows = [
            (f"model{m}", f"bench{b}", float(rng.uniform(1, 99)))
            for m in range(3)
            for b in range(10)
        ]
        records = json.loads(_report(tmp_path, capsys, rows, "json"))
        assert len(records) == 30
        assert all(0.0 < r["normalized"] <= 1.0 for r in records)
