import io
import math
import random
from decimal import ROUND_HALF_UP, Context, Decimal

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from textmask.analysis import (
    corpus_stats,
    distribution_report,
    pos_share_report,
    round_half_up,
    slot_utilization,
    standard_budget_table,
    token_budget,
    write_budget_csv,
    write_distribution_csv,
    write_pos_csv,
)
from textmask.freq import build_frequency_table
from textmask.maskers import (
    MaskedOutput,
    mask_frequency,
    mask_random,
    mask_syntax,
    mask_truncation,
    record_seed,
)


class TestRounding:
    def test_half_up(self):
        assert round_half_up(0.005) == 0.01
        assert round_half_up(0.015) == 0.02
        assert round_half_up(35.526315) == 35.53
        assert round_half_up(24.122807) == 24.12
        assert round_half_up(97.5, 0) == 98.0
        assert round_half_up(96.5, 0) == 97.0

    # Any finite float, and the thousandths, whose fives are ties at ndigits=2.
    @given(st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                     st.integers(-10**6, 10**6).map(lambda i: i / 1000)),
           st.integers(0, 3))
    @example(-0.0, 2)
    @example(-0.004, 2)
    @example(2.675, 2)
    @example(5e-324, 3)
    @example(1.7976931348623157e308, 3)
    def test_equals_the_decimal_definition(self, x, ndigits):
        # Precision enough for every finite float; the default 28 digits
        # raise InvalidOperation from |x| near 1e25 up, and agree below.
        decimal = Decimal(str(x)).quantize(Decimal(1).scaleb(-ndigits), ROUND_HALF_UP,
                                           Context(prec=400))
        assert repr(round_half_up(x, ndigits)) == repr(float(decimal))

    @pytest.mark.parametrize("x", [math.inf, -math.inf, math.nan])
    def test_non_finite_raises(self, x):
        with pytest.raises(ValueError, match="cannot round"):
            round_half_up(x)


class TestDistributionReport:
    def test_truncation_prefix_counts(self):
        before = [["a", "a", "b"]]
        after = {"truncation": [mask_truncation(before[0], 2)]}
        report = distribution_report(before, after, top_n=10)
        assert [(r.rank, r.word, r.before, r.after["truncation"]) for r in report.rows] == [
            (1, "a", 2, 2),
            (2, "b", 1, 0),
        ]

    def test_identity_masking_preserves_counts(self):
        before = [["a", "b"], ["b", "c"]]
        after = {"truncation": [mask_truncation(t, 99) for t in before]}
        report = distribution_report(before, after, top_n=10)
        for row in report.rows:
            assert row.after["truncation"] == row.before

    def test_special_characters_excluded(self):
        before = [["a", ".", ".", "."]]
        after = {"truncation": [mask_truncation(before[0], 2)]}
        report = distribution_report(before, after, top_n=10)
        assert [r.word for r in report.rows] == ["a"]

    def test_record_count_mismatch_rejected(self):
        with pytest.raises(ValueError, match="record count"):
            distribution_report([["a"], ["b"]], {"truncation": [mask_truncation(["a"], 1)]}, 5)

    def test_after_never_exceeds_before(self, zipf_corpus):
        corpus = zipf_corpus[:2000]
        table = build_frequency_table(corpus)
        after = {
            "random": [mask_random(t, 6, record_seed(3, i, 0)) for i, t in enumerate(corpus)],
            "frequency": [
                mask_frequency(t, table, 1e-6, 6, record_seed(3, i, 0))
                for i, t in enumerate(corpus)
            ],
        }
        report = distribution_report(corpus, after, top_n=50)
        assert len(report.rows) == 50
        for row in report.rows:
            for strategy in after:
                assert row.after[strategy] <= row.before

    def test_head_word_suppressed_more_than_tail(self, zipf_corpus):
        # frequency masking flattens the head of the distribution: the
        # top-ranked word keeps a smaller share of its occurrences than the
        # rare half of the vocabulary does in aggregate
        corpus = zipf_corpus
        table = build_frequency_table(corpus)
        after = {
            "frequency": [
                mask_frequency(t, table, 1e-6, 6, record_seed(3, i, 0))
                for i, t in enumerate(corpus)
            ]
        }
        report = distribution_report(corpus, after, top_n=1000)
        head = report.rows[0]
        tail_rows = report.rows[500:]
        tail_ratio = sum(r.after["frequency"] for r in tail_rows) / sum(r.before for r in tail_rows)
        assert head.after["frequency"] / head.before < tail_ratio

    def test_ranks_contiguous_and_sorted(self):
        rng = random.Random(0)
        corpus = [[rng.choice("abcdefg") for _ in range(10)] for _ in range(50)]
        report = distribution_report(corpus, {}, top_n=5)
        assert [r.rank for r in report.rows] == [1, 2, 3, 4, 5]
        counts = [r.before for r in report.rows]
        assert counts == sorted(counts, reverse=True)

    def test_csv_schema(self):
        before = [["a", "a", "b"]]
        after = {
            "truncation": [mask_truncation(before[0], 2)],
            "random": [mask_random(before[0], 2, 1)],
        }
        buf = io.StringIO()
        write_distribution_csv(distribution_report(before, after, 10), buf)
        lines = buf.getvalue().strip().splitlines()
        assert lines[0] == "rank,word,before,after_truncation,after_random"
        assert lines[1].startswith("1,a,2,")


class TestPosShareReport:
    def test_all_nouns(self):
        tags = [["NN", "NN"], ["NN"]]
        masked = {"truncation": [mask_truncation(["x", "y"], 1), mask_truncation(["z"], 1)]}
        report = pos_share_report(tags, masked)
        for row in report.rows:
            assert row.percentage("NN") == 100.0

    def test_syntax_raises_noun_share(self, pos_corpus):
        tokens, tags = pos_corpus
        tokens, tags = tokens[:2000], tags[:2000]
        masked = {"syntax": [mask_syntax(t, g, 6) for t, g in zip(tokens, tags)]}
        report = pos_share_report(tags, masked)
        assert report.row("syntax").percentage("NN") > report.row("before").percentage("NN")

    def test_percentages_sum_to_100(self, pos_corpus):
        tokens, tags = pos_corpus
        tokens, tags = tokens[:500], tags[:500]
        masked = {
            "random": [mask_random(t, 6, record_seed(0, i, 0)) for i, t in enumerate(tokens)],
            "syntax": [mask_syntax(t, g, 6) for t, g in zip(tokens, tags)],
        }
        report = pos_share_report(tags, masked)
        for row in report.rows:
            assert abs(sum(row.percentage(c) for c in ("NN", "JJ", "VB", "OTHER")) - 100.0) < 0.01
            assert sum(row.counts.values()) == row.total

    def test_counts_over_retained_tokens_only(self):
        tags = [["NN", "OTHER", "OTHER"]]
        masked = {"truncation": [mask_truncation(["n", "o", "o"], 1)]}
        report = pos_share_report(tags, masked)
        assert report.row("truncation").counts == {"NN": 1, "JJ": 0, "VB": 0, "OTHER": 0}

    def test_record_count_mismatch_rejected(self):
        with pytest.raises(ValueError, match="record count"):
            pos_share_report([["NN"]], {"truncation": []})

    def test_csv_schema(self):
        tags = [["NN", "OTHER"]]
        masked = {"truncation": [mask_truncation(["a", "b"], 2)]}
        buf = io.StringIO()
        write_pos_csv(pos_share_report(tags, masked), buf)
        lines = buf.getvalue().strip().splitlines()
        assert lines[0] == "strategy,NN,JJ,VB,OTHER,total"
        assert lines[1] == "before,50.00,0.00,0.00,50.00,2"


class TestTokenBudget:
    @pytest.mark.parametrize(
        "ratio,keep,image,total,pct",
        [
            (0.0, 32, 196, 228, 100.00),
            (0.75, 32, 49, 81, 35.53),
            (0.75, 16, 49, 65, 28.51),
            (0.75, 8, 49, 57, 25.00),
            (0.75, 6, 49, 55, 24.12),
            (0.75, 4, 49, 53, 23.25),
        ],
    )
    def test_reference_rows(self, ratio, keep, image, total, pct):
        budget = token_budget(ratio, keep)
        assert budget.image_tokens == image
        assert budget.text_tokens == keep
        assert budget.total == total
        assert round_half_up(budget.percentage) == pct

    def test_standard_table(self):
        totals = [b.total for b in standard_budget_table()]
        assert totals == [228, 81, 65, 57, 55, 53]

    def test_total_invariant(self):
        budget = token_budget(0.5, 10)
        assert budget.total == budget.image_tokens + budget.text_tokens

    def test_custom_patch_count(self):
        budget = token_budget(0.0, 32, image_patches=197)
        assert budget.total == 229

    def test_validation(self):
        with pytest.raises(ValueError):
            token_budget(1.0, 8)
        with pytest.raises(ValueError):
            token_budget(0.5, 0)
        with pytest.raises(ValueError):
            token_budget(0.5, 33)

    @pytest.mark.parametrize("patches", [-1, -10, -228])
    def test_negative_image_patches_rejected(self, patches):
        with pytest.raises(ValueError, match="image_patches must be >= 0"):
            token_budget(0.5, 8, image_patches=patches, text_context=228)
        with pytest.raises(ValueError, match="image_patches must be >= 0"):
            standard_budget_table(image_patches=patches, text_context=228)

    @pytest.mark.parametrize("context", [16, 31])
    def test_standard_table_needs_its_widest_row(self, context):
        with pytest.raises(ValueError) as info:
            standard_budget_table(text_context=context)
        message = str(info.value)
        assert message.startswith("text_context must be >= 32 for the standard sweep")
        assert message.endswith(f"got {context}") and "text_keep" not in message

    def test_zero_image_patches_is_text_only(self):
        budget = token_budget(0.75, 8, image_patches=0)
        assert (budget.image_tokens, budget.total, budget.percentage) == (0, 8, 25.0)

    def test_csv_schema(self):
        buf = io.StringIO()
        write_budget_csv(standard_budget_table(), buf)
        lines = buf.getvalue().strip().splitlines()
        assert lines[0] == "image_tokens,text_tokens,total,percentage"
        assert lines[1] == "196,32,228,100.00"
        assert lines[-1] == "49,4,53,23.25"


class TestCorpusStats:
    def test_two_point_case(self):
        stats = corpus_stats([["a", "b"], ["a", "b", "c", "d"]])
        assert stats.sample_count == 2
        assert stats.total_words == 6
        assert stats.mean_length == 3.0
        assert stats.std_length == 1.0

    def test_single_record(self):
        stats = corpus_stats([["a"]])
        assert stats.mean_length == 1.0
        assert stats.std_length == 0.0

    def test_empty_corpus_rejected(self):
        with pytest.raises(ValueError, match="empty corpus"):
            corpus_stats([])

    def test_matches_two_pass_recomputation(self):
        rng = random.Random(31)
        corpus = [["w"] * rng.randrange(1, 40) for _ in range(5000)]
        stats = corpus_stats(corpus)
        lengths = [len(t) for t in corpus]
        mean = sum(lengths) / len(lengths)
        var = sum((x - mean) ** 2 for x in lengths) / len(lengths)
        assert math.isclose(stats.mean_length, mean, rel_tol=1e-6)
        assert math.isclose(stats.std_length, math.sqrt(var), rel_tol=1e-6)


class TestSlotUtilization:
    def test_slot_filling_strategies_hit_one(self):
        tokens = [f"t{i}" for i in range(15)]
        outs = [mask_truncation(tokens, 6), mask_random(tokens, 6, 3), mask_truncation(["a"], 6)]
        assert slot_utilization(outs, 6) == 1.0

    def test_empty_captions_skipped(self):
        outs = [mask_truncation([], 6), mask_truncation(["a", "b"], 6)]
        assert slot_utilization(outs, 6) == 1.0

    def test_no_records_is_vacuous(self):
        assert slot_utilization([], 4) == 1.0

    def test_k_below_one_rejected(self):
        with pytest.raises(ValueError, match="keep-length k must be >= 1, got 0"):
            slot_utilization([], 0)

    def test_swclip_on_all_rare_corpus_fills_slots(self):
        # every word at or below the threshold has masking probability 0
        from textmask.freq import FrequencyTable
        from textmask.maskers import mask_swclip

        table = FrequencyTable({"a": 1, "b": 1, "c": 1, "d": 1}, 4)
        corpus = [["a", "b", "c"], ["d", "a"], ["b"] * 8]
        outs = [mask_swclip(toks, table, 0.25, 4, seed) for seed, toks in enumerate(corpus)]
        assert slot_utilization(outs, 4) == 1.0

    def test_partial_fill(self):
        out = mask_truncation(list("abcdefgh"), 4)
        out.kept = out.kept[:2]  # simulate an under-filling strategy
        out.kept_indices = out.kept_indices[:2]
        assert slot_utilization([out], 4) == 0.5

    def test_exact_mean_in_any_order(self):
        """The mean is rounded once. Summing the ratios as floats gives
        0.09999999999999999 for the first case before Python 3.12, and a
        last bit that depends on the order for the second."""
        assert slot_utilization([MaskedOutput(["a"], [0], 10)] * 10, 10) == 0.1
        fills = [(5, 9), (5, 10), (4, 8), (9, 9), (1, 1), (2, 9), (8, 9), (3, 4), (1, 1),
                 (4, 6), (3, 9), (6, 9)]
        outs = [MaskedOutput(["a"] * kept, list(range(kept)), n) for kept, n in fills]
        assert slot_utilization(outs, 10) == slot_utilization(outs[::-1], 10) == 97 / 144
