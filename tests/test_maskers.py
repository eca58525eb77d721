import random
from collections import Counter

import pytest

from textmask.freq import (
    FrequencyTable,
    build_frequency_table,
    mask_probabilities,
    mask_probability,
    subsample_probability,
)
from textmask.maskers import (
    STRATEGIES,
    MaskingConfig,
    apply_mask,
    mask_block,
    mask_frequency,
    mask_random,
    mask_swclip,
    mask_syntax,
    mask_truncation,
    record_seed,
)
from textmask.tokenizer import tokenize

CAPTION = (
    "Walk of the happy young couple and Siberian dog. "
    "The handsome man is hugging the smiling red head girl"
)


def check_subsequence(tokens, out):
    assert out.kept_indices == sorted(set(out.kept_indices))
    assert all(0 <= i < len(tokens) for i in out.kept_indices)
    assert out.kept == [tokens[i] for i in out.kept_indices]
    assert out.source_length == len(tokens)


class TestTruncation:
    def test_prefix(self):
        out = mask_truncation(["a", "b", "c", "d"], 2)
        assert out.kept == ["a", "b"]
        assert out.kept_indices == [0, 1]

    def test_identity_when_short(self):
        out = mask_truncation(["a", "b"], 4)
        assert out.kept == ["a", "b"]

    def test_reference_caption_first_six_words(self):
        out = mask_truncation(tokenize(CAPTION), 6)
        assert out.text() == "walk of the happy young couple"

    def test_k_validation(self):
        with pytest.raises(ValueError):
            mask_truncation(["a"], 0)


class TestRandom:
    def test_identity_when_short(self):
        assert mask_random(["a"], 3, seed=1).kept == ["a"]

    def test_exact_fit(self):
        assert mask_random(["a", "b", "c", "d"], 4, seed=1).kept == ["a", "b", "c", "d"]

    def test_order_preserved(self):
        tokens = [f"t{i}" for i in range(20)]
        out = mask_random(tokens, 5, seed=42)
        check_subsequence(tokens, out)
        assert len(out.kept) == 5

    def test_deterministic_given_seed(self):
        tokens = [f"t{i}" for i in range(30)]
        a = mask_random(tokens, 7, seed=99)
        b = mask_random(tokens, 7, seed=99)
        assert a == b

    def test_position_retention_matches_enumeration(self):
        # Of the C(5,2)=10 two-element subsets of 5 positions, each position
        # appears in 4, so retention frequency is 0.4. 20k trials here; the
        # full-scale uniformity run lives in the acceptance suite.
        tokens = list("abcde")
        hits = Counter()
        for seed in range(20_000):
            hits.update(mask_random(tokens, 2, seed).kept_indices)
        for pos in range(5):
            assert abs(hits[pos] / 20_000 - 0.4) < 0.015


class TestBlock:
    def test_identity_when_short(self):
        assert mask_block(["a", "b", "c"], 5, seed=3).kept == ["a", "b", "c"]

    def test_only_two_windows(self):
        for seed in range(50):
            kept = mask_block(["a", "b", "c", "d"], 3, seed).kept
            assert kept in (["a", "b", "c"], ["b", "c", "d"])

    def test_contiguous_indices(self):
        tokens = [f"t{i}" for i in range(25)]
        for seed in range(100):
            out = mask_block(tokens, 6, seed)
            check_subsequence(tokens, out)
            lo, hi = out.kept_indices[0], out.kept_indices[-1]
            assert out.kept_indices == list(range(lo, hi + 1))

    def test_all_offsets_reachable(self):
        # n=10, k=4 has exactly 7 windows, final offset n-k included
        starts = {mask_block(list(range(10)), 4, seed).kept_indices[0] for seed in range(3000)}
        assert starts == set(range(7))


class TestSyntax:
    def test_priority_example(self):
        # NN first (dog), then the only JJ (big); output back in source order
        out = mask_syntax(["big", "dog", "runs", "fast"], ["JJ", "NN", "VB", "OTHER"], 2)
        assert out.kept == ["big", "dog"]

    def test_position_tiebreak_within_class(self):
        out = mask_syntax(list("abcde"), ["NN"] * 5, 3)
        assert out.kept == ["a", "b", "c"]

    def test_identity_when_short(self):
        out = mask_syntax(["a", "b"], ["NN", "VB"], 5)
        assert out.kept == ["a", "b"]

    def test_full_priority_chain(self):
        tokens = ["o1", "v1", "j1", "n1", "o2", "v2", "j2", "n2"]
        tags = ["OTHER", "VB", "JJ", "NN", "OTHER", "VB", "JJ", "NN"]
        out = mask_syntax(tokens, tags, 4)
        # both nouns, then both adjectives, restored to source order
        assert out.kept == ["j1", "n1", "j2", "n2"]
        out = mask_syntax(tokens, tags, 3)
        # nouns first, then the earlier adjective breaks the tie
        assert out.kept == ["j1", "n1", "n2"]

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="length"):
            mask_syntax(["a", "b"], ["NN"], 1)

    def test_unknown_category_rejected(self):
        with pytest.raises(ValueError, match="POS"):
            mask_syntax(["a", "b"], ["NN", "XX"], 1)
        # the first unknown tag in token order is named, with the known ones
        with pytest.raises(ValueError) as info:
            mask_syntax(["a", "b", "c"], ["NN", "XX", "YY"], 1)
        assert str(info.value) == (
            "unknown POS category 'XX'; expected one of ('NN', 'JJ', 'VB', 'OTHER')"
        )

    def test_deterministic(self):
        tokens = [f"t{i}" for i in range(12)]
        tags = ["NN", "JJ", "VB", "OTHER"] * 3
        assert mask_syntax(tokens, tags, 5) == mask_syntax(tokens, tags, 5)


class TestFrequency:
    def test_identity_when_short(self):
        table = FrequencyTable({"the": 99, "x": 1}, 100)
        out = mask_frequency(["the", "the", "x"], table, 1e-2, 5, seed=0)
        assert out.kept == ["the", "the", "x"]

    def test_fills_budget_exactly(self):
        table = build_frequency_table([["a", "b", "c", "d", "e"]])
        for seed in range(200):
            out = mask_frequency(["a", "b", "c", "d", "e"], table, 1e-3, 2, seed)
            assert len(out.kept) == 2

    def test_common_word_removed_before_rare(self):
        # f(the) ~ 1, f(zebra) = t: removal weight ratio ~ P(the)/eps, so the
        # rare word survives essentially always.
        table = FrequencyTable({"the": 999_999, "zebra": 1}, 1_000_000)
        for seed in range(2000):
            out = mask_frequency(["the", "zebra"], table, 1e-6, 1, seed)
            assert out.kept == ["zebra"]

    def test_unknown_words_never_removed_ahead_of_known(self):
        table = FrequencyTable({"the": 999_999, "x": 1}, 1_000_000)
        for seed in range(500):
            out = mask_frequency(["the", "unseen"], table, 1e-6, 1, seed)
            assert out.kept == ["unseen"]

    def test_all_zero_weights_fall_back_to_uniform(self):
        # every token at threshold: P=0 everywhere, floored weights tie
        table = FrequencyTable({c: 1 for c in "abcdef"}, 6)
        hits = Counter()
        for seed in range(6000):
            hits.update(mask_frequency(list("abcdef"), table, 1.0 / 6, 3, seed).kept_indices)
        for pos in range(6):
            assert abs(hits[pos] / 6000 - 0.5) < 0.03

    def test_deterministic(self):
        table = build_frequency_table([list("aabbccdd")])
        tokens = list("abcdabcd")
        assert mask_frequency(tokens, table, 1e-2, 3, 7) == mask_frequency(tokens, table, 1e-2, 3, 7)


class TestSwclip:
    def test_rare_tokens_identity_up_to_truncation(self):
        # all tokens at f <= t keep P = 0, so survivors = everything,
        # truncated to k
        table = FrequencyTable({"a": 1, "b": 1, "c": 1, "filler": 97}, 100)
        out = mask_swclip(["a", "b", "c"], table, 0.5, 2, seed=11)
        assert out.kept == ["a", "b"]
        out = mask_swclip(["a", "b", "c"], table, 0.5, 9, seed=11)
        assert out.kept == ["a", "b", "c"]

    def test_binomial_survivor_mean(self):
        # ten copies of a word with P = 0.9 -> Binomial(10, 0.1), mean 1.0
        table = FrequencyTable({"x": 1, "y": 3}, 4)  # f(x)=0.25, t=0.0025 -> P=0.9
        tokens = ["x"] * 10
        total = 0
        for seed in range(10_000):
            total += len(mask_swclip(tokens, table, 0.0025, 6, seed).kept)
        assert abs(total / 10_000 - 1.0) < 0.05

    def test_may_underfill(self):
        table = FrequencyTable({"x": 1, "y": 3}, 4)
        lengths = {len(mask_swclip(["x"] * 10, table, 0.0025, 6, seed).kept) for seed in range(200)}
        assert min(lengths) < 6  # slots left unused

    def test_never_exceeds_budget(self):
        table = FrequencyTable({"x": 1, "y": 999}, 1000)
        for seed in range(200):
            out = mask_swclip(["x"] * 20, table, 0.5, 6, seed)
            assert len(out.kept) <= 6

    def test_deterministic(self):
        table = FrequencyTable({"x": 1, "y": 3}, 4)
        tokens = ["x", "y"] * 8
        assert mask_swclip(tokens, table, 0.01, 5, 3) == mask_swclip(tokens, table, 0.01, 5, 3)

    def test_shorter_outputs_than_exact_removal(self, zipf_corpus):
        # independent draws waste slots that exact n-k removal fills
        corpus = zipf_corpus[:2000]
        table = build_frequency_table(corpus)
        k, t = 6, 1e-6
        sw_len = freq_len = 0
        for i, toks in enumerate(corpus):
            seed = record_seed(1, i, 0)
            sw_len += len(mask_swclip(toks, table, t, k, seed).kept)
            freq_len += len(mask_frequency(toks, table, t, k, seed).kept)
        assert sw_len / len(corpus) < freq_len / len(corpus)


class TestSeededStreams:
    """kept_indices pinned from the seeded streams, so a refactor of the
    probability lookup that moves a single RNG draw or weight fails here."""

    TABLE = FrequencyTable({"the": 40, "a": 25, "dog": 6, "runs": 3, "park": 2,
                            "in": 20, "red": 1, "cat": 3}, 100)
    CAPTION = tokenize("the dog runs in the park and a red cat runs in the zoo near a dog")

    # (tokens, t, k, seed, frequency kept_indices, swclip kept_indices)
    CASES = [
        (CAPTION, 0.01, 4, 0, [6, 8, 13, 14], [0, 1, 5, 6]),
        (CAPTION, 0.01, 8, 12345, [2, 6, 8, 9, 10, 13, 14, 16], [2, 6, 8, 9, 10, 13, 14, 16]),
        (CAPTION, 0.05, 3, 7, [2, 9, 13], [1, 2, 5]),
        (CAPTION, 1e-6, 5, 2**63 + 11, [1, 6, 7, 13, 14], [6, 13, 14]),
        (["the", "the", "the", "zebra", "yak", "a"], 0.2, 2, 99, [3, 4], [0, 3]),
    ]

    @pytest.mark.parametrize("tokens,t,k,seed,freq_kept,swclip_kept", CASES)
    def test_golden_kept_indices(self, tokens, t, k, seed, freq_kept, swclip_kept):
        assert mask_frequency(tokens, self.TABLE, t, k, seed).kept_indices == freq_kept
        assert mask_swclip(tokens, self.TABLE, t, k, seed).kept_indices == swclip_kept


class TestThresholdValidation:
    TABLE = FrequencyTable({"a": 3, "b": 1}, 4)

    @pytest.mark.parametrize("t", [0.0, 1.0, 5.0, -1e-6, float("nan")])
    @pytest.mark.parametrize("call", [
        lambda table, t: table.probabilities(t),
        lambda table, t: FrequencyTable().probabilities(t),
        lambda table, t: subsample_probability(0.5, t),
        lambda table, t: mask_probability("a", table, t),
        lambda table, t: mask_probability("unknown", table, t),
        lambda table, t: mask_probabilities(["a"], table, t),
        lambda table, t: mask_probabilities(["unknown"], table, t),
        lambda table, t: mask_probabilities([], table, t),
        lambda table, t: mask_frequency(["a", "b", "a"], table, t, 1, 0),
        lambda table, t: mask_frequency(["a"], table, t, 3, 0),
        lambda table, t: mask_swclip(["a", "b"], table, t, 3, 0),
        lambda table, t: mask_swclip([], table, t, 3, 0),
        lambda table, t: MaskingConfig("frequency", t=t, freq_table=table),
    ], ids=["probabilities", "probabilities-empty-table", "subsample_probability",
            "mask_probability-known", "mask_probability-unknown",
            "mask_probabilities-known", "mask_probabilities-unknown", "mask_probabilities-empty",
            "frequency", "frequency-short", "swclip", "swclip-empty", "config"])
    def test_invalid_threshold_rejected_on_every_path(self, call, t):
        with pytest.raises(ValueError, match="threshold"):
            call(self.TABLE, t)


class TestRecordSeed:
    def test_stable(self):
        assert record_seed(42, 17, 3) == record_seed(42, 17, 3)

    def test_sensitive_to_each_input(self):
        base = record_seed(1, 2, 3)
        assert record_seed(9, 2, 3) != base
        assert record_seed(1, 9, 3) != base
        assert record_seed(1, 2, 9) != base

    def test_no_collisions_at_scale(self):
        seeds = {record_seed(0, i, e) for i in range(20_000) for e in range(3)}
        assert len(seeds) == 60_000

    def test_64_bit_range(self):
        for i in range(100):
            assert 0 <= record_seed(123, i) < (1 << 64)


class TestApplyMask:
    def table(self):
        return build_frequency_table([list("aaaabbbccd")])

    def test_dispatch_matches_direct_calls(self):
        tokens = list("abcdabcdab")
        tags = ["NN", "JJ", "VB", "OTHER"] * 2 + ["NN", "JJ"]
        table = self.table()
        cases = {
            "truncation": mask_truncation(tokens, 3),
            "random": mask_random(tokens, 3, 5),
            "block": mask_block(tokens, 3, 5),
            "syntax": mask_syntax(tokens, tags, 3),
            "frequency": mask_frequency(tokens, table, 1e-2, 3, 5),
            "swclip": mask_swclip(tokens, table, 1e-2, 3, 5),
        }
        for strategy, expected in cases.items():
            config = MaskingConfig(strategy, k=3, t=1e-2, seed=5, freq_table=table)
            assert apply_mask(tokens, config, tags=tags) == expected

    def test_syntax_requires_tags(self):
        with pytest.raises(ValueError, match="tags"):
            apply_mask(["a"], MaskingConfig("syntax", k=1))

    def test_config_validation(self):
        with pytest.raises(ValueError, match="strategy"):
            MaskingConfig("bogus")
        with pytest.raises(ValueError, match="k"):
            MaskingConfig("random", k=0)
        with pytest.raises(ValueError, match="threshold"):
            MaskingConfig("random", t=2.0)
        with pytest.raises(ValueError, match="frequency table"):
            MaskingConfig("frequency")

    def test_strategy_reassigned_to_unknown_name(self):
        config = MaskingConfig("truncation", k=1, freq_table=self.table())
        config.strategy = "bogus"
        with pytest.raises(ValueError) as raised:
            apply_mask(["a", "b"], config)
        with pytest.raises(ValueError) as at_construction:
            MaskingConfig("bogus")
        assert str(raised.value) == str(at_construction.value)

    def test_epoch_changes_stochastic_output_only(self):
        tokens = [f"t{i}" for i in range(40)]
        tags = (["NN", "JJ", "VB", "OTHER"] * 10)[:40]
        table = build_frequency_table([tokens] * 2)
        differs = {}
        for strategy in STRATEGIES:
            config = MaskingConfig(strategy, k=5, seed=1, freq_table=table)
            outs = []
            for epoch in range(2):
                seed = record_seed(config.seed, 0, epoch)
                outs.append(apply_mask(tokens, config, tags=tags, seed=seed))
            differs[strategy] = outs[0] != outs[1]
        assert not differs["truncation"]
        assert not differs["syntax"]
        # uniform over 36 windows / C(40,5) subsets: epoch collision is
        # possible in principle but not for this seed
        assert differs["random"] and differs["block"]
        assert differs["frequency"]


class TestSubsequenceProperties:
    """Randomized structural checks across every strategy (desk scale)."""

    def test_all_strategies(self):
        rng = random.Random(2024)
        vocab = [f"w{i}" for i in range(30)]
        table = build_frequency_table([vocab * (i + 1) for i in range(5)])
        for trial in range(2000):
            n = rng.randrange(0, 40)
            k = rng.randrange(1, 12)
            tokens = [rng.choice(vocab) for _ in range(n)]
            tags = [rng.choice(("NN", "JJ", "VB", "OTHER")) for _ in range(n)]
            seed = rng.getrandbits(63)
            outs = {
                "truncation": mask_truncation(tokens, k),
                "random": mask_random(tokens, k, seed),
                "block": mask_block(tokens, k, seed),
                "syntax": mask_syntax(tokens, tags, k),
                "frequency": mask_frequency(tokens, table, 1e-3, k, seed),
                "swclip": mask_swclip(tokens, table, 1e-3, k, seed),
            }
            for strategy, out in outs.items():
                check_subsequence(tokens, out)
                if strategy == "swclip":
                    assert len(out.kept) <= min(n, k)
                else:
                    assert len(out.kept) == min(n, k)
            if n > 0:
                assert outs["truncation"].kept_indices[0] == 0
