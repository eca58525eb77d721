import dataclasses
import io
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from textmask.freq import (
    FrequencyTable,
    build_frequency_table,
    dump_frequency_table,
    load_frequency_table,
    mask_probability,
    merge,
    parse_frequency_table,
    save_frequency_table,
    subsample_probability,
)


class TestBuild:
    def test_direct_count(self):
        table = build_frequency_table([["a", "b", "a"]])
        assert table.counts == {"a": 2, "b": 1}
        assert table.total == 3

    def test_multi_record_merge(self):
        table = build_frequency_table([["a"], ["a"], ["b"]])
        assert table.counts == {"a": 2, "b": 1}
        assert table.total == 3

    def test_thousand_singletons_vs_independent_counter(self):
        corpus = [["x"] for _ in range(1000)]
        # independent single-pass recount
        expected: dict[str, int] = {}
        n = 0
        for rec in corpus:
            for tok in rec:
                expected[tok] = expected.get(tok, 0) + 1
                n += 1
        table = build_frequency_table(corpus)
        assert table.counts == expected == {"x": 1000}
        assert table.total == n == 1000

    def test_empty_corpus_rejected(self):
        with pytest.raises(ValueError, match="empty corpus"):
            build_frequency_table([])

    def test_all_empty_records_rejected(self):
        with pytest.raises(ValueError, match="empty corpus"):
            build_frequency_table([[], [], []])


class TestMerge:
    def test_pointwise_sum(self):
        merged = merge(FrequencyTable({"a": 1}, 1), FrequencyTable({"a": 2}, 2))
        assert merged.counts == {"a": 3}
        assert merged.total == 3

    def test_empty_table_is_identity(self):
        table = FrequencyTable({"a": 2, "b": 1}, 3)
        merged = merge(table, FrequencyTable())
        assert merged.counts == table.counts
        assert merged.total == table.total

    def test_sharded_build_equals_single_pass(self):
        rng = random.Random(123)
        vocab = [f"w{i}" for i in range(50)]
        corpus = [rng.choices(vocab, k=rng.randrange(1, 12)) for _ in range(10_000)]
        single = build_frequency_table(corpus)
        shards = [corpus[i::4] for i in range(4)]
        sharded = FrequencyTable()
        for shard in shards:
            sharded = merge(sharded, build_frequency_table(shard))
        assert sharded == single

    def test_commutative_associative(self):
        a = FrequencyTable({"x": 1, "y": 2}, 3)
        b = FrequencyTable({"y": 1, "z": 5}, 6)
        c = FrequencyTable({"x": 4}, 4)
        assert merge(a, b) == merge(b, a)
        assert merge(merge(a, b), c) == merge(a, merge(b, c))


class TestMaskProbability:
    T = 1e-6

    def table_with_rel_freq(self, f: float) -> FrequencyTable:
        # one word at relative frequency f over a million tokens
        count = round(f * 1_000_000)
        return FrequencyTable({"w": count, "rest": 1_000_000 - count}, 1_000_000)

    def test_at_threshold_is_zero(self):
        assert subsample_probability(self.T, self.T) == 0.0

    def test_four_times_threshold_is_half(self):
        assert subsample_probability(4 * self.T, self.T) == 0.5

    def test_below_threshold_clamps_to_zero(self):
        # raw value 1 - sqrt(4) = -1
        assert subsample_probability(self.T / 4, self.T) == 0.0

    def test_hundred_times_threshold(self):
        # hand oracle: 1 - sqrt(1/100) = 0.9
        assert abs(subsample_probability(100 * self.T, self.T) - 0.9) < 1e-12

    def test_smaller_threshold_masks_more(self):
        # at a fixed f, a lower threshold gives the higher probability
        assert subsample_probability(1e-4, 1e-7) > subsample_probability(1e-4, 1e-5)

    def test_unknown_word_returns_zero_and_flags(self):
        table = self.table_with_rel_freq(0.5)
        assert mask_probability("nope", table, self.T) == 0.0

    def test_known_word_does_not_flag(self):
        table = self.table_with_rel_freq(0.5)
        assert mask_probability("w", table, self.T) > 0.0

    def test_rank_preservation(self):
        # counts[u] >= counts[v] implies P(u) >= P(v)
        rng = random.Random(5)
        counts = {f"w{i}": rng.randrange(1, 10_000) for i in range(200)}
        table = FrequencyTable(counts, sum(counts.values()))
        words = sorted(counts, key=counts.get)
        probs = [mask_probability(w, table, self.T) for w in words]
        assert all(p1 <= p2 for p1, p2 in zip(probs, probs[1:]))

    def test_output_in_unit_interval(self):
        for f in (1e-9, 1e-6, 1e-3, 0.1, 0.5, 1.0):
            assert 0.0 <= subsample_probability(f, self.T) <= 1.0

    def test_invalid_threshold(self):
        with pytest.raises(ValueError):
            subsample_probability(0.5, 0.0)
        with pytest.raises(ValueError):
            subsample_probability(0.5, 1.0)

    @given(
        counts=st.dictionaries(st.text(min_size=1), st.integers(1, 10**12),
                               min_size=1, max_size=40),
        unknown=st.text(),
        t1=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
        t2=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
    )
    def test_cached_map_matches_formula(self, counts, unknown, t1, t2):
        table = FrequencyTable(counts, sum(counts.values()))
        first = dict(table.probabilities(t1))
        for t in (t1, t2):
            for word, count in counts.items():
                assert mask_probability(word, table, t) == subsample_probability(
                    count / table.total, t)
            if unknown not in counts:
                assert mask_probability(unknown, table, t) == 0.0
        assert table.probabilities(t1) == first


class TestFrozenTable:
    def test_fields_cannot_be_reassigned(self):
        table = build_frequency_table([["a", "b", "a"]])
        with pytest.raises(dataclasses.FrozenInstanceError):
            table.total = 4
        with pytest.raises(dataclasses.FrozenInstanceError):
            table.counts = {}
        assert table.total == 3

    def test_cache_does_not_affect_equality(self):
        a = build_frequency_table([["a", "b", "a"]])
        b = build_frequency_table([["a", "b", "a"]])
        a.probabilities(0.1)
        assert a == b


class TestSerialization:
    def test_round_trip_exact(self, tmp_path):
        rng = random.Random(9)
        counts = {f"w{i}": rng.randrange(1, 500) for i in range(300)}
        table = FrequencyTable(counts, sum(counts.values()))
        path = str(tmp_path / "table.freq")
        save_frequency_table(table, path)
        assert load_frequency_table(path) == table

    def test_gzip_round_trip(self, tmp_path):
        table = FrequencyTable({"a": 2, "b": 1}, 3)
        path = str(tmp_path / "table.freq.gz")
        save_frequency_table(table, path)
        assert load_frequency_table(path) == table

    def test_format_is_sorted_and_stable(self):
        table = FrequencyTable({"b": 2, "a": 2, "c": 5}, 9)
        buf = io.StringIO()
        dump_frequency_table(table, buf)
        assert buf.getvalue() == "#total 9\nc\t5\na\t2\nb\t2\n"

    def test_missing_header_rejected(self):
        with pytest.raises(ValueError, match="header"):
            parse_frequency_table(iter(["a\t1\n"]))

    def test_total_mismatch_rejected(self):
        with pytest.raises(ValueError, match="total"):
            parse_frequency_table(iter(["#total 5\n", "a\t1\n"]))

    def test_zero_total_rejected(self):
        with pytest.raises(ValueError, match=r"^t\.freq: empty frequency table"):
            parse_frequency_table(iter(["#total 0\n"]), source="t.freq")

    def test_malformed_count_names_line(self):
        with pytest.raises(ValueError, match=":2"):
            parse_frequency_table(iter(["#total 1\n", "a\tx\n"]))

    def test_duplicate_word_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            parse_frequency_table(iter(["#total 2\n", "a\t1\n", "a\t1\n"]))
