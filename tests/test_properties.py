"""Property tests for the structural contract of every masking strategy.

Token lists come from ``tokenize`` over arbitrary Unicode text. Every
strategy must keep a subsequence of its input, in order, fill
min(n, k) slots (swclip: at most that many), and give the same output for
the same (tokens, config, seed). Frequency tables built from such tokens
must survive a dump/parse round trip unchanged and be written in
descending-count order, ties lexicographic, and merging them must not
depend on order. The token-to-probability lookup must equal the formula
applied word by word. ``record_seed`` must equal three splitmix64 rounds
written out here, however its calls alternate between runs. The
distribution report's top-N rows must equal a full sort's first N.
Tagging through a memo and the syntax ranking must agree with their
direct definitions, and the jsonl line formatter with ``json.dumps``.
"""

import io
import json
import os
import tempfile
from collections import Counter

from hypothesis import example, given
from hypothesis import strategies as st

from textmask.analysis import distribution_report
from textmask.corpus_io import CaptionRecord, line_formatter
from textmask.freq import (
    FrequencyTable,
    build_frequency_table,
    dump_frequency_table,
    load_frequency_table,
    mask_probabilities,
    mask_probability,
    merge,
    parse_frequency_table,
    save_frequency_table,
    subsample_probability,
)
from textmask.maskers import (
    STRATEGIES,
    MaskedOutput,
    MaskingConfig,
    apply_mask,
    mask_syntax,
    record_seed,
)
from textmask.postag import CATEGORIES, DEFAULT_LEXICON, TagMemo, heuristic_tag, tag
from textmask.tokenizer import is_special_token, tokenize

texts = st.lists(st.text(min_size=1, max_size=8), max_size=30).map(" ".join)
token_lists = texts.map(tokenize)
thresholds = st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)
seeds = st.integers(-(2**70), 2**70)


@given(
    tokens=token_lists,
    table_tokens=token_lists,
    k=st.integers(1, 12),
    t=thresholds,
    seed=seeds,
    epoch=seeds,
    index=st.integers(0, 10**9),
)
def test_every_strategy_keeps_an_ordered_subsequence_of_budget_length(
    tokens, table_tokens, k, t, seed, epoch, index
):
    table = build_frequency_table([tokens, table_tokens, ["the"]])
    tags = tag(tokens, DEFAULT_LEXICON)
    record = record_seed(seed, index, epoch)
    n = len(tokens)
    for strategy in STRATEGIES:
        config = MaskingConfig(strategy, k=k, t=t, seed=seed, epoch=epoch, freq_table=table)
        output = apply_mask(tokens, config, tags=tags, seed=record)
        assert output.kept == [tokens[i] for i in output.kept_indices]
        assert all(a < b for a, b in zip(output.kept_indices, output.kept_indices[1:]))
        if strategy == "swclip":
            assert len(output.kept) <= min(n, k)
        else:
            assert len(output.kept) == min(n, k)
        assert output.source_length == n
        assert apply_mask(tokens, config, tags=tags, seed=record) == output


M64 = 2**64


def splitmix64(x):
    """SplitMix64's output for state ``x`` (Steele, Lea and Flood, OOPSLA 2014)."""
    z = (x + 0x9E3779B97F4A7C15) % M64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) % M64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) % M64
    return z ^ (z >> 31)


def reference_record_seed(seed, index, epoch):
    """``record_seed`` as its docstring defines it: three rounds, each
    argument taken modulo 2**64."""
    return splitmix64(splitmix64(splitmix64(seed % M64) ^ epoch % M64) ^ index % M64)


def test_reference_splitmix64_is_the_published_generator():
    # The first output of SplitMix64 seeded with 0.
    assert splitmix64(0) == 0xE220A8397B1DCDAF


@given(seed=seeds, index=seeds, epoch=seeds)
@example(seed=-1, index=-1, epoch=-1)
@example(seed=2**64, index=2**64 + 5, epoch=2**65 - 1)
def test_record_seed_equals_its_definition(seed, index, epoch):
    assert record_seed(seed, index, epoch) == reference_record_seed(seed, index, epoch)


@given(pairs=st.lists(st.tuples(seeds, seeds), min_size=2, max_size=48, unique=True),
       indices=st.lists(seeds, min_size=1, max_size=3))
# Distinct pairs that are equal modulo 2**64, next to pairs that are not.
@example(pairs=[(-1, 0), (2**64 - 1, 0), (3, 2**64 + 2), (3, 2), (3, 1)], indices=[0, 7])
def test_record_seed_alternating_between_runs_equals_its_definition(pairs, indices):
    """Calls that move from one (seed, epoch) pair to the next and back,
    over more pairs than a small cache holds, each get their own pair's
    seeds."""
    for _ in range(2):
        for index in indices:
            for seed, epoch in pairs:
                assert record_seed(seed, index, epoch) == reference_record_seed(seed, index, epoch)


@given(corpus=st.lists(token_lists, min_size=1, max_size=5).filter(any))
def test_frequency_table_round_trips(corpus):
    table = build_frequency_table(corpus)
    buffer = io.StringIO()
    dump_frequency_table(table, buffer)
    assert parse_frequency_table(iter(io.StringIO(buffer.getvalue()))) == table
    with tempfile.TemporaryDirectory() as tmp:
        for name in ("t.freq", "t.freq.gz"):
            path = os.path.join(tmp, name)
            save_frequency_table(table, path)
            assert load_frequency_table(path) == table


@given(corpora=st.lists(token_lists.filter(bool), min_size=3, max_size=3))
def test_frequency_table_merge_is_associative_and_commutative(corpora):
    a, b, c = (build_frequency_table([tokens]) for tokens in corpora)
    assert merge(merge(a, b), c) == merge(a, merge(b, c))
    assert merge(a, b) == merge(b, a)
    assert merge(merge(a, b), c) == build_frequency_table(corpora)


table_words = st.one_of(st.text(min_size=1, max_size=6),
                        st.text(alphabet="aAé日ß", min_size=1, max_size=3))


@given(counts=st.dictionaries(table_words, st.integers(1, 4), max_size=40))
def test_frequency_table_is_written_by_descending_count_then_word(counts):
    table = FrequencyTable(counts, sum(counts.values()))
    buffer = io.StringIO()
    dump_frequency_table(table, buffer)
    rows = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
    assert buffer.getvalue() == f"#total {table.total}\n" + "".join(
        f"{word}\t{count}\n" for word, count in rows)


@given(counts=st.dictionaries(table_words, st.integers(1, 10**6), min_size=1, max_size=20),
       picks=st.lists(st.one_of(st.integers(0, 19), table_words), max_size=30),
       t=thresholds)
@example(counts={"a": 999_999, "b": 1}, picks=[0, "c", 1, 0], t=1e-6)
def test_mask_probabilities_equals_per_word_reference(counts, picks, t):
    """Table words (an int picks one) mixed with any words: each gets the
    formula at its relative frequency, or 0.0 when the table lacks it."""
    table = FrequencyTable(counts, sum(counts.values()))
    words = sorted(counts)
    tokens = [words[p % len(words)] if isinstance(p, int) else p for p in picks]
    expected = [subsample_probability(table.counts[w] / table.total, t) if w in table.counts
                else 0.0 for w in tokens]
    assert mask_probabilities(tokens, table, t) == expected
    assert mask_probabilities(tokens, table, t) == [mask_probability(w, table, t) for w in tokens]


@given(corpus=st.lists(st.lists(st.sampled_from(["b", "a", "c", "é", "日本", "ß", ".", "x"]),
                                max_size=8), max_size=8))
@example(corpus=[["c", "b", "a", "c", "日本"]])  # a, b, 日本 tie across cutoffs 2 and 3
def test_distribution_top_n_equals_full_sort_prefix(corpus):
    counts = Counter(token for tokens in corpus for token in tokens)
    ranking = sorted(((w, c) for w, c in counts.items() if not is_special_token(w)),
                     key=lambda kv: (-kv[1], kv[0]))
    for top_n in range(1, len(ranking) + 2):
        rows = distribution_report(corpus, {}, top_n).rows
        assert [(row.rank, row.word, row.before) for row in rows] == [
            (rank, word, count) for rank, (word, count) in enumerate(ranking[:top_n], start=1)]


words = st.text(max_size=6)
lexicons = st.dictionaries(words, st.sampled_from(CATEGORIES + ("",)), max_size=10)


@given(lexicon=lexicons, batches=st.lists(st.lists(words, max_size=12), max_size=6))
def test_memoised_tag_equals_direct_lookup(lexicon, batches):
    shared = TagMemo(lexicon)
    for tokens in batches:
        expected = [lexicon.get(t) or heuristic_tag(t) for t in tokens]
        assert tag(tokens, lexicon) == expected
        assert tag(tokens, TagMemo(lexicon)) == expected
        assert tag(tokens, shared) == expected


@given(tags=st.lists(st.sampled_from(CATEGORIES), max_size=40), k=st.integers(1, 12))
def test_syntax_ranking_equals_priority_index_key(tags, k):
    priority = {"NN": 0, "JJ": 1, "VB": 2, "OTHER": 3}
    tokens = [f"w{i}" for i in range(len(tags))]
    ranked = sorted(range(len(tags)), key=lambda i: (priority[tags[i]], i))
    expected = sorted(ranked[:k])
    assert mask_syntax(tokens, tags, k).kept_indices == expected


@given(record_id=st.text(), kept=st.lists(st.text(), max_size=8))
def test_jsonl_line_equals_json_dumps(record_id, kept):
    """The jsonl formatter writes what ``json.dumps(..., ensure_ascii=False)``
    writes, for any text: quotes, backslashes, control characters, lone
    surrogates and non-ASCII included."""
    record = CaptionRecord(0, record_id, "")
    output = MaskedOutput(kept, list(range(len(kept))), len(kept))
    expected = json.dumps({"id": record_id, "caption": " ".join(kept)}, ensure_ascii=False)
    assert line_formatter("jsonl")(record, output) == expected + "\n"
