"""distribution_report and pos_share_report read each strategy's outputs
as a one-shot stream: same reports as from lists, same count checks, and
errors raised by the stream reach the caller unchanged. pos_share_report
reads its streams in lockstep, so a stream's error wins over an earlier
stream that ran short, and its count checks follow mapping order."""

from itertools import islice

import pytest

from textmask.analysis import distribution_report, pos_share_report
from textmask.freq import build_frequency_table
from textmask.maskers import STRATEGIES, MaskingConfig, apply_mask, record_seed
from textmask.postag import tag


@pytest.fixture(scope="module")
def corpus(zipf_corpus):
    tokens = zipf_corpus[:300]
    return tokens, [tag(t) for t in tokens]


def outputs(corpus, strategy):
    tokens, tags = corpus
    config = MaskingConfig(strategy, k=6, t=1e-3, seed=5,
                           freq_table=build_frequency_table(tokens))
    for i, (toks, tgs) in enumerate(zip(tokens, tags)):
        yield apply_mask(toks, config, tags=tgs, seed=record_seed(5, i))


def streams(corpus):
    return {s: outputs(corpus, s) for s in STRATEGIES}


def lists(corpus):
    return {s: list(outputs(corpus, s)) for s in STRATEGIES}


def short(stream):
    items = list(stream)
    yield from items[:-1]


def long(stream):
    items = list(stream)
    yield from items + items[-1:]


def failing(stream, at):
    for i, output in enumerate(stream):
        if i == at:
            raise ValueError("masker failed on record 7")
        yield output


class TestStreamsEqualLists:
    def test_distribution_report(self, corpus):
        before = corpus[0]
        assert (distribution_report(before, streams(corpus), 20)
                == distribution_report(before, lists(corpus), 20))

    def test_pos_share_report(self, corpus):
        tags = corpus[1]
        assert pos_share_report(tags, streams(corpus)) == pos_share_report(tags, lists(corpus))


@pytest.mark.parametrize("bad, count", [(short, "299"), (long, "301")])
class TestCountMismatch:
    def test_distribution_report(self, corpus, bad, count):
        after = streams(corpus)
        after["block"] = bad(after["block"])
        with pytest.raises(ValueError, match=f"record count mismatch: 300 before vs {count} "
                                             "for strategy 'block'"):
            distribution_report(corpus[0], after, 20)

    def test_pos_share_report(self, corpus, bad, count):
        masked = streams(corpus)
        masked["swclip"] = bad(masked["swclip"])
        with pytest.raises(ValueError, match=f"record count mismatch: 300 tag lists vs {count} "
                                             "for strategy 'swclip'"):
            pos_share_report(corpus[1], masked)


class TestStreamErrorsPropagate:
    def test_distribution_report(self, corpus):
        after = streams(corpus)
        after["random"] = failing(after["random"], 7)
        with pytest.raises(ValueError, match="^masker failed on record 7$"):
            distribution_report(corpus[0], after, 20)

    def test_pos_share_report(self, corpus):
        masked = streams(corpus)
        masked["syntax"] = failing(masked["syntax"], 7)
        with pytest.raises(ValueError, match="^masker failed on record 7$"):
            pos_share_report(corpus[1], masked)


class TestPosShareLockstep:
    def test_stream_error_wins_over_an_earlier_short_stream(self, corpus):
        masked = streams(corpus)
        masked["random"] = islice(masked["random"], 5)
        masked["syntax"] = failing(masked["syntax"], 7)
        with pytest.raises(ValueError, match="^masker failed on record 7$"):
            pos_share_report(corpus[1], masked)

    def test_count_check_names_the_first_mismatch_in_mapping_order(self, corpus):
        # swclip runs out first, but block comes first in the mapping.
        masked = streams(corpus)
        masked["block"] = long(masked["block"])
        masked["swclip"] = islice(masked["swclip"], 5)
        with pytest.raises(ValueError, match="record count mismatch: 300 tag lists vs 301 "
                                             "for strategy 'block'"):
            pos_share_report(corpus[1], masked)
