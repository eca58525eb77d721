"""Value semantics of the ten record types: repr, ==, hash, construction, copies.

The expected repr strings and behaviours are those the types had as
generated classes, before they became plain classes, so a caller that
printed, compared, pickled or deep-copied a record sees no difference.
"""

import copy
import pickle

import pytest

from textmask.analysis import (
    CorpusStats,
    DistributionReport,
    DistributionRow,
    PosShareReport,
    PosShareRow,
    TokenBudget,
)
from textmask.corpus_io import CaptionRecord
from textmask.freq import DEFAULT_THRESHOLD, FrequencyTable
from textmask.maskers import MaskedOutput, MaskingConfig

TABLE = FrequencyTable({"a": 2, "b": 1}, 3)
ROW = DistributionRow(1, "dog", 3, {"random": 2})
POS_ROW = PosShareRow("before", {"NN": 1})

# (record, its repr, a record of the same type that differs in one field)
CASES = [
    (CaptionRecord(0, "x", "a b"), "CaptionRecord(index=0, id='x', text='a b')",
     CaptionRecord(0, "x", "a c")),
    (MaskedOutput(["a"], [0], 2), "MaskedOutput(kept=['a'], kept_indices=[0], source_length=2)",
     MaskedOutput(["a"], [0], 3)),
    (MaskingConfig("swclip", freq_table=TABLE),
     "MaskingConfig(strategy='swclip', k=8, t=1e-06, seed=0, epoch=0, "
     "freq_table=FrequencyTable(counts={'a': 2, 'b': 1}, total=3))",
     MaskingConfig("swclip", freq_table=FrequencyTable({"a": 2, "b": 2}, 4))),
    (MaskingConfig("random", k=4, t=0.5, seed=3, epoch=1),
     "MaskingConfig(strategy='random', k=4, t=0.5, seed=3, epoch=1, freq_table=None)",
     MaskingConfig("random", k=4, t=0.5, seed=3, epoch=2)),
    (TABLE, "FrequencyTable(counts={'a': 2, 'b': 1}, total=3)", FrequencyTable({"a": 3}, 3)),
    (FrequencyTable(), "FrequencyTable(counts={}, total=0)", FrequencyTable({}, 1)),
    (ROW, "DistributionRow(rank=1, word='dog', before=3, after={'random': 2})",
     DistributionRow(2, "dog", 3, {"random": 2})),
    (DistributionReport(["random"], [ROW]),
     "DistributionReport(strategies=['random'], rows=[DistributionRow(rank=1, word='dog', "
     "before=3, after={'random': 2})])",
     DistributionReport(["random"], [])),
    (POS_ROW, "PosShareRow(label='before', counts={'NN': 1})", PosShareRow("before", {"NN": 2})),
    (PosShareReport([POS_ROW]), "PosShareReport(rows=[PosShareRow(label='before', counts={'NN': 1})])",
     PosShareReport([])),
    (TokenBudget(49, 8, 57, 25.0), "TokenBudget(image_tokens=49, text_tokens=8, total=57, percentage=25.0)",
     TokenBudget(49, 8, 57, 25.5)),
    (CorpusStats(2, 7, 3.5, 0.5), "CorpusStats(sample_count=2, total_words=7, mean_length=3.5, std_length=0.5)",
     CorpusStats(2, 7, 3.5, 0.25)),
]
IDS = [f"{type(record).__name__}-{i}" for i, (record, _, _) in enumerate(CASES)]


@pytest.mark.parametrize("record,text,other", CASES, ids=IDS)
class TestValueSemantics:
    def test_repr(self, record, text, other):
        assert repr(record) == text

    def test_equality(self, record, text, other):
        twin = copy.deepcopy(record)
        assert twin is not record
        assert record == twin and not record != twin
        assert record != other and not record == other

    def test_other_types_are_never_equal(self, record, text, other):
        assert record.__eq__(object()) is NotImplemented
        for unlike, _, _ in CASES:
            if type(unlike) is not type(record):
                assert record != unlike and not record == unlike

    def test_unhashable(self, record, text, other):
        with pytest.raises(TypeError):
            hash(record)

    @pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
    def test_pickle_round_trip(self, record, text, other, protocol):
        clone = pickle.loads(pickle.dumps(record, protocol))
        assert type(clone) is type(record)
        assert clone == record and repr(clone) == text

    def test_deepcopy_round_trip(self, record, text, other):
        clone = copy.deepcopy(record)
        assert type(clone) is type(record)
        assert clone == record and repr(clone) == text

    def test_keyword_construction(self, record, text, other):
        fields = {name: getattr(record, name) for name in type(record).__match_args__}
        assert type(record)(**fields) == record
        assert type(record)(*fields.values()) == record


class TestMaskingConfig:
    def test_class_level_defaults(self):
        assert (MaskingConfig.k, MaskingConfig.t, MaskingConfig.seed, MaskingConfig.epoch,
                MaskingConfig.freq_table) == (8, DEFAULT_THRESHOLD, 0, 0, None)
        config = MaskingConfig("truncation")
        assert (config.k, config.t, config.seed, config.epoch, config.freq_table) == (
            8, DEFAULT_THRESHOLD, 0, 0, None)

    def test_keyword_construction(self):
        config = MaskingConfig(strategy="frequency", freq_table=TABLE, epoch=2, seed=9, t=0.1, k=3)
        assert config == MaskingConfig("frequency", 3, 0.1, 9, 2, TABLE)

    def test_match_pattern(self):
        match MaskingConfig("block", k=2, seed=4):
            case MaskingConfig(strategy, k, _, seed):
                assert (strategy, k, seed) == ("block", 2, 4)
            case _:
                pytest.fail("no match")


class TestFrequencyTable:
    def test_fields_cannot_be_reassigned_or_deleted(self):
        table = FrequencyTable({"a": 1}, 1)
        for name in ("counts", "total", "_probabilities"):
            with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
                setattr(table, name, {})
            with pytest.raises(AttributeError, match=f"cannot delete field '{name}'"):
                delattr(table, name)
        assert table == FrequencyTable({"a": 1}, 1)

    def test_cache_is_left_out_of_equality_and_copies(self):
        warm = FrequencyTable({"a": 2, "b": 1}, 3)
        probs = warm.probabilities(0.1)
        assert warm == TABLE
        for clone in (pickle.loads(pickle.dumps(warm)), copy.deepcopy(warm)):
            assert clone == warm
            assert clone.counts is not warm.counts
            assert clone.probabilities(0.1) == probs

    def test_default_counts_are_not_shared(self):
        assert FrequencyTable().counts is not FrequencyTable().counts

    def test_config_holding_a_table_round_trips(self):
        config = MaskingConfig("frequency", k=2, freq_table=FrequencyTable({"a": 2, "b": 1}, 3))
        config.freq_table.probabilities(DEFAULT_THRESHOLD)
        for clone in (pickle.loads(pickle.dumps(config)), copy.deepcopy(config)):
            assert clone == config
            assert clone.freq_table is not config.freq_table
