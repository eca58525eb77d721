"""Caption-corpus text masking toolkit.

Six strategies for shrinking captions to a fixed token budget (truncation,
random, block, syntax, frequency, swclip), frequency-table plumbing for the
frequency-based strategies, and the reports used to compare how each
strategy reshapes a corpus.

The report names, and ``textmask.analysis`` itself, are imported on first
use (PEP 562), so masking never loads the report code or its ``csv`` and
``decimal`` imports.
"""

import importlib

from .corpus_io import CaptionRecord, read_corpus, write_masked
from .freq import (
    DEFAULT_THRESHOLD,
    FrequencyTable,
    build_frequency_table,
    load_frequency_table,
    mask_probability,
    merge,
    save_frequency_table,
    subsample_probability,
)
from .maskers import (
    STRATEGIES,
    MaskedOutput,
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
from .postag import CATEGORIES, load_pretagged, penn_to_coarse, tag
from .tokenizer import tokenize

__version__ = "0.2.0"

__all__ = [
    "CaptionRecord",
    "CorpusStats",
    "DistributionReport",
    "FrequencyTable",
    "MaskedOutput",
    "MaskingConfig",
    "PosShareReport",
    "TokenBudget",
    "CATEGORIES",
    "DEFAULT_THRESHOLD",
    "STRATEGIES",
    "apply_mask",
    "build_frequency_table",
    "corpus_stats",
    "distribution_report",
    "load_frequency_table",
    "load_pretagged",
    "mask_block",
    "mask_frequency",
    "mask_probability",
    "mask_random",
    "mask_swclip",
    "mask_syntax",
    "mask_truncation",
    "merge",
    "penn_to_coarse",
    "pos_share_report",
    "read_corpus",
    "record_seed",
    "save_frequency_table",
    "slot_utilization",
    "standard_budget_table",
    "subsample_probability",
    "tag",
    "token_budget",
    "tokenize",
    "write_masked",
]


def __getattr__(name: str):
    # The __all__ names not bound above are the report names of .analysis.
    if name == "analysis" or name in __all__:
        # Not ``from . import analysis``: its hasattr check would call back here.
        analysis = importlib.import_module(".analysis", __name__)
        return analysis if name == "analysis" else getattr(analysis, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
