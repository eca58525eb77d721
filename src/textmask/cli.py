"""Command-line surface: build frequency tables, mask corpora, emit reports.

Subcommands:
    freq       count words in a corpus and write a frequency-table file
    mask       apply one masking strategy to a corpus
    demo       print every strategy's output for a single caption, plus
               per-word masking probabilities
    analyze    dist | pos | budget | stats | slots reports: the report's CSV,
               printed as aligned columns and written to --output

``mask --threads N`` writes byte-identical output for any N; ``shard``
decides how many processes mask, and on which CPUs.
"""

from __future__ import annotations

import argparse
import io
import os
import sys
from typing import Callable, Iterable, Iterator, Mapping, Sequence

from .corpus_io import FORMATS, CaptionRecord, open_text_write, read_corpus, write_masked
from .freq import (
    DEFAULT_THRESHOLD,
    FrequencyTable,
    build_frequency_table,
    load_frequency_table,
    mask_probability,
    save_frequency_table,
    validate_threshold,
)
from .maskers import (
    FREQUENCY_STRATEGIES,
    SEEDED_STRATEGIES,
    STRATEGIES,
    MaskedOutput,
    MaskingConfig,
    apply_mask,
    record_seed,
)
from .postag import CATEGORIES, DEFAULT_LEXICON, TagMemo, load_lexicon_file, load_pretagged, tag
from .tokenizer import tokenize

# --- corpus masking pipeline --------------------------------------------------


def prepare_record(
    text: str,
    pretagged: bool = False,
    lexicon: Mapping[str, str] | None = None,
    want_tags: bool = False,
) -> tuple[list[str], list[str] | None]:
    """Tokenize (or parse a pre-tagged line) and tag one caption."""
    if pretagged:
        return load_pretagged(text)
    tokens = tokenize(text)
    tags = tag(tokens, lexicon) if want_tags else None
    return tokens, tags


def _mask(tokens: Sequence[str], tags: Sequence[str] | None, config: MaskingConfig,
          index: int, seeds: Sequence[int] | None = None) -> MaskedOutput:
    """Mask record ``index`` of a corpus pass. Its seed depends only on
    (config.seed, index, config.epoch), never on processing order; it is
    ``seeds[index]`` when the pass has derived every record's seed already."""
    if config.strategy not in SEEDED_STRATEGIES:
        seed = None
    elif seeds is None:
        seed = record_seed(config.seed, index, config.epoch)
    else:
        seed = seeds[index]
    return apply_mask(tokens, config, tags=tags, seed=seed)


def mask_records(
    prepared: Iterable[tuple[CaptionRecord, list[str], list[str] | None]],
    config: MaskingConfig,
) -> Iterator[tuple[CaptionRecord, MaskedOutput]]:
    """Mask prepared (record, tokens, tags) triples in one thread, in input order."""
    for record, tokens, tags in prepared:
        yield record, _mask(tokens, tags, config, record.index)


# --- shared argument plumbing -------------------------------------------------


def _at_least_one(value: str) -> int:
    """An argparse ``type``: an int of at least 1."""
    try:
        number = int(value)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {value!r}") from None
    if number < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {number}")
    return number


def _threshold(value: str) -> float:
    """An argparse ``type``: a float that ``validate_threshold`` accepts."""
    try:
        t = float(value)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {value!r}") from None
    try:
        return validate_threshold(t)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _strategy_list(value: str) -> list[str]:
    """An argparse ``type``: comma-separated strategies, each named once."""
    strategies = [s.strip() for s in value.split(",") if s.strip()]
    for i, s in enumerate(strategies):
        if s not in STRATEGIES:
            raise argparse.ArgumentTypeError(
                f"unknown strategy {s!r}; expected one of {', '.join(STRATEGIES)}")
        if s in strategies[:i]:
            raise argparse.ArgumentTypeError(f"strategy {s!r} is named twice")
    if not strategies:
        raise argparse.ArgumentTypeError("no strategies given")
    return strategies


def _add_input_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--input", required=True, help="input corpus path (.gz ok)")
    p.add_argument("--format", choices=FORMATS, default="plain", help="corpus format")


def _add_pretagged_arg(p: argparse._ActionsContainer) -> None:
    p.add_argument("--pretagged", action="store_true",
                   help="captions are 'word/TAG word/TAG ...' lines")


def _add_masking_args(p: argparse.ArgumentParser, freq_table_required: bool = False) -> None:
    p.add_argument("--k", type=_at_least_one, default=MaskingConfig.k,
                   help="number of tokens to keep per caption (default: %(default)s)")
    p.add_argument("--t", type=_threshold, default=DEFAULT_THRESHOLD,
                   help="relative-frequency threshold for frequency/swclip "
                        "(default: %(default)s)")
    p.add_argument("--seed", type=int, default=MaskingConfig.seed,
                   help="run seed (default: %(default)s)")
    p.add_argument("--epoch", type=int, default=MaskingConfig.epoch,
                   help="epoch number mixed into per-record seeds")
    p.add_argument("--freq-table", metavar="PATH", required=freq_table_required,
                   help="frequency-table file for frequency/swclip")
    # Pre-tagged captions are never run through the tagger, so a lexicon
    # would be read and then ignored.
    tagging = p.add_mutually_exclusive_group()
    tagging.add_argument("--lexicon", metavar="PATH",
                         help="word\\tTAG lexicon for the built-in tagger "
                              "(not with --pretagged)")
    _add_pretagged_arg(tagging)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="textmask",
                                     description="caption corpus masking toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p_freq = sub.add_parser("freq", help="build a word-frequency table")
    _add_input_args(p_freq)
    _add_pretagged_arg(p_freq)
    p_freq.add_argument("--output", required=True, help="frequency-table file to write")
    p_freq.set_defaults(run=cmd_freq)

    p_mask = sub.add_parser("mask", help="mask a corpus with one strategy")
    _add_input_args(p_mask)
    p_mask.add_argument("--strategy", choices=STRATEGIES, required=True,
                        help="masking strategy to apply")
    _add_masking_args(p_mask)
    p_mask.add_argument("--output", required=True, help="masked corpus file to write")
    p_mask.add_argument("--output-format", choices=FORMATS, default=None,
                        help="output format (default: same as --format)")
    p_mask.add_argument("--threads", type=_at_least_one, default=1,
                        help="worker processes, capped at the CPUs this process may use; "
                             "one unless the input is a regular file; "
                             "output is byte-identical for any value (default: %(default)s)")
    # cmd_mask checks --strategy against --freq-table, and reports a
    # mismatch as this subcommand's usage error.
    p_mask.set_defaults(run=cmd_mask, usage_error=p_mask.error)

    p_demo = sub.add_parser("demo", help="show every strategy on one caption")
    p_demo.add_argument("--caption", required=True, help="caption text")
    _add_masking_args(p_demo, freq_table_required=True)
    p_demo.set_defaults(run=cmd_demo)

    p_an = sub.add_parser("analyze", help="emit a diagnostic report")
    p_an.set_defaults(run=cmd_analyze)
    an_sub = p_an.add_subparsers(dest="report", required=True)

    for report, help_text in [("dist", "top-N word distribution per strategy"),
                              ("pos", "POS-category shares per strategy"),
                              ("slots", "slot utilization per strategy")]:
        p_report = an_sub.add_parser(report, help=help_text)
        _add_input_args(p_report)
        _add_masking_args(p_report)
        p_report.add_argument("--strategies", type=_strategy_list,
                              default=",".join(STRATEGIES),
                              help="comma-separated strategies to compare")
        if report == "dist":
            p_report.add_argument("--top-n", type=_at_least_one, default=50,
                                  help="words to rank by original count (default: %(default)s)")
        p_report.add_argument("--output", help="CSV file to write")

    p_budget = an_sub.add_parser("budget", help="image+text token budget")
    p_budget.add_argument("--image-mask-ratio", type=float, default=None,
                          help="single-row mode: image masking ratio in [0, 1) "
                               "(default 0.75; omit both flags for the standard sweep)")
    p_budget.add_argument("--text-keep", type=int, default=None,
                          help="single-row mode: kept text tokens (default 8)")
    # Their defaults, analysis.BASELINE_*, are applied in cmd_analyze, so
    # building the parser does not import the report code.
    p_budget.add_argument("--image-patches", type=int,
                          help="image patches per sample, unmasked (default: 196)")
    p_budget.add_argument("--text-context", type=int,
                          help="text tokens per sample, unmasked (default: 32)")
    p_budget.add_argument("--output", help="CSV file to write")

    p_stats = an_sub.add_parser("stats", help="caption-length statistics")
    _add_input_args(p_stats)
    _add_pretagged_arg(p_stats)
    p_stats.add_argument("--output", help="CSV file to write")

    return parser


def _load_lexicon_arg(args: argparse.Namespace) -> TagMemo:
    """The command's lexicon in a fresh memo, shared by all its records."""
    if args.lexicon:
        return TagMemo(load_lexicon_file(args.lexicon))
    return TagMemo(DEFAULT_LEXICON)


def _config(args: argparse.Namespace, strategy: str,
            table: FrequencyTable | None) -> MaskingConfig:
    """The command's config for ``strategy``; only frequency strategies get ``table``."""
    return MaskingConfig(strategy, k=args.k, t=args.t, seed=args.seed, epoch=args.epoch,
                         freq_table=table if strategy in FREQUENCY_STRATEGIES else None)


def _prepared(
    args: argparse.Namespace,
    lexicon: Mapping[str, str] | None = None,
    want_tags: bool = False,
    owns: Callable[[int], bool] | None = None,
) -> Iterator[tuple[CaptionRecord, list[str], list[str] | None]]:
    """Read ``--input`` and yield (record, tokens, tags) for each record whose
    index ``owns`` accepts (every record without it), in input order; the
    lines of other records are never parsed. A ValueError names the
    record's line, so every process reports it alike."""
    for record in read_corpus(args.input, args.format, owns):
        try:
            tokens, tags = prepare_record(record.text, args.pretagged, lexicon, want_tags)
        except ValueError as exc:
            raise ValueError(f"{args.input}:{record.index + 1}: {exc}") from None
        yield record, tokens, tags


# --- subcommands ---------------------------------------------------------------


def cmd_freq(args: argparse.Namespace) -> int:
    table = build_frequency_table(tokens for _, tokens, _ in _prepared(args))
    save_frequency_table(table, args.output)
    print(f"wrote {len(table)} words ({table.total} tokens) to {args.output}")
    return 0


def cmd_mask(args: argparse.Namespace) -> int:
    if args.strategy in FREQUENCY_STRATEGIES and not args.freq_table:
        args.usage_error(f"--freq-table is required for strategy {args.strategy!r}")
    table = load_frequency_table(args.freq_table) if args.freq_table else None
    config = _config(args, args.strategy, table)
    lexicon = _load_lexicon_arg(args)
    want_tags = args.strategy == "syntax"

    def pairs_for(owns=None):
        return mask_records(_prepared(args, lexicon, want_tags, owns), config)

    output_format = args.output_format or args.format
    if args.threads > 1:
        # Imported only here, so serial runs neither load nor compile it.
        from . import shard

        count = shard.write_sharded(pairs_for, args.output, output_format, args.threads,
                                    args.input)
    else:
        count = write_masked(pairs_for(), args.output, output_format)
    print(f"masked {count} captions -> {args.output}")
    return 0


def cmd_demo(args: argparse.Namespace) -> int:
    table = load_frequency_table(args.freq_table)
    tokens, tags = prepare_record(args.caption, args.pretagged, _load_lexicon_arg(args),
                                  want_tags=True)

    print(f"{'original':<10} : {args.caption}")
    for strategy in STRATEGIES:
        output = _mask(tokens, tags, _config(args, strategy, table), 0)
        print(f"{strategy:<10} : {output.text()}")

    print()
    print(f"{'word':<16} P(mask)")
    for tok in dict.fromkeys(tokens):
        p = mask_probability(tok, table, args.t)
        marker = "" if tok in table else "  [not in table]"
        print(f"{tok:<16} {p:.6f}{marker}")
    return 0


# ``analyze`` holds each record's tags as one byte per token: the tag's index
# in CATEGORIES, which is also the syntax strategy's keep priority.
_TAG_CODE = {category: code for code, category in enumerate(CATEGORIES)}.__getitem__


def _decode_tags(codes: bytes) -> list[str]:
    return [CATEGORIES[code] for code in codes]


class _DecodedTags:
    """Read-only view of tag-code records, each read as its list of tags."""

    __slots__ = ("_codes",)

    def __init__(self, codes: Sequence[bytes]) -> None:
        self._codes = codes

    def __len__(self) -> int:
        return len(self._codes)

    def __getitem__(self, index: int) -> list[str]:
        return _decode_tags(self._codes[index])

    def __iter__(self) -> Iterator[list[str]]:
        return map(_decode_tags, self._codes)


def _analyze_corpus(args: argparse.Namespace):
    """Prepare the corpus once: its token tuples, its tag codes (one bytes
    per record, None unless tags are wanted) and one lazy, one-shot output
    stream per strategy."""
    # A given table is read first, as ``mask`` and ``demo`` read it, even
    # when no chosen strategy uses it.
    table = load_frequency_table(args.freq_table) if args.freq_table else None
    want_tags = "syntax" in args.strategies or args.report == "pos"
    # Records share one str per word type, so the corpus held across the
    # strategies costs a reference per token, not a string per token. A
    # tuple built from a list is allocated at its exact size.
    words: dict[str, str] = {}
    token_tuples, tag_codes = [], []
    for _, tokens, tags in _prepared(args, _load_lexicon_arg(args), want_tags):
        token_tuples.append(tuple(list(map(words.setdefault, tokens, tokens))))
        tag_codes.append(None if tags is None else bytes(map(_TAG_CODE, tags)))
    del words
    if table is None and FREQUENCY_STRATEGIES.intersection(args.strategies):
        # Without --freq-table, the frequency strategies read this corpus's own counts.
        table = build_frequency_table(token_tuples)
    # Every seeded strategy masks record i with the same seed, so it is
    # derived once per record, not once per strategy. The seeds are held at
    # 8 bytes a record in a view of one bytearray, which, unlike ``array``,
    # loads no extension module (0.25 MB of RSS).
    seeds = None
    if SEEDED_STRATEGIES.intersection(args.strategies):
        seeds = memoryview(bytearray(8 * len(token_tuples))).cast("Q")
        for i in range(len(seeds)):
            seeds[i] = record_seed(args.seed, i, args.epoch)

    def stream(config: MaskingConfig) -> Iterator[MaskedOutput]:
        # Only syntax reads tags; the others get None, which apply_mask ignores.
        syntax = config.strategy == "syntax"
        for i, (tokens, codes) in enumerate(zip(token_tuples, tag_codes)):
            yield _mask(tokens, _decode_tags(codes) if syntax else None, config, i, seeds)

    return token_tuples, tag_codes, {strategy: stream(_config(args, strategy, table))
                                     for strategy in args.strategies}


def cmd_analyze(args: argparse.Namespace) -> int:
    if not args.output:
        _print_table(_report_csv(args))
        return 0
    # Opened before any input is read, as ``mask`` opens it.
    with open_text_write(args.output) as fh:
        text = _report_csv(args)
        fh.write(text)
    _print_table(text)
    print(f"wrote {args.output}")
    return 0


def _report_csv(args: argparse.Namespace) -> str:
    """``args.report`` as the CSV text that its ``analysis.write_*_csv`` writes."""
    # Imported here, so the other commands never load the report code.
    from . import analysis

    fh = io.StringIO()
    if args.report == "budget":
        patches = (analysis.BASELINE_IMAGE_PATCHES if args.image_patches is None
                   else args.image_patches)
        context = (analysis.BASELINE_TEXT_CONTEXT if args.text_context is None
                   else args.text_context)
        if args.image_mask_ratio is not None or args.text_keep is not None:
            ratio = 0.75 if args.image_mask_ratio is None else args.image_mask_ratio
            keep = 8 if args.text_keep is None else args.text_keep
            budgets = [analysis.token_budget(ratio, keep, patches, context)]
        else:
            budgets = analysis.standard_budget_table(patches, context)
        analysis.write_budget_csv(budgets, fh)
    elif args.report == "stats":
        analysis.write_stats_csv(
            analysis.corpus_stats(tokens for _, tokens, _ in _prepared(args)), fh)
    else:
        token_tuples, tag_codes, masked = _analyze_corpus(args)
        if args.report == "dist":
            analysis.write_distribution_csv(
                analysis.distribution_report(token_tuples, masked, args.top_n), fh)
        elif args.report == "pos":
            analysis.write_pos_csv(
                analysis.pos_share_report(_DecodedTags(tag_codes), masked), fh)
        else:
            assert args.report == "slots"
            analysis.write_slots_csv(
                {s: analysis.slot_utilization(outputs, args.k) for s, outputs in masked.items()},
                fh)
    return fh.getvalue()


def _print_table(text: str) -> None:
    """Print CSV ``text`` one row a line, each cell padded to its column's widest."""
    import csv

    rows = list(csv.reader(io.StringIO(text)))
    widths = [max(map(len, column)) for column in zip(*rows)]
    for row in rows:
        print("  ".join([cell.ljust(width) for cell, width in zip(row, widths)]).rstrip())


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        status = args.run(args)
        sys.stdout.flush()
        return status
    except BrokenPipeError:
        # Stdout's reader has gone (``| head``); the flush above raises it here,
        # not at exit. As the ``signal`` docs advise, point stdout at devnull,
        # so that the flush at exit cannot fail again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
