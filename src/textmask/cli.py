"""Command-line surface: build frequency tables, mask corpora, emit reports.

Subcommands:
    freq       count words in a corpus and write a frequency-table file
    mask       apply one masking strategy to a corpus
    demo       print every strategy's output for a single caption, plus
               per-word masking probabilities
    analyze    dist | pos | budget | stats | slots reports (table to stdout,
               CSV to --output)

``mask --threads N`` masks on up to N forked processes (no more than the
CPUs this process may use; one where ``os.fork`` is missing or the input
is not a regular file) and writes byte-identical output for any N.

Defaults for k, threshold, seed and threads can be overridden with the
TEXTMASK_K, TEXTMASK_T, TEXTMASK_SEED and TEXTMASK_THREADS environment
variables. argparse converts them like command-line values, so a bad value
is a usage error (exit code 2), and an explicit flag wins over the variable.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Iterable, Iterator, Mapping, Sequence

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
    STRATEGIES,
    MaskedOutput,
    MaskingConfig,
    _check_k,
    apply_mask,
    record_seed,
)
from .postag import DEFAULT_LEXICON, TagMemo, load_lexicon_file, load_pretagged, tag
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
          index: int) -> MaskedOutput:
    """Mask record ``index`` of a corpus pass. Its seed depends only on
    (config.seed, index, config.epoch), never on processing order."""
    return apply_mask(tokens, config, tags=tags, seed=record_seed(config.seed, index, config.epoch))


def mask_records(
    records: Iterable[CaptionRecord],
    config: MaskingConfig,
    pretagged: bool = False,
    lexicon: Mapping[str, str] | None = None,
) -> Iterator[tuple[CaptionRecord, MaskedOutput]]:
    """Mask a record stream in one thread, yielding results in input order."""
    want_tags = config.strategy == "syntax"
    for record in records:
        tokens, tags = prepare_record(record.text, pretagged, lexicon, want_tags)
        yield record, _mask(tokens, tags, config, record.index)


# --- shared argument plumbing -------------------------------------------------


def _add_input_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--input", required=True, help="input corpus path (.gz ok)")
    p.add_argument("--format", choices=FORMATS, default="plain", help="corpus format")


def _add_pretagged_arg(p: argparse._ActionsContainer) -> None:
    p.add_argument("--pretagged", action="store_true",
                   help="captions are 'word/TAG word/TAG ...' lines")


def _add_masking_args(p: argparse.ArgumentParser, freq_table_required: bool = False) -> None:
    p.add_argument("--k", type=int, default=os.environ.get("TEXTMASK_K", "8"),
                   help="number of tokens to keep per caption (default: $TEXTMASK_K or 8)")
    p.add_argument("--t", type=float,
                   default=os.environ.get("TEXTMASK_T", str(DEFAULT_THRESHOLD)),
                   help="relative-frequency threshold for frequency/swclip "
                        f"(default: $TEXTMASK_T or {DEFAULT_THRESHOLD})")
    p.add_argument("--seed", type=int, default=os.environ.get("TEXTMASK_SEED", "0"),
                   help="run seed (default: $TEXTMASK_SEED or 0)")
    p.add_argument("--epoch", type=int, default=0,
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

    p_mask = sub.add_parser("mask", help="mask a corpus with one strategy")
    _add_input_args(p_mask)
    p_mask.add_argument("--strategy", choices=STRATEGIES, required=True,
                        help="masking strategy to apply")
    _add_masking_args(p_mask)
    p_mask.add_argument("--output", required=True, help="masked corpus file to write")
    p_mask.add_argument("--output-format", choices=FORMATS, default=None,
                        help="output format (default: same as --format)")
    p_mask.add_argument("--threads", type=int, default=os.environ.get("TEXTMASK_THREADS", "1"),
                        help="worker processes, capped at the CPUs this process may use; "
                             "one unless the input is a regular file; "
                             "output is byte-identical for any value "
                             "(default: $TEXTMASK_THREADS or 1)")

    p_demo = sub.add_parser("demo", help="show every strategy on one caption")
    p_demo.add_argument("--caption", required=True, help="caption text")
    _add_masking_args(p_demo, freq_table_required=True)

    p_an = sub.add_parser("analyze", help="emit a diagnostic report")
    an_sub = p_an.add_subparsers(dest="report", required=True)

    p_dist = an_sub.add_parser("dist", help="top-N word distribution per strategy")
    _add_input_args(p_dist)
    _add_masking_args(p_dist)
    p_dist.add_argument("--strategies", default=",".join(STRATEGIES),
                        help="comma-separated strategies to compare")
    p_dist.add_argument("--top-n", type=int, default=50)
    p_dist.add_argument("--output", help="CSV file to write")

    p_pos = an_sub.add_parser("pos", help="POS-category shares per strategy")
    _add_input_args(p_pos)
    _add_masking_args(p_pos)
    p_pos.add_argument("--strategies", default=",".join(STRATEGIES))
    p_pos.add_argument("--output", help="CSV file to write")

    p_budget = an_sub.add_parser("budget", help="image+text token budget")
    p_budget.add_argument("--image-mask-ratio", type=float, default=None,
                          help="single-row mode: image masking ratio in [0, 1) "
                               "(default 0.75; omit both flags for the standard sweep)")
    p_budget.add_argument("--text-keep", type=int, default=None,
                          help="single-row mode: kept text tokens (default 8)")
    # Their defaults, analysis.BASELINE_*, are applied in cmd_analyze, so
    # building the parser does not import the report code.
    p_budget.add_argument("--image-patches", type=int)
    p_budget.add_argument("--text-context", type=int)
    p_budget.add_argument("--output", help="CSV file to write")

    p_stats = an_sub.add_parser("stats", help="caption-length statistics")
    _add_input_args(p_stats)
    _add_pretagged_arg(p_stats)
    p_stats.add_argument("--output", help="CSV file to write")

    p_slots = an_sub.add_parser("slots", help="slot utilization per strategy")
    _add_input_args(p_slots)
    _add_masking_args(p_slots)
    p_slots.add_argument("--strategies", default=",".join(STRATEGIES))
    p_slots.add_argument("--output", help="CSV file to write")

    return parser


def _load_lexicon_arg(args: argparse.Namespace) -> TagMemo:
    """The command's lexicon in a fresh memo, shared by all its records."""
    if args.lexicon:
        return TagMemo(load_lexicon_file(args.lexicon))
    return TagMemo(DEFAULT_LEXICON)


def _parse_strategies(parser: argparse.ArgumentParser, value: str) -> list[str]:
    strategies = [s.strip() for s in value.split(",") if s.strip()]
    for s in strategies:
        if s not in STRATEGIES:
            parser.error(f"unknown strategy {s!r}; expected one of {', '.join(STRATEGIES)}")
    if not strategies:
        parser.error("no strategies given")
    return strategies


def _config(args: argparse.Namespace, strategy: str,
            table: FrequencyTable | None) -> MaskingConfig:
    """The command's config for ``strategy``; only frequency strategies get ``table``."""
    return MaskingConfig(strategy, k=args.k, t=args.t, seed=args.seed, epoch=args.epoch,
                         freq_table=table if strategy in FREQUENCY_STRATEGIES else None)


def _token_lists(args: argparse.Namespace) -> Iterator[list[str]]:
    """Each record's tokens, untagged."""
    for record in read_corpus(args.input, args.format):
        yield prepare_record(record.text, args.pretagged)[0]


# --- subcommands ---------------------------------------------------------------


def cmd_freq(args: argparse.Namespace) -> int:
    table = build_frequency_table(_token_lists(args))
    save_frequency_table(table, args.output)
    print(f"wrote {len(table)} words ({table.total} tokens) to {args.output}")
    return 0


def cmd_mask(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    if args.strategy in FREQUENCY_STRATEGIES and not args.freq_table:
        parser.error(f"--freq-table is required for strategy {args.strategy!r}")
    table = load_frequency_table(args.freq_table) if args.freq_table else None
    config = _config(args, args.strategy, table)
    lexicon = _load_lexicon_arg(args)
    output_format = args.output_format or args.format
    workers = _worker_count(args.threads, args.input)
    if workers > 1:
        # Imported only here, so serial runs neither load nor compile it.
        from . import shard

        def pairs_for(owns):
            records = (r for r in read_corpus(args.input, args.format) if owns(r.index))
            return mask_records(records, config, pretagged=args.pretagged, lexicon=lexicon)

        count = shard.write_sharded(pairs_for, args.output, output_format, workers)
    else:
        records = read_corpus(args.input, args.format)
        pairs = mask_records(records, config, pretagged=args.pretagged, lexicon=lexicon)
        count = write_masked(pairs, args.output, output_format)
    print(f"masked {count} captions -> {args.output}")
    return 0


def _worker_count(threads: int, input_path: str) -> int:
    """``--threads`` capped at the CPUs this process may use.

    1 without ``os.fork``, and 1 unless ``input_path`` is (or links to) a
    regular file: every worker opens the input itself, and a pipe, FIFO or
    device is one stream the workers would split between them.
    """
    if not hasattr(os, "fork") or not os.path.isfile(input_path):
        return 1
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    return min(threads, cpus)


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


def _emit_csv(args: argparse.Namespace, write) -> None:
    if args.output:
        with open_text_write(args.output) as fh:
            write(fh)
        print(f"wrote {args.output}")


def _analyze_corpus(args: argparse.Namespace, parser: argparse.ArgumentParser):
    """Prepare the corpus once; return it and one lazy, one-shot output stream per strategy."""
    strategies = _parse_strategies(parser, args.strategies)
    lexicon = _load_lexicon_arg(args)
    want_tags = "syntax" in strategies or args.report == "pos"
    # Records share one str per word type, so the corpus held across the
    # strategies costs a reference per token, not a string per token.
    words: dict[str, str] = {}
    prepared = []
    for record in read_corpus(args.input, args.format):
        tokens, tags = prepare_record(record.text, args.pretagged, lexicon, want_tags)
        prepared.append((list(map(words.setdefault, tokens, tokens)), tags))
    table = None
    if FREQUENCY_STRATEGIES.intersection(strategies):
        # Without --freq-table, the frequency strategies read this corpus's own counts.
        table = (load_frequency_table(args.freq_table) if args.freq_table
                 else build_frequency_table(tokens for tokens, _ in prepared))

    def stream(config: MaskingConfig) -> Iterator[MaskedOutput]:
        for i, (tokens, tags) in enumerate(prepared):
            yield _mask(tokens, tags, config, i)

    return prepared, {strategy: stream(_config(args, strategy, table)) for strategy in strategies}


def cmd_analyze(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    # Imported here, so the other commands never load the report code.
    from . import analysis

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
        print(f"{'image':>6} {'text':>5} {'total':>6} {'pct':>7}")
        for b in budgets:
            print(f"{b.image_tokens:>6} {b.text_tokens:>5} {b.total:>6} "
                  f"{analysis.round_half_up(b.percentage):>6.2f}%")
        _emit_csv(args, lambda fh: analysis.write_budget_csv(budgets, fh))
        return 0

    if args.report == "stats":
        stats = analysis.corpus_stats(_token_lists(args))
        print(f"samples      {stats.sample_count}")
        print(f"total words  {stats.total_words}")
        print(f"mean length  {stats.mean_length:.4f}")
        print(f"std length   {stats.std_length:.4f}")
        _emit_csv(args, lambda fh: analysis.write_stats_csv(stats, fh))
        return 0

    # Checked before the input is opened, as ``mask`` does.
    _check_k(args.k)
    validate_threshold(args.t)
    if args.report == "dist":
        analysis.check_top_n(args.top_n)
    prepared, masked = _analyze_corpus(args, parser)

    if args.report == "dist":
        report = analysis.distribution_report([tokens for tokens, _ in prepared], masked,
                                              args.top_n)
        width = max((len(r.word) for r in report.rows), default=4)
        header = f"{'rank':>4} {'word':<{width}} {'before':>8} " + " ".join(
            f"{s:>10}" for s in report.strategies)
        print(header)
        for row in report.rows:
            cells = " ".join(f"{row.after[s]:>10}" for s in report.strategies)
            print(f"{row.rank:>4} {row.word:<{width}} {row.before:>8} {cells}")
        _emit_csv(args, lambda fh: analysis.write_distribution_csv(report, fh))
        return 0

    if args.report == "pos":
        report = analysis.pos_share_report([tags for _, tags in prepared], masked)
        print(f"{'strategy':<12} " + " ".join(f"{c:>8}" for c in analysis.CATEGORIES)
              + f" {'total':>10}")
        for row in report.rows:
            shares = " ".join(
                f"{analysis.round_half_up(row.percentage(c)):>7.2f}%" for c in analysis.CATEGORIES)
            print(f"{row.label:<12} {shares} {row.total:>10}")
        _emit_csv(args, lambda fh: analysis.write_pos_csv(report, fh))
        return 0

    assert args.report == "slots"
    utilization = {s: analysis.slot_utilization(outputs, args.k) for s, outputs in masked.items()}
    for strategy, value in utilization.items():
        print(f"{strategy:<12} {value:.6f}")
    _emit_csv(args, lambda fh: analysis.write_slots_csv(utilization, fh))
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "freq":
            return cmd_freq(args)
        if args.command == "mask":
            return cmd_mask(args, parser)
        if args.command == "demo":
            return cmd_demo(args)
        assert args.command == "analyze"
        return cmd_analyze(args, parser)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
