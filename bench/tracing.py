"""Outside-in tracing of textmask's layers for the benchmark's traced run.

``instrumented(tracer)`` replaces, for the duration of a ``with`` block,
the public functions that ``textmask.cli`` and ``textmask.analysis`` call
with timing wrappers, and restores them afterwards. Nothing under ``src/``
knows about the tracer. Generators are wrapped so that each ``next()`` is
one timed call.

Every wrapped call, and every block timed by ``Tracer.span``, is
timed against a stack of open calls: a call's self time is its duration
minus the durations of the wrapped calls made inside it. Per-layer
(calls, busy, self) accumulators hold the result; each command also gets
a span with a parent id. Counting done by the wrappers is charged to the
"trace.hooks" layer, not to the caller, so the self times of all layers
add up to the commands' wall time.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import os
import time
from collections import Counter
from dataclasses import dataclass, field

clock = time.perf_counter


@dataclass
class Layer:
    calls: int = 0
    busy: float = 0.0
    self_s: float = 0.0


@dataclass
class Span:
    id: int
    parent: int | None
    name: str
    start: float
    end: float
    self_s: float


@dataclass
class Tracer:
    layers: dict[str, Layer] = field(default_factory=dict)
    counts: Counter = field(default_factory=Counter)
    spans: list[Span] = field(default_factory=list)
    # Child time accumulated by each open call, innermost last.
    _stack: list[float] = field(default_factory=list)
    _ids: itertools.count = field(default_factory=lambda: itertools.count(1))

    def layer(self, name: str) -> Layer:
        return self.layers.setdefault(name, Layer())

    def _close(self, layer: Layer, start: float, end: float) -> float:
        """Pop the innermost open call, charge it, and return its self time."""
        elapsed = end - start
        child = self._stack.pop()
        layer.calls += 1
        layer.busy += elapsed
        layer.self_s += elapsed - child
        if self._stack:
            self._stack[-1] += elapsed
        return elapsed - child

    def _hook(self, hook, *args) -> None:
        start = clock()
        hook(self.counts, *args)
        elapsed = clock() - start
        hooks = self.layer("trace.hooks")
        hooks.calls += 1
        hooks.busy += elapsed
        hooks.self_s += elapsed
        if self._stack:
            self._stack[-1] += elapsed

    def wrap(self, name: str, fn, hook=None):
        layer = self.layer(name)

        def traced(*args, **kwargs):
            self._stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(layer, start, clock())
            if hook is not None:
                self._hook(hook, args, result)
            return result

        return traced

    def wrap_generator(self, name: str, fn, hook=None):
        layer = self.layer(name)

        def items(it):
            try:
                while True:
                    self._stack.append(0.0)
                    start = clock()
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        self._close(layer, start, clock())
                    if hook is not None:
                        self._hook(hook, item)
                    yield item
            finally:
                it.close()

        return lambda *args, **kwargs: items(fn(*args, **kwargs))

    @contextlib.contextmanager
    def span(self, name: str, layer: str, parent: int | None = None):
        """Time a block as span ``name``; its self time goes to ``layer``."""
        span_id = next(self._ids)
        self._stack.append(0.0)
        start = clock()
        try:
            yield span_id
        finally:
            end = clock()
            self_s = self._close(self.layer(layer), start, end)
            self.spans.append(Span(span_id, parent, name, start, end, self_s))

    def self_total(self) -> float:
        return sum(layer.self_s for layer in self.layers.values())


# --- counting hooks: (counts, call args, result) ------------------------------


def _count_tokens(counts, args, result):
    counts["tokens"] += len(result)


def _count_tags(counts, args, result):
    counts["tags"] += len(result)


def _count_mask(counts, args, result):
    tokens, config = args[0], args[1]
    n = len(tokens)
    counts["mask_tokens_in"] += n
    counts["mask_tokens_kept"] += len(result.kept)
    if n:
        counts["slot_records"] += 1
        counts["slot_fill"] += len(result.kept) / min(n, config.k)
    if config.freq_table is not None:
        known = config.freq_table.counts
        counts["lookup_tokens"] += n
        counts["unknown_tokens"] += sum(1 for tok in tokens if tok not in known)


def _count_write(counts, args, result):
    counts["records_written"] += result
    counts["bytes_written"] += os.path.getsize(args[1])


def _count_table(counts, args, result):
    counts["table_words"] = max(counts["table_words"], len(result))


def _count_read(counts, record):
    counts["records_read"] += 1


@contextlib.contextmanager
def instrumented(tracer: Tracer):
    """Route textmask's layer calls through ``tracer`` inside the block."""
    from textmask import analysis, cli

    plain = [
        (cli, "prepare_record", "cli.prepare_record", None),
        (cli, "tokenize", "tokenizer.tokenize", _count_tokens),
        (cli, "tag", "postag.tag", _count_tags),
        (cli, "record_seed", "maskers.record_seed", None),
        (cli, "apply_mask", "maskers.apply_mask", _count_mask),
        (cli, "write_masked", "corpus_io.write_masked", _count_write),
        (cli, "build_frequency_table", "freq.build_frequency_table", _count_table),
        (cli, "load_frequency_table", "freq.load_frequency_table", _count_table),
        (cli, "save_frequency_table", "freq.save_frequency_table", None),
        (analysis, "distribution_report", "analysis.distribution_report", None),
        (analysis, "pos_share_report", "analysis.pos_share_report", None),
        (analysis, "slot_utilization", "analysis.slot_utilization", None),
    ]
    generators = [
        (cli, "read_corpus", "corpus_io.read_corpus", _count_read),
        (cli, "mask_records", "cli.mask_records", None),
    ]
    saved = [(module, attr, getattr(module, attr)) for module, attr, _, _ in plain + generators]
    try:
        for module, attr, name, hook in plain:
            setattr(module, attr, tracer.wrap(name, getattr(module, attr), hook))
        for module, attr, name, hook in generators:
            setattr(module, attr, tracer.wrap_generator(name, getattr(module, attr), hook))
        yield tracer
    finally:
        for module, attr, original in saved:
            setattr(module, attr, original)


def run_command(argv, label: str, tracer: Tracer | None = None, parent: int | None = None) -> int:
    """Run ``textmask.cli.main(argv)`` in this process, its stdout discarded.

    With a tracer the command is span ``label`` whose self time goes to
    layer "cli.<subcommand>"; the caller must have entered
    ``instrumented(tracer)``.
    """
    from textmask import cli

    with contextlib.redirect_stdout(io.StringIO()):
        if tracer is None:
            return cli.main(list(argv))
        with tracer.span(label, f"cli.{argv[0]}", parent):
            return cli.main(list(argv))


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """The benchmark's per-layer metrics from one traced repeat."""
    c = tracer.counts

    def _busy(name: str) -> float:
        return tracer.layer(name).busy

    def _self(name: str) -> float:
        return tracer.layer(name).self_s

    return {
        "maskers.apply_mask_s": _busy("maskers.apply_mask"),
        "maskers.record_seed_s": _busy("maskers.record_seed"),
        "maskers.apply_mask_calls": tracer.layer("maskers.apply_mask").calls,
        "maskers.tokens_in": c["mask_tokens_in"],
        "maskers.tokens_kept": c["mask_tokens_kept"],
        "maskers.slot_utilization": c["slot_fill"] / c["slot_records"] if c["slot_records"] else 1.0,
        "tokenizer.tokenize_s": _busy("tokenizer.tokenize"),
        "tokenizer.tokens": c["tokens"],
        "postag.tag_s": _busy("postag.tag"),
        "postag.tags": c["tags"],
        "freq.build_s": _self("freq.build_frequency_table"),
        "freq.save_s": _self("freq.save_frequency_table"),
        "freq.load_s": _self("freq.load_frequency_table"),
        "freq.table_words": c["table_words"],
        "freq.unknown_token_ratio": c["unknown_tokens"] / c["lookup_tokens"] if c["lookup_tokens"] else 0.0,
        "corpus_io.read_s": _self("corpus_io.read_corpus"),
        "corpus_io.write_s": _self("corpus_io.write_masked"),
        "corpus_io.records_read": c["records_read"],
        "corpus_io.records_written": c["records_written"],
        "corpus_io.bytes_written": c["bytes_written"],
        "analysis.distribution_report_s": _busy("analysis.distribution_report"),
        "analysis.pos_share_report_s": _busy("analysis.pos_share_report"),
        "analysis.slot_utilization_s": _busy("analysis.slot_utilization"),
        "cli.mask_records_self_s": _self("cli.mask_records"),
        "cli.prepare_record_self_s": _self("cli.prepare_record"),
        "cli.analyze_self_s": _self("cli.analyze"),
    }
