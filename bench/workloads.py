"""Seeded input corpora and the textmask command jobs run on them.

Everything here is standard library only. A workload's inputs depend on
nothing but its seed, so two checkouts given the same seed time the same
bytes. ``prepare`` writes the inputs into a work directory and returns the
``Job``: the commands set-up runs once, the commands a timed repeat runs,
the parallel rerun and the one-caption variant that measures start-up.
"""

from __future__ import annotations

import gzip
import json
import random
from dataclasses import dataclass
from pathlib import Path

VOCAB_SIZE = 20_000
ZIPF_EXPONENT = 1.0
MIN_WORDS = 4
MAX_WORDS = 40
K = 8

# Function words take the head of the Zipf ranking, as in real captions.
HEAD_WORDS = (
    "a the of on in with and is at an two are to its his her while near "
    "by from some white black red blue man woman dog people"
).split()
SYLLABLES = (
    "ba be bi bo bu ca ce co da de di do fa fe fi ga go ha he hi ka ke ki "
    "ko la le li lo lu ma me mi mo mu na ne ni no pa pe pi po ra re ri ro "
    "sa se si so ta te ti to va ve vi wa we ya zo"
).split()
# Accented syllables stay on the tokenizer's fast path (``isalnum`` is
# true); the decorations in ``_decorate`` are what leave it.
UNICODE_SYLLABLES = SYLLABLES + "zé mü ño çe rø ší ła ğı".split()
# Suffixes the heuristic tagger keys on (VB, JJ) plus plain noun endings.
SUFFIXES = "ing ed ize ous ful ive able al er s ly".split()
EMOJI = "🐶 🌅 🚲 ☕ 🎉 ❤".split()

STRATEGIES = ("truncation", "random", "block", "syntax", "frequency", "swclip")
WORKLOADS = ("mask-frequency", "analyze-compare", "prep-jsonl-gz")

# Captions per workload, sized so one timed repeat takes a few seconds on
# two cores and a run holds several repeats.
CAPTIONS = {"mask-frequency": 10_000, "analyze-compare": 2_000, "prep-jsonl-gz": 8_000}


def make_vocab(rng: random.Random, size: int, syllables: list[str]) -> list[str]:
    """``size`` distinct words, most frequent first."""
    words = list(HEAD_WORDS)
    seen = set(words)
    while len(words) < size:
        word = "".join(rng.choice(syllables) for _ in range(1 + int(rng.random() * 3)))
        if rng.random() < 0.25:
            word += rng.choice(SUFFIXES)
        if word not in seen:
            seen.add(word)
            words.append(word)
    return words


def zipf_cum_weights(size: int, exponent: float) -> list[float]:
    cum, total = [], 0.0
    for rank in range(1, size + 1):
        total += 1.0 / rank ** exponent
        cum.append(total)
    return cum


def _caption_words(rng: random.Random, vocab: list[str], cum: list[float]) -> list[str]:
    n = MIN_WORDS + int(rng.random() * (MAX_WORDS - MIN_WORDS + 1))
    return rng.choices(vocab, cum_weights=cum, k=n)


def plain_caption(rng: random.Random, vocab: list[str], cum: list[float]) -> str:
    words = _caption_words(rng, vocab, cum)
    words[0] = words[0].capitalize()
    return " ".join(words) + "."


def _decorate(rng: random.Random, word: str) -> str:
    u = rng.random()
    if u < 0.12:
        return word + rng.choice((",", ";", ":"))
    if u < 0.17:
        return word + "'s"
    if u < 0.21:
        return f"“{word}”"
    if u < 0.24:
        return word + rng.choice(EMOJI)
    if u < 0.26:
        return f"({word})"
    if u < 0.28:
        return f"{word}#{int(rng.random() * 100)}"
    return word


def web_caption(rng: random.Random, vocab: list[str], cum: list[float]) -> str:
    """Web-style caption: punctuation, quotes, emoji and hyphenation."""
    words = [_decorate(rng, w) for w in _caption_words(rng, vocab, cum)]
    joined = [words[0].capitalize()]
    for word in words[1:]:
        if rng.random() < 0.05:
            joined[-1] += "-" + word
        else:
            joined.append(word)
    return " ".join(joined) + rng.choice((".", "!", "...", " 📷", ""))


def slow_path_share(captions: list[str]) -> float:
    """Share of whitespace chunks that are not ``isalnum()``."""
    chunks = slow = 0
    for text in captions:
        for chunk in text.lower().split():
            chunks += 1
            slow += not chunk.isalnum()
    return slow / chunks if chunks else 0.0


@dataclass
class Corpus:
    path: Path
    format: str
    ids: list[str]
    captions: list[str]

    def write(self) -> None:
        if self.format == "plain":
            with open(self.path, "w", encoding="utf-8", newline="\n") as fh:
                fh.writelines(c + "\n" for c in self.captions)
            return
        lines = "".join(json.dumps({"id": i, "caption": c}, ensure_ascii=False) + "\n"
                        for i, c in zip(self.ids, self.captions))
        # mtime=0 keeps the input bytes a function of the seed alone.
        with open(self.path, "wb") as raw, \
                gzip.GzipFile(filename="", mode="wb", fileobj=raw, mtime=0) as fh:
            fh.write(lines.encode("utf-8"))


@dataclass(frozen=True)
class Command:
    """One textmask invocation and what it writes.

    ``kind`` selects the output check: "masked" (a masked corpus of
    ``strategy``), "table" (a frequency table) or "csv" (an analyze report
    over ``STRATEGIES``).
    """

    label: str
    argv: tuple[str, ...]
    corpus: Path
    output: Path
    kind: str
    strategy: str | None = None

    def parallel(self, threads: int) -> "Command":
        """The same command at ``--threads threads``, writing a sibling file."""
        output = self.output.with_name("par." + self.output.name)
        argv = tuple(str(output) if a == str(self.output) else a for a in self.argv)
        return Command(f"{self.label}-parallel", argv + ("--threads", str(threads)),
                       self.corpus, output, self.kind, self.strategy)


@dataclass
class Job:
    workload: str
    corpus: Corpus
    one: Corpus
    properties: dict
    commands: list[Command]
    setup_commands: list[Command]
    reference: Command
    parallel: Command
    prebuild: list[Command]
    inputs: dict[Path, Corpus]


def _mask(label: str, corpus: Corpus, strategy: str, output: Path, table: Path | None = None) -> Command:
    argv = ("mask", "--input", str(corpus.path), "--format", corpus.format, "--strategy", strategy,
            "--k", str(K), "--seed", "0", "--output", str(output))
    if table is not None:
        argv += ("--freq-table", str(table))
    return Command(label, argv, corpus.path, output, "masked", strategy)


def _freq(label: str, corpus: Corpus, output: Path) -> Command:
    argv = ("freq", "--input", str(corpus.path), "--format", corpus.format, "--output", str(output))
    return Command(label, argv, corpus.path, output, "table")


def _analyze(report: str, corpus: Corpus, output: Path) -> Command:
    argv = ("analyze", report, "--input", str(corpus.path), "--format", corpus.format,
            "--k", str(K), "--seed", "0", "--strategies", ",".join(STRATEGIES), "--output", str(output))
    return Command(f"analyze-{report}", argv, corpus.path, output, "csv")


def _commands(workload: str, corpus: Corpus, out: str, table: Path) -> list[Command]:
    """The timed commands of one repeat; ``out`` prefixes every output path."""
    if workload == "mask-frequency":
        return [_mask("mask-frequency", corpus, "frequency", Path(out + "frequency.txt"), table),
                _mask("mask-swclip", corpus, "swclip", Path(out + "swclip.txt"), table)]
    if workload == "analyze-compare":
        return [_analyze(r, corpus, Path(f"{out}{r}.csv")) for r in ("dist", "pos", "slots")]
    return [_freq("freq", corpus, Path(out + "prep.freq")),
            _mask("mask-syntax", corpus, "syntax", Path(out + "syntax.jsonl.gz"))]


def prepare(workload: str, seed: int, workdir: Path, nproc: int) -> Job:
    """Generate ``workload``'s inputs from ``seed`` under ``workdir``."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
    n = CAPTIONS[workload]
    rng = random.Random(f"{workload}:{seed}")
    workdir.mkdir(parents=True, exist_ok=True)
    web = workload == "prep-jsonl-gz"
    vocab = make_vocab(rng, VOCAB_SIZE, UNICODE_SYLLABLES if web else SYLLABLES)
    cum = zipf_cum_weights(len(vocab), ZIPF_EXPONENT)
    make = web_caption if web else plain_caption
    texts = [make(rng, vocab, cum) for _ in range(n)]
    if web:
        ids = [f"shard{rng.getrandbits(4):02d}/{i:07d}_{rng.getrandbits(32):08x}.jpg" for i in range(n)]
        corpus = Corpus(workdir / "corpus.jsonl.gz", "jsonl", ids, texts)
        one = Corpus(workdir / "one.jsonl.gz", "jsonl", ids[:1], texts[:1])
    else:
        ids = [str(i) for i in range(n)]
        corpus = Corpus(workdir / "corpus.txt", "plain", ids, texts)
        one = Corpus(workdir / "one.txt", "plain", ids[:1], texts[:1])
    corpus.write()
    one.write()
    properties = {
        "captions": n,
        "vocabulary": VOCAB_SIZE,
        "zipf_exponent": ZIPF_EXPONENT,
        "words_per_caption": [MIN_WORDS, MAX_WORDS],
        "slow_path_chunk_share": round(slow_path_share(texts), 4),
        "format": corpus.format,
        "compression": "gzip" if web else "none",
        "k": K,
    }

    prebuild = []
    inputs = {corpus.path: corpus, one.path: one}
    table = workdir / "shard.freq"
    if workload == "mask-frequency":
        # The table comes from a held-out shard of the same distribution, so
        # the rarest words of the masked corpus are unknown to it.
        shard = Corpus(workdir / "table-shard.txt", "plain", ids,
                       [make(rng, vocab, cum) for _ in range(n)])
        shard.write()
        inputs[shard.path] = shard
        prebuild.append(_freq("freq-table-shard", shard, table))
        properties["table_captions"] = n

    commands = _commands(workload, corpus, f"{workdir}/", table)
    if workload == "analyze-compare":
        # analyze has no --threads, so the thread pool is timed on a syntax
        # mask of a larger corpus of the same shape (a short command times
        # mostly thread start-up), checked against its serial run from set-up.
        masked = Corpus(workdir / "mask-corpus.txt", "plain", [str(i) for i in range(3 * n)],
                        [make(rng, vocab, cum) for _ in range(3 * n)])
        masked.write()
        inputs[masked.path] = masked
        properties["parallel_mask_captions"] = len(masked.captions)
        reference = _mask("mask-syntax", masked, "syntax", workdir / "syntax.txt")
    else:
        reference = next(c for c in commands if c.argv[0] == "mask")
    return Job(
        workload=workload,
        corpus=corpus,
        one=one,
        properties=properties,
        commands=commands,
        setup_commands=_commands(workload, one, f"{workdir}/one.", table),
        reference=reference,
        parallel=reference.parallel(nproc),
        prebuild=prebuild,
        inputs=inputs,
    )
