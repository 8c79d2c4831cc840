"""Corpus data model and triplet-level evaluation.

Handles the plain-text review corpus format (one sentence per line,
``<tokens>####<triplet list>``), cross-corpus test-set deduplication, and
micro-averaged exact-match scoring of (aspect, opinion, polarity) triplets.
"""

from __future__ import annotations

import ast
import json
import logging
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Iterator, NamedTuple, Sequence

logger = logging.getLogger(__name__)

LINE_SEPARATOR = "####"

TRAIN_FILE_NAMES = ("train.txt", "train_triplets.txt")
VAL_FILE_NAMES = ("val.txt", "dev.txt", "dev_triplets.txt")
TEST_FILE_NAMES = ("test.txt", "test_triplets.txt")


class CorpusFormatError(ValueError):
    """A corpus line could not be parsed; carries the 1-based line number,
    and names the file when one is given."""

    def __init__(self, line_no: int, message: str, path: Path | None = None):
        super().__init__(f"{path} line {line_no}: {message}" if path else f"line {line_no}: {message}")
        self.line_no, self.message = line_no, message


class Polarity(str, Enum):
    POS = "POS"
    NEU = "NEU"
    NEG = "NEG"


class Span(NamedTuple):
    """Inclusive token-index interval [start, end]."""

    start: int
    end: int

    @property
    def width(self) -> int:
        return self.end - self.start + 1

    def contains(self, other: "Span") -> bool:
        return self.start <= other.start and other.end <= self.end


@dataclass(frozen=True)
class Triplet:
    aspect: Span
    opinion: Span
    polarity: Polarity


@dataclass(frozen=True)
class Sentence:
    """A tokenized sentence and its gold triplets, checked when built."""

    tokens: tuple[str, ...]
    triplets: tuple[Triplet, ...] = ()

    def __post_init__(self) -> None:
        if not self.tokens:
            raise ValueError("sentence has no tokens")
        if not all(self.tokens):
            raise ValueError("sentence contains an empty token")
        n = len(self.tokens)
        for t in self.triplets:
            for role, span in (("aspect", t.aspect), ("opinion", t.opinion)):
                if not (0 <= span.start <= span.end < n):
                    raise ValueError(f"{role} span {span.start}-{span.end} out of range for length {n}")
            if t.aspect == t.opinion:
                raise ValueError(f"aspect and opinion intervals coincide: {t.aspect}")

    @property
    def text(self) -> str:
        return " ".join(self.tokens)

    def __len__(self) -> int:
        return len(self.tokens)


@dataclass
class Corpus:
    """One review domain with its train/val/test splits."""

    name: str
    train: list[Sentence]
    val: list[Sentence]
    test: list[Sentence]

    def splits(self) -> Iterator[tuple[str, list[Sentence]]]:
        yield "train", self.train
        yield "val", self.val
        yield "test", self.test

    def split(self, name: str) -> list[Sentence]:
        try:
            return {"train": self.train, "val": self.val, "test": self.test}[name]
        except KeyError:
            raise KeyError(f"unknown split {name!r}") from None


def _parse_interval(raw: object, line_no: int, role: str) -> Span:
    if not isinstance(raw, list) or not raw or not all(isinstance(i, int) for i in raw):
        raise CorpusFormatError(line_no, f"{role} index list must be non-empty ints: {raw!r}")
    if raw != list(range(raw[0], raw[-1] + 1)):
        raise CorpusFormatError(line_no, f"{role} indices not contiguous ascending: {raw!r}")
    return Span(raw[0], raw[-1])


def _parse_line(line: str, line_no: int) -> Sentence:
    head, sep, tail = line.rpartition(LINE_SEPARATOR)
    if not sep:
        raise CorpusFormatError(line_no, f"missing {LINE_SEPARATOR!r} separator")
    try:
        entries = ast.literal_eval(tail.strip())
    except (ValueError, SyntaxError) as exc:
        raise CorpusFormatError(line_no, f"unreadable triplet list: {exc}") from exc
    if not isinstance(entries, list):
        raise CorpusFormatError(line_no, "triplet list must be a bracketed sequence")
    triplets = []
    for entry in entries:
        if not isinstance(entry, tuple) or len(entry) != 3:
            raise CorpusFormatError(line_no, f"triplet entry must be a 3-tuple: {entry!r}")
        aspect = _parse_interval(entry[0], line_no, "aspect")
        opinion = _parse_interval(entry[1], line_no, "opinion")
        try:
            polarity = Polarity(entry[2])
        except ValueError:
            raise CorpusFormatError(line_no, f"unknown polarity {entry[2]!r}") from None
        triplets.append(Triplet(aspect, opinion, polarity))
    try:
        return Sentence(tuple(head.split()), tuple(triplets))
    except ValueError as exc:
        raise CorpusFormatError(line_no, str(exc)) from exc


def parse_corpus(text: str) -> list[Sentence]:
    """Parse file contents in the ``<sentence>####<triplets>`` line format."""
    sentences = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if line:
            sentences.append(_parse_line(line, line_no))
    return sentences


def serialize_sentence(sentence: Sentence) -> str:
    if bad := [tok for tok in sentence.tokens if tok.split() != [tok]]:
        raise ValueError(f"token {bad[0]!r} contains whitespace and cannot be written")
    entries = [
        (
            list(range(t.aspect.start, t.aspect.end + 1)),
            list(range(t.opinion.start, t.opinion.end + 1)),
            t.polarity.value,
        )
        for t in sentence.triplets
    ]
    return f"{sentence.text}{LINE_SEPARATOR}{entries!r}"


def serialize_corpus(sentences: Sequence[Sentence]) -> str:
    return "".join(serialize_sentence(s) + "\n" for s in sentences)


def _find_split_file(directory: Path, candidates: Sequence[str]) -> Path | None:
    for name in candidates:
        path = directory / name
        if path.is_file():
            return path
    return None


def repeated_names(names: Sequence[str]) -> list[str]:
    """The names that occur more than once, sorted."""
    return sorted({name for name in names if names.count(name) > 1})


def read_corpus_dir(directory: str | Path, name: str | None = None) -> Corpus:
    """Load a corpus from a directory holding train/val(or dev)/test files."""
    directory = Path(directory)
    splits = {}
    for split, candidates in (
        ("train", TRAIN_FILE_NAMES),
        ("val", VAL_FILE_NAMES),
        ("test", TEST_FILE_NAMES),
    ):
        path = _find_split_file(directory, candidates)
        if path is None:
            raise FileNotFoundError(f"no {split} file in {directory} (tried {candidates})")
        try:
            splits[split] = parse_corpus(path.read_text(encoding="utf-8"))
        except CorpusFormatError as exc:
            raise CorpusFormatError(exc.line_no, exc.message, path) from None
        except UnicodeDecodeError as exc:
            raise ValueError(f"{path}: {exc}") from None
    return Corpus(name or directory.name, splits["train"], splits["val"], splits["test"])


def write_corpus_dir(corpus: Corpus, directory: str | Path) -> None:
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    for split, sentences in corpus.splits():
        (directory / f"{split}.txt").write_text(serialize_corpus(sentences), encoding="utf-8")


@dataclass(frozen=True)
class DedupEntry:
    corpus: str
    split: str
    before: int
    after: int


def deduplicate(
    corpora: Sequence[Corpus], case_sensitive: bool = True
) -> tuple[list[Corpus], list[DedupEntry]]:
    """Drop train/val sentences whose token sequence appears in any test split.

    Matching is on the exact whitespace token sequence; set
    ``case_sensitive=False`` to compare casefolded tokens instead.
    """
    if not corpora:
        raise ValueError("need at least one corpus")

    def key(sentence: Sentence) -> tuple[str, ...]:
        if case_sensitive:
            return sentence.tokens
        return tuple(tok.casefold() for tok in sentence.tokens)

    test_keys = {key(s) for corpus in corpora for s in corpus.test}
    cleaned = []
    report = []
    for corpus in corpora:
        new_splits = {}
        for split, sentences in corpus.splits():
            if split == "test":
                kept = list(sentences)
            else:
                kept = [s for s in sentences if key(s) not in test_keys]
            new_splits[split] = kept
            report.append(DedupEntry(corpus.name, split, len(sentences), len(kept)))
        cleaned.append(Corpus(corpus.name, new_splits["train"], new_splits["val"], new_splits["test"]))
    return cleaned, report


def dedup_report_json(report: Sequence[DedupEntry]) -> str:
    rows = [
        {"corpus": e.corpus, "split": e.split, "before": e.before, "after": e.after}
        for e in report
    ]
    return json.dumps(rows, indent=2)


@dataclass(frozen=True)
class TripletMetrics:
    precision: float
    recall: float
    f1: float
    tp: int
    fp: int
    fn: int

    @classmethod
    def from_counts(cls, tp: int, fp: int, fn: int) -> "TripletMetrics":
        precision = tp / (tp + fp) if tp + fp > 0 else 0.0
        recall = tp / (tp + fn) if tp + fn > 0 else 0.0
        if precision + recall > 0:
            f1 = 2 * precision * recall / (precision + recall)
        else:
            f1 = 0.0
        return cls(precision, recall, f1, tp, fp, fn)


def evaluate_triplets(
    pred: Sequence[Sequence[Triplet]], gold: Sequence[Sequence[Triplet]]
) -> TripletMetrics:
    """Micro-averaged exact-match precision/recall/F1 over aligned sentences.

    Duplicate triplets within one sentence count once on either side.
    """
    if len(pred) != len(gold):
        raise ValueError(f"pred has {len(pred)} sentences, gold has {len(gold)}")
    tp = fp = fn = 0
    for pred_row, gold_row in zip(pred, gold):
        pred_set = set(pred_row)
        gold_set = set(gold_row)
        tp += len(pred_set & gold_set)
        fp += len(pred_set - gold_set)
        fn += len(gold_set - pred_set)
    return TripletMetrics.from_counts(tp, fp, fn)
