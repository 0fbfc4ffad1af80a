"""Inverted index with collection statistics and a forward store.

The postings are stored once, as CSR columns: a term -> row map over rows in
sorted term order, int64 row offsets, and int32 doc ids and counts, each row
in ascending doc order.  ``CollectionIndex.postings`` shows them as a
read-only mapping of (doc, count) lists.  The forward store (doc -> term
counts) sits alongside the postings because the feedback estimators need full
term vectors of judged documents.  The index is immutable once built and safe
to share across threads.
"""

from __future__ import annotations

import json
import re
from array import array
from collections import defaultdict
from collections.abc import Mapping
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Iterator

import numpy as np

from .corpus_io import TermSequence

FORMAT_VERSION = 2
# the collection statistics a manifest records, checked on load
_MANIFEST_COUNTS = ("num_docs", "total_terms", "vocab_size")

# the snapshot separates fields and pairs by whitespace and rows by lines
_has_whitespace = re.compile(r"\s").search
# the doc:count pairs of a postings row; 18 digits keep every value an int64
_PAIR = r"-?[0-9]{1,18}:-?[0-9]{1,18}"
_is_pair_list = re.compile(rf"(?:{_PAIR}(?: {_PAIR})*)?").fullmatch


class IndexDataError(ValueError):
    """Raised on malformed input to index construction or snapshot IO."""


@dataclass(frozen=True)
class CollectionStats:
    num_docs: int
    total_terms: int
    avg_doc_len: float
    vocab_size: int


def _frozen(column: np.ndarray) -> np.ndarray:
    column.flags.writeable = False
    return column


class Postings(Mapping):
    """term -> [(doc, count), ...] over CSR columns: row ``rows[term]`` is
    ``docs[offsets[row]:offsets[row + 1]]`` and the same slice of ``counts``."""

    def __init__(self, terms: list[str], offsets: np.ndarray, docs: np.ndarray, counts: np.ndarray):
        self.rows = {term: row for row, term in enumerate(terms)}
        self.offsets = _frozen(offsets.astype(np.int64, copy=False))
        self.docs = _frozen(docs.astype(np.int32, copy=False))
        self.counts = _frozen(counts.astype(np.int32, copy=False))

    def columns(self, term: str) -> tuple[np.ndarray, np.ndarray]:
        """The doc ids and counts of a term, empty for a term in no document."""
        row = self.rows.get(term)
        if row is None:
            return self.docs[:0], self.counts[:0]
        start, end = self.offsets[row], self.offsets[row + 1]
        return self.docs[start:end], self.counts[start:end]

    def __getitem__(self, term: str) -> list[tuple[int, int]]:
        if term not in self.rows:
            raise KeyError(term)
        docs, counts = self.columns(term)
        return list(zip(docs.tolist(), counts.tolist()))

    def __iter__(self) -> Iterator[str]:
        return iter(self.rows)

    def __len__(self) -> int:
        return len(self.rows)

    def __contains__(self, term: object) -> bool:
        return term in self.rows

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Postings):
            return super().__eq__(other)
        return (
            self.rows == other.rows
            and np.array_equal(self.offsets, other.offsets)
            and np.array_equal(self.docs, other.docs)
            and np.array_equal(self.counts, other.counts)
        )


class CollectionIndex:
    """Postings, lengths, forward vectors, and per-term statistics.

    ``analysis`` records how the collection text was normalized (stemmer
    name, stoplist) so queries can be normalized identically later.
    ``doc_length_array`` holds ``doc_lengths`` as float64 and
    ``doc_id_rank`` each document's place in ascending doc_id order, for
    scoring and ranking on arrays.
    """

    def __init__(
        self,
        doc_ids: list[str],
        doc_lengths: list[int],
        postings: Postings,
        forward: list[dict[str, int]],
        analysis: dict | None = None,
    ) -> None:
        self.doc_ids = doc_ids
        self.doc_lengths = doc_lengths
        self.postings = postings
        self.forward = forward
        self.analysis = analysis or {}
        self._internal = {doc_id: i for i, doc_id in enumerate(doc_ids)}
        self.doc_length_array = _frozen(np.array(doc_lengths, dtype=np.float64))
        rank = np.empty(len(doc_ids), dtype=np.int64)
        rank[sorted(range(len(doc_ids)), key=doc_ids.__getitem__)] = np.arange(len(doc_ids))
        self.doc_id_rank = _frozen(rank)
        offsets = postings.offsets
        self._df = np.diff(offsets).tolist()
        running = np.concatenate(([0], np.cumsum(postings.counts, dtype=np.int64)))
        self._cf = (running[offsets[1:]] - running[offsets[:-1]]).tolist()
        num_docs = len(doc_ids)
        total = sum(doc_lengths)
        avgdl = total / num_docs if num_docs else 0.0
        self.stats = CollectionStats(num_docs, total, avgdl, len(postings))

    @property
    def num_docs(self) -> int:
        return len(self.doc_ids)

    def internal_id(self, doc_id: str) -> int:
        try:
            return self._internal[doc_id]
        except KeyError:
            raise IndexDataError(f"unknown doc_id {doc_id!r}") from None

    def has_doc(self, doc_id: str) -> bool:
        return doc_id in self._internal

    def df(self, term: str) -> int:
        row = self.postings.rows.get(term)
        return 0 if row is None else self._df[row]

    def cf(self, term: str) -> int:
        row = self.postings.rows.get(term)
        return 0 if row is None else self._cf[row]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CollectionIndex):
            return NotImplemented
        return (
            self.doc_ids == other.doc_ids
            and self.doc_lengths == other.doc_lengths
            and self.postings == other.postings
            and self.forward == other.forward
            and self.analysis == other.analysis
        )


def build_index(docs: Iterable[TermSequence], analysis: dict | None = None) -> CollectionIndex:
    """Build an index from term sequences; deterministic given input order."""
    doc_ids: list[str] = []
    doc_lengths: list[int] = []
    forward: list[dict[str, int]] = []
    # each document's term ids (in order of first use) and counts, and how many
    term_ids: defaultdict[str, int] = defaultdict()
    term_ids.default_factory = term_ids.__len__
    term_column, count_column, sizes = array("i"), array("i"), array("i")
    seen: set[str] = set()
    for seq in docs:
        if seq.doc_id in seen:
            raise IndexDataError(f"duplicate doc_id {seq.doc_id!r}")
        if _has_whitespace(seq.doc_id):
            raise IndexDataError(f"doc_id {seq.doc_id!r} contains whitespace")
        seen.add(seq.doc_id)
        doc_ids.append(seq.doc_id)
        doc_lengths.append(len(seq.terms))
        counts: dict[str, int] = {}
        for term in seq.terms:
            counts[term] = counts.get(term, 0) + 1
        forward.append(counts)
        term_column.extend(map(term_ids.__getitem__, counts))
        count_column.extend(counts.values())
        sizes.append(len(counts))
    terms = sorted(term_ids)
    # the smallest unsigned type that holds a row lets numpy radix-sort small vocabularies
    row_of_id = np.empty(len(terms), dtype=np.min_scalar_type(len(terms)))
    row_of_id[[term_ids[term] for term in terms]] = np.arange(len(terms))
    rows = row_of_id[np.frombuffer(term_column, dtype=np.int32)]
    # a stable sort keeps each row's postings in ascending doc order
    order = np.argsort(rows, kind="stable")
    offsets = np.zeros(len(terms) + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=len(terms)), out=offsets[1:])
    doc_column = np.repeat(np.arange(len(doc_ids), dtype=np.int32), np.frombuffer(sizes, dtype=np.int32))
    counts = np.frombuffer(count_column, dtype=np.int32)
    postings = Postings(terms, offsets, doc_column[order], counts[order])
    for row, term in enumerate(terms):
        if _has_whitespace(term):
            doc_id = doc_ids[postings.docs[offsets[row]]]
            raise IndexDataError(f"doc {doc_id!r} has a term with whitespace: {term!r}")
    return CollectionIndex(doc_ids, doc_lengths, postings, forward, analysis)


def doc_vector(index: CollectionIndex, doc_id: str) -> dict[str, int]:
    """Exact term counts of one document."""
    return dict(index.forward[index.internal_id(doc_id)])


def save_index(index: CollectionIndex, directory: str | Path) -> None:
    """Write a snapshot: doc table, postings, manifest.  The old manifest goes
    first, so ``load_index`` rejects a save that died midway, and with it the
    two files only format 1 wrote."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    manifest_path = directory / "manifest.json"
    for name in ("manifest.json", "lexicon.tsv", "forward.tsv"):
        (directory / name).unlink(missing_ok=True)
    with open(directory / "docs.tsv", "w", encoding="utf-8") as handle:
        for doc_id, length in zip(index.doc_ids, index.doc_lengths):
            handle.write(f"{doc_id}\t{length}\n")
    postings = index.postings
    docs, counts = postings.docs.tolist(), postings.counts.tolist()
    offsets = postings.offsets.tolist()
    with open(directory / "postings.tsv", "w", encoding="utf-8") as handle:
        for term, start, end in zip(postings, offsets, offsets[1:]):
            pairs = zip(docs[start:end], counts[start:end])
            handle.write(f"{term}\t{' '.join([f'{doc}:{count}' for doc, count in pairs])}\n")
    manifest = {key: getattr(index.stats, key) for key in _MANIFEST_COUNTS}
    manifest.update(format_version=FORMAT_VERSION, analysis=index.analysis)
    manifest_path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n", "utf-8")


def load_index(directory: str | Path) -> CollectionIndex:
    """Read a snapshot; the forward store is the transposed postings, each
    document's counts in sorted term order."""
    directory = Path(directory)
    manifest_path = directory / "manifest.json"
    if not manifest_path.exists():
        raise IndexDataError(f"no index snapshot at {directory} (missing manifest.json)")
    manifest = json.loads(manifest_path.read_text("utf-8"))
    version = manifest.get("format_version")
    if version != FORMAT_VERSION:
        raise IndexDataError(
            f"snapshot format version {version} does not match supported version "
            f"{FORMAT_VERSION}; re-index the collection with `irfkit index`"
        )
    docs_path = directory / "docs.tsv"
    doc_rows = _read_rows(docs_path, "doc_id<TAB>length", _parse_doc_row)
    doc_ids = [doc_id for doc_id, _ in doc_rows]
    doc_lengths = [length for _, length in doc_rows]
    first_line: dict[str, int] = {}
    for lineno, doc_id in enumerate(doc_ids, 1):
        if first_line.setdefault(doc_id, lineno) != lineno:
            raise IndexDataError(
                f"{docs_path}:{lineno}: doc {doc_id!r} is already on line {first_line[doc_id]}"
            )
    postings_path = directory / "postings.tsv"
    rows = _read_rows(postings_path, "term<TAB>doc:count ...", _parse_postings_row)
    terms = [term for term, _ in rows]
    for lineno, (before, term) in enumerate(zip(terms, terms[1:]), 2):
        if not before < term:
            raise IndexDataError(
                f"{postings_path}:{lineno}: term {term!r} does not follow {before!r}; "
                "rows hold each term once, in sorted order"
            )
    offsets = np.zeros(len(rows) + 1, dtype=np.int64)
    np.cumsum([pairs.count(":") for _, pairs in rows], out=offsets[1:])
    numbers = " ".join([pairs for _, pairs in rows]).replace(":", " ")
    flat = np.fromstring(numbers, dtype=np.int64, sep=" ").reshape(-1, 2)
    num_docs = len(doc_ids)
    # int32 columns: a doc must be in the doc table, a count in [1, 2^31)
    docs, counts = flat[:, 0], flat[:, 1]
    for name, column, low, high in ("doc", docs, 0, num_docs), ("count", counts, 1, 2**31):
        outside = np.flatnonzero((column < low) | (column >= high))
        if outside.size:
            lineno = np.searchsorted(offsets, outside[0], side="right")
            raise IndexDataError(
                f"{postings_path}:{lineno}: {name} {column[outside[0]]} is outside [{low}, {high})"
            )
    postings = Postings(terms, offsets, docs, counts)
    repeated = np.flatnonzero(np.diff(postings.docs) <= 0) + 1
    repeated = repeated[~np.isin(repeated, offsets)]
    if repeated.size:
        lineno = np.searchsorted(offsets, repeated[0], side="right")
        raise IndexDataError(
            f"{postings_path}:{lineno}: doc {postings.docs[repeated[0]]} does not follow doc "
            f"{postings.docs[repeated[0] - 1]}; a row holds each doc once, in ascending order"
        )
    forward = _transpose(postings, num_docs)
    index = CollectionIndex(doc_ids, doc_lengths, postings, forward, manifest.get("analysis") or {})
    for key in _MANIFEST_COUNTS:
        if manifest.get(key) != getattr(index.stats, key):
            raise IndexDataError(
                f"{manifest_path}: {key} is {manifest.get(key)} but the snapshot "
                f"holds {getattr(index.stats, key)}"
            )
    held = np.bincount(postings.docs, weights=postings.counts, minlength=num_docs).astype(np.int64)
    wrong = np.flatnonzero(held != index.doc_length_array)
    if wrong.size:
        doc = wrong[0]
        raise IndexDataError(
            f"{docs_path}:{doc + 1}: length is {doc_lengths[doc]} but the postings "
            f"hold {held[doc]} terms"
        )
    return index


def _transpose(postings: Postings, num_docs: int) -> list[dict[str, int]]:
    """Each document's term counts, in row (sorted term) order."""
    order = np.argsort(postings.docs, kind="stable")
    terms = list(postings)
    row_of = np.repeat(np.arange(len(terms)), np.diff(postings.offsets))
    names = [terms[row] for row in row_of[order].tolist()]
    counts = postings.counts[order].tolist()
    ends = np.cumsum(np.bincount(postings.docs, minlength=num_docs)).tolist()
    return [dict(zip(names[start:end], counts[start:end])) for start, end in zip([0, *ends], ends)]


def _parse_doc_row(line: str) -> tuple[str, int]:
    doc_id, length = line.split("\t")
    return doc_id, int(length)


def _parse_postings_row(line: str) -> tuple[str, str]:
    term, pairs = line.split("\t")
    if not _is_pair_list(pairs):
        raise ValueError(pairs)
    return term, pairs


def _read_rows(path: Path, layout: str, parse: Callable[[str], object]) -> list:
    """Parse each line of a snapshot file; a malformed one is reported by
    path and line number."""
    rows = []
    for lineno, line in enumerate(path.read_text("utf-8").splitlines(), 1):
        try:
            rows.append(parse(line))
        except ValueError:
            raise IndexDataError(f"{path}:{lineno}: expected {layout}") from None
    return rows
