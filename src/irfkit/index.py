"""Inverted index with collection statistics and a forward store.

An index is its doc ids and its postings; everything else is derived from
them once, at construction.  The postings are CSR columns: a term -> row map
over rows in sorted term order, int64 row offsets, and int32 doc ids and
counts, each row in ascending doc order.  ``CollectionIndex.postings`` shows
them as a read-only mapping of (doc, count) lists.  The forward store is the
same entries transposed, doc-major CSR columns of term rows and counts,
because the feedback estimators need full term vectors of judged documents;
``forward_sum`` is its one reader.  The index is immutable once built and
safe to share across threads.
"""

from __future__ import annotations

import json
import re
from array import array
from collections import defaultdict
from collections.abc import Mapping
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator

import numpy as np

from .corpus_io import TermSequence, read_text

FORMAT_VERSION = 2
# the collection statistics a manifest records, checked on load
_MANIFEST_COUNTS = ("num_docs", "vocab_size", "total_terms")

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
        self.terms = terms
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
    """Doc ids and postings, and what is derived from them at construction:
    the forward store, document lengths and per-term statistics.

    ``analysis`` records how the collection text was normalized (stemmer
    name, stoplist) so queries can be normalized identically later.
    ``forward_offsets``, ``forward_terms`` (postings rows) and
    ``forward_counts`` are the postings transposed to doc-major CSR, each
    document's entries in sorted term order.  ``doc_length_array`` holds
    ``doc_lengths`` as float64 and ``doc_id_rank`` each document's place in
    ascending doc_id order, for scoring and ranking on arrays.
    """

    def __init__(self, doc_ids: list[str], postings: Postings, analysis: dict | None = None) -> None:
        self.doc_ids = doc_ids
        self.postings = postings
        self.analysis = analysis or {}
        self._internal = {doc_id: i for i, doc_id in enumerate(doc_ids)}
        num_docs = len(doc_ids)
        forward = _transpose(postings.offsets, postings.docs, postings.counts, num_docs)
        self.forward_offsets, self.forward_terms, self.forward_counts = map(_frozen, forward)
        lengths = _row_sums(self.forward_offsets, self.forward_counts)
        self.doc_lengths: list[int] = lengths.tolist()
        self.doc_length_array = _frozen(lengths.astype(np.float64))
        rank = np.empty(num_docs, dtype=np.int64)
        rank[sorted(range(num_docs), key=doc_ids.__getitem__)] = np.arange(num_docs)
        self.doc_id_rank = _frozen(rank)
        self._df = np.diff(postings.offsets).tolist()
        self._cf = _row_sums(postings.offsets, postings.counts).tolist()
        total = sum(self.doc_lengths)
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
            and self.postings == other.postings
            and self.analysis == other.analysis
        )


def _transpose(
    offsets: np.ndarray, cols: np.ndarray, counts: np.ndarray, num_cols: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The CSR entries regrouped by column: the offsets, old row ids and
    counts of the transposed rows, each in ascending old-row order."""
    # the smallest unsigned type that holds a column lets numpy radix-sort it
    keys = cols.astype(np.min_scalar_type(num_cols), copy=False)
    order = np.argsort(keys, kind="stable")
    transposed = np.zeros(num_cols + 1, dtype=np.int64)
    np.cumsum(np.bincount(keys, minlength=num_cols), out=transposed[1:])
    rows = np.repeat(np.arange(len(offsets) - 1, dtype=np.int32), np.diff(offsets))
    return transposed, rows[order], counts[order]


def _row_sums(offsets: np.ndarray, values: np.ndarray) -> np.ndarray:
    running = np.concatenate(([0], np.cumsum(values, dtype=np.int64)))
    return running[offsets[1:]] - running[offsets[:-1]]


def build_index(docs: Iterable[TermSequence], analysis: dict | None = None) -> CollectionIndex:
    """Build an index from term sequences; deterministic given input order."""
    doc_ids: list[str] = []
    # each document's term ids (in order of first use) and counts, and where they end
    term_ids: defaultdict[str, int] = defaultdict()
    term_ids.default_factory = term_ids.__len__
    term_column, count_column, ends = array("i"), array("i"), array("q", [0])
    seen: set[str] = set()
    for seq in docs:
        if seq.doc_id in seen:
            raise IndexDataError(f"duplicate doc_id {seq.doc_id!r}")
        if _has_whitespace(seq.doc_id):
            raise IndexDataError(f"doc_id {seq.doc_id!r} contains whitespace")
        seen.add(seq.doc_id)
        doc_ids.append(seq.doc_id)
        counts: dict[str, int] = {}
        for term in seq.terms:
            counts[term] = counts.get(term, 0) + 1
        term_column.extend(map(term_ids.__getitem__, counts))
        count_column.extend(counts.values())
        ends.append(len(term_column))
    terms = sorted(term_ids)
    row_of_id = np.empty(len(terms), dtype=np.int32)
    row_of_id[[term_ids[term] for term in terms]] = np.arange(len(terms))
    rows = row_of_id[np.frombuffer(term_column, dtype=np.int32)]
    columns = _transpose(
        np.frombuffer(ends, dtype=np.int64), rows, np.frombuffer(count_column, dtype=np.int32), len(terms)
    )
    postings = Postings(terms, *columns)
    for row, term in enumerate(terms):
        if _has_whitespace(term):
            doc_id = doc_ids[postings.docs[postings.offsets[row]]]
            raise IndexDataError(f"doc {doc_id!r} has a term with whitespace: {term!r}")
    return CollectionIndex(doc_ids, postings, analysis)


# a document weighting: the weight of count c of a term in a document of
# length |x|, elementwise over arrays or on two numbers
Weighting = Callable[[str, Any, Any], Any]


def forward_sum(index: CollectionIndex, doc_ids: Iterable[str], weight: Weighting) -> dict[str, Any]:
    """Per term, the sum from 0 of weight(term, |x|, c) over the documents x
    holding it, in the order given; in sorted term order.  The one reader of
    the forward store."""
    terms, offsets = index.postings.terms, index.forward_offsets
    sums: dict[int, Any] = {}
    for doc_id in doc_ids:
        internal = index.internal_id(doc_id)
        length = index.doc_lengths[internal]
        start, end = offsets[internal], offsets[internal + 1]
        rows, counts = index.forward_terms[start:end].tolist(), index.forward_counts[start:end].tolist()
        for row, count in zip(rows, counts):
            sums[row] = sums.get(row, 0) + weight(terms[row], length, count)
    return {terms[row]: sums[row] for row in sorted(sums)}  # rows are in term order


def doc_vector(index: CollectionIndex, doc_id: str) -> dict[str, int]:
    """Exact term counts of one document, in sorted term order."""
    return forward_sum(index, [doc_id], lambda term, length, count: count)


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
    """Read a snapshot: the doc table and postings, checked against each
    other and against the manifest."""
    directory = Path(directory)
    manifest_path = directory / "manifest.json"
    if not manifest_path.exists():
        raise IndexDataError(f"no index snapshot at {directory} (missing manifest.json)")
    try:
        manifest = json.loads(manifest_path.read_text("utf-8"))
    except ValueError as exc:
        raise IndexDataError(f"{manifest_path}: {exc}") from None
    if not isinstance(manifest, dict):
        raise IndexDataError(f"{manifest_path}: expected a JSON object")
    version = manifest.get("format_version")
    if version != FORMAT_VERSION:
        raise IndexDataError(
            f"snapshot format version {version} does not match supported version "
            f"{FORMAT_VERSION}; re-index the collection with `irfkit index`"
        )
    docs_path = directory / "docs.tsv"
    doc_rows = _read_rows(docs_path, "doc_id<TAB>length", _parse_doc_row)
    doc_ids = [doc_id for doc_id, _ in doc_rows]
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
    empty = np.flatnonzero(offsets[1:] == offsets[:-1])
    if empty.size:
        row = empty[0]
        raise IndexDataError(f"{postings_path}:{row + 1}: term {terms[row]!r} has no postings")
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
    index = CollectionIndex(doc_ids, postings, manifest.get("analysis") or {})
    for key in _MANIFEST_COUNTS:
        if manifest.get(key) != getattr(index.stats, key):
            raise IndexDataError(
                f"{manifest_path}: {key} is {manifest.get(key)} but the snapshot "
                f"holds {getattr(index.stats, key)}"
            )
    for lineno, ((_, length), held) in enumerate(zip(doc_rows, index.doc_lengths), 1):
        if length != held:
            raise IndexDataError(
                f"{docs_path}:{lineno}: length is {length} but the postings hold {held} terms"
            )
    return index


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
    for lineno, line in enumerate(read_text(path, IndexDataError).splitlines(), 1):
        try:
            rows.append(parse(line))
        except ValueError:
            raise IndexDataError(f"{path}:{lineno}: expected {layout}") from None
    return rows
