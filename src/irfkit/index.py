"""Inverted index with collection statistics and a forward store.

An index is its doc ids and its postings; everything else is derived from
them once, at construction (BM25's idf column, by ``exact.log_each``, at
first use).  The postings are CSR columns: a term -> row map over rows in
sorted term order, int64 row offsets, and int32 doc ids and counts, each row
in ascending doc order.  ``CollectionIndex.postings`` shows them as a
read-only mapping of (doc, count) lists.  The forward store is the same
entries transposed, doc-major CSR columns of term rows and counts, because
the feedback estimators need full term vectors of judged documents, and
the pruned pages rescore their candidates from it: ``forward_rows`` reads it
for the estimators and ``ranking._rescore`` for the scorers, and ``by_term``
names the rows ``forward_rows`` returns.
A row id sorts like its term, so the estimators stay on row arrays, with the
per-row ``dfs`` and ``cfs`` columns, until they build a query model.
The index is immutable once built and safe to share across threads.
"""

from __future__ import annotations

import json
from array import array
from bisect import bisect_right
from collections import defaultdict
from collections.abc import Collection, Mapping
from dataclasses import dataclass
from functools import cached_property
from itertools import count, islice, repeat
from operator import contains, lt
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator

import numpy as np

from .corpus_io import (
    STEMMERS, TermSequence, check_collection, check_field, check_value, not_one_field, parse_number, read_text,
    reject_repeats,
)
from .exact import log_each

FORMAT_VERSION = 3
# the tokens build_index counts with one sort: its transient arrays stay under a megabyte
_COUNT_BLOCK = 1 << 14
# the collection statistics a manifest records, checked on load
_MANIFEST_COUNTS = ("num_docs", "vocab_size", "total_terms")


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

    def __getitem__(self, term: str) -> list[tuple[int, int]]:
        row = self.rows[term]
        start, end = self.offsets[row], self.offsets[row + 1]
        return list(zip(self.docs[start:end].tolist(), self.counts[start:end].tolist()))

    def __iter__(self) -> Iterator[str]:
        return iter(self.rows)

    def __len__(self) -> int:
        return len(self.rows)


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
        return 0 if row is None else self.dfs.item(row)

    def cf(self, term: str) -> int:
        row = self.postings.rows.get(term)
        return 0 if row is None else self.cfs.item(row)

    @cached_property
    def doc_id_array(self) -> np.ndarray:
        """``doc_ids`` as an object array, read-only, so a ranking's internal ids
        name in one gather; built at first use."""
        return _frozen(np.array(self.doc_ids, dtype=object))

    @cached_property
    def dfs(self) -> np.ndarray:
        """The document frequency of each postings row, int64, read-only; built at first use."""
        return _frozen(np.diff(self.postings.offsets))

    @cached_property
    def cfs(self) -> np.ndarray:
        """The collection frequency of each postings row, int64, read-only; built at first use."""
        return _frozen(_row_sums(self.postings.offsets, self.postings.counts))

    @cached_property
    def idf(self) -> np.ndarray:
        """BM25's idf log((N+1)/df) per postings row, read-only; built at first use."""
        return _frozen(log_each((self.num_docs + 1) / self.dfs.astype(np.float64)))

    @cached_property
    def max_counts(self) -> np.ndarray:
        """The largest count in each postings row, read-only; built at first use."""
        return _frozen(_row_reduce(np.maximum, self.postings.offsets, self.postings.counts))

    @cached_property
    def min_lengths(self) -> np.ndarray:
        """The least length of a document in each postings row, read-only; built at first use."""
        lengths = np.array(self.doc_lengths, dtype=np.int32)[self.postings.docs]
        return _frozen(_row_reduce(np.minimum, self.postings.offsets, lengths))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CollectionIndex):
            return NotImplemented
        return (
            self.doc_ids == other.doc_ids
            and self.analysis == other.analysis
            and self.postings.terms == other.postings.terms
            and np.array_equal(self.postings.offsets, other.postings.offsets)
            and np.array_equal(self.postings.docs, other.postings.docs)
            and np.array_equal(self.postings.counts, other.postings.counts)
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


def _row_reduce(reduce: np.ufunc, offsets: np.ndarray, values: np.ndarray) -> np.ndarray:
    """``reduce`` over each CSR row's values; every row holds at least one entry."""
    return reduce.reduceat(values, offsets[:-1]) if len(offsets) > 1 else values[:0]


def _extend(column: array, values: np.ndarray) -> None:
    """Append ``values`` to ``column``, cast to its item type."""
    column.frombytes(values.astype(column.typecode).view(np.uint8))


def _check_analysis(analysis: object, where: str) -> None:
    """The one rule for ``analysis``, as a manifest stores it: an object holding
    at most a ``stemmer`` in STEMMERS and a ``stoplist`` list of strings."""
    if not isinstance(analysis, dict) or not set(analysis) <= {"stemmer", "stoplist"}:
        raise IndexDataError(f"{where} must be an object holding only stemmer and stoplist")
    if analysis.get("stemmer", "krovetz") not in STEMMERS:
        raise IndexDataError(f"{where}: unknown stemmer {analysis['stemmer']!r}; expected one of {STEMMERS}")
    stoplist = analysis.get("stoplist", [])
    if not isinstance(stoplist, list) or not all(isinstance(word, str) for word in stoplist):
        raise IndexDataError(f"{where}: stoplist must be a list of strings")


def build_index(docs: Iterable[TermSequence], analysis: dict | None = None) -> CollectionIndex:
    """Build an index from term sequences; deterministic given input order.

    Term ids are given in order of first use.  The documents' term ids are
    gathered into a block, which closes at the end of the document that brings
    it to ``_COUNT_BLOCK`` tokens; one sort of its (document, term id) keys
    then counts it, each document's entries in term id order.  ``_transpose``
    sorts all entries stably by postings row, so a row holds its documents in
    document order, as when each document's entries were in first-use order."""
    check_collection("docs", docs, "documents", IndexDataError, stream=True)
    _check_analysis({} if analysis is None else analysis, "analysis")
    doc_ids: list[str] = []
    term_ids: defaultdict[str, int] = defaultdict()
    term_ids.default_factory = term_ids.__len__
    # each document's term ids and counts, and where they end
    term_column, count_column, ends = array("i"), array("i"), array("q", [0])
    block: list[int] = []  # the block's term ids
    block_ends = [0]  # where each of its documents ends

    def count_block() -> None:
        sizes = np.diff(block_ends)
        keys = np.repeat(np.arange(sizes.size, dtype=np.int64) << 32, sizes)
        keys |= np.array(block, dtype=np.int64)
        keys.sort()
        starts = np.flatnonzero(np.diff(keys, prepend=-1))  # of each run of equal keys
        distinct = keys[starts]
        _extend(term_column, distinct)  # cast to int32: the low 32 bits, the term id
        _extend(count_column, np.diff(starts, append=keys.size))
        _extend(ends, np.cumsum(np.bincount(distinct >> 32, minlength=sizes.size)) + ends[-1])
        del block[:], block_ends[1:]

    seen: set[str] = set()
    for seq in docs:
        if seq.doc_id in seen:
            raise IndexDataError(f"duplicate doc_id {seq.doc_id!r}")
        check_field(seq.doc_id, "doc_id", IndexDataError)
        check_collection(f"the terms of doc {seq.doc_id!r}", seq.terms, "terms", IndexDataError, stream=True)
        seen.add(seq.doc_id)
        doc_ids.append(seq.doc_id)
        try:
            block.extend(map(term_ids.__getitem__, seq.terms))
        except TypeError:  # an unhashable term, so not a str: name the doc's first term that is not
            for term in seq.terms if isinstance(seq.terms, Collection) else ():  # a stream's is spent
                check_value(f"a term of doc {seq.doc_id!r}", term, str, IndexDataError)
            raise IndexDataError(f"a term of doc {seq.doc_id!r} must be str, got one that is not hashable") from None
        block_ends.append(len(block))
        if len(block) >= _COUNT_BLOCK:
            count_block()
    count_block()
    if not all(map(isinstance, term_ids, repeat(str))):  # sorting and the name check read str
        term = next(term for term in term_ids if not isinstance(term, str))  # the first one used
        doc_id = doc_ids[bisect_right(ends, term_column.index(term_ids[term])) - 1]
        check_value(f"a term of doc {doc_id!r}", term, str, IndexDataError)
    terms = sorted(term_ids)
    row_of_id = np.empty(len(terms), dtype=np.int32)
    row_of_id[[term_ids[term] for term in terms]] = np.arange(len(terms))
    rows = row_of_id[np.frombuffer(term_column, dtype=np.int32)]
    columns = _transpose(
        np.frombuffer(ends, dtype=np.int64), rows, np.frombuffer(count_column, dtype=np.int32), len(terms)
    )
    postings = Postings(terms, *columns)
    for row, term in enumerate(terms):
        if flaw := not_one_field(term):  # as a terms.tsv row's name
            doc_id = doc_ids[postings.docs[postings.offsets[row]]]
            raise IndexDataError(f"doc {doc_id!r} has an empty term or one with {flaw}: {term!r}")
    return CollectionIndex(doc_ids, postings, analysis)


def forward_rows(
    index: CollectionIndex, doc_ids: Iterable[str], weigh: Callable[..., Any]
) -> tuple[np.ndarray, np.ndarray]:
    """Per postings row held by the documents given, ascending (so in sorted
    term order), the sum from 0 of ``weigh(rows, lengths, counts)`` over their
    forward entries: one call on all entries, gathered in pool order, and
    ``np.add.at`` adds in that order.  The rows, and the sums as int64 for
    integer weights, else float64.  The estimators' reader of the forward store;
    ``ranking._rescore`` reads it for the scorers' pruned pages."""
    internal = np.array([index.internal_id(doc_id) for doc_id in doc_ids], dtype=np.int64)
    starts = index.forward_offsets[internal]
    sizes = index.forward_offsets[internal + 1] - starts
    entries = np.arange(sizes.sum()) + np.repeat(starts - (np.cumsum(sizes) - sizes), sizes)
    rows, counts = index.forward_terms[entries], index.forward_counts[entries]
    weights = np.asarray(weigh(rows, np.repeat(index.doc_length_array[internal], sizes), counts))
    held = distinct(rows)  # rows are in term order
    sums = np.zeros(held.size, np.result_type(weights, np.int64))  # counts sum as int64
    np.add.at(sums, np.searchsorted(held, rows), weights.astype(sums.dtype))  # one dtype: its fast loop
    return held, sums


def distinct(ids: np.ndarray) -> np.ndarray:
    """The distinct ids (postings rows or documents, all >= 0), ascending: one sort
    and a neighbour compare, several times faster than ``np.unique`` or ``np.union1d``."""
    ids = np.sort(ids)
    return ids[ids != np.append(-1, ids[:-1])]


def by_term(index: CollectionIndex, rows: np.ndarray, values: np.ndarray) -> dict[str, Any]:
    """term -> value for postings rows and their values, in the rows' order,
    as Python ints or floats."""
    return dict(zip(map(index.postings.terms.__getitem__, rows.tolist()), values.tolist()))


def doc_vector(index: CollectionIndex, doc_id: str) -> dict[str, int]:
    """Exact term counts of one document, in sorted term order."""
    return by_term(index, *forward_rows(index, [doc_id], lambda rows, lengths, counts: counts))


def save_index(index: CollectionIndex, directory: str | Path) -> None:
    """Write a snapshot: doc and term tables, the postings entries as ``.npy``
    columns, manifest.  The old manifest goes first, so ``load_index`` rejects a
    save that died midway, and with it the files only formats 1 and 2 wrote."""
    _check_analysis(index.analysis, "analysis")  # json.dumps fails on a set, after the deletes
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    manifest_path = directory / "manifest.json"
    for name in ("manifest.json", "lexicon.tsv", "forward.tsv", "postings.tsv"):
        (directory / name).unlink(missing_ok=True)
    postings = index.postings
    tables = ("docs.tsv", index.doc_ids, index.doc_lengths), ("terms.tsv", postings.terms, index.dfs.tolist())
    for name, keys, numbers in tables:
        with open(directory / name, "w", encoding="utf-8") as handle:
            handle.writelines(f"{key}\t{number}\n" for key, number in zip(keys, numbers))
    for name, column in ("docs.npy", postings.docs), ("counts.npy", postings.counts):
        with open(directory / name, "wb") as handle:
            np.lib.format.write_array(handle, column.astype("<i4", copy=False), allow_pickle=False)
    manifest = {key: getattr(index.stats, key) for key in _MANIFEST_COUNTS}
    manifest.update(format_version=FORMAT_VERSION, analysis=index.analysis)
    manifest_path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n", "utf-8")


def load_index(directory: str | Path) -> CollectionIndex:
    """Read a snapshot whole or reject it: the postings checked against the doc
    and term tables, and all against the manifest.  The ``.npy`` columns are
    read, not mapped: a later save into the directory rewrites them in place.
    Each table check is one pass in C over whole columns (``map``, ``min`` and
    ``max``, list equality), which also take a df too large for int64 and a
    term that holds a NUL; only a check that fails looks for its first row."""
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
    if type(version) is not int or version != FORMAT_VERSION:  # JSON 3.0 and true are not integers
        raise IndexDataError(
            f"snapshot format version {version} does not match supported version "
            f"{FORMAT_VERSION}; re-index the collection with `irfkit index`"
        )
    analysis = manifest.get("analysis", {})
    _check_analysis(analysis, f"{manifest_path}: analysis")
    docs_path, terms_path = directory / "docs.tsv", directory / "terms.tsv"
    doc_ids, lengths = _read_rows(docs_path, "doc_id<TAB>length")
    reject_repeats(docs_path, enumerate(doc_ids, 1), lambda doc_id: f"doc {doc_id!r}", IndexDataError)
    terms, dfs = _read_rows(terms_path, "term<TAB>df")
    if not all(map(lt, terms, islice(terms, 1, None))):
        lineno, before, term = next(row for row in zip(count(2), terms, terms[1:]) if not row[1] < row[2])
        raise IndexDataError(
            f"{terms_path}:{lineno}: term {term!r} does not follow {before!r}; "
            "rows hold each term once, in sorted order"
        )
    num_docs = len(doc_ids)
    if dfs and not 1 <= min(dfs) <= max(dfs) <= num_docs:  # which also keeps the offsets in int64
        lineno, term, df = next(row for row in zip(count(1), terms, dfs) if not 1 <= row[2] <= num_docs)
        raise IndexDataError(f"{terms_path}:{lineno}: df {df} of term {term!r} is outside [1, {num_docs}]")
    offsets = np.zeros(len(terms) + 1, dtype=np.int64)
    np.cumsum(dfs, dtype=np.int64, out=offsets[1:])
    docs_npy, counts_npy = directory / "docs.npy", directory / "counts.npy"
    docs, counts = (_read_column(path, offsets[-1]) for path in (docs_npy, counts_npy))

    def at(path: Path, entry: int) -> str:  # the term that holds a postings entry
        row = np.searchsorted(offsets, entry, side="right") - 1
        return f"{path}: term {terms[row]!r} ({terms_path.name}:{row + 1})"

    bounds = (docs_npy, "doc", docs, 0, num_docs), (counts_npy, "count", counts, 1, 2**31)
    for path, name, column, low, high in bounds:
        outside = np.flatnonzero((column < low) | (column >= high))
        if outside.size:
            raise IndexDataError(
                f"{at(path, outside[0])}: {name} {column[outside[0]]} is outside [{low}, {high})"
            )
    repeated = np.flatnonzero(np.diff(docs) <= 0) + 1
    repeated = repeated[~np.isin(repeated, offsets)]
    if repeated.size:
        raise IndexDataError(
            f"{at(docs_npy, repeated[0])}: doc {docs[repeated[0]]} does not follow doc "
            f"{docs[repeated[0] - 1]}; a row holds each doc once, in ascending order"
        )
    index = CollectionIndex(doc_ids, Postings(terms, offsets, docs, counts), analysis)
    for key in _MANIFEST_COUNTS:
        if type(manifest.get(key)) is not int or manifest[key] != getattr(index.stats, key):
            raise IndexDataError(
                f"{manifest_path}: {key} is {manifest.get(key)} but the snapshot "
                f"holds {getattr(index.stats, key)}"
            )
    if lengths != index.doc_lengths:
        lineno, length, held = next(row for row in zip(count(1), lengths, index.doc_lengths) if row[1] != row[2])
        raise IndexDataError(f"{docs_path}:{lineno}: length is {length} but the postings hold {held} terms")
    return index


def _read_rows(path: Path, layout: str) -> tuple[list[str], list[int]]:
    """The names and numbers of a snapshot file's ``name<TAB>integer`` rows,
    a name being one field as in ``build_index``; a malformed row is reported
    by path and line number.  The two columns are split out at once and each is
    checked whole (one tab on every line, ASCII one-field names, ASCII digits);
    only a file that a check refuses is read row by row, for its first bad row
    or for rows the row rules accept, such as non-ASCII names or ``+5``."""
    lines = read_text(path, IndexDataError).split("\n")
    if lines[-1] == "":
        lines.pop()
    cells = "\t".join(lines).split("\t")
    names, numbers = cells[0::2], cells[1::2]
    joined, digits = " ".join(names), "".join(numbers)
    if (
        len(cells) == 2 * len(lines) and all(map(contains, lines, repeat("\t")))
        and joined.isascii() and joined.split() == names
        and digits.isascii() and digits.isdigit()
    ):
        try:
            return names, list(map(int, numbers))
        except ValueError:  # an empty number, or more digits than int() reads: the row names it
            pass
    names, numbers = [], []
    for lineno, line in enumerate(lines, 1):
        try:
            name, number = line.split("\t")
            if not_one_field(name):
                raise ValueError(name)
            numbers.append(parse_number(number, int))
        except ValueError:
            raise IndexDataError(f"{path}:{lineno}: expected {layout}") from None
        names.append(name)
    return names, numbers


def _read_column(path: Path, length: int) -> np.ndarray:
    """A postings column as ``save_index`` writes it: a whole ``.npy`` file of
    ``length`` ``<i4`` entries and nothing after them, read without pickle."""
    with open(path, "rb") as handle:
        try:
            column = np.lib.format.read_array(handle, allow_pickle=False)
        except (ValueError, MemoryError) as exc:  # MemoryError: a header claims more entries than fit
            raise IndexDataError(f"{path}: not a whole .npy array: {exc}") from None
        if handle.read(1):
            raise IndexDataError(f"{path}: bytes follow the array")
    if column.dtype.str != "<i4" or column.shape != (length,):  # the length is the sum of the dfs
        raise IndexDataError(
            f"{path}: holds {column.dtype.str} of shape {column.shape}, expected <i4 of ({length},)"
        )
    return column
