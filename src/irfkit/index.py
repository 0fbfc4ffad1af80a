"""Inverted index with collection statistics and a forward store.

The forward store (doc -> term counts) sits alongside the postings because
the feedback estimators need full term vectors of judged documents.  The
index is immutable once built and safe to share across threads.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable

from .corpus_io import TermSequence

FORMAT_VERSION = 2
# the collection statistics a manifest records, checked on load
_MANIFEST_COUNTS = ("num_docs", "total_terms", "vocab_size")

# the snapshot separates fields and pairs by whitespace and rows by lines
_has_whitespace = re.compile(r"\s").search


class IndexDataError(ValueError):
    """Raised on malformed input to index construction or snapshot IO."""


@dataclass(frozen=True)
class CollectionStats:
    num_docs: int
    total_terms: int
    avg_doc_len: float
    vocab_size: int


class CollectionIndex:
    """Postings, lengths, forward vectors, and per-term statistics.

    ``analysis`` records how the collection text was normalized (stemmer
    name, stoplist) so queries can be normalized identically later.
    """

    def __init__(
        self,
        doc_ids: list[str],
        doc_lengths: list[int],
        postings: dict[str, list[tuple[int, int]]],
        forward: list[dict[str, int]],
        analysis: dict | None = None,
    ) -> None:
        self.doc_ids = doc_ids
        self.doc_lengths = doc_lengths
        self.postings = postings
        self.forward = forward
        self.analysis = analysis or {}
        self._internal = {doc_id: i for i, doc_id in enumerate(doc_ids)}
        self._cf = {term: sum(c for _, c in plist) for term, plist in postings.items()}
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
        return len(self.postings.get(term, ()))

    def cf(self, term: str) -> int:
        return self._cf.get(term, 0)

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
    postings: dict[str, list[tuple[int, int]]] = {}
    forward: list[dict[str, int]] = []
    seen: set[str] = set()
    for seq in docs:
        if seq.doc_id in seen:
            raise IndexDataError(f"duplicate doc_id {seq.doc_id!r}")
        if _has_whitespace(seq.doc_id):
            raise IndexDataError(f"doc_id {seq.doc_id!r} contains whitespace")
        seen.add(seq.doc_id)
        internal = len(doc_ids)
        doc_ids.append(seq.doc_id)
        doc_lengths.append(len(seq.terms))
        counts: dict[str, int] = {}
        for term in seq.terms:
            counts[term] = counts.get(term, 0) + 1
        forward.append(counts)
        for term, count in counts.items():
            postings.setdefault(term, []).append((internal, count))
    for term, plist in postings.items():
        if _has_whitespace(term):
            doc_id = doc_ids[plist[0][0]]
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
    with open(directory / "postings.tsv", "w", encoding="utf-8") as handle:
        for term in sorted(index.postings):
            pairs = " ".join(f"{doc}:{count}" for doc, count in index.postings[term])
            handle.write(f"{term}\t{pairs}\n")
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
    docs = _read_rows(docs_path, "doc_id<TAB>length", _parse_doc_row)
    doc_ids = [doc_id for doc_id, _ in docs]
    doc_lengths = [length for _, length in docs]
    first_line: dict[str, int] = {}
    for lineno, doc_id in enumerate(doc_ids, 1):
        if first_line.setdefault(doc_id, lineno) != lineno:
            raise IndexDataError(
                f"{docs_path}:{lineno}: doc {doc_id!r} is already on line {first_line[doc_id]}"
            )
    postings_path = directory / "postings.tsv"
    postings: dict[str, list[tuple[int, int]]] = {}
    forward: list[dict[str, int]] = [{} for _ in doc_ids]
    num_docs = len(forward)
    rows = _read_rows(postings_path, "term<TAB>doc:count ...", _parse_postings_row)
    for lineno, (term, plist) in enumerate(rows, 1):
        postings[term] = plist
        for doc, count in plist:
            if not 0 <= doc < num_docs:
                raise IndexDataError(
                    f"{postings_path}:{lineno}: doc {doc} is outside [0, {num_docs})"
                )
            forward[doc][term] = count
    index = CollectionIndex(doc_ids, doc_lengths, postings, forward, manifest.get("analysis") or {})
    for key in _MANIFEST_COUNTS:
        if manifest.get(key) != getattr(index.stats, key):
            raise IndexDataError(
                f"{manifest_path}: {key} is {manifest.get(key)} but the snapshot "
                f"holds {getattr(index.stats, key)}"
            )
    for lineno, (counts, length) in enumerate(zip(forward, doc_lengths), 1):
        if sum(counts.values()) != length:
            raise IndexDataError(
                f"{docs_path}:{lineno}: length is {length} but the postings "
                f"hold {sum(counts.values())} terms"
            )
    return index


def _parse_doc_row(line: str) -> tuple[str, int]:
    doc_id, length = line.split("\t")
    return doc_id, int(length)


def _parse_postings_row(line: str) -> tuple[str, list[tuple[int, int]]]:
    term, pairs = line.split("\t")
    return term, [
        (int(doc), int(count)) for doc, count in (pair.split(":") for pair in pairs.split())
    ]


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
