"""Collection, topic, and qrels parsing plus text normalization."""

from __future__ import annotations

import re
from dataclasses import dataclass
from importlib import resources
from pathlib import Path
from typing import Iterable, Iterator

from . import krovetz

_TOKEN_RE = re.compile(r"[^\W_]+", re.UNICODE)
_TAG_RE = re.compile(rb"<[^>]*>")
_DOCNO_RE = re.compile(rb"<DOCNO>(.*?)</DOCNO>", re.DOTALL)
_DOCHDR_RE = re.compile(rb"<DOCHDR>.*?</DOCHDR>", re.DOTALL)

STEMMERS = ("krovetz", "none")
COLLECTION_FORMATS = ("trectext", "trecweb")
TOPIC_FORMATS = ("trec_title", "tsv")


class CorpusFormatError(ValueError):
    """Raised when a collection, topic, or qrels file is malformed."""


def read_text(path: str | Path, error: type[ValueError] = CorpusFormatError) -> str:
    """A UTF-8 text file's contents with newlines translated as ``open`` does;
    bytes that are not UTF-8 raise ``error`` naming the path and line."""
    data = Path(path).read_bytes()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        lineno = data.count(b"\n", 0, exc.start) + 1
        raise error(f"{path}:{lineno}: not UTF-8 text") from None
    return text.replace("\r\n", "\n").replace("\r", "\n")


@dataclass(frozen=True)
class RawDocument:
    doc_id: str
    text: str


@dataclass(frozen=True)
class TermSequence:
    doc_id: str
    terms: tuple[str, ...]


@dataclass(frozen=True)
class Topic:
    query_id: str
    terms: tuple[str, ...]


class QrelSet:
    """Graded relevance judgments keyed by (query_id, doc_id).

    Later duplicates of a pair overwrite earlier ones.
    """

    def __init__(self) -> None:
        self._by_query: dict[str, dict[str, int]] = {}

    def set(self, query_id: str, doc_id: str, grade: int) -> None:
        if grade < 0:
            raise ValueError(f"negative grade {grade} for ({query_id}, {doc_id})")
        self._by_query.setdefault(query_id, {})[doc_id] = grade

    def grade(self, query_id: str, doc_id: str) -> int:
        return self._by_query.get(query_id, {}).get(doc_id, 0)

    def is_relevant(self, query_id: str, doc_id: str) -> bool:
        return self.grade(query_id, doc_id) >= 1

    def grades_for(self, query_id: str) -> dict[str, int]:
        return dict(self._by_query.get(query_id, {}))

    def num_relevant(self, query_id: str) -> int:
        return sum(1 for g in self._by_query.get(query_id, {}).values() if g >= 1)

    def query_ids(self) -> list[str]:
        return sorted(self._by_query)

    def __len__(self) -> int:
        return sum(len(d) for d in self._by_query.values())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, QrelSet):
            return NotImplemented
        return self._by_query == other._by_query


def default_stoplist() -> frozenset[str]:
    """The 418-word INQUERY stopword list shipped with the package."""
    text = resources.files("irfkit").joinpath("data/inquery_stoplist.txt").read_text("utf-8")
    return frozenset(w for w in text.split() if w)


def load_stoplist(path: str | Path | None = None) -> frozenset[str]:
    """Load a one-word-per-line stoplist, or the packaged default."""
    if path is None:
        return default_stoplist()
    words = read_text(path).split()
    return frozenset(w.casefold() for w in words if w)


def normalize(text: str, stoplist: frozenset[str] = frozenset(), stemmer: str = "krovetz") -> list[str]:
    """Tokenize on non-alphanumeric runs, casefold, stop, stem.

    The stopword filter runs again after stemming so that no emitted term is
    ever in the active stoplist (stems such as use or go can land on one).
    """
    if stemmer not in STEMMERS:
        raise ValueError(f"unknown stemmer {stemmer!r}; expected one of {STEMMERS}")
    stem = krovetz.stem if stemmer == "krovetz" else lambda w: w
    out = []
    for token in _TOKEN_RE.findall(text):
        token = token.casefold()
        if token in stoplist:
            continue
        token = stem(token)
        if token and token not in stoplist:
            out.append(token)
    return out


def _block_text(block: bytes, fmt: str) -> str:
    block = _DOCNO_RE.sub(b" ", block)
    if fmt == "trecweb":
        block = _DOCHDR_RE.sub(b" ", block)
    block = _TAG_RE.sub(b" ", block)
    return " ".join(block.decode("utf-8", errors="replace").split())


def parse_trec_collection(path: str | Path, fmt: str = "trectext") -> Iterator[RawDocument]:
    """Stream RawDocuments out of a TREC text/web SGML file."""
    if fmt not in COLLECTION_FORMATS:
        raise ValueError(f"unknown collection format {fmt!r}; expected one of {COLLECTION_FORMATS}")
    data = Path(path).read_bytes()
    pos = 0
    ordinal = 0
    while True:
        start = data.find(b"<DOC>", pos)
        gap = data[pos : start if start != -1 else len(data)]
        if gap.strip():
            junk_at = pos + len(gap) - len(gap.lstrip())
            raise CorpusFormatError(f"unexpected content outside <DOC> block at byte {junk_at}")
        if start == -1:
            return
        end = data.find(b"</DOC>", start)
        if end == -1:
            raise CorpusFormatError(f"unterminated <DOC> block at byte {start}")
        ordinal += 1
        block = data[start + len(b"<DOC>") : end]
        m = _DOCNO_RE.search(block)
        if m is None:
            raise CorpusFormatError(f"missing <DOCNO> in document block {ordinal} at byte {start}")
        doc_id = m.group(1).decode("utf-8", errors="replace").strip()
        if not doc_id:
            raise CorpusFormatError(f"empty <DOCNO> in document block {ordinal} at byte {start}")
        yield RawDocument(doc_id, _block_text(block, fmt))
        pos = end + len(b"</DOC>")


def normalize_collection(
    docs: Iterable[RawDocument], stoplist: frozenset[str], stemmer: str = "krovetz"
) -> Iterator[TermSequence]:
    for doc in docs:
        yield TermSequence(doc.doc_id, tuple(normalize(doc.text, stoplist, stemmer)))


def parse_qrels(path: str | Path) -> QrelSet:
    """Parse whitespace-separated "qid 0 docid grade" judgment lines."""
    qrels = QrelSet()
    for lineno, line in enumerate(read_text(path).split("\n"), 1):
        parts = line.split()
        if not parts:
            continue
        if len(parts) != 4:
            raise CorpusFormatError(f"{path}:{lineno}: expected 4 fields, got {len(parts)}")
        query_id, _, doc_id, grade_str = parts
        try:
            grade = int(grade_str)
        except ValueError:
            raise CorpusFormatError(f"{path}:{lineno}: non-integer grade {grade_str!r}") from None
        if grade < 0:
            raise CorpusFormatError(f"{path}:{lineno}: negative grade {grade}")
        qrels.set(query_id, doc_id, grade)
    return qrels


def write_qrels(qrels: QrelSet, path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        for query_id in qrels.query_ids():
            for doc_id, grade in sorted(qrels.grades_for(query_id).items()):
                handle.write(f"{query_id} 0 {doc_id} {grade}\n")


_TOPIC_START_RE = re.compile(r"<top>", re.IGNORECASE)
_TOPIC_NUM_RE = re.compile(r"<num>\s*(?:Number:)?\s*([^<\s]+)", re.IGNORECASE)
_TOPIC_TITLE_RE = re.compile(r"<title>\s*(?:Topic:)?\s*(.*?)\s*(?=<|$)", re.IGNORECASE | re.DOTALL)


def parse_topics(
    path: str | Path,
    fmt: str = "tsv",
    stoplist: frozenset[str] = frozenset(),
    stemmer: str = "krovetz",
) -> list[Topic]:
    """Parse topics (``trec_title`` reads <title> only) into query terms."""
    if fmt not in TOPIC_FORMATS:
        raise ValueError(f"unknown topic format {fmt!r}; expected one of {TOPIC_FORMATS}")
    raw: list[tuple[str, str]] = []
    text = read_text(path)
    if fmt == "tsv":
        for lineno, line in enumerate(text.splitlines(), 1):
            if not line.strip():
                continue
            if "\t" not in line:
                raise CorpusFormatError(f"{path}:{lineno}: expected qid<TAB>text")
            query_id, query_text = line.split("\t", 1)
            query_id = query_id.strip()
            # a run line is split on whitespace (a TREC <num> is one token already)
            if query_id.split() != [query_id]:
                raise CorpusFormatError(
                    f"{path}:{lineno}: query id {query_id!r} is empty or contains whitespace"
                )
            raw.append((query_id, query_text))
    else:
        blocks = _TOPIC_START_RE.split(text)
        if len(blocks) == 1 and text.strip():
            raise CorpusFormatError(f"{path}: no <top> block")
        for block in blocks[1:]:
            num = _TOPIC_NUM_RE.search(block)
            if num is None:
                raise CorpusFormatError(f"{path}: topic block without <num>")
            m = _TOPIC_TITLE_RE.search(block)
            if m is None:
                raise CorpusFormatError(f"{path}: topic {num.group(1)} has no <title> field")
            raw.append((num.group(1).strip(), m.group(1)))
    topics = []
    seen = set()
    for query_id, query_text in raw:
        if query_id in seen:
            raise CorpusFormatError(f"{path}: duplicate query id {query_id!r}")
        seen.add(query_id)
        terms = normalize(query_text, stoplist, stemmer)
        if not terms:
            raise CorpusFormatError(f"{path}: topic {query_id!r} is empty after normalization")
        topics.append(Topic(query_id, tuple(terms)))
    return topics
