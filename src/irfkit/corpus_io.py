"""Collection, topic, qrels and run-file parsing, the line rules they share, and text normalization."""

from __future__ import annotations

import math
import re
from collections.abc import Collection, Sequence
from dataclasses import dataclass
from importlib import resources
from itertools import islice
from pathlib import Path
from typing import Callable, Iterable, Iterator

from . import krovetz

_TOKEN_RE = re.compile(r"[^\W_]+", re.UNICODE)
# [^\W_] is str.isalnum, and no isalnum character is whitespace: on ASCII text,
# translating the rest to spaces and splitting gives what _TOKEN_RE finds
_ASCII_BLANKS = "".join(chr(c) if chr(c).isalnum() else " " for c in range(128))
_TAG_RE = re.compile(rb"<[^>]*>")
_DOCNO_RE = re.compile(rb"<DOCNO>(.*?)</DOCNO>", re.DOTALL)
_DOCHDR_RE = re.compile(rb"<DOCHDR>.*?</DOCHDR>", re.DOTALL)
# documents normalize_collection translates at once: one translate call costs
# about 2 µs of set-up, and the block's text stays small
_BLOCK_DOCS = 512

STEMMERS = ("krovetz", "none")
COLLECTION_FORMATS = ("trectext", "trecweb")
TOPIC_FORMATS = ("trec_title", "tsv")


class CorpusFormatError(ValueError):
    """Raised when a collection, topic, or qrels file is malformed."""


def read_text(path: str | Path, error: type[ValueError] = CorpusFormatError) -> str:
    """A UTF-8 text file's contents, less one leading BOM, with newlines translated
    as ``open`` does; bytes that are not UTF-8 raise ``error`` naming the path and line."""
    data = Path(path).read_bytes()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        lineno = data.count(b"\n", 0, exc.start) + 1
        raise error(f"{path}:{lineno}: not UTF-8 text") from None
    return text.removeprefix("\ufeff").replace("\r\n", "\n").replace("\r", "\n")


def parse_number(text: str, kind: type[int] | type[float] = int) -> int | float:
    """``kind(text)`` for ASCII text without ``_``; ``ValueError`` otherwise.
    ``int`` and ``float`` alone also read other scripts' digits and ``_``
    digit groups."""
    if not text.isascii() or "_" in text:
        raise ValueError(f"not an ASCII number: {text!r}")
    return kind(text)


def check_value(name: str, value: object, kind: type, error: type[ValueError] = ValueError) -> None:
    """The rule for a value of ``kind`` (bool, int, float or str): a bool only for a bool,
    an int for a float too, and for a float a finite value (an int too large for a float is not)."""
    accepted = (int, float) if kind is float else kind
    if isinstance(value, bool) != (kind is bool) or not isinstance(value, accepted):
        raise error(f"{name} must be {kind.__name__}, got {value!r}")
    try:
        finite = kind is not float or math.isfinite(value)
    except OverflowError:  # an int too large for a float
        raise error(f"{name} must be finite, got an int too large for a float") from None
    if not finite:
        raise error(f"{name} must be finite, got {value}")


def check_count(name: str, value: object, error: type[ValueError] = ValueError, least: int = 1) -> None:
    """``check_value``'s rule for an int, and at least ``least``."""
    check_value(name, value, int, error)
    if value < least:
        raise error(f"{name} must be >= {least}, got {value}")


def check_collection(
    name: str, value: object, of: str, error: type[ValueError] = ValueError, stream: bool = False,
    ordered: bool = False,
) -> None:
    """The rule for a collection of names: not a ``str`` or ``bytes``, whose
    items would be read as the names, not None, and a ``Collection``, which an
    iterator is not, unless it is a ``stream``, read once; a ``Sequence``, which
    a set is not, if it is ``ordered``."""
    kind = "sequence" if ordered else "collection"
    if value is None or isinstance(value, (str, bytes)):
        shown = "" if value is None else f"the {type(value).__name__} "
        raise error(f"{name} must be a {kind} of {of}, not {shown}{value!r}")
    if not (stream or isinstance(value, Sequence if ordered else Collection)):
        raise error(f"{name} must be a {kind} of {of}, not a {type(value).__name__}")


_UNWRITABLE = re.compile("^\ufeff|[\ud800-\udfff]")  # read_text strips a BOM, UTF-8 has no surrogates


def not_one_field(text: str) -> str:
    """Why a name (doc id, term, query id, run tag) cannot be one field of a line irfkit
    writes and reads back, or "": it is empty or holds whitespace, a lone surrogate or a leading BOM."""
    if text.split() != [text]:
        return "whitespace"
    return "a lone surrogate or a leading BOM" if not text.isascii() and _UNWRITABLE.search(text) else ""


def check_field(text: str, what: str, error: type[ValueError] = ValueError) -> None:
    """Reject a name that ``not_one_field`` finds fault with, as ``<what> <text!r> is ...``."""
    if not_one_field(text):
        raise error(f"{what} {text!r} is empty or contains whitespace, a lone surrogate or a leading BOM")


def reject_repeats(
    path: str | Path, keyed_lines: Iterable[tuple[int, str]], what: Callable[[str], str],
    error: type[ValueError] = CorpusFormatError,
) -> None:
    """Reject the first key an earlier line holds: ``path:L: <what(key)> is already on line K``."""
    lines: dict[str, int] = {}
    for lineno, key in keyed_lines:
        earlier = lines.setdefault(key, lineno)
        if earlier != lineno:
            raise error(f"{path}:{lineno}: {what(key)} is already on line {earlier}")


def _read_table(path: str | Path, width: int) -> Iterator[tuple[int, list[str]]]:
    """(line number, fields) of each non-blank line; a line not ``width`` fields wide is rejected."""
    for lineno, line in enumerate(read_text(path).split("\n"), 1):
        fields = line.split()
        if fields:
            if len(fields) != width:
                raise CorpusFormatError(f"{path}:{lineno}: expected {width} fields, got {len(fields)}")
            yield lineno, fields


@dataclass(frozen=True)
class RawDocument:
    """A document's id and its text, with its markup blanked and its whitespace as in the file."""

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
        if type(grade) is not int or grade < 0:  # named only then: parse_qrels calls this per line
            check_count(f"the grade of ({query_id}, {doc_id})", grade, least=0)
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


class _TermMemo(dict):
    """Raw token -> its term, or ``""`` for a stopped token, filled on first lookup.

    A token is casefolded, stopped, stemmed and stopped again: the second
    filter keeps every emitted term out of the active stoplist (stems such as
    use or go can land on one).  Equal terms are one string, however many raw
    tokens (dogs, Dogs, dog) give them.
    """

    def __init__(self, stoplist: frozenset[str], stemmer: str) -> None:
        check_collection("stoplist", stoplist, "words")
        if stemmer not in STEMMERS:
            raise ValueError(f"unknown stemmer {stemmer!r}; expected one of {STEMMERS}")
        super().__init__()
        self.stoplist = stoplist
        # looked up now, not at import, so a wrapper installed on krovetz.stem is seen
        self.stem = krovetz.stem if stemmer == "krovetz" else lambda w: w
        self.strings: dict[str, str] = {}  # each term to its one string

    def __missing__(self, token: str) -> str:
        term = token.casefold()
        if term not in self.stoplist:
            term = self.stem(term)
        self[token] = term = "" if term in self.stoplist else self.strings.setdefault(term, term)
        return term

    def lookup(self, tokens: Iterable[str]) -> tuple[str, ...]:
        """The terms of ``tokens``, stopped ones left out."""
        return tuple(filter(None, map(self.__getitem__, tokens)))

    def terms(self, text: str) -> tuple[str, ...]:
        """Map each token of ``text`` to its term.  A token is a maximal run of
        ``str.isalnum`` characters: ASCII text is split by one ``translate`` and
        ``split``, other text by ``_TOKEN_RE``, which finds the same runs."""
        return self.lookup(text.translate(_ASCII_BLANKS).split() if text.isascii() else _TOKEN_RE.findall(text))


def normalize(text: str, stoplist: frozenset[str] = frozenset(), stemmer: str = "krovetz") -> list[str]:
    """Tokenize into runs of ``str.isalnum`` characters, casefold, stop, stem, stop again."""
    check_value("text", text, str)
    return list(_TermMemo(stoplist, stemmer).terms(text))


def _strip_markup(text: bytes, fmt: str, blank: bytes | Callable[[re.Match], bytes] = b" ") -> bytes:
    """``text`` with its trecweb <DOCHDR> and each tag replaced by ``blank``."""
    if fmt == "trecweb":
        text = _DOCHDR_RE.sub(blank, text)
    return _TAG_RE.sub(blank, text)


def _same_width(markup: re.Match) -> bytes:
    return b" " * len(markup[0])


def _decode(raw: bytes, at: int, path: str | Path, part: str, ordinal: int) -> str:
    """``raw``, the ``part`` of document block ``ordinal``, as strict UTF-8; the
    error names a bad byte's file offset, ``raw`` being at ``at``."""
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        bad, at = raw[exc.start : exc.start + 1], at + exc.start
        what = f"{path}: {part} in document block {ordinal}"
        raise CorpusFormatError(f"{what} is not UTF-8: byte {at} is {bad!r}") from None


def parse_trec_collection(path: str | Path, fmt: str = "trectext") -> Iterator[RawDocument]:
    """Stream RawDocuments out of a TREC text/web SGML file.  A document's text
    is its block with each <DOCNO>, trecweb <DOCHDR> and tag replaced by a
    blank; its whitespace is left as the file has it."""
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
            raise CorpusFormatError(f"{path}: unexpected content outside <DOC> block at byte {junk_at}")
        if start == -1:
            return
        end = data.find(b"</DOC>", start)
        if end == -1:
            raise CorpusFormatError(f"{path}: unterminated <DOC> block at byte {start}")
        ordinal += 1
        block = data[start:end]  # <DOC> included (a tag, so stripped): start + offset = file offset
        pieces = _DOCNO_RE.split(block)  # the text around each <DOCNO>, and the ids between
        if len(pieces) == 1:
            raise CorpusFormatError(f"{path}: missing <DOCNO> in document block {ordinal} at byte {start}")
        at = start + len(pieces[0]) + len(b"<DOCNO>")
        doc_id = _decode(pieces[1], at, path, "<DOCNO>", ordinal).strip()
        if not doc_id:
            raise CorpusFormatError(f"{path}: empty <DOCNO> in document block {ordinal} at byte {start}")
        try:
            text = _strip_markup(b" ".join(pieces[::2]), fmt).decode("utf-8")
        except UnicodeDecodeError:  # markup blanked in place keeps each byte at its offset
            blanked = _strip_markup(_DOCNO_RE.sub(_same_width, block), fmt, _same_width)
            text = _decode(blanked, start, path, "text", ordinal)
        yield RawDocument(doc_id, text)
        pos = end + len(b"</DOC>")


def normalize_collection(
    docs: Iterable[RawDocument], stoplist: frozenset[str], stemmer: str = "krovetz"
) -> Iterator[TermSequence]:
    """Each document's terms, as ``normalize`` gives them.  One call normalizes
    each distinct raw token once: its memo lives as long as the call and holds
    one entry per distinct token seen, so it is bounded by the collection's
    raw vocabulary, and equal terms share one string.

    The documents are read ``_BLOCK_DOCS`` at a time.  A block whose text is
    all ASCII is joined by blanks and translated by one call; translation
    keeps every character's place, so each document's tokens are the split of
    its slice.  Other blocks are tokenized document by document."""
    check_collection("docs", docs, "documents", stream=True)
    memo = _TermMemo(stoplist, stemmer)
    docs = iter(docs)
    while block := list(islice(docs, _BLOCK_DOCS)):
        try:
            joined = " ".join(doc.text for doc in block)
        except TypeError:  # a text that is not a str: name the first such document
            for doc in block:
                check_value(f"the text of doc {doc.doc_id!r}", doc.text, str)
            raise
        if not joined.isascii():
            yield from (TermSequence(doc.doc_id, memo.terms(doc.text)) for doc in block)
            continue
        blanked, end = joined.translate(_ASCII_BLANKS), -1
        for doc in block:
            start, end = end + 1, end + 1 + len(doc.text)
            yield TermSequence(doc.doc_id, memo.lookup(blanked[start:end].split()))


def parse_qrels(path: str | Path) -> QrelSet:
    """Parse whitespace-separated "qid 0 docid grade" judgment lines."""
    qrels = QrelSet()
    for lineno, (query_id, _, doc_id, grade_str) in _read_table(path, 4):
        try:
            grade = parse_number(grade_str, int)
        except ValueError:
            raise CorpusFormatError(f"{path}:{lineno}: non-integer grade {grade_str!r}") from None
        if grade < 0:
            raise CorpusFormatError(f"{path}:{lineno}: negative grade {grade}")
        qrels.set(query_id, doc_id, grade)
    return qrels


def parse_run(path: str | Path) -> dict[str, list[str]]:
    """Read a TREC run file into query_id -> doc ids.  As in trec_eval, docs
    are ordered by score, then doc id, both descending, the rank is ignored,
    and a query may rank a doc only once.  Lines are checked in file order,
    width, rank, then score; a repeated doc is named once all have passed.
    Scores that already strictly decrease, as ``write_freezing_run`` writes
    them, are in that order and are not sorted."""
    entries: dict[str, tuple[list[float], list[str], list[int]]] = {}
    current = None
    for lineno, (query_id, _, doc_id, rank, score, _) in _read_table(path, 6):
        if not (rank.isascii() and rank.isdigit()):  # parse_number decides the rest, +1 among them
            try:
                parse_number(rank, int)
            except ValueError:
                raise CorpusFormatError(f"{path}:{lineno}: non-integer rank {rank!r}") from None
        try:
            score_num = parse_number(score, float)
        except ValueError:
            score_num = math.nan
        if not math.isfinite(score_num):
            raise CorpusFormatError(f"{path}:{lineno}: bad score {score!r}")
        if query_id != current:  # a query's lines are usually together
            current = query_id
            scores, docs, lines = entries.setdefault(query_id, ([], [], []))
        scores.append(score_num)
        docs.append(doc_id)
        lines.append(lineno)
    run = {}
    for query_id, (scores, docs, lines) in sorted(entries.items()):
        if len(set(docs)) < len(docs):  # cheaper than a check per line; name the lines now
            reject_repeats(path, zip(lines, docs), lambda d: f"doc {d!r} of query {query_id!r}")
        if not all(map(float.__gt__, scores, scores[1:])):
            docs = [doc for _, doc in sorted(zip(scores, docs), reverse=True)]
        run[query_id] = docs
    return run


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
    raw: list[tuple[int, str, str]] = []  # (line, query id, text)
    text = read_text(path)
    if fmt == "tsv":
        for lineno, line in enumerate(text.split("\n"), 1):
            if not line.strip():
                continue
            if "\t" not in line:
                raise CorpusFormatError(f"{path}:{lineno}: expected qid<TAB>text")
            query_id, query_text = line.split("\t", 1)
            raw.append((lineno, query_id.strip(), query_text))
    else:
        blocks = _TOPIC_START_RE.split(text)
        if len(blocks) == 1 and text.strip():
            raise CorpusFormatError(f"{path}: no <top> block")
        lineno = 1 + blocks[0].count("\n")  # each block's <top> tag is on this line
        for block in blocks[1:]:
            num = _TOPIC_NUM_RE.search(block)
            if num is None:
                raise CorpusFormatError(f"{path}:{lineno}: topic block without <num>")
            m = _TOPIC_TITLE_RE.search(block)
            if m is None:
                raise CorpusFormatError(f"{path}:{lineno}: topic {num.group(1)} has no <title> field")
            raw.append((lineno, num.group(1).strip(), m.group(1)))
            lineno += block.count("\n")
    reject_repeats(path, ((lineno, query_id) for lineno, query_id, _ in raw), lambda q: f"query id {q!r}")
    memo = _TermMemo(stoplist, stemmer)
    topics = []
    for lineno, query_id, query_text in raw:
        check_field(query_id, f"{path}:{lineno}: query id", CorpusFormatError)  # as a run line's field
        terms = memo.terms(query_text)
        if not terms:
            raise CorpusFormatError(f"{path}:{lineno}: topic {query_id!r} is empty after normalization")
        topics.append(Topic(query_id, terms))
    return topics
