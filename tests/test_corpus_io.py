import itertools
import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from irfkit import corpus_io, krovetz
from irfkit.corpus_io import (
    CorpusFormatError,
    QrelSet,
    RawDocument,
    TermSequence,
    Topic,
    normalize,
    normalize_collection,
    parse_qrels,
    parse_run,
    parse_topics,
    parse_trec_collection,
    write_qrels,
)
from irfkit.evaluation import average_precision, cross_validate, ndcg_at_20
from irfkit.feedback import (
    FeedbackPools, ModelParams, estimate_distillation, estimate_prob, estimate_rm3, estimate_rocchio, load_params,
)
from irfkit.index import build_index
from irfkit.ranking import query_count_vector, query_language_model
from irfkit.session import MODEL_KINDS, BudgetConfig, run_irf
from irfkit.krovetz import _EXCEPTIONS, stem

from support import normalize_per_token, reference_parse_run, reference_parse_trec_collection, reference_stem


def judgments(qrels):
    """Every grade a QrelSet holds, by query and doc."""
    return {query_id: qrels.grades_for(query_id) for query_id in qrels.query_ids()}


class TestParseTrecCollection:
    def test_single_well_formed_record(self, tmp_path):
        path = tmp_path / "c.trectext"
        path.write_text("<DOC><DOCNO> X1 </DOCNO><TEXT>hello world</TEXT></DOC>")
        docs = list(parse_trec_collection(path))
        # <DOC>, the <DOCNO> and each tag are a blank each; the text's whitespace is kept
        assert docs == [RawDocument("X1", "   hello world ")]

    def test_empty_file_yields_empty_stream(self, tmp_path):
        path = tmp_path / "empty.trectext"
        path.write_text("")
        assert list(parse_trec_collection(path)) == []

    def test_three_blocks_in_file_order(self, tmp_path):
        blocks = "".join(
            f"<DOC><DOCNO>D{i}</DOCNO><TEXT>text {i}</TEXT></DOC>\n" for i in range(3)
        )
        path = tmp_path / "c.trectext"
        path.write_text(blocks)
        # oracle: the file contains exactly 3 <DOC> tags
        assert blocks.count("<DOC>") == 3
        docs = list(parse_trec_collection(path))
        assert [d.doc_id for d in docs] == ["D0", "D1", "D2"]

    def test_missing_docno_names_block(self, tmp_path):
        path = tmp_path / "c.trectext"
        path.write_text("<DOC><TEXT>no id</TEXT></DOC>")
        with pytest.raises(CorpusFormatError, match="DOCNO.*block 1"):
            list(parse_trec_collection(path))

    def test_unterminated_block_names_byte_offset(self, tmp_path):
        path = tmp_path / "c.trectext"
        path.write_text("  <DOC><DOCNO>D1</DOCNO>")
        with pytest.raises(CorpusFormatError, match="byte 2"):
            list(parse_trec_collection(path))

    def test_junk_between_blocks_is_an_error(self, tmp_path):
        path = tmp_path / "c.trectext"
        path.write_text("<DOC><DOCNO>D1</DOCNO><TEXT>x</TEXT></DOC>junk")
        with pytest.raises(CorpusFormatError, match="byte"):
            list(parse_trec_collection(path))

    def test_trecweb_strips_dochdr_and_tags(self, tmp_path):
        path = tmp_path / "c.trecweb"
        path.write_text(
            "<DOC><DOCNO>W1</DOCNO><DOCHDR>http://x HTTP/1.0</DOCHDR>"
            "<html><body>alpha <b>beta</b></body></html></DOC>"
        )
        docs = list(parse_trec_collection(path, "trecweb"))
        assert docs[0].doc_id == "W1"
        assert docs[0].text == "     alpha  beta   "

    def test_non_utf8_docno_names_path_block_and_byte(self, tmp_path):
        # replacing the bad bytes would merge the two ids into 'A\ufffd'
        path = tmp_path / "c.trectext"
        path.write_bytes(b"<DOC><DOCNO>A\xff</DOCNO></DOC>\n<DOC><DOCNO>A\xfe</DOCNO></DOC>\n")
        message = f"{path}: <DOCNO> in document block 1 is not UTF-8: byte 13 is b'\\xff'"
        with pytest.raises(CorpusFormatError, match=re.escape(message)):
            list(parse_trec_collection(path))

    @pytest.mark.parametrize("fmt", ["trectext", "trecweb"])
    def test_non_utf8_text_names_path_block_and_byte(self, tmp_path, fmt):
        # replacing the bad bytes would index Latin-1 'caf\xe9 na\xefve' as caf, na, ve
        data = (
            b"<DOC><DOCNO>D1</DOCNO><TEXT>ok</TEXT></DOC>\n"
            b"<DOC><DOCNO>D2</DOCNO><DOCHDR>h</DOCHDR><TEXT>caf\xe9 na\xefve</TEXT></DOC>\n"
        )
        path = tmp_path / "c.trectext"
        path.write_bytes(data)
        at = data.index(b"\xe9")
        message = f"{path}: text in document block 2 is not UTF-8: byte {at} is b'\\xe9'"
        with pytest.raises(CorpusFormatError, match=re.escape(message)):
            list(parse_trec_collection(path, fmt))

    @pytest.mark.parametrize(
        "fmt,block",
        [
            ("trectext", b"<TEXT class='\xff'>caf\xc3\xa9</TEXT>"),
            ("trecweb", b"<DOCHDR>\xff</DOCHDR>caf\xc3\xa9"),
        ],
    )
    def test_non_utf8_bytes_in_stripped_markup_are_ignored(self, tmp_path, fmt, block):
        path = tmp_path / "c.trectext"
        path.write_bytes(b"<DOC><DOCNO>D1</DOCNO>" + block + b"</DOC>")
        text = {"trectext": "   caf\u00e9 ", "trecweb": "   caf\u00e9"}[fmt]  # one blank per markup
        assert list(parse_trec_collection(path, fmt)) == [RawDocument("D1", text)]

    @pytest.mark.parametrize(
        "text",
        [
            "<DOC><DOCNO>D1</DOCNO></DOC>junk",
            "<DOC><DOCNO>D1</DOCNO>",
            "<DOC><TEXT>no id</TEXT></DOC>",
            "<DOC><DOCNO> </DOCNO></DOC>",
        ],
    )
    def test_every_error_names_the_file(self, tmp_path, text):
        path = tmp_path / "c.trectext"
        path.write_text(text)
        with pytest.raises(CorpusFormatError, match=f"^{re.escape(str(path))}: "):
            list(parse_trec_collection(path))

    def test_unknown_format_rejected(self, tmp_path):
        path = tmp_path / "c.x"
        path.write_text("")
        with pytest.raises(ValueError, match="format"):
            list(parse_trec_collection(path, "warc"))


# pieces of a document block: words, every kind of whitespace str.split takes
# (\x1c-\x1f, \x85, \xa0, U+3000 among them), tags, lone < and >, a trecweb
# <DOCHDR>, a second <DOCNO>, non-ASCII text and a byte that is not UTF-8
BLOCK_PIECES = [
    b"alpha", b"Dogs", b"running", b"x_y", b"2019", b"caf\xc3\xa9", b"\xce\xa3\xce\x8a",
    b" ", b"  ", b"\n", b"\t", b"\r\n", b"\x0b\x0c", b"\x1c", b"\x1d", b"\x1e", b"\x1f",
    b"\xc2\x85", b"\xc2\xa0", b"\xe3\x80\x80", b"<", b">", b"<b>", b"</b>", b"<TEXT>", b"</TEXT>",
    b"<DOCHDR>http://x HTTP/1.0</DOCHDR>", b"<DOCHDR>", b"</DOCHDR>", b"<DOCNO>D9</DOCNO>", b"\xff",
]
DOCNOS = [b"D1", b" D2 ", b"\nD3\n", b"", b" ", b"caf\xc3\xa9", b"\xff"]


@st.composite
def trec_files(draw):
    """Blocks of pieces, most with a <DOCNO>, some without one or between junk."""
    pieces = st.lists(st.sampled_from(BLOCK_PIECES), max_size=8).map(b"".join)
    blocks = []
    for _ in range(draw(st.integers(0, 4))):
        docno = b"<DOCNO>" + draw(st.sampled_from(DOCNOS)) + b"</DOCNO>" if draw(st.integers(0, 9)) else b""
        gap = draw(st.sampled_from([b"\n", b"", b" \n", b"\n" * 3, b"junk"]))
        blocks.append(b"<DOC>" + draw(pieces) + docno + draw(pieces) + b"</DOC>" + gap)
    return b"".join(blocks)


@settings(deadline=None)
@given(trec_files(), st.sampled_from(corpus_io.COLLECTION_FORMATS))
@example(b"<DOC><DOCNO> X1 </DOCNO>\n<TEXT>\nhello\x1c\xc2\xa0world\n</TEXT></DOC>\n", "trectext")
@example(b"<DOC><DOCNO>D1</DOCNO>a <DOCNO>D9</DOCNO> b</DOC>", "trectext")  # each <DOCNO> is blanked
def test_the_documents_or_error_of_the_collapsing_parser(tmp_path_factory, data, fmt):
    """The parser keeps the file's whitespace: collapsed, its text is the text
    of the parser that collapsed it, and both normalize to the same terms."""
    path = tmp_path_factory.mktemp("trec") / "c.trec"
    path.write_bytes(data)

    def outcome(parse):
        try:
            return list(parse(path, fmt))
        except CorpusFormatError as exc:
            return str(exc)

    docs, expected = outcome(parse_trec_collection), outcome(reference_parse_trec_collection)
    if isinstance(expected, str):
        assert docs == expected
        return
    assert [doc.doc_id for doc in docs] == [doc.doc_id for doc in expected]
    assert [RawDocument(doc.doc_id, " ".join(doc.text.split())) for doc in docs] == expected
    stoplist = corpus_io.default_stoplist()
    assert list(normalize_collection(docs, stoplist)) == list(normalize_collection(expected, stoplist))


class TestNormalize:
    def test_krovetz_running_dogs(self):
        assert normalize("The Running dogs", frozenset({"the"})) == ["run", "dog"]

    def test_empty_input(self):
        assert normalize("", frozenset({"the"})) == []

    def test_all_stopwords(self):
        assert normalize("the the the", frozenset({"the"})) == []

    def test_splits_on_nonalnum_runs_and_casefolds(self):
        assert normalize("Postings--List; v2!", frozenset(), stemmer="none") == [
            "postings",
            "list",
            "v2",
        ]

    def test_none_stemmer_disables_stemming(self):
        assert normalize("running dogs", frozenset(), stemmer="none") == ["running", "dogs"]

    def test_unknown_stemmer_rejected(self):
        with pytest.raises(ValueError, match="stemmer"):
            normalize("x", frozenset(), stemmer="porter")

    def test_stemmed_form_landing_on_stopword_is_dropped(self, stoplist):
        # "uses" stems to "use", which is a stopword
        assert "use" in stoplist
        assert normalize("uses", stoplist) == []

    @given(st.text(max_size=80))
    def test_output_never_contains_stopwords(self, stoplist, text):
        for term in normalize(text, stoplist):
            assert term not in stoplist
            assert term == term.casefold()
            assert term

    @given(st.text(alphabet=st.characters(min_codepoint=97, max_codepoint=122), min_size=1, max_size=20))
    def test_normalize_idempotent_on_own_output(self, stoplist, word):
        once = normalize(word, stoplist)
        again = normalize(" ".join(once), stoplist)
        assert again == once


# Words that exercise each step of normalization: case variants of one word,
# INQUERY stopwords, words stopped only once stemmed (goes -> go, uses -> use),
# non-ASCII letters (a ligature and sharp s casefold to two letters, dotted
# capital I to two code points), digits, and _ inside a would-be token.
WORDS = [
    "running", "Running", "RUNNING", "runs", "dogs", "Dogs", "the", "The", "THE", "of", "and",
    "goes", "Goes", "going", "uses", "having", "organized", "organizations", "fled",
    "café", "Straße", "\ufb01les", "İstanbul", "ΣΊΣΥΦΟΣ", "naïve", "2019", "v2", "x_y", "_", "__a",
]
SEPARATORS = [" ", "  ", "-", "_", ", ", ". ", "\u00a0", "'"]
STOPLISTS = [frozenset(), corpus_io.default_stoplist(), frozenset({"go", "run", "dog"})]

# ASCII text takes translate + split, other text _TOKEN_RE.  Draw every code point
# below 128, weighted to _, digits and the control characters str.split takes for
# whitespace (\x0b, \x0c, \x1c-\x1f), and ASCII text with one non-ASCII character
# spliced in, so that both paths meet normalize_per_token
ascii_texts = st.text(
    st.sampled_from("_09aZ \t\n\x0b\x0c\x1c\x1d\x1e\x1f") | st.characters(max_codepoint=127), max_size=40
)
texts = (
    st.lists(st.tuples(st.sampled_from(WORDS), st.sampled_from(SEPARATORS)), max_size=12).map(
        lambda pairs: "".join(word + sep for word, sep in pairs)
    )
    | st.text(max_size=40)
    | ascii_texts
    | st.builds(lambda head, ch, tail: head + ch + tail, ascii_texts, st.characters(min_codepoint=128), ascii_texts)
)


class TestNormalizeMatchesPerToken:
    """Normalization memoized per call gives the terms of the per-token loop."""

    @given(texts, st.sampled_from(STOPLISTS), st.sampled_from(corpus_io.STEMMERS))
    def test_normalize(self, text, stoplist, stemmer):
        assert normalize(text, stoplist, stemmer) == normalize_per_token(text, stoplist, stemmer)

    @given(st.lists(texts, max_size=5), st.sampled_from(STOPLISTS), st.sampled_from(corpus_io.STEMMERS))
    def test_normalize_collection(self, docs, stoplist, stemmer):
        raw = [RawDocument(f"d{i}", text) for i, text in enumerate(docs)]
        expected = [TermSequence(d.doc_id, tuple(normalize_per_token(d.text, stoplist, stemmer))) for d in raw]
        assert list(normalize_collection(raw, stoplist, stemmer)) == expected

    @given(
        st.lists(texts.map(lambda t: " ".join(t.split())), min_size=1, max_size=5),
        st.sampled_from(STOPLISTS), st.sampled_from(corpus_io.STEMMERS),
    )
    def test_parse_topics(self, tmp_path_factory, queries, stoplist, stemmer):
        path = tmp_path_factory.mktemp("topics") / "topics.tsv"
        path.write_text("".join(f"q{i}\t{text}\n" for i, text in enumerate(queries)), "utf-8")
        expected = [Topic(f"q{i}", tuple(normalize_per_token(t, stoplist, stemmer))) for i, t in enumerate(queries)]
        if all(topic.terms for topic in expected):
            assert parse_topics(path, "tsv", stoplist, stemmer) == expected
        else:
            with pytest.raises(CorpusFormatError, match="empty after normalization"):
                parse_topics(path, "tsv", stoplist, stemmer)


@pytest.mark.parametrize("code", range(128))
def test_each_ascii_character_splits_or_joins_tokens_as_the_pattern_does(code):
    text = f"a{chr(code)}b {chr(code)} {chr(code) * 2}"
    tokens = re.findall(r"[^\W_]+", text)
    assert corpus_io._TermMemo(frozenset(), "none").terms(text) == tuple(token.casefold() for token in tokens)


class TestCollectionArguments:
    """A stoplist or a docs argument that is a str or None is named, not read
    as its characters or substrings."""

    def test_a_str_stoplist_is_named(self, tmp_path):
        path = tmp_path / "topics.tsv"
        path.write_text("q1\tt he dog eh the\n", "utf-8")
        message = "^stoplist must be a collection of words, not the str 'the'$"
        calls = [lambda: normalize("t he dog eh the", "the"), lambda: parse_topics(path, "tsv", "the"),
                 lambda: list(normalize_collection([RawDocument("d1", "t he")], "the"))]
        for call in calls:
            with pytest.raises(ValueError, match=message):
                call()
        assert normalize("t he dog eh the", frozenset({"the"})) == ["t", "he", "dog", "eh"]

    def test_a_none_stoplist_is_named(self):
        with pytest.raises(ValueError, match="^stoplist must be a collection of words, not None$"):
            normalize("dog", None)

    @pytest.mark.parametrize("text", [5, None, b"abc", True])
    def test_a_text_that_is_not_a_str_is_named(self, text):
        # 5 and None raised AttributeError on isascii, b"abc" a bare TypeError
        with pytest.raises(ValueError, match=f"^text must be str, got {re.escape(repr(text))}$"):
            normalize(text)

    @pytest.mark.parametrize("text", [5, b"abc"])
    @pytest.mark.parametrize("at", [0, 1, corpus_io._BLOCK_DOCS])  # the first of its block or not
    def test_a_document_text_that_is_not_a_str_is_named(self, text, at):
        # the block join raised TypeError: sequence item 0: expected str instance, int found
        docs = edge_docs(corpus_io._BLOCK_DOCS + 2)
        docs[at] = RawDocument("bad", text)
        docs[-1] = RawDocument("later", 7)
        with pytest.raises(ValueError, match=f"^the text of doc 'bad' must be str, got {re.escape(repr(text))}$"):
            list(normalize_collection(docs, frozenset()))

    @pytest.mark.parametrize("item", [("bad", "x"), None, TermSequence("bad", ("x",))], ids=["tuple", "None", "terms"])
    @pytest.mark.parametrize("at", [0, 1, corpus_io._BLOCK_DOCS])  # the first of its block or not
    def test_an_item_that_is_not_a_raw_document_is_named_by_its_place(self, item, at):
        # each raised AttributeError: ... object has no attribute 'text'
        docs = edge_docs(corpus_io._BLOCK_DOCS + 2)
        docs[at] = item
        docs[-1] = None
        with pytest.raises(ValueError, match=f"^item {at} of docs must be RawDocument, got {re.escape(repr(item))}$"):
            list(normalize_collection(iter(docs), frozenset()))

    @pytest.mark.parametrize("docs,shown", [(None, "None"), ("abc", "the str 'abc'")])
    def test_docs_that_are_not_a_collection_are_named(self, docs, shown):
        with pytest.raises(ValueError, match=f"^docs must be a collection of documents, not {shown}$"):
            list(normalize_collection(docs, frozenset()))


ESTIMATORS = (estimate_rm3, estimate_distillation, estimate_rocchio, estimate_prob)
INDEX = build_index([TermSequence("d1", ("apple", "pie")), TermSequence("d2", ("pie",))])
QRELS = QrelSet()
QRELS.set("q", "d1", 1)
# each entry point that takes a collection of names: a call with the value
# given, and the parameter and what its message says it must be
COLLECTION_ARGUMENTS = [
    *((f.__name__, lambda v, f=f: f(v), "query_terms", "collection of terms")
      for f in (query_language_model, query_count_vector)),
    *((f.__name__, lambda v, f=f: f(INDEX, v, FeedbackPools(["d1"], ["d2"]), ModelParams()), "query_terms",
       "collection of terms") for f in ESTIMATORS),
    *((f"run_irf[{kind}]", lambda v, kind=kind: run_irf(
        INDEX, Topic("q", v), kind, ModelParams(), BudgetConfig(1, 1), QRELS.is_relevant
    ), "query_terms", "collection of terms") for kind in MODEL_KINDS),
    ("FeedbackPools.relevant", lambda v: FeedbackPools(v), "relevant", "collection of doc ids"),
    ("FeedbackPools.nonrelevant", lambda v: FeedbackPools(["d1"], v), "nonrelevant", "collection of doc ids"),
    # a run is ordered: its ranks are read by slicing
    ("average_precision", lambda v: average_precision(v, QRELS, "q"), "run", "sequence of doc ids"),
    ("ndcg_at_20", lambda v: ndcg_at_20(v, QRELS, "q"), "run", "sequence of doc ids"),
    ("cross_validate", lambda v: cross_validate(lambda p: {}, v, [ModelParams()], folds=1), "query_ids",
     "collection of query ids"),
    ("build_index", lambda v: build_index([TermSequence("d1", v)]), "the terms of doc 'd1'", "collection of terms"),
]


@pytest.mark.parametrize(
    "value,shown", [("apple", "the str 'apple'"), (None, "None"), (b"apple", "the bytes b'apple'")],
    ids=["str", "None", "bytes"],
)
@pytest.mark.parametrize("call,name,of", [case[1:] for case in COLLECTION_ARGUMENTS],
                         ids=[case[0] for case in COLLECTION_ARGUMENTS])
def test_a_str_or_none_for_a_collection_of_names_is_named(call, name, of, value, shown):
    # a str would be read as its characters: the query "apple" as the terms a, e, l, p
    with pytest.raises(ValueError, match=f"^{re.escape(f'{name} must be a {of}, not {shown}')}$"):
        call(value)


@pytest.mark.parametrize("call,name,of", [case[1:] for case in COLLECTION_ARGUMENTS if case[0] != "build_index"],
                         ids=[case[0] for case in COLLECTION_ARGUMENTS if case[0] != "build_index"])
def test_an_iterator_for_a_collection_of_names_is_named(call, name, of):
    # read more than once, or measured: the query's length is its model's denominator
    with pytest.raises(ValueError, match=f"^{re.escape(f'{name} must be a {of}, not a list_iterator')}$"):
        call(iter(["apple"]))


@pytest.mark.parametrize("call,name,of", [case[1:] for case in COLLECTION_ARGUMENTS if case[3].startswith("sequence")],
                         ids=[case[0] for case in COLLECTION_ARGUMENTS if case[3].startswith("sequence")])
def test_a_set_for_a_sequence_of_names_is_named(call, name, of):
    # it was sliced, and failed with "'set' object is not subscriptable"
    with pytest.raises(ValueError, match=f"^{re.escape(f'{name} must be a {of}, not a set')}$"):
        call({"d1"})


def test_normalize_collection_stems_each_distinct_token_once_per_call(monkeypatch, stoplist):
    calls = []

    def counting_stem(word):
        calls.append(word)
        return stem(word)

    monkeypatch.setattr(krovetz, "stem", counting_stem)
    docs = [RawDocument("d1", "The dogs ran; the Dogs ran on"), RawDocument("d2", "dogs ran and goes"),
            RawDocument("d3", "ran ran DOGS dogs")]
    raw_tokens = {"The", "the", "dogs", "Dogs", "DOGS", "ran", "on", "and", "goes"}

    def stemmed(stops):
        return sorted(token.casefold() for token in raw_tokens if token.casefold() not in stops)

    sequences = list(normalize_collection(docs, stoplist))
    assert sorted(calls) == stemmed(stoplist) == ["dogs", "dogs", "dogs", "goes", "ran"]
    assert [s.terms for s in sequences] == [("dog", "ran", "dog", "ran"), ("dog", "ran"), ("ran", "ran", "dog", "dog")]
    assert sequences[0].terms[0] is sequences[2].terms[3]  # one string per term
    # a second call, with another stoplist, starts from an empty memo
    calls.clear()
    sequences = list(normalize_collection(docs, frozenset({"dogs"})))
    assert sorted(calls) == stemmed({"dogs"}) == ["and", "goes", "on", "ran", "the", "the"]
    assert sequences[1].terms == ("ran", "and", "go")


# texts whose tokens would run together, or land in a neighbour, if a
# document's slice of its translated block were off by one
EDGE_TEXTS = ["The Dogs ran.", "", "a-b_c", "  x\ty\n", "running9 2019", "<>", "Goes", "-", "z"]
BLOCK = corpus_io._BLOCK_DOCS


def edge_docs(count: int) -> list[RawDocument]:
    return [RawDocument(f"d{i}", f"{EDGE_TEXTS[i % len(EDGE_TEXTS)]}w{i}") for i in range(count)]


class TestNormalizeCollectionBlocks:
    """Documents are translated a block at a time; each gets the terms the
    per-token loop finds in its own text."""

    @pytest.mark.parametrize("count", [0, 1, BLOCK - 1, BLOCK, BLOCK + 1])
    def test_each_document_at_block_edges(self, stoplist, count):
        docs = edge_docs(count)
        expected = [TermSequence(d.doc_id, tuple(normalize_per_token(d.text, stoplist))) for d in docs]
        assert list(normalize_collection(docs, stoplist)) == expected

    @pytest.mark.parametrize("at", [0, 1, BLOCK // 2, BLOCK - 1, BLOCK])
    def test_one_non_ascii_document_in_an_ascii_block(self, stoplist, at):
        docs = edge_docs(BLOCK + 1)
        docs[at] = RawDocument(docs[at].doc_id, "Caf\u00e9s na\u00efve\u3000STRASSE\u00a0running")
        expected = [TermSequence(d.doc_id, tuple(normalize_per_token(d.text, stoplist))) for d in docs]
        assert list(normalize_collection(docs, stoplist)) == expected

    @pytest.mark.parametrize("second", ["DOG dogs", "DOG caf\u00e9 dogs"], ids=["ascii", "non-ascii"])
    def test_equal_terms_are_one_string(self, second):
        # dogs, dog and Dogs are three raw tokens of one term
        sequences = list(normalize_collection([RawDocument("d1", "dogs dog Dogs"), RawDocument("d2", second)],
                                              frozenset()))
        terms = [term for seq in sequences for term in seq.terms if term.startswith("dog")]
        assert terms == ["dog"] * 5
        assert all(term is terms[0] for term in terms)


class TestKrovetzStemmer:
    @pytest.mark.parametrize(
        "word,expected",
        [
            ("running", "run"),
            ("dogs", "dog"),
            ("flies", "fly"),
            ("stories", "story"),
            ("boxes", "box"),
            ("churches", "church"),
            ("makes", "make"),
            ("dies", "die"),
            ("stopped", "stop"),
            ("planned", "plan"),
            ("visited", "visit"),
            ("loved", "love"),
            ("danced", "dance"),
            ("organized", "organize"),
            ("issued", "issue"),
            ("agreed", "agree"),
            ("tried", "try"),
            ("created", "create"),
            ("creating", "create"),
            ("heated", "heat"),
            ("walking", "walk"),
            ("dancing", "dance"),
            ("organizations", "organize"),
            ("classification", "classify"),
            ("string", "string"),
            ("press", "press"),
            ("news", "news"),
            ("children", "child"),
        ],
    )
    def test_rule_cascade(self, word, expected):
        assert stem(word) == expected

    def test_short_words_untouched(self):
        for word in ("a", "is", "go", "the", "red"):
            assert stem(word) == word

    # the shipped lexicon of words the stemmer special-cases
    @pytest.mark.parametrize("word", sorted(_EXCEPTIONS))
    def test_exception_targets_are_fixed_points(self, word):
        assert stem(stem(word)) == stem(word)

    def test_every_short_word_and_exception_as_the_ungated_cascade(self):
        # a pass is skipped for a word that ends in none of s, d, g, n; these
        # letters make every rule's ending
        words = ["".join(letters) for size in range(5) for letters in itertools.product("aedgnsiotzy", repeat=size)]
        words += sorted(_EXCEPTIONS) + sorted(set(_EXCEPTIONS.values()))
        assert [stem(word) for word in words] == [reference_stem(word) for word in words]

    @given(st.text(alphabet=st.characters(min_codepoint=97, max_codepoint=122), max_size=24)
           | st.text(alphabet="aedgnsiotzy", max_size=12) | st.text(max_size=12))
    @settings(max_examples=300)
    def test_stem_as_the_ungated_cascade(self, word):
        assert stem(word) == reference_stem(word)

    @given(st.text(alphabet=st.characters(min_codepoint=97, max_codepoint=122), min_size=1, max_size=24))
    @settings(max_examples=300)
    def test_stem_idempotent(self, word):
        assert stem(stem(word)) == stem(word)

    # words built of the endings the rules strip, so each takes many passes
    @given(
        st.builds(
            "".join,
            st.lists(
                st.sampled_from(["b", "stop", "creat", "organ", "class", "ed", "ing", "es", "s", "ies",
                                 "ied", "ation", "ization", "ification"]),
                min_size=1,
                max_size=12,
            ),
        )
    )
    @example("bededededededed")
    @settings(max_examples=300)
    def test_stem_reaches_a_fixed_point_on_suffix_chains(self, word):
        assert stem(stem(word)) == stem(word)


class TestParseQrels:
    def test_single_line(self, tmp_path):
        path = tmp_path / "qrels"
        path.write_text("301 0 D1 1\n")
        qrels = parse_qrels(path)
        assert qrels.grade("301", "D1") == 1
        assert judgments(qrels) == {"301": {"D1": 1}}

    def test_two_lines_direct_transcription(self, tmp_path):
        path = tmp_path / "qrels"
        path.write_text("301 0 D1 2\n301 0 D2 0\n")
        qrels = parse_qrels(path)
        assert qrels.grade("301", "D1") == 2
        assert qrels.grade("301", "D2") == 0
        assert judgments(qrels) == {"301": {"D1": 2, "D2": 0}}

    def test_large_file_entry_count(self, tmp_path):
        # one entry per unique pair, sized like a full document test set
        lines = []
        for q in range(250):
            for d in range(70):
                if len(lines) == 17412:
                    break
                lines.append(f"{300 + q} 0 DOC{q}-{d} {(q + d) % 3}")
        path = tmp_path / "qrels"
        path.write_text("\n".join(lines) + "\n")
        assert len(lines) == 17412
        assert sum(len(grades) for grades in judgments(parse_qrels(path)).values()) == 17412

    def test_non_integer_grade_reports_line(self, tmp_path):
        path = tmp_path / "qrels"
        path.write_text("301 0 D1 1\n301 0 D2 x\n")
        with pytest.raises(CorpusFormatError, match=":2:"):
            parse_qrels(path)

    @pytest.mark.parametrize("grade", ["1_0", "\u0661", "\uff11"])
    def test_grade_must_be_ascii_digits(self, tmp_path, grade):
        # int() alone reads 1_0 as 10 and other scripts' digits as their values
        path = tmp_path / "qrels"
        path.write_text(f"301 0 D1 1\n301 0 D2 {grade}\n", "utf-8")
        with pytest.raises(CorpusFormatError, match=f":2: non-integer grade {grade!r}"):
            parse_qrels(path)

    @pytest.mark.parametrize("grade, message", [(True, "must be int, got True"), (-1, "must be >= 0, got -1")])
    def test_set_grade_follows_the_count_rule(self, grade, message):
        # True was stored as a grade
        with pytest.raises(ValueError, match=f"^the grade of \\(301, D1\\) {message}$"):
            QrelSet().set("301", "D1", grade)

    def test_duplicate_pairs_overwrite(self, tmp_path):
        path = tmp_path / "qrels"
        path.write_text("301 0 D1 0\n301 0 D1 2\n")
        qrels = parse_qrels(path)
        assert qrels.grade("301", "D1") == 2
        assert judgments(qrels) == {"301": {"D1": 2}}

    def test_round_trip(self, tmp_path):
        path = tmp_path / "qrels"
        path.write_text("9 0 B 1\n2 0 A 0\n2 0 C 2\n")
        qrels = parse_qrels(path)
        out = tmp_path / "qrels2"
        write_qrels(qrels, out)
        assert judgments(parse_qrels(out)) == judgments(qrels)

    @given(
        st.dictionaries(
            st.tuples(
                st.text(alphabet="0123456789", min_size=1, max_size=3),
                st.text(alphabet="ABCD", min_size=1, max_size=3),
            ),
            st.integers(min_value=0, max_value=4),
            max_size=30,
        )
    )
    def test_round_trip_property(self, tmp_path_factory, pairs):
        qrels = QrelSet()
        for (query_id, doc_id), grade in pairs.items():
            qrels.set(query_id, doc_id, grade)
        path = tmp_path_factory.mktemp("qrels") / "q"
        write_qrels(qrels, path)
        assert judgments(parse_qrels(path)) == judgments(qrels)


SCORES = ["3.5", "2.0", "1", "0.0", "-0.0", "-1e3"] * 3 + ["nan", "1e400", "0x1p3", "1_0.0", "\u0663.0"]


@st.composite
def run_line(draw):
    """A run line, mostly well formed: any rank or score a reader must take or
    refuse, fields apart by any whitespace ``str.split`` splits on, or 0, 5 or 7
    fields."""
    fields = [
        draw(st.sampled_from(["q1", "q2", "q10"])),
        "Q0",
        draw(st.sampled_from(["d1", "d2", "d3", "d4", "D1", "\u00e9"])),
        draw(st.sampled_from(["1", "2", "10"] * 4 + ["+1", "01", "-1", "1_0", "\u0663"])),
        draw(st.sampled_from(SCORES) | st.integers(-3, 3).map(str)),
        "tag",
    ]
    fields = draw(st.sampled_from([fields] * 12 + [[], fields[:5], [*fields, "x"]]))
    spaces = st.sampled_from([" "] * 6 + ["\t", "  ", "\x1c", "\x85", "\u2028"])
    return "".join(field + draw(spaces) for field in fields)


RUN_FILES = st.builds(
    lambda bom, lines, end: bom + "".join(line + end for line in lines),
    st.sampled_from(["", "\ufeff"]),
    st.lists(run_line(), max_size=8),
    st.sampled_from(["\n", "\r\n", "\r"]),
)


class TestParseRun:
    @settings(max_examples=500, deadline=None)
    @given(RUN_FILES)
    @example("q1 Q0 d1 1 -0.0 t\nq1 Q0 d2 2 0.0 t\nq2 Q0 d1 1 2.0 t\nq1 Q0 d3 3 0.0 t\n")
    @example("q1 Q0 d1 1 2.0 t\nq1 Q0 d2 2 2.0 t\nq1 Q0 d1 3 1.0 t\nq0 Q0 d1 1 1.0 t\nq0 Q0 d1 2 1.0 t\n")
    @example("q1 Q0 d1 +1 2.0 t\nq1 Q0 d2 \u0663 1.0 t\n")
    def test_the_same_run_or_error_as_the_per_line_reader(self, tmp_path_factory, text):
        path = tmp_path_factory.getbasetemp() / "drawn.run"
        path.write_text(text, "utf-8", newline="")
        outcomes = []
        for reader in (parse_run, reference_parse_run):
            try:
                outcomes.append(reader(path))
            except ValueError as error:
                outcomes.append((type(error), str(error)))
        assert outcomes[0] == outcomes[1]


class TestParseTopics:
    def test_tsv_normalizes_through_pipeline(self, tmp_path, stoplist):
        path = tmp_path / "topics.tsv"
        path.write_text("q1\tinternational organized crime\n")
        topics = parse_topics(path, "tsv", stoplist)
        assert topics[0].query_id == "q1"
        assert topics[0].terms == tuple(normalize("international organized crime", stoplist))

    def test_empty_file(self, tmp_path, stoplist):
        path = tmp_path / "topics.tsv"
        path.write_text("")
        assert parse_topics(path, "tsv", stoplist) == []
        assert parse_topics(path, "trec_title", stoplist) == []

    def test_many_topics_count_and_order(self, tmp_path, stoplist):
        lines = [f"{301 + i}\ttopic number term{i}" for i in range(250)]
        path = tmp_path / "topics.tsv"
        path.write_text("\n".join(lines) + "\n")
        topics = parse_topics(path, "tsv", stoplist)
        assert len(topics) == 250
        assert [t.query_id for t in topics] == [str(301 + i) for i in range(250)]

    def test_duplicate_query_id_rejected(self, tmp_path, stoplist):
        path = tmp_path / "topics.tsv"
        path.write_text("q1\talpha\nq1\tbeta\n")
        with pytest.raises(CorpusFormatError, match=f"^{re.escape(str(path))}:2: query id 'q1' is already on line 1$"):
            parse_topics(path, "tsv", stoplist)

    @pytest.mark.parametrize("query_id", ["q 1", "", "q\u00a01", "\ufeffq"])
    def test_query_id_a_run_line_cannot_hold_rejected(self, tmp_path, stoplist, query_id):
        path = tmp_path / "topics.tsv"
        path.write_text(f"q0\talpha\n{query_id}\tbeta\n", "utf-8")
        with pytest.raises(CorpusFormatError, match=r"topics.tsv:2: query id .* is empty or contains whitespace"):
            parse_topics(path, "tsv", stoplist)

    TREC_TOPICS = (
        "<top>\n<num> Number: 301\n<title> International Organized Crime\n"
        "<desc> Description:\nsomething else\n</top>\n"
        "<top>\n<num> Number: 302\n<title> Poliomyelitis vaccine\n</top>\n"
    )

    @pytest.mark.parametrize(
        "fmt,text,message",
        [
            ("tsv", "q1\talpha\n\nq2\tgamma\nq1\tbeta\n", ":4: query id 'q1' is already on line 1"),
            ("tsv", "q1\talpha\n\nq2\tthe of and\n", ":3: topic 'q2' is empty after normalization"),
            # a trec_title topic's line is the line of its <top> tag
            ("trec_title", "\n\n" + TREC_TOPICS.replace("302", "301"), ":9: query id '301' is already on line 3"),
            ("trec_title", TREC_TOPICS.replace("Poliomyelitis vaccine", "The Of"),
             ":7: topic '302' is empty after normalization"),
            ("trec_title", TREC_TOPICS.replace("<num> Number: 302", ""), ":7: topic block without <num>"),
        ],
        ids=["tsv_repeat", "tsv_empty", "trec_repeat", "trec_empty", "trec_no_num"],
    )
    def test_topic_error_names_file_and_line(self, tmp_path, stoplist, fmt, text, message):
        path = tmp_path / "topics"
        path.write_text(text)
        with pytest.raises(CorpusFormatError, match=f"^{re.escape(str(path) + message)}$"):
            parse_topics(path, fmt, stoplist)

    def test_trec_title_format(self, tmp_path, stoplist):
        path = tmp_path / "topics.txt"
        path.write_text(self.TREC_TOPICS)
        topics = parse_topics(path, "trec_title", stoplist)
        assert [t.query_id for t in topics] == ["301", "302"]
        assert topics[0].terms == tuple(normalize("International Organized Crime", stoplist))

    def test_trec_title_tags_in_upper_case(self, tmp_path, stoplist):
        lower, upper = tmp_path / "lower.txt", tmp_path / "upper.txt"
        lower.write_text(self.TREC_TOPICS)
        upper.write_text(re.sub(r"</?[a-z]+>", lambda m: m.group().upper(), self.TREC_TOPICS))
        assert "<TOP>" in upper.read_text() and "<top>" not in upper.read_text()
        assert parse_topics(upper, "trec_title", stoplist) == parse_topics(lower, "trec_title", stoplist)

    def test_text_without_top_block_rejected(self, tmp_path, stoplist):
        path = tmp_path / "topics.tsv"
        path.write_text("q1\tinternational organized crime\n")
        with pytest.raises(CorpusFormatError, match=r"topics.tsv: no <top> block"):
            parse_topics(path, "trec_title", stoplist)

    def test_line_ends_only_at_newline(self, tmp_path, stoplist):
        path = tmp_path / "topics.tsv"
        path.write_text("q1\tinternational\forganized\u2028crime\n", "utf-8")
        topics = parse_topics(path, "tsv", stoplist)
        assert [t.query_id for t in topics] == ["q1"]
        assert topics[0].terms == tuple(normalize("international organized crime", stoplist))

    def test_topic_empty_after_normalization_rejected(self, tmp_path, stoplist):
        path = tmp_path / "topics.tsv"
        path.write_text("q1\tthe of and\n")
        with pytest.raises(CorpusFormatError, match="empty"):
            parse_topics(path, "tsv", stoplist)


def test_default_stoplist_is_the_418_word_list(stoplist):
    assert len(stoplist) == 418
    assert {"the", "of", "and", "whatsoever"} <= stoplist


def test_load_stoplist_from_file(tmp_path):
    path = tmp_path / "stop"
    path.write_text("The\nAND\n")
    assert corpus_io.load_stoplist(path) == {"the", "and"}


@pytest.mark.parametrize(
    "read,text",
    [
        (lambda path: judgments(parse_qrels(path)), "q1 0 D1 1\n"),
        (lambda path: parse_topics(path, "tsv"), "q1\talpha beta\n"),
        (load_params, "mu=50\n"),
    ],
    ids=["qrels", "topics", "params"],
)
def test_leading_byte_order_mark_is_dropped(tmp_path, read, text):
    plain, marked = tmp_path / "plain", tmp_path / "marked"
    plain.write_text(text, "utf-8")
    marked.write_text("\ufeff" + text, "utf-8")
    assert read(marked) == read(plain)
