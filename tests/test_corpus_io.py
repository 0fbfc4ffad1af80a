import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from irfkit import corpus_io
from irfkit.corpus_io import (
    CorpusFormatError,
    QrelSet,
    RawDocument,
    normalize,
    parse_qrels,
    parse_topics,
    parse_trec_collection,
    write_qrels,
)
from irfkit.krovetz import _EXCEPTIONS, stem


class TestParseTrecCollection:
    def test_single_well_formed_record(self, tmp_path):
        path = tmp_path / "c.trectext"
        path.write_text("<DOC><DOCNO> X1 </DOCNO><TEXT>hello world</TEXT></DOC>")
        docs = list(parse_trec_collection(path))
        assert docs == [RawDocument("X1", "hello world")]

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
        assert docs[0].text == "alpha beta"

    def test_unknown_format_rejected(self, tmp_path):
        path = tmp_path / "c.x"
        path.write_text("")
        with pytest.raises(ValueError, match="format"):
            list(parse_trec_collection(path, "warc"))


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

    @given(st.text(alphabet=st.characters(min_codepoint=97, max_codepoint=122), min_size=1, max_size=24))
    @settings(max_examples=300)
    def test_stem_idempotent(self, word):
        assert stem(stem(word)) == stem(word)


class TestParseQrels:
    def test_single_line(self, tmp_path):
        path = tmp_path / "qrels"
        path.write_text("301 0 D1 1\n")
        qrels = parse_qrels(path)
        assert qrels.grade("301", "D1") == 1
        assert len(qrels) == 1

    def test_two_lines_direct_transcription(self, tmp_path):
        path = tmp_path / "qrels"
        path.write_text("301 0 D1 2\n301 0 D2 0\n")
        qrels = parse_qrels(path)
        assert qrels.grade("301", "D1") == 2
        assert qrels.grade("301", "D2") == 0
        assert len(qrels) == 2

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
        assert len(parse_qrels(path)) == 17412

    def test_non_integer_grade_reports_line(self, tmp_path):
        path = tmp_path / "qrels"
        path.write_text("301 0 D1 1\n301 0 D2 x\n")
        with pytest.raises(CorpusFormatError, match=":2:"):
            parse_qrels(path)

    def test_duplicate_pairs_overwrite(self, tmp_path):
        path = tmp_path / "qrels"
        path.write_text("301 0 D1 0\n301 0 D1 2\n")
        qrels = parse_qrels(path)
        assert qrels.grade("301", "D1") == 2
        assert len(qrels) == 1

    def test_round_trip(self, tmp_path):
        path = tmp_path / "qrels"
        path.write_text("9 0 B 1\n2 0 A 0\n2 0 C 2\n")
        qrels = parse_qrels(path)
        out = tmp_path / "qrels2"
        write_qrels(qrels, out)
        assert parse_qrels(out) == qrels

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
        assert parse_qrels(path) == qrels


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
        with pytest.raises(CorpusFormatError, match="duplicate"):
            parse_topics(path, "tsv", stoplist)

    @pytest.mark.parametrize("query_id", ["q 1", "", "q\u00a01"])
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
