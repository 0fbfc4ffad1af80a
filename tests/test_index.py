import io
import json
import os
import random
import re
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from irfkit import cli
from irfkit import index as index_module
from irfkit.corpus_io import TermSequence, default_stoplist, normalize_collection, parse_trec_collection
from irfkit.index import (
    IndexDataError,
    build_index,
    doc_vector,
    load_index,
    save_index,
)

from support import reference_build_index, reference_read_rows


SNAPSHOT_FILES = ["counts.npy", "docs.npy", "docs.tsv", "manifest.json", "terms.tsv"]


def make_docs(layout):
    return [TermSequence(doc_id, tuple(terms)) for doc_id, terms in layout]


class TestBuildIndex:
    def test_hand_counts(self):
        idx = build_index(make_docs([("D1", "aba"), ("D2", "b")]))
        assert idx.df("a") == 1 and idx.cf("a") == 2
        assert idx.df("b") == 2 and idx.cf("b") == 2
        assert idx.stats.avg_doc_len == 2.0
        assert idx.stats.num_docs == 2
        assert idx.stats.total_terms == 4
        assert idx.stats.vocab_size == 2

    def test_empty_stream(self):
        idx = build_index([])
        assert idx.stats.num_docs == 0
        assert idx.stats.avg_doc_len == 0.0
        assert idx.df("anything") == 0
        assert idx.postings == {}

    def test_duplicate_doc_id_named_in_error(self):
        docs = make_docs([("D1", "a"), ("D1", "b")])
        with pytest.raises(IndexDataError, match="D1"):
            build_index(docs)

    def test_postings_sorted_by_internal_id(self):
        idx = build_index(make_docs([("D1", "ab"), ("D2", "a"), ("D3", "a")]))
        internal_ids = [doc for doc, _ in idx.postings["a"]]
        assert internal_ids == sorted(internal_ids) == [0, 1, 2]

    def test_empty_document_allowed(self):
        idx = build_index([TermSequence("D1", ())])
        assert idx.doc_lengths == [0]
        assert doc_vector(idx, "D1") == {}

    @pytest.mark.parametrize("docs,shown", [(None, "None"), ("abc", "the str 'abc'")])
    def test_docs_that_are_not_a_collection_are_named(self, docs, shown):
        with pytest.raises(IndexDataError, match=f"^docs must be a collection of documents, not {shown}$"):
            build_index(docs)


class TestPostingsView:
    LAYOUT = [("D2", "aba"), ("D1", "bc"), ("D3", "")]
    EXPECTED = {"a": [(0, 2)], "b": [(0, 1), (1, 1)], "c": [(1, 1)]}

    @pytest.fixture(params=["built", "loaded"])
    def idx(self, request, tmp_path):
        built = build_index(make_docs(self.LAYOUT))
        if request.param == "built":
            return built
        save_index(built, tmp_path / "snap")
        return load_index(tmp_path / "snap")

    def test_rows_are_lists_of_python_int_pairs(self, idx):
        assert repr(idx.postings["a"]) == "[(0, 2)]"
        assert repr(idx.postings["b"]) == "[(0, 1), (1, 1)]"
        assert {type(value) for pair in idx.postings["b"] for value in pair} == {int}

    def test_equals_a_plain_dict(self, idx):
        assert idx.postings == self.EXPECTED
        assert idx.postings != {**self.EXPECTED, "c": [(1, 2)]}
        assert list(idx.postings) == ["a", "b", "c"]
        assert "z" not in idx.postings and idx.postings.get("z") is None
        with pytest.raises(KeyError):
            idx.postings["z"]

    def test_df_and_cf_are_sums_over_the_view(self, idx):
        for term, plist in idx.postings.items():
            assert idx.df(term) == len(plist)
            assert idx.cf(term) == sum(count for _, count in plist)
        assert idx.df("z") == idx.cf("z") == 0

    def test_built_and_loaded_compare_equal(self, idx):
        assert idx == build_index(make_docs(self.LAYOUT))

    def test_read_only(self, idx):
        with pytest.raises(TypeError):
            idx.postings["a"] = []
        with pytest.raises(ValueError):
            idx.postings.counts[0] = 5


class TestIndexEquality:
    """``==`` is how the benchmark's tune workload checks a snapshot round trip."""

    LAYOUT, ANALYSIS = [("D1", "aba"), ("D2", "bc")], {"stemmer": "none"}

    def test_loaded_equals_built(self, tmp_path):
        built = build_index(make_docs(self.LAYOUT), self.ANALYSIS)
        save_index(built, tmp_path / "snap")
        loaded = load_index(tmp_path / "snap")
        assert loaded == built and not loaded != built

    @pytest.mark.parametrize(
        "layout,analysis",
        [
            ([("D1", "abaa"), ("D2", "bc")], ANALYSIS),
            ([("D1", "aba"), ("D3", "bc")], ANALYSIS),
            ([("D1", "aba"), ("D2", "bd")], ANALYSIS),
            (LAYOUT, {"stemmer": "krovetz"}),
        ],
        ids=["count", "doc_id", "term", "analysis"],
    )
    def test_one_difference_makes_it_unequal(self, layout, analysis):
        built = build_index(make_docs(self.LAYOUT), self.ANALYSIS)
        assert build_index(make_docs(layout), analysis) != built


class TestDocVector:
    def test_exact_counts(self):
        idx = build_index(make_docs([("D1", "aba"), ("D2", "b")]))
        assert doc_vector(idx, "D1") == {"a": 2, "b": 1}

    def test_length_consistency(self):
        idx = build_index(make_docs([("D1", "aba"), ("D2", "b")]))
        assert sum(doc_vector(idx, "D1").values()) == idx.doc_lengths[0] == 3

    def test_unknown_doc(self):
        idx = build_index(make_docs([("D1", "a")]))
        with pytest.raises(IndexDataError, match="nope"):
            doc_vector(idx, "nope")


class TestSnapshot:
    def test_round_trip_small(self, tmp_path):
        idx = build_index(make_docs([("D1", "aba"), ("D2", "b")]), {"stemmer": "none", "stoplist": []})
        save_index(idx, tmp_path / "snap")
        loaded = load_index(tmp_path / "snap")
        assert loaded == idx
        assert loaded.stats == idx.stats

    def test_load_from_empty_dir_errors(self, tmp_path):
        with pytest.raises(IndexDataError, match="manifest"):
            load_index(tmp_path)

    def test_version_mismatch_reports_both_versions(self, tmp_path):
        idx = build_index(make_docs([("D1", "a")]))
        save_index(idx, tmp_path / "snap")
        manifest_path = tmp_path / "snap" / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        for version in (1, 2):
            manifest["format_version"] = version
            manifest_path.write_text(json.dumps(manifest))
            with pytest.raises(IndexDataError, match=f"version {version} .* version 3; re-index .*irfkit index"):
                load_index(tmp_path / "snap")

    def test_second_save_is_byte_identical(self, tmp_path):
        rng = random.Random(7)
        docs = [
            TermSequence(f"R{i:05d}", tuple(f"t{rng.randint(0, 300)}" for _ in range(rng.randint(0, 30))))
            for i in range(10_000)
        ]
        idx = build_index(docs)
        save_index(idx, tmp_path / "one")
        reloaded = load_index(tmp_path / "one")
        save_index(reloaded, tmp_path / "two")
        names = SNAPSHOT_FILES
        for snapshot in ("one", "two"):
            assert sorted(path.name for path in (tmp_path / snapshot).iterdir()) == names
        for name in names:
            assert (tmp_path / "one" / name).read_bytes() == (tmp_path / "two" / name).read_bytes()

    def test_save_over_format_1_snapshot_removes_its_extra_files(self, tmp_path):
        idx = build_index(make_docs([("D1", "ab"), ("D2", "b")]))
        (tmp_path / "snap").mkdir()
        for name in ("lexicon.tsv", "forward.tsv", "docs.tsv"):
            (tmp_path / "snap" / name).write_text("left by format 1\n")
        save_index(idx, tmp_path / "snap")
        assert sorted(path.name for path in (tmp_path / "snap").iterdir()) == SNAPSHOT_FILES
        assert load_index(tmp_path / "snap") == idx

    def test_save_over_format_2_snapshot_removes_its_postings_file(self, tmp_path):
        idx = build_index(make_docs([("D1", "ab"), ("D2", "b")]))
        (tmp_path / "snap").mkdir()
        (tmp_path / "snap" / "docs.tsv").write_text("D1\t2\nD2\t1\n")
        (tmp_path / "snap" / "postings.tsv").write_text("a\t0:1\nb\t0:1 1:1\n")
        (tmp_path / "snap" / "manifest.json").write_text('{"format_version": 2}\n')
        with pytest.raises(IndexDataError, match="version 2 .* version 3; re-index"):
            load_index(tmp_path / "snap")
        save_index(idx, tmp_path / "snap")
        assert sorted(path.name for path in (tmp_path / "snap").iterdir()) == SNAPSHOT_FILES
        assert load_index(tmp_path / "snap") == idx

    def test_loaded_index_outlives_a_later_save_into_its_directory(self, tmp_path):
        # the columns are read, not mapped: the second save truncates the files in place
        big = build_index(make_docs([(f"D{i}", "abcdefgh"[: i % 8]) for i in range(200)]))
        save_index(big, tmp_path / "snap")
        loaded = load_index(tmp_path / "snap")
        save_index(build_index(make_docs([("D1", "a")])), tmp_path / "snap")
        assert loaded == big

    def test_loaded_forward_store_is_the_transposed_postings(self, tmp_path):
        built = build_index(make_docs([("D1", "cabca"), ("D2", "b"), ("D3", "")]))
        save_index(built, tmp_path / "snap")
        for idx in (built, load_index(tmp_path / "snap")):
            assert [list(doc_vector(idx, doc_id).items()) for doc_id in idx.doc_ids] == [
                [("a", 2), ("b", 1), ("c", 2)],
                [("b", 1)],
                [],
            ]
            assert idx.forward_offsets.tolist() == [0, 3, 4, 4]
            assert idx.forward_terms.tolist() == [0, 1, 2, 1]
            assert idx.forward_counts.tolist() == [2, 1, 2, 1]

    def test_interrupted_save_is_rejected(self, tmp_path, monkeypatch):
        save_index(build_index(make_docs([("D1", "ab"), ("D2", "b")])), tmp_path / "snap")

        def open_until_last_column(path, *args, **kwargs):
            if Path(path).name == "counts.npy":
                raise OSError("disk full")
            return open(path, *args, **kwargs)

        monkeypatch.setattr(index_module, "open", open_until_last_column, raising=False)
        with pytest.raises(OSError, match="disk full"):
            save_index(build_index(make_docs([("D1", "ba"), ("D2", "b")])), tmp_path / "snap")
        monkeypatch.undo()
        assert (tmp_path / "snap" / "docs.tsv").read_text() == "D1\t2\nD2\t1\n"
        with pytest.raises(IndexDataError, match="missing manifest.json"):
            load_index(tmp_path / "snap")


WEBAP_CORPUS = os.environ.get("IRFKIT_WEBAP_CORPUS")


@pytest.mark.skipif(
    not WEBAP_CORPUS,
    reason="set IRFKIT_WEBAP_CORPUS to the licensed passage collection file "
    "to check full-scale index statistics",
)
def test_webap_scale_statistics():
    stoplist = default_stoplist()
    idx = build_index(normalize_collection(parse_trec_collection(WEBAP_CORPUS), stoplist))
    stats = idx.stats
    assert 350_000 < stats.num_docs < 410_000
    assert 50_000 < stats.vocab_size < 70_000
    assert 30 < stats.avg_doc_len < 60


doc_lists = st.lists(
    st.lists(st.sampled_from("abcdefg"), max_size=12),
    min_size=1,
    max_size=15,
)


class TestInvariants:
    @given(doc_lists)
    @settings(max_examples=100)
    def test_df_cf_and_lengths_consistent(self, term_lists):
        docs = [TermSequence(f"D{i}", tuple(terms)) for i, terms in enumerate(term_lists)]
        idx = build_index(docs)
        for term, plist in idx.postings.items():
            assert len(plist) == idx.df(term)
            assert sum(count for _, count in plist) == idx.cf(term)
        assert sum(idx.doc_lengths) == idx.stats.total_terms

    @given(doc_lists)
    @settings(max_examples=100)
    def test_row_bounds_are_the_largest_count_and_least_length(self, term_lists):
        # documents may be empty; a vocabulary may be empty too
        docs = [TermSequence(f"D{i}", tuple(terms)) for i, terms in enumerate(term_lists)]
        idx = build_index(docs)
        rows = idx.postings.rows
        assert idx.max_counts.tolist() == [max(c for _, c in idx.postings[t]) for t in rows]
        assert idx.min_lengths.tolist() == [min(idx.doc_lengths[x] for x, _ in idx.postings[t]) for t in rows]
        for column in (idx.max_counts, idx.min_lengths):
            with pytest.raises(ValueError, match="read-only"):
                column[:1] = 0

    @given(doc_lists, st.randoms(use_true_random=False))
    @settings(max_examples=60)
    def test_stats_independent_of_arrival_order(self, term_lists, rng):
        docs = [TermSequence(f"D{i}", tuple(terms)) for i, terms in enumerate(term_lists)]
        shuffled = list(docs)
        rng.shuffle(shuffled)
        a, b = build_index(docs), build_index(shuffled)
        assert a.stats == b.stats
        assert {t: (a.df(t), a.cf(t)) for t in a.postings} == {
            t: (b.df(t), b.cf(t)) for t in b.postings
        }
        assert {d: l for d, l in zip(a.doc_ids, a.doc_lengths)} == {
            d: l for d, l in zip(b.doc_ids, b.doc_lengths)
        }

    @given(doc_lists)
    @settings(max_examples=60, deadline=None)
    def test_doc_vectors_are_the_counts_in_sorted_term_order(self, tmp_path_factory, term_lists):
        # first-use order in a document is random here, and documents may be empty
        docs = [TermSequence(f"D{i}", tuple(terms)) for i, terms in enumerate(term_lists)]
        built = build_index(docs)
        directory = tmp_path_factory.mktemp("snap")
        save_index(built, directory)
        for idx in (built, load_index(directory)):
            assert repr(idx.doc_lengths) == repr([len(seq.terms) for seq in docs])
            for seq in docs:
                vector = doc_vector(idx, seq.doc_id)
                assert list(vector.items()) == sorted(Counter(seq.terms).items())


def built_columns(build, docs):
    """A build's doc ids, terms, and postings and forward columns with their
    dtypes; or the message of the IndexDataError it raised."""
    try:
        idx = build(docs)
    except IndexDataError as exc:
        return str(exc)
    columns = (idx.postings.offsets, idx.postings.docs, idx.postings.counts,
               idx.forward_offsets, idx.forward_terms, idx.forward_counts)
    return idx.doc_ids, idx.postings.terms, [(column.dtype.str, column.tolist()) for column in columns]


FLAWED_TERMS = {"whitespace": "x y", "empty": "", "bom": "\ufeffb", "surrogate": "b\udcff"}


class TestBlockedCounting:
    """build_index counts a block of tokens with one sort; the columns, their
    dtypes and the errors are those of one Counter per document."""

    @given(
        st.lists(st.lists(st.sampled_from(["a", "b", "c", "b:", "\u00fc"]), max_size=9), max_size=8),
        st.sampled_from([1, 2, 3, None]),  # None: more than the tokens
        st.sets(st.sampled_from(["duplicate", *FLAWED_TERMS])),
        st.randoms(use_true_random=False),
    )
    @settings(max_examples=300, deadline=None)
    def test_the_columns_and_errors_of_the_counter_build(self, term_lists, block, flaws, rng):
        docs = [TermSequence(f"D{i}", tuple(terms)) for i, terms in enumerate(term_lists)]
        for flaw in sorted(flaws):
            if docs:
                at = rng.randrange(len(docs))
                if flaw == "duplicate":
                    docs.insert(rng.randrange(at + 1, len(docs) + 1), TermSequence(docs[at].doc_id, ("a",)))
                else:
                    docs[at] = TermSequence(docs[at].doc_id, (*docs[at].terms, FLAWED_TERMS[flaw]))
        tokens = sum(len(seq.terms) for seq in docs)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(index_module, "_COUNT_BLOCK", tokens + 1 if block is None else block)
            built = built_columns(build_index, docs)
        assert built == built_columns(reference_build_index, docs)
        if not isinstance(built, str):
            assert [dtype for dtype, _ in built[2]] == ["<i8", "<i4", "<i4", "<i8", "<i4", "<i4"]
        elif "duplicate" in flaws and docs:
            assert built.startswith("duplicate doc_id ")


class TestUnstorableInput:
    @pytest.mark.parametrize("term", ["a b", "a\tb", "a\nb", "a\rb", "\u2028"])
    def test_term_with_whitespace_rejected_naming_the_doc(self, term):
        with pytest.raises(IndexDataError, match="D2"):
            build_index([TermSequence("D1", ("ok",)), TermSequence("D2", ("ok", term))])

    def test_empty_term_rejected_naming_the_doc(self):
        # a terms.tsv row could hold it, but not one the loader reads back as a name
        with pytest.raises(IndexDataError, match="doc 'D2' has an empty term or one with whitespace: ''"):
            build_index([TermSequence("D1", ("ok",)), TermSequence("D2", ("ok", ""))])

    @pytest.mark.parametrize(
        "term,shown",
        [(1, "1"), (True, "True"), (b"ok", "b'ok'"), (("ok",), "('ok',)"), (["a"], "['a']"), (("a", ["b"]), "('a', ['b'])")],
    )
    def test_a_term_that_is_not_a_str_is_named_with_its_doc(self, term, shown):
        # named by the first document that holds it, hashable or not
        message = f"^a term of doc 'D2' must be str, got {re.escape(shown)}$"
        with pytest.raises(IndexDataError, match=message):
            build_index([TermSequence("D1", ("ok",)), TermSequence("D2", ("ok", term)), TermSequence("D3", (term,))])

    def test_an_unhashable_term_of_a_stream_is_named_with_its_doc(self):
        # the stream was read up to the term, so only the doc can be named
        message = "^a term of doc 'D2' must be str, got one that is not hashable$"
        with pytest.raises(IndexDataError, match=message):
            build_index([TermSequence("D1", ("ok",)), TermSequence("D2", iter(("ok", ["a"])))])

    def test_the_terms_of_a_doc_may_be_read_once(self):
        assert build_index([TermSequence("D1", iter(("a", "b", "a")))]) == build_index(make_docs([("D1", "aba")]))

    @pytest.mark.parametrize("doc_id", ["D 1", "D\t1", "D1\n", ""])
    def test_doc_id_with_whitespace_rejected(self, doc_id):
        with pytest.raises(IndexDataError, match="whitespace"):
            build_index([TermSequence(doc_id, ("a",))])

    # read_text strips a leading BOM from docs.tsv and terms.tsv, and UTF-8 cannot encode a lone surrogate
    @pytest.mark.parametrize("doc_id", ["\ufeffD1", "D\ud800", "\udcff"])
    def test_doc_id_a_snapshot_cannot_hold_rejected(self, doc_id):
        with pytest.raises(IndexDataError, match="lone surrogate or a leading BOM"):
            build_index([TermSequence("D0", ("a",)), TermSequence(doc_id, ("a",))])

    @pytest.mark.parametrize("term", ["\ufeffa", "\ufeff", "a\udcff", "\ud800b"])
    def test_term_a_snapshot_cannot_hold_rejected_naming_the_doc(self, term):
        message = f"doc 'D2' has an empty term or one with a lone surrogate or a leading BOM: {term!r}"
        with pytest.raises(IndexDataError, match=re.escape(message)):
            build_index([TermSequence("D1", ("ok",)), TermSequence("D2", ("ok", term))])

    def test_a_bom_inside_a_name_round_trips(self, tmp_path):
        idx = build_index(make_docs([("D\ufeff1", ["a\ufeff", "b"])]))
        save_index(idx, tmp_path / "snap")
        assert load_index(tmp_path / "snap") == idx

    def test_a_leading_bom_on_a_later_row_is_rejected_at_load(self, saved_toy):
        replace_line(saved_toy / "docs.tsv", 2, "\ufeffD2\t2")
        with pytest.raises(IndexDataError, match="docs.tsv:2: expected doc_id<TAB>length"):
            load_index(saved_toy)

    def test_cli_index_rejects_a_docno_with_a_leading_bom(self, tmp_path, capsys):
        corpus = tmp_path / "corpus.trectext"
        corpus.write_text("<DOC>\n<DOCNO>\ufeffd1</DOCNO>\n<TEXT>apple</TEXT>\n</DOC>\n", "utf-8")
        assert cli.main(["index", "--corpus", str(corpus), "--output", str(tmp_path / "snap")]) == 1
        assert "lone surrogate or a leading BOM" in capsys.readouterr().err
        assert not (tmp_path / "snap" / "manifest.json").exists()

    def test_colon_in_term_round_trips(self, tmp_path):
        idx = build_index(make_docs([("D1", ["a:1", "b:", ":"]), ("D:2", ["a:1"])]))
        save_index(idx, tmp_path / "snap")
        assert load_index(tmp_path / "snap") == idx


@given(st.lists(st.lists(st.text(max_size=6), max_size=6), min_size=1, max_size=6))
@example([["\ufeff"]])  # terms.tsv's first row: read_text would strip it
@settings(max_examples=100, deadline=None)
def test_snapshot_round_trips_any_term_text_or_rejects_it_at_build(tmp_path_factory, term_lists):
    docs = [TermSequence(f"D{i}", tuple(terms)) for i, terms in enumerate(term_lists)]
    unsavable = lambda term: term == "" or term[0] == "\ufeff" or any(ch.isspace() for ch in term)
    if any(unsavable(term) for terms in term_lists for term in terms):
        with pytest.raises(IndexDataError):
            build_index(docs)
        return
    idx = build_index(docs)
    directory = tmp_path_factory.mktemp("snap")
    save_index(idx, directory)
    assert load_index(directory) == idx


@pytest.fixture
def saved_toy(tmp_path):
    idx = build_index(make_docs([("D1", "aba"), ("D2", "bc"), ("D3", "")]))
    save_index(idx, tmp_path / "snap")
    return tmp_path / "snap"


def replace_line(path, lineno, text):
    lines = path.read_text().split("\n")
    lines[lineno - 1] = text
    path.write_text("\n".join(lines))


# saved_toy's postings, a row per term in the ``term<TAB>doc:count ...`` layout
TOY_POSTINGS = ["a\t0:2", "b\t0:1 1:1", "c\t1:1"]


def write_postings(snapshot, rows):
    """Rewrite a snapshot's terms.tsv, docs.npy and counts.npy to hold the
    postings ``rows``, each ``term<TAB>doc:count ...``."""
    terms, docs, counts = [], [], []
    for row in rows:
        term, pairs = row.split("\t")
        entries = [tuple(map(int, pair.split(":"))) for pair in pairs.split()]
        terms.append(f"{term}\t{len(entries)}\n")
        docs += [doc for doc, _ in entries]
        counts += [count for _, count in entries]
    (snapshot / "terms.tsv").write_text("".join(terms))
    for name, column in ("docs.npy", docs), ("counts.npy", counts):
        np.save(snapshot / name, np.array(column, dtype="<i4"))


def replace_postings_row(snapshot, lineno, row):
    """saved_toy with its postings row ``lineno`` replaced, or one appended after the last."""
    rows = list(TOY_POSTINGS)
    rows[lineno - 1 : lineno] = [row]
    write_postings(snapshot, rows)


def test_write_postings_writes_what_save_index_writes(saved_toy, tmp_path):
    (tmp_path / "copy").mkdir()
    write_postings(tmp_path / "copy", TOY_POSTINGS)
    for name in ("terms.tsv", "docs.npy", "counts.npy"):
        assert (tmp_path / "copy" / name).read_bytes() == (saved_toy / name).read_bytes()


def npz_of(data):
    """The bytes of an .npz archive holding the .npy array ``data``."""
    archive = io.BytesIO()
    np.savez(archive, np.lib.format.read_array(io.BytesIO(data)))
    return archive.getvalue()


# saved_toy's columns hold 4 entries; each edit of a column file's bytes
# makes something save_index never writes, with the message that rejects it
NOT_WHOLE = "not a whole .npy array"
BAD_COLUMN_BYTES = {
    "magic": (lambda data: b"NOTNUMPY" + data[8:], NOT_WHOLE),
    "header_keys": (lambda data: data.replace(b"'descr'", b"'descx'"), NOT_WHOLE),
    "truncated_header": (lambda data: data[:20], NOT_WHOLE),
    "truncated_data": (lambda data: data[:-1], NOT_WHOLE),
    "header_claims_2^40_entries": (
        lambda data: data.replace(b"(4,), }" + b" " * 12, b"(1099511627776,), }"), NOT_WHOLE
    ),
    "empty_file": (lambda data: b"", NOT_WHOLE),
    "npz": (npz_of, NOT_WHOLE),
    "trailing_bytes": (lambda data: data + b"\0\0\0\0", "bytes follow the array"),
}
# each re-saves a column's values as an array save_index never writes
BAD_COLUMN_ARRAYS = {
    "int64": (lambda values: values.astype("<i8"), "holds <i8 of shape (4,)"),
    "big_endian": (lambda values: values.astype(">i4"), "holds >i4 of shape (4,)"),
    "float32": (lambda values: values.astype("<f4"), "holds <f4 of shape (4,)"),
    "short": (lambda values: values[:-1], "holds <i4 of shape (3,), expected <i4 of (4,)"),
    "long": (lambda values: np.append(values, values[-1]), "holds <i4 of shape (5,), expected <i4 of (4,)"),
    "two_dimensional": (lambda values: values.reshape(4, 1), "holds <i4 of shape (4, 1)"),
    "scalar": (lambda values: values[0], "holds <i4 of shape ()"),
    "pickled": (lambda values: values.astype(object), f"{NOT_WHOLE}: Object arrays cannot be loaded"),
}


@st.composite
def table_line(draw):
    """A ``name<TAB>integer`` row, mostly well formed: names a row may or may not
    hold, numbers ``parse_number`` takes or refuses, and rows of 0, 1 or 2 tabs."""
    name = draw(st.sampled_from(["D1", "t", "a.b", "5"] * 3 + ["\u00e9", "", "a b", "\ufeffx", "x\x1c", "x\x85"]))
    numbers = ["0", "3", "007", "12"] * 3 + ["+5", "-3", "1_0", "\u0663", "", " 5", "x", "9" * 5000]
    number = draw(st.sampled_from(numbers))
    return draw(st.sampled_from([f"{name}\t{number}"] * 8 + ["", name, f"{name}\t{number}\t{number}"]))


class TestReadRows:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(table_line(), max_size=6), st.sampled_from(["\n", "\r\n"]), st.booleans())
    @example(["a", "5\tb\t6"], "\n", True)  # one tab per line on average, not on each
    @example(["D1\t0\t0"], "\n", False)  # a tab on each line, two on one
    @example(["a\t1", "b c\t2"], "\n", False)  # whitespace inside a name
    @example(["a\t1", "\ufeffx\t2"], "\n", False)  # a BOM that starts a later name
    @example(["a\t\u0663"], "\n", False)  # a digit int() reads that is not ASCII
    @example(["a\t1_0"], "\n", False)  # a digit group int() reads
    @example(["a\t1", "b\t" + "9" * 5000], "\n", False)  # more digits than int() reads
    def test_the_same_rows_or_error_as_the_per_row_reader(self, tmp_path_factory, lines, end, last_end):
        path = tmp_path_factory.getbasetemp() / "table.tsv"
        path.write_text(end.join(lines) + (end if last_end else ""), "utf-8", newline="")
        outcomes = []
        for reader in (index_module._read_rows, reference_read_rows):
            try:
                outcomes.append(reader(path, "name<TAB>n"))
            except ValueError as error:
                outcomes.append((type(error), str(error)))
        assert outcomes[0] == outcomes[1]


class TestCorruptSnapshot:
    @pytest.mark.parametrize(
        "name,lineno,bad",
        [
            ("docs.tsv", 2, "D2"),
            ("docs.tsv", 1, "D1\tthree"),
            ("terms.tsv", 3, "c"),
            ("terms.tsv", 1, "a\t1\t1"),
            ("terms.tsv", 3, "c\t1:1"),
            ("terms.tsv", 2, "b\t"),
            ("terms.tsv", 2, "b 2"),
            ("docs.tsv", 1, "D 1\t3"),
            ("terms.tsv", 1, "a z\t1"),
            ("terms.tsv", 1, "\t1"),
            # int() alone reads each of these lengths as 3, D1's, and these dfs as 2, b's
            ("docs.tsv", 1, "D1\t0_3"),
            ("docs.tsv", 1, "D1\t\u0663"),
            ("terms.tsv", 2, "b\t0_2"),
            ("terms.tsv", 2, "b\t\u0662"),
        ],
    )
    def test_malformed_line_reports_path_and_line(self, saved_toy, name, lineno, bad):
        replace_line(saved_toy / name, lineno, bad)
        with pytest.raises(IndexDataError, match=f"{name}:{lineno}: expected"):
            load_index(saved_toy)

    @pytest.mark.parametrize("df", [0, -1, 4, 2**70])
    def test_df_outside_one_to_num_docs_reports_path_and_line(self, saved_toy, df):
        replace_line(saved_toy / "terms.tsv", 2, f"b\t{df}")
        message = f"{saved_toy / 'terms.tsv'}:2: df {df} of term 'b' is outside [1, 3]"
        with pytest.raises(IndexDataError, match="^" + re.escape(message)):
            load_index(saved_toy)

    @pytest.mark.parametrize("name", ["docs.npy", "counts.npy"])
    @pytest.mark.parametrize("edit,message", BAD_COLUMN_BYTES.values(), ids=BAD_COLUMN_BYTES)
    def test_column_file_that_is_not_one_whole_npy_array_reports_path(self, saved_toy, name, edit, message):
        path = saved_toy / name
        path.write_bytes(edit(path.read_bytes()))
        with pytest.raises(IndexDataError, match="^" + re.escape(f"{path}: {message}")):
            load_index(saved_toy)

    @pytest.mark.parametrize("name", ["docs.npy", "counts.npy"])
    @pytest.mark.parametrize("resave,message", BAD_COLUMN_ARRAYS.values(), ids=BAD_COLUMN_ARRAYS)
    def test_column_array_save_index_never_writes_reports_path(self, saved_toy, name, resave, message):
        path = saved_toy / name
        np.save(path, resave(np.load(path)), allow_pickle=True)
        with pytest.raises(IndexDataError, match="^" + re.escape(f"{path}: {message}")):
            load_index(saved_toy)

    @pytest.mark.parametrize("key", ["num_docs", "total_terms", "vocab_size"])
    def test_manifest_counts_checked(self, saved_toy, key):
        manifest_path = saved_toy / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest[key] += 1
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(IndexDataError, match=key):
            load_index(saved_toy)

    @pytest.mark.parametrize("as_json", [float, bool], ids=["float", "bool"])
    @pytest.mark.parametrize("key", ["format_version", "num_docs", "total_terms", "vocab_size"])
    def test_manifest_integer_that_is_a_json_float_or_bool_is_rejected(self, tmp_path, key, as_json):
        save_index(build_index(make_docs([("D1", "a")])), tmp_path / "snap")  # every count is 1
        manifest_path = tmp_path / "snap" / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest[key] = as_json(manifest[key])
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(IndexDataError, match=key.replace("_", ".")):  # "format version", "num_docs"
            load_index(tmp_path / "snap")

    @pytest.mark.parametrize("bad,doc", [("c\t3:1", 3), ("c\t0:1 -1:1", -1)])
    def test_postings_doc_outside_doc_table_reports_path_and_line(self, saved_toy, bad, doc):
        replace_postings_row(saved_toy, 3, bad)
        message = f"{saved_toy / 'docs.npy'}: term 'c' (terms.tsv:3): doc {doc} is outside [0, 3)"
        with pytest.raises(IndexDataError, match="^" + re.escape(message)):
            load_index(saved_toy)

    @pytest.mark.parametrize(
        "lineno,bad,message",
        [
            (3, "c\t1:0", "counts.npy: term 'c' (terms.tsv:3): count 0 is outside [1, 2147483648)"),
            (3, "c\t1:-1", "counts.npy: term 'c' (terms.tsv:3): count -1 is outside [1, 2147483648)"),
            (2, "b\t1:1 0:1", "docs.npy: term 'b' (terms.tsv:2): doc 0 does not follow doc 1"),
            (2, "b\t0:1 0:1", "docs.npy: term 'b' (terms.tsv:2): doc 0 does not follow doc 0"),
            (3, "b\t1:1", "terms.tsv:3: term 'b' does not follow 'b'"),
            (2, "0\t0:1 1:1", "terms.tsv:2: term '0' does not follow 'a'"),
            (4, "zz\t", "terms.tsv:4: df 0 of term 'zz' is outside [1, 3]"),
        ],
    )
    def test_postings_row_out_of_order_or_range_reports_path_and_line(
        self, saved_toy, lineno, bad, message
    ):
        replace_postings_row(saved_toy, lineno, bad)
        with pytest.raises(IndexDataError, match=re.escape(message)):
            load_index(saved_toy)

    def test_length_disagreeing_with_postings_reports_path_and_line(self, saved_toy):
        # moving c from D2 to D3 keeps every manifest count
        replace_postings_row(saved_toy, 3, "c\t2:1")
        with pytest.raises(IndexDataError, match="docs.tsv:2: length is 2 but the postings hold 1"):
            load_index(saved_toy)

    def test_repeated_doc_id_reports_path_line_and_first_line(self, saved_toy):
        # without the check the snapshot loads and internal_id("D1") is the last row
        replace_line(saved_toy / "docs.tsv", 3, "D1\t0")
        with pytest.raises(IndexDataError, match="docs.tsv:3: doc 'D1' is already on line 1"):
            load_index(saved_toy)

    def test_dropped_postings_row_caught_by_vocab_size(self, saved_toy):
        # a whole row: the term, its df and its entries
        write_postings(saved_toy, TOY_POSTINGS[:-1])
        with pytest.raises(IndexDataError, match="vocab_size"):
            load_index(saved_toy)

    def test_unparsable_manifest_reports_path(self, saved_toy):
        manifest_path = saved_toy / "manifest.json"
        manifest_path.write_text(manifest_path.read_text()[:20])
        with pytest.raises(IndexDataError, match=r"manifest.json: Expecting"):
            load_index(saved_toy)

    def test_manifest_not_an_object_is_a_data_error(self, saved_toy, toy_paths, tmp_path, capsys):
        (saved_toy / "manifest.json").write_text("[]\n")
        with pytest.raises(IndexDataError, match="manifest.json: expected a JSON object"):
            load_index(saved_toy)
        args = ["run", "--index", str(saved_toy), "--topics", str(toy_paths["topics"]),
                "--qrels", str(toy_paths["qrels"]), "--model", "rm3", "--docs-per-iter", "1",
                "--iterations", "1", "--output", str(tmp_path / "run.txt")]
        assert cli.main(args) == 1
        assert "manifest.json: expected a JSON object" in capsys.readouterr().err

    def test_non_utf8_row_reports_path_and_line(self, saved_toy):
        path = saved_toy / "docs.tsv"
        lines = path.read_bytes().split(b"\n")
        lines[1] = b"D2\xff\t2"
        path.write_bytes(b"\n".join(lines))
        with pytest.raises(IndexDataError, match="docs.tsv:2: not UTF-8 text"):
            load_index(saved_toy)


NOT_AN_OBJECT = " must be an object holding only stemmer and stoplist"
NOT_A_LIST = ": stoplist must be a list of strings"
BAD_ANALYSES = [
    pytest.param([1], NOT_AN_OBJECT, id="list"),
    pytest.param({"stemmer": "none", "stemer": "krovetz"}, NOT_AN_OBJECT, id="unknown_key"),
    pytest.param({"stoplist": 5}, NOT_A_LIST, id="stoplist_int"),
    pytest.param({"stoplist": ["the", 3]}, NOT_A_LIST, id="stoplist_with_int"),
    pytest.param({"stemmer": "porter"}, ": unknown stemmer 'porter'", id="unknown_stemmer"),
]


class TestAnalysisRule:
    """One rule for ``analysis`` at build, save and load: an object holding at
    most a known ``stemmer`` and a ``stoplist`` list of strings."""

    @pytest.mark.parametrize(
        "analysis,message", [*BAD_ANALYSES, pytest.param({"stoplist": {"the"}}, NOT_A_LIST, id="stoplist_set")]
    )
    def test_build_rejects(self, analysis, message):
        with pytest.raises(IndexDataError, match="^analysis" + re.escape(message)):
            build_index(make_docs([("D1", "ab")]), analysis)

    @pytest.mark.parametrize("analysis", [{}, {"stemmer": "none"}, {"stemmer": "krovetz", "stoplist": ["a"]}])
    def test_build_accepts(self, analysis, tmp_path):
        idx = build_index(make_docs([("D1", "ab")]), analysis)
        save_index(idx, tmp_path / "snap")
        assert load_index(tmp_path / "snap").analysis == analysis

    @pytest.mark.parametrize("analysis,message", [*BAD_ANALYSES, pytest.param(None, NOT_AN_OBJECT, id="null")])
    def test_load_rejects_naming_the_manifest(self, saved_toy, analysis, message):
        manifest_path = saved_toy / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["analysis"] = analysis
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(IndexDataError, match="^" + re.escape(f"{manifest_path}: analysis{message}")):
            load_index(saved_toy)

    def test_save_rejects_before_it_deletes_the_old_snapshot(self, saved_toy):
        idx = build_index(make_docs([("D1", "ab")]), {"stoplist": ["the"]})
        idx.analysis["stoplist"] = {"the"}
        with pytest.raises(IndexDataError, match="stoplist must be a list of strings"):
            save_index(idx, saved_toy)
        assert load_index(saved_toy).doc_ids == ["D1", "D2", "D3"]

    @pytest.mark.parametrize(
        "analysis", [[1], {"stoplist": 5}, {"stemmer": "porter"}], ids=["list", "stoplist_int", "unknown_stemmer"]
    )
    def test_run_reports_the_manifest(self, saved_toy, toy_paths, tmp_path, capsys, analysis):
        manifest_path = saved_toy / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["analysis"] = analysis
        manifest_path.write_text(json.dumps(manifest))
        args = ["run", "--index", str(saved_toy), "--topics", str(toy_paths["topics"]),
                "--qrels", str(toy_paths["qrels"]), "--model", "rm3", "--docs-per-iter", "1",
                "--iterations", "1", "--output", str(tmp_path / "run.txt")]
        assert cli.main(args) == 1
        assert capsys.readouterr().err.startswith(f"error: {manifest_path}: analysis")
