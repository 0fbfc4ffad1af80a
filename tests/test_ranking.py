import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from irfkit.corpus_io import TermSequence
from irfkit.index import IndexDataError, build_index
from irfkit.ranking import (
    QueryModel,
    RankingParams,
    bm25_weight,
    query_count_vector,
    query_language_model,
    retrieve_dot,
    retrieve_kl,
    retrieve_ql,
    write_run,
)


def make_index(layout):
    return build_index([TermSequence(doc_id, tuple(terms)) for doc_id, terms in layout])


class TestQueryModel:
    def test_lm_drops_zero_weights_and_validates(self):
        model = QueryModel.lm({"a": 1.0, "b": 0.0})
        assert model.weights == {"a": 1.0}

    def test_lm_rejects_bad_sum(self):
        with pytest.raises(ValueError, match="sum to 1"):
            QueryModel.lm({"a": 0.4})

    def test_lm_rejects_negative(self):
        with pytest.raises(ValueError, match="non-negative"):
            QueryModel.lm({"a": 1.5, "b": -0.5})

    def test_language_model_from_terms(self):
        model = query_language_model(["x", "y", "x"])
        assert model.weights == {"x": 2 / 3, "y": 1 / 3}


class TestRetrieveQL:
    def test_hand_arithmetic_single_term(self, two_doc_index):
        # c(a,D1)=2, |D1|=3, cf(a)/total=2/4, mu=1 -> p_D1 = 2.5/4 = 0.625
        res = retrieve_ql(two_doc_index, ["a"], RankingParams(mu=1.0, depth=10))
        assert res.doc_ids == ["D1"]
        assert res.entries[0][1] == pytest.approx(math.log(0.625))

    def test_ranking_prefers_higher_count(self):
        idx = make_index([("D1", "aba"), ("D2", "ab"), ("D3", "b")])
        res = retrieve_ql(idx, ["a"], RankingParams(mu=1.0, depth=10))
        assert res.doc_ids == ["D1", "D2"]

    def test_exclusion(self, two_doc_index):
        res = retrieve_ql(two_doc_index, ["b"], RankingParams(mu=1.0, depth=10), exclude={"D1"})
        assert res.doc_ids == ["D2"]

    def test_all_query_terms_out_of_vocabulary(self, two_doc_index):
        res = retrieve_ql(two_doc_index, ["zzz"], RankingParams(mu=1.0, depth=10))
        assert res.entries == ()

    def test_equal_docs_tie_broken_by_doc_id(self):
        idx = make_index([("DB", "ax"), ("DA", "ay"), ("DC", "z")])
        res = retrieve_ql(idx, ["a"], RankingParams(mu=1.0, depth=10))
        assert res.doc_ids == ["DA", "DB"]

    def test_accepts_prebuilt_model(self, two_doc_index):
        model = query_language_model(["a"])
        direct = retrieve_ql(two_doc_index, model, RankingParams(mu=1.0, depth=10))
        from_terms = retrieve_ql(two_doc_index, ["a"], RankingParams(mu=1.0, depth=10))
        assert direct == from_terms


class TestRetrieveKL:
    def test_one_hot_matches_ql(self, two_doc_index):
        params = RankingParams(mu=1.0, depth=10)
        kl = retrieve_kl(two_doc_index, QueryModel.lm({"a": 1.0}), params)
        ql = retrieve_ql(two_doc_index, ["a"], params)
        assert kl == ql

    def test_matches_brute_force_over_definitions(self, two_doc_index):
        params = RankingParams(mu=2.0, depth=10)
        model = QueryModel.lm({"a": 0.5, "b": 0.5})
        res = retrieve_kl(two_doc_index, model, params)

        def brute(doc_terms):
            total = 4  # corpus term count
            cf = {"a": 2, "b": 2}
            length = len(doc_terms)
            score = 0.0
            for term, weight in model.weights.items():
                count = doc_terms.count(term)
                p = (count + params.mu * cf[term] / total) / (length + params.mu)
                score += weight * math.log(p)
            return score

        expected = {"D1": brute(["a", "b", "a"]), "D2": brute(["b"])}
        assert dict(res.entries) == pytest.approx(expected)
        assert res.doc_ids == sorted(expected, key=lambda d: -expected[d])

    def test_zero_weight_term_never_changes_scores(self, two_doc_index):
        params = RankingParams(mu=1.0, depth=10)
        base = retrieve_kl(two_doc_index, QueryModel.lm({"a": 1.0}), params)
        padded = retrieve_kl(two_doc_index, QueryModel.lm({"a": 1.0, "b": 0.0}), params)
        assert base == padded

    def test_requires_lm_model(self, two_doc_index):
        with pytest.raises(ValueError, match="lm"):
            retrieve_kl(two_doc_index, QueryModel.vector({"a": 1.0}), RankingParams())


class TestBM25Weight:
    def test_absent_term_is_zero(self, two_doc_index):
        assert bm25_weight(two_doc_index, "a", "D2", RankingParams()) == 0.0

    def test_hand_arithmetic(self, two_doc_index):
        # |C|=2, df(a)=1, c(a,D1)=2, |D1|=3, avgdl=2, k1=1.2, b=0.75
        params = RankingParams(k1=1.2, b=0.75)
        expected = (2.2 * 2) / (1.2 * (0.25 + 0.75 * 1.5) + 2) * math.log(3)
        assert bm25_weight(two_doc_index, "a", "D1", params) == pytest.approx(expected)

    def test_term_in_every_doc_keeps_positive_idf(self, two_doc_index):
        # df(b) = |C| = 2 -> idf = log(3/2) > 0
        weight = bm25_weight(two_doc_index, "b", "D2", RankingParams())
        assert weight > 0.0

    def test_unknown_doc_errors(self, two_doc_index):
        with pytest.raises(IndexDataError):
            bm25_weight(two_doc_index, "a", "nope", RankingParams())


class TestRetrieveDot:
    def test_bm25_vectorizer_matches_standalone_bm25(self):
        idx = make_index([("D1", "abb"), ("D2", "ab"), ("D3", "ccc"), ("D4", "a")])
        params = RankingParams(k1=1.4, b=0.6, depth=10)
        res = retrieve_dot(idx, query_count_vector(["b"]), "bm25", params)
        expected = {
            doc: bm25_weight(idx, "b", doc, params)
            for doc in ("D1", "D2")
        }
        assert dict(res.entries) == pytest.approx(expected)

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=60)
    def test_matches_brute_force_over_definitions(self, seed):
        rng = random.Random(seed)
        docs = {
            f"D{i:02d}": [rng.choice("abcde") for _ in range(rng.randint(1, 8))]
            for i in range(rng.randint(2, 12))
        }
        idx = make_index(docs.items())
        query_terms = rng.sample("abcdef", rng.randint(1, 4))  # f is in no document
        model = QueryModel.vector({t: rng.uniform(-2.0, 3.0) for t in query_terms})
        exclude = set(rng.sample(sorted(docs), rng.randint(0, len(docs) - 1))) | {"unknown"}
        params = RankingParams(k1=rng.uniform(0.5, 2.0), b=rng.uniform(0.0, 1.0), depth=1000)
        k1, b = params.k1, params.b
        num_docs = len(docs)
        avgdl = sum(len(terms) for terms in docs.values()) / num_docs

        def okapi(term, terms):
            count = terms.count(term)
            idf = math.log((num_docs + 1) / sum(term in other for other in docs.values()))
            return (k1 + 1) * count / (k1 * (1 - b + b * len(terms) / avgdl) + count) * idf

        def mle(term, terms):
            return terms.count(term) / len(terms)

        for vectorizer, weight in (("bm25", okapi), ("mle", mle)):
            res = retrieve_dot(idx, model, vectorizer, params, exclude)
            expected = {
                doc: sum(q * weight(t, terms) for t, q in model.weights.items() if t in terms)
                for doc, terms in docs.items()
                if doc not in exclude and set(terms) & set(model.weights)
            }
            scores = dict(res.entries)
            assert scores == pytest.approx(expected)
            assert res.doc_ids == sorted(scores, key=lambda d: (-scores[d], d))

    def test_mle_vectorizer_hand_value(self):
        idx = make_index([("D1", "aba")])
        res = retrieve_dot(idx, query_count_vector(["a"]), "mle", RankingParams(depth=5))
        assert dict(res.entries) == {"D1": pytest.approx(2 / 3)}

    def test_empty_query_returns_empty(self, two_doc_index):
        res = retrieve_dot(two_doc_index, QueryModel.vector({}), "bm25", RankingParams())
        assert res.entries == ()

    def test_requires_vector_model(self, two_doc_index):
        with pytest.raises(ValueError, match="vector"):
            retrieve_dot(two_doc_index, QueryModel.lm({"a": 1.0}), "bm25", RankingParams())

    def test_unknown_vectorizer(self, two_doc_index):
        with pytest.raises(ValueError, match="vectorizer"):
            retrieve_dot(two_doc_index, QueryModel.vector({"a": 1.0}), "tfidf", RankingParams())

    def test_negative_weights_push_docs_down(self):
        idx = make_index([("D1", "ab"), ("D2", "a")])
        res = retrieve_dot(
            idx, QueryModel.vector({"a": 1.0, "b": -5.0}), "bm25", RankingParams(depth=5)
        )
        assert res.doc_ids == ["D2", "D1"]


def random_index_and_model(seed):
    rng = random.Random(seed)
    docs = [
        (f"D{i:02d}", [rng.choice("abcde") for _ in range(rng.randint(1, 8))])
        for i in range(rng.randint(2, 12))
    ]
    terms = [rng.choice("abcde") for _ in range(rng.randint(1, 3))]
    return make_index(docs), terms


class TestRankingProperties:
    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=80)
    def test_determinism(self, seed):
        idx, terms = random_index_and_model(seed)
        params = RankingParams(mu=10.0, depth=100)
        assert retrieve_ql(idx, terms, params) == retrieve_ql(idx, terms, params)

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=80)
    def test_truncation_consistency(self, seed):
        idx, terms = random_index_and_model(seed)
        deep = retrieve_ql(idx, terms, RankingParams(mu=10.0, depth=1000))
        for k in (1, 2, 3):
            shallow = retrieve_ql(idx, terms, RankingParams(mu=10.0, depth=k))
            assert shallow.entries == deep.entries[:k]

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=80)
    def test_exclusion_soundness(self, seed):
        idx, terms = random_index_and_model(seed)
        exclude = set(idx.doc_ids[::2])
        res = retrieve_ql(idx, terms, RankingParams(mu=10.0, depth=1000), exclude=exclude)
        assert not exclude & set(res.doc_ids)

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=40)
    def test_scores_independent_of_doc_arrival_order(self, seed):
        rng = random.Random(seed)
        idx, terms = random_index_and_model(seed)
        docs = [
            TermSequence(doc_id, tuple(t for t, c in sorted(counts.items()) for _ in range(c)))
            for doc_id, counts in zip(idx.doc_ids, idx.forward)
        ]
        shuffled = list(docs)
        rng.shuffle(shuffled)
        other = build_index(shuffled)
        params = RankingParams(mu=10.0, depth=1000)
        assert retrieve_ql(idx, terms, params) == retrieve_ql(other, terms, params)


def test_write_run_format(tmp_path, two_doc_index):
    res = retrieve_ql(two_doc_index, ["a", "b"], RankingParams(mu=1.0, depth=10), query_id="q7")
    path = tmp_path / "run.txt"
    write_run([res], path, run_tag="tag1")
    lines = path.read_text().splitlines()
    assert len(lines) == len(res.entries)
    first = lines[0].split()
    assert first[0] == "q7" and first[1] == "Q0" and first[3] == "1" and first[5] == "tag1"
    assert first[4] == f"{res.entries[0][1]:.6f}"
