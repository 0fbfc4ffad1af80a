import math
import random
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from irfkit.corpus_io import TermSequence
from irfkit.feedback import ModelParams
from irfkit.index import IndexDataError, build_index, doc_vector
from irfkit import ranking
from irfkit.ranking import (
    VECTORIZERS,
    QueryModel,
    query_count_vector,
    query_language_model,
    retrieve_dot,
    retrieve_kl,
)
from support import bm25_weight


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

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_lm_rejects_non_finite_weight_by_term(self, bad):
        # nan once passed the sum check, since abs(nan - 1) > 1e-9 is False
        with pytest.raises(ValueError, match=f"weight of 'a' must be finite, got {bad}"):
            QueryModel.lm({"a": bad, "b": 0.5})

    def test_lm_sum_that_overflows_is_a_bad_sum(self):
        with pytest.raises(ValueError, match="sum to 1, got inf"):
            QueryModel.lm({"a": 1e308, "b": 1e308})

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_vector_rejects_non_finite_weight_by_term(self, bad):
        with pytest.raises(ValueError, match=f"weight of 'b' must be finite, got {bad}"):
            QueryModel.vector({"a": 1.0, "b": bad}, "bm25")

    def test_vector_names_its_weighting(self):
        assert QueryModel.vector({"a": 2.0, "b": 0.0}, "mle") == QueryModel("mle", {"a": 2.0})
        assert query_count_vector(["a", "b", "a"]) == QueryModel("bm25", {"a": 2.0, "b": 1.0})

    def test_vector_refuses_lm(self):
        # an lm model is a distribution, and KL scores it as one: vector would skip lm's checks
        with pytest.raises(ValueError, match="QueryModel.lm"):
            QueryModel.vector({"a": 5.0, "b": 3.0}, "lm")


class TestRetrieveQL:
    # KL under the query's MLE model, a session's first ranking for rm3 and distill
    PARAMS = ModelParams(mu=1.0)

    def test_hand_arithmetic_single_term(self, two_doc_index):
        # c(a,D1)=2, |D1|=3, cf(a)/total=2/4, mu=1 -> p_D1 = 2.5/4 = 0.625
        res = retrieve_kl(two_doc_index, query_language_model(["a"]), self.PARAMS)
        assert res.doc_ids == ["D1"]
        assert res.entries[0][1] == pytest.approx(math.log(0.625))

    def test_ranking_prefers_higher_count(self):
        idx = make_index([("D1", "aba"), ("D2", "ab"), ("D3", "b")])
        res = retrieve_kl(idx, query_language_model(["a"]), self.PARAMS)
        assert res.doc_ids == ["D1", "D2"]

    def test_exclusion(self, two_doc_index):
        res = retrieve_kl(two_doc_index, query_language_model(["b"]), self.PARAMS, exclude={"D1"})
        assert res.doc_ids == ["D2"]

    def test_all_query_terms_out_of_vocabulary(self, two_doc_index):
        res = retrieve_kl(two_doc_index, query_language_model(["zzz"]), self.PARAMS)
        assert res.entries == ()

    def test_equal_docs_tie_broken_by_doc_id(self):
        idx = make_index([("DB", "ax"), ("DA", "ay"), ("DC", "z")])
        res = retrieve_kl(idx, query_language_model(["a"]), self.PARAMS)
        assert res.doc_ids == ["DA", "DB"]


class TestRetrieveKL:
    def test_one_hot_matches_ql(self):
        assert QueryModel.lm({"a": 1.0}) == query_language_model(["a"])

    def test_matches_brute_force_over_definitions(self, two_doc_index):
        params = ModelParams(mu=2.0)
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
        params = ModelParams(mu=1.0)
        base = retrieve_kl(two_doc_index, QueryModel.lm({"a": 1.0}), params)
        padded = retrieve_kl(two_doc_index, QueryModel.lm({"a": 1.0, "b": 0.0}), params)
        assert base == padded

    def test_requires_lm_model(self, two_doc_index):
        with pytest.raises(ValueError, match="lm"):
            retrieve_kl(two_doc_index, QueryModel.vector({"a": 1.0}, "bm25"), ModelParams())


SCORERS = {
    "kl": lambda index, terms, depth: retrieve_kl(
        index, query_language_model(terms), ModelParams(), depth=depth
    ),
    "dot": lambda index, terms, depth: retrieve_dot(
        index, query_count_vector(terms), ModelParams(), depth=depth
    ),
}


@pytest.mark.parametrize("terms", [["a"], ["zzz"]], ids=["scored", "out_of_vocabulary"])
@pytest.mark.parametrize("scorer", SCORERS)
def test_depth_below_one_rejected(two_doc_index, scorer, terms):
    # checked before a query with no term in the collection returns empty
    with pytest.raises(ValueError, match="depth must be >= 1, got 0"):
        SCORERS[scorer](two_doc_index, terms, 0)
    assert len(SCORERS[scorer](two_doc_index, terms, 1).entries) == (terms == ["a"])


@pytest.mark.parametrize("depth", [True, False, 2.0, 1.5, "2"])
@pytest.mark.parametrize("scorer", SCORERS)
def test_depth_follows_the_integer_rule(two_doc_index, scorer, depth):
    # BudgetConfig's rule: True is not one document, nor 2.0 a slicing TypeError
    with pytest.raises(ValueError, match=f"depth must be int, got {re.escape(repr(depth))}"):
        SCORERS[scorer](two_doc_index, ["a"], depth)


@pytest.mark.parametrize(
    "retrieve, model",
    [
        (retrieve_kl, QueryModel.lm({"a": 1.0})),
        (retrieve_dot, QueryModel.vector({"a": 1.0}, "bm25")),
        (retrieve_dot, QueryModel.vector({"a": 1.0}, "mle")),
    ],
)
def test_exclude_as_a_str_rejected(two_doc_index, retrieve, model):
    # "D1" would be read as the ids "D" and "1": nothing excluded, no error
    with pytest.raises(ValueError, match="exclude must be a collection of doc ids, not the str 'D1'"):
        retrieve(two_doc_index, model, ModelParams(), exclude="D1")
    assert retrieve(two_doc_index, model, ModelParams(), exclude=["D1"]).doc_ids == []


class TestBM25Weight:
    def test_absent_term_is_zero(self, two_doc_index):
        assert bm25_weight(two_doc_index, "a", "D2", ModelParams()) == 0.0

    def test_hand_arithmetic(self, two_doc_index):
        # |C|=2, df(a)=1, c(a,D1)=2, |D1|=3, avgdl=2, k1=1.2, b=0.75
        params = ModelParams(k1=1.2, b=0.75)
        expected = (2.2 * 2) / (1.2 * (0.25 + 0.75 * 1.5) + 2) * math.log(3)
        assert bm25_weight(two_doc_index, "a", "D1", params) == pytest.approx(expected)

    def test_term_in_every_doc_keeps_positive_idf(self, two_doc_index):
        # df(b) = |C| = 2 -> idf = log(3/2) > 0
        weight = bm25_weight(two_doc_index, "b", "D2", ModelParams())
        assert weight > 0.0

    def test_unknown_doc_errors(self, two_doc_index):
        with pytest.raises(IndexDataError):
            bm25_weight(two_doc_index, "a", "nope", ModelParams())


class TestRetrieveDot:
    def test_bm25_vectorizer_matches_standalone_bm25(self):
        idx = make_index([("D1", "abb"), ("D2", "ab"), ("D3", "ccc"), ("D4", "a")])
        params = ModelParams(k1=1.4, b=0.6)
        res = retrieve_dot(idx, query_count_vector(["b"]), params)
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
        weights = {t: rng.uniform(-2.0, 3.0) for t in query_terms}
        exclude = set(rng.sample(sorted(docs), rng.randint(0, len(docs) - 1))) | {"unknown"}
        params = ModelParams(k1=rng.uniform(0.5, 2.0), b=rng.uniform(0.0, 1.0))
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
            model = QueryModel.vector(weights, vectorizer)
            res = retrieve_dot(idx, model, params, exclude)
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
        res = retrieve_dot(idx, QueryModel.vector({"a": 1.0}, "mle"), ModelParams(), depth=5)
        assert dict(res.entries) == {"D1": pytest.approx(2 / 3)}

    def test_empty_query_returns_empty(self, two_doc_index):
        res = retrieve_dot(two_doc_index, QueryModel.vector({}, "bm25"), ModelParams())
        assert res.entries == ()

    def test_requires_vector_model(self, two_doc_index):
        with pytest.raises(ValueError, match="unknown vectorizer 'lm'"):
            retrieve_dot(two_doc_index, QueryModel.lm({"a": 1.0}), ModelParams())

    def test_unknown_vectorizer(self, two_doc_index):
        with pytest.raises(ValueError, match="vectorizer"):
            retrieve_dot(two_doc_index, QueryModel.vector({"a": 1.0}, "tfidf"), ModelParams())

    def test_negative_weights_push_docs_down(self):
        idx = make_index([("D1", "ab"), ("D2", "a")])
        res = retrieve_dot(
            idx, QueryModel.vector({"a": 1.0, "b": -5.0}, "bm25"), ModelParams(), depth=5
        )
        assert res.doc_ids == ["D2", "D1"]


def random_index_and_model(seed):
    rng = random.Random(seed)
    docs = [
        (f"D{i:02d}", [rng.choice("abcde") for _ in range(rng.randint(1, 8))])
        for i in range(rng.randint(2, 12))
    ]
    terms = [rng.choice("abcde") for _ in range(rng.randint(1, 3))]
    return make_index(docs), query_language_model(terms)


class TestNonFiniteScore:
    """Parameters so large that a weight overflows give a score that is not
    finite: an error naming the first such doc, not a ranking."""

    @pytest.fixture
    def index(self):
        return make_index([("d1", "aab"), ("d2", "bc"), ("d3", "c")])

    def test_kl_with_an_overflowing_mu(self, index):
        # mu * cf(a) is inf in Python floats, so no numpy warning comes first
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="score of doc 'd1' is not finite: nan"):
                retrieve_kl(index, query_language_model(["a", "b"]), ModelParams(mu=1e308))

    def test_kl_with_a_mu_whose_background_underflows(self, index):
        # mu * cf / total_terms is 0.0, whose log was a bare "math domain error"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            message = "mu=5e-324 is so small that mu * cf / total_terms is 0.0 for term 'a'"
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                retrieve_kl(index, query_language_model(["a", "b"]), ModelParams(mu=5e-324))

    @pytest.mark.parametrize(
        "weights, params", [({"a": 1.0, "b": 1.0}, ModelParams(k1=1e308)), ({"a": 1.5e308}, ModelParams())]
    )
    def test_bm25_with_an_overflowing_weight(self, index, weights, params):
        with np.errstate(over="ignore", invalid="ignore"):  # numpy warns as the BM25 weight overflows
            with pytest.raises(ValueError, match="score of doc 'd1' is not finite: inf"):
                retrieve_dot(index, QueryModel.vector(weights, "bm25"), params)


class TestRankingProperties:
    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=80)
    def test_determinism(self, seed):
        idx, model = random_index_and_model(seed)
        params = ModelParams(mu=10.0)
        assert retrieve_kl(idx, model, params) == retrieve_kl(idx, model, params)

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=80)
    def test_truncation_consistency(self, seed):
        idx, model = random_index_and_model(seed)
        deep = retrieve_kl(idx, model, ModelParams(mu=10.0))
        for k in (1, 2, 3):
            shallow = retrieve_kl(idx, model, ModelParams(mu=10.0), depth=k)
            assert shallow.entries == deep.entries[:k]

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=80)
    def test_exclusion_soundness(self, seed):
        idx, model = random_index_and_model(seed)
        exclude = set(idx.doc_ids[::2])
        res = retrieve_kl(idx, model, ModelParams(mu=10.0), exclude=exclude)
        assert not exclude & set(res.doc_ids)

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=40)
    def test_scores_independent_of_doc_arrival_order(self, seed):
        rng = random.Random(seed)
        idx, model = random_index_and_model(seed)
        docs = [
            TermSequence(doc_id, tuple(t for t, c in doc_vector(idx, doc_id).items() for _ in range(c)))
            for doc_id in idx.doc_ids
        ]
        shuffled = list(docs)
        rng.shuffle(shuffled)
        other = build_index(shuffled)
        params = ModelParams(mu=10.0)
        assert retrieve_kl(idx, model, params) == retrieve_kl(other, model, params)


# The scorers as they were before the columnar index: one closure call per
# posting into a dict, then a sort of every candidate.  The array scorers must
# give the same entries, float for float.


def reference_scores(index, model, weight, exclude):
    excluded = {index.internal_id(d) for d in exclude if index.has_doc(d)}
    scores = {}
    for term, q_weight in sorted(model.weights.items()):
        plist = index.postings.get(term)
        if not plist:
            continue
        term_weight = weight(term)
        for x, c in plist:
            if x in excluded:
                continue
            scores[x] = scores.get(x, 0.0) + q_weight * term_weight(x, c)
    return scores


def reference_rank(index, scores, depth):
    items = [(index.doc_ids[x], score) for x, score in scores.items()]
    items.sort(key=lambda pair: (-pair[1], pair[0]))
    return tuple(items[:depth])


def reference_kl(index, model, params, exclude, depth=1000):
    total_terms = index.stats.total_terms
    backgrounds = {
        t: params.mu * index.cf(t) / total_terms for t in sorted(model.weights) if index.cf(t) > 0
    }
    if not backgrounds:
        return ()
    baseline = weight_sum = 0.0
    for term, background in backgrounds.items():
        baseline += model.weights[term] * math.log(background)
        weight_sum += model.weights[term]

    def dirichlet_delta(term):
        background = backgrounds[term]
        log_background = math.log(background)
        return lambda x, c: math.log(c + background) - log_background

    partial = reference_scores(index, model, dirichlet_delta, exclude)
    scores = {
        x: acc + baseline - weight_sum * math.log(index.doc_lengths[x] + params.mu)
        for x, acc in partial.items()
    }
    return reference_rank(index, scores, depth)


def reference_dot(index, model, params, exclude, depth=1000):
    lengths = index.doc_lengths
    k1, b, avgdl, num_docs = params.k1, params.b, index.stats.avg_doc_len, index.stats.num_docs

    def okapi(term):
        idf = math.log((num_docs + 1) / index.df(term))
        return lambda x, c: (k1 + 1.0) * c / (k1 * (1.0 - b + b * lengths[x] / avgdl) + c) * idf

    def mle(term):
        return lambda x, c: c / lengths[x]

    weight = okapi if model.kind == "bm25" else mle
    return reference_rank(index, reference_scores(index, model, weight, exclude), depth)


@st.composite
def scoring_cases(draw):
    """A small index whose doc ids sort differently from their internal order
    (d10 before d9), with few terms and short documents so that many scores
    tie, sometimes one long document; a query model over its terms and one
    term in no document; exclusions with an unknown id; any depth."""
    numbers = draw(st.lists(st.integers(0, 40), min_size=1, max_size=14, unique=True))
    docs = [
        (f"d{n}", draw(st.lists(st.sampled_from("abcde"), max_size=8)))
        for n in numbers
    ]
    if draw(st.booleans()):
        docs.append(("long", ["a"] * 1500 + ["b"] * draw(st.integers(0, 3))))
    index = make_index(docs)
    query_terms = draw(st.lists(st.sampled_from("abcdez"), min_size=1, max_size=6, unique=True))
    raw = [draw(st.sampled_from([0.5, 1.0, 2.0, 3.0])) for _ in query_terms]
    lm = QueryModel.lm({t: w / sum(raw) for t, w in zip(query_terms, raw)})
    vector = {t: draw(st.sampled_from([-1.5, -1.0, 0.25, 1.0, 2.0])) for t in query_terms}
    doc_ids = [doc_id for doc_id, _ in docs]
    exclude = set(draw(st.lists(st.sampled_from(doc_ids), max_size=len(doc_ids)))) | {"unknown"}
    params = ModelParams(
        mu=draw(st.sampled_from([1.0, 10.0, 2000.0])),
        k1=draw(st.sampled_from([0.5, 1.2, 2.0])),
        b=draw(st.sampled_from([0.0, 0.75, 1.0])),
    )
    return index, lm, vector, exclude, params, draw(st.integers(1, len(docs) + 1))


class TestMatchesReferenceScorer:
    @given(scoring_cases())
    @settings(max_examples=300, deadline=None)
    def test_entries_equal_to_the_posting_loop(self, case):
        index, lm, vector, exclude, params, depth = case
        assert retrieve_kl(index, lm, params, exclude, depth=depth).entries == reference_kl(
            index, lm, params, exclude, depth
        )
        for vectorizer in ("bm25", "mle"):
            model = QueryModel.vector(vector, vectorizer)
            assert retrieve_dot(index, model, params, exclude, depth=depth).entries == (
                reference_dot(index, model, params, exclude, depth)
            )

    def test_ties_at_the_cut_resolved_by_doc_id_not_internal_order(self):
        # d9, d10 and d100 score the same; lexically d10 < d100 < d9
        idx = make_index([("d9", "a"), ("d10", "a"), ("d100", "a"), ("d2", "aa")])
        model = QueryModel.vector({"a": 1.0}, "mle")
        res = retrieve_dot(idx, model, ModelParams(), depth=3)
        assert res.doc_ids == ["d10", "d100", "d2"]
        assert res.entries == reference_dot(idx, model, ModelParams(), (), 3)

    def test_kl_delta_takes_math_log(self):
        # np.log is not correctly rounded for every input; find a mu at which
        # it would move a score, so an np.log delta cannot pass unnoticed
        idx = make_index([(f"d{c:02d}", "a" * c + "bbbb") for c in range(1, 41)])
        cf, total = idx.cf("a"), idx.stats.total_terms
        counts = np.arange(1, 41)
        for step in range(20_000):
            mu = 1.0 + 0.37 * step
            background = mu * cf / total
            log_background = math.log(background)
            moved = [
                (math.log(c + background) - log_background) + log_background
                != (np_log - log_background) + log_background
                for c, np_log in zip(counts.tolist(), np.log(counts + background).tolist())
            ]
            if any(moved):
                break
        model, params = QueryModel.lm({"a": 1.0}), ModelParams(mu=mu)
        assert retrieve_kl(idx, model, params).entries == reference_kl(idx, model, params, ())

    def test_scores_are_python_floats(self, two_doc_index):
        res = retrieve_dot(two_doc_index, query_count_vector(["a", "b"]), ModelParams())
        assert all(type(score) is float for _, score in res.entries)
        assert type(bm25_weight(two_doc_index, "a", "D1", ModelParams())) is float


class TestArrayViews:
    """A ranking holds internal ids and float64 scores; its names and entries
    are built when read, from the index's object array of doc ids."""

    @staticmethod
    def check_views(index, ranked):
        names = [index.doc_ids[x] for x in ranked.ids.tolist()]  # the eager lists
        assert ranked.doc_ids == names and all(type(name) is str for name in ranked.doc_ids)
        assert ranked.entries == tuple(zip(names, ranked.scores.tolist()))
        assert all(type(name) is str and type(score) is float for name, score in ranked.entries)

    @given(scoring_cases(), st.integers(0, 3))
    @settings(max_examples=150, deadline=None)
    def test_scorer_views_equal_the_eager_lists(self, case, beyond):
        index, lm, vector, exclude, params, depth = case
        depth += beyond  # up to beyond every candidate
        models = [QueryModel.vector(vector, weighting) for weighting in VECTORIZERS]
        rankings = [retrieve_dot(index, model, params, exclude, depth=depth) for model in models]
        for ranked in [retrieve_kl(index, lm, params, exclude, depth=depth), *rankings]:
            self.check_views(index, ranked)
            assert len(ranked.ids) <= depth and not exclude & set(ranked.doc_ids)

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_rank_at_every_depth_equals_a_sort(self, data):
        # doc ids that sort unlike their internal order, and scores drawn from few values, so many tie
        index = make_index([(f"d{n}", "a") for n in data.draw(st.permutations(range(12)))])
        candidates = sorted(data.draw(st.sets(st.integers(0, 11))))
        scores = [data.draw(st.sampled_from([-1.0, 0.0, 0.5, 2.0])) for _ in candidates]
        depth = data.draw(st.integers(0, len(candidates) + 2))
        ranked = ranking._rank(index, np.array(candidates, dtype=np.intp), np.array(scores), depth)
        expected = sorted(zip(candidates, scores), key=lambda entry: (-entry[1], index.doc_ids[entry[0]]))[:depth]
        assert ranked.ids.tolist() == [x for x, _ in expected]
        self.check_views(index, ranked)
        assert ranked.entries == tuple((index.doc_ids[x], score) for x, score in expected)

    def test_equal_by_names_and_scores_not_internal_ids(self):
        one, other = make_index([("d1", "a"), ("d2", "aa")]), make_index([("d2", "aa"), ("d1", "a")])
        model = QueryModel.vector({"a": 1.0}, "bm25")
        ranked, reordered = retrieve_dot(one, model, ModelParams()), retrieve_dot(other, model, ModelParams())
        assert ranked.ids.tolist() != reordered.ids.tolist()
        assert ranked == reordered
        assert ranked != retrieve_dot(one, model, ModelParams(k1=2.0))


class TestBlocks:
    """The scorers gather postings in blocks of whole terms; the blocks bound
    the transient memory and change no float."""

    @given(scoring_cases())
    @settings(max_examples=100, deadline=None)
    def test_any_block_size_gives_the_posting_loops_floats(self, case):
        # at block 1 and 3 most terms hold more entries than a block
        index, lm, vector, exclude, params, depth = case

        def exact(entries):
            return [(doc_id, score.hex()) for doc_id, score in entries]

        for block in (1, 3, ranking._BLOCK):
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(ranking, "_BLOCK", block)
                got = retrieve_kl(index, lm, params, exclude, depth=depth).entries
                assert exact(got) == exact(reference_kl(index, lm, params, exclude, depth))
                for vectorizer in ("bm25", "mle"):
                    model = QueryModel.vector(vector, vectorizer)
                    got = retrieve_dot(index, model, params, exclude, depth=depth).entries
                    assert exact(got) == exact(reference_dot(index, model, params, exclude, depth))

    def test_blocks_are_whole_terms_up_to_the_block_size(self, monkeypatch):
        # terms a..f hold 1, 2, 10, 3, 1 and 1 entries; c alone exceeds the block
        holders = {"a": 1, "b": 2, "c": 10, "d": 3, "e": 1, "f": 1}
        index = make_index(
            [(f"d{i:02d}", [t for t, n in holders.items() if i < n]) for i in range(10)]
        )
        monkeypatch.setattr(ranking, "_BLOCK", 4)
        blocks = []

        def weigh(spread, docs, counts):
            blocks.append(spread(np.array(list("abcdef"))).tolist())
            return np.ones(docs.size)

        rows = np.array([index.postings.rows[term] for term in "abcdef"])
        candidates, scores = ranking._accumulate(index, rows, weigh, ())
        assert blocks == [["a", "b", "b"], ["c"] * 10, ["d"] * 3 + ["e"], ["f"]]
        assert candidates.tolist() == list(range(10))
        assert scores.tolist() == [6.0, 3.0, 2.0, 1.0] + [1.0] * 6

    @pytest.mark.parametrize("kind", ["lm", "bm25", "mle"])
    def test_memory_stays_within_a_block_and_the_documents(self, monkeypatch, kind):
        # 30 to 48 terms in each of 1,000 documents: about 39,000 postings, 10 blocks
        block, num_docs, vocabulary = 4096, 1000, [f"t{j:02d}" for j in range(48)]
        index = make_index([(f"d{i:04d}", vocabulary[: 30 + i % 19]) for i in range(num_docs)])
        monkeypatch.setattr(ranking, "_BLOCK", block)
        weights = {term: 1 / len(vocabulary) for term in vocabulary}
        if kind == "lm":
            model = QueryModel.lm(weights)
            score = lambda: retrieve_kl(index, model, ModelParams(), depth=10)
        else:
            model = QueryModel.vector(weights, kind)
            score = lambda: retrieve_dot(index, model, ModelParams(), depth=10)
        assert sum(index.df(term) for term in vocabulary) >= 8 * block
        score()  # first-call allocations, such as numpy's caches, are not the scorer's
        tracemalloc.start()
        try:
            score()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * (block + num_docs) * 8


# _PRUNE at 0 sends every page through the pruned path; at FULL, none.
FULL = 2**62


def hexed(entries):
    return [(doc_id, score.hex()) for doc_id, score in entries]


def scored_with(prune, retrieve, *args, **kwargs):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ranking, "_PRUNE", prune)
        return retrieve(*args, **kwargs)


@pytest.mark.parametrize("prune", [0, FULL])
@pytest.mark.parametrize(
    "retrieve, model",
    [
        (retrieve_kl, QueryModel.lm({"a": 1.0})),
        (retrieve_dot, QueryModel.vector({"a": 1.0}, "bm25")),
        (retrieve_dot, QueryModel.vector({"a": 1.0}, "mle")),
    ],
)
def test_exclude_none_rejected_by_the_collection_rule(two_doc_index, retrieve, model, prune):
    # None raised TypeError: 'NoneType' object is not iterable
    with pytest.raises(ValueError, match="^exclude must be a collection of doc ids, not None$"):
        scored_with(prune, retrieve, two_doc_index, model, ModelParams(), exclude=None, depth=1)


class TestPrunedPages:
    """A page pruned by its term bounds gives the full pass's entries, float
    for float, at every depth."""

    @given(scoring_cases(), st.sampled_from([1, 3, ranking._BLOCK]))
    @settings(max_examples=150, deadline=None)
    def test_every_depth_gives_the_full_pass_floats(self, case, block):
        # ties from few terms and short documents, Rocchio's and prob's negative
        # weights, excluded and unknown ids, an out-of-vocabulary term, empty
        # models; at block 1 and 3 most postings rows and documents span blocks
        index, lm, vector, exclude, params, _ = case
        models = [
            (retrieve_kl, lm),
            (retrieve_kl, QueryModel.lm({})),
            *[(retrieve_dot, QueryModel.vector(weights, kind)) for weights in (vector, {}) for kind in VECTORIZERS],
        ]
        for depth in range(1, index.num_docs + 1):
            for retrieve, model in models:
                with pytest.MonkeyPatch.context() as patch:
                    patch.setattr(ranking, "_BLOCK", block)
                    pruned = scored_with(0, retrieve, index, model, params, exclude, depth=depth)
                full = scored_with(FULL, retrieve, index, model, params, exclude, depth=depth)
                assert hexed(pruned.entries) == hexed(full.entries)

    @pytest.mark.parametrize("kind", ["lm", "bm25", "mle"])
    def test_a_page_rescores_only_the_documents_that_can_reach_it(self, monkeypatch, kind):
        # 40 documents hold only the common term; the rare one's holders lead by far
        index = make_index([(f"d{i:02d}", "c" * (1 + i % 3)) for i in range(40)] + [("r1", "rc"), ("r2", "rrc")])
        weights = {"r": 0.9, "c": 0.1}
        model = QueryModel.lm(weights) if kind == "lm" else QueryModel.vector(weights, kind)
        retrieve = retrieve_kl if kind == "lm" else retrieve_dot
        rescored = []
        rescore = ranking._rescore
        monkeypatch.setattr(ranking, "_rescore", lambda index, candidates, *rest: (
            rescored.extend(index.doc_ids[x] for x in candidates.tolist()) or rescore(index, candidates, *rest)
        ))
        pruned = scored_with(0, retrieve, index, model, ModelParams(), ["r2"], depth=1)
        assert rescored == ["r1"]
        assert hexed(pruned.entries) == hexed(scored_with(FULL, retrieve, index, model, ModelParams(), ["r2"], depth=1).entries)

    @pytest.mark.parametrize("kind", ["lm", "bm25", "mle"])
    def test_memory_stays_within_a_block_and_the_documents(self, monkeypatch, kind):
        # the pruned path gathers its candidates' postings and forward rows in blocks too
        monkeypatch.setattr(ranking, "_PRUNE", 0)
        TestBlocks().test_memory_stays_within_a_block_and_the_documents(monkeypatch, kind)

    def test_sizes_decide_and_a_page_left_whole_builds_no_bounds(self, monkeypatch):
        # 2,000 documents of about two terms, a in all of them and r in one: a depth-1
        # page of a and r outnumbers 8 x (1 + 0 + 2) x avgdl postings, a depth-200 page
        # does not.  The rare r leads, and its one document clears a's bound
        index = make_index([(f"d{i:04d}", "ab") for i in range(1999)] + [("r1", "abr")])
        led = []
        matching = ranking._matching
        monkeypatch.setattr(ranking, "_matching", lambda index, rows, drop: (
            led.append([index.postings.terms[row] for row in rows.tolist()]) or matching(index, rows, drop)
        ))
        model = QueryModel.lm({"a": 0.5, "r": 0.5})
        retrieve_kl(index, model, ModelParams(), depth=200)
        assert led == [] and "max_counts" not in vars(index) and "min_lengths" not in vars(index)
        assert retrieve_kl(index, model, ModelParams(), depth=1).doc_ids == ["r1"]
        assert led == [["r"]] and "max_counts" in vars(index)

    @given(scoring_cases())
    @settings(max_examples=100, deadline=None)
    def test_a_retrieval_matches_at_most_twice(self, case):
        # theta only rises as candidates are added, so a second pass leads no more terms
        index, lm, vector, exclude, params, _ = case
        models = [(retrieve_kl, lm), *[(retrieve_dot, QueryModel.vector(vector, kind)) for kind in VECTORIZERS]]
        calls = []
        matching = ranking._matching
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(ranking, "_PRUNE", 0)
            patch.setattr(ranking, "_matching", lambda *args: calls.append(args[1]) or matching(*args))
            for depth in range(1, index.num_docs + 1):
                for retrieve, model in models:
                    calls.clear()
                    retrieve(index, model, params, exclude, depth=depth)
                    assert len(calls) <= 2


class TestNonFiniteScoreWithEveryPagePruned(TestNonFiniteScore):
    """A bound that is not finite sends the page to the full pass, which names the doc."""

    @pytest.fixture(autouse=True)
    def every_page_pruned(self, monkeypatch):
        monkeypatch.setattr(ranking, "_PRUNE", 0)
