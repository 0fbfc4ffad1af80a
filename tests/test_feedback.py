import math
import random
import re
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from irfkit import feedback
from irfkit.corpus_io import TermSequence
from irfkit.feedback import (
    FeedbackError,
    FeedbackPools,
    ModelParams,
    PoolConflictError,
    distill_relevance_model,
    estimate_distillation,
    estimate_prob,
    estimate_rm3,
    estimate_rocchio,
    load_params,
    mle,
    parse_param,
    write_key_values,
    _centroid,
)
from irfkit.index import build_index, forward_sum
from irfkit.ranking import doc_weighting, query_count_vector
from irfkit.session import BudgetConfig, make_qrels_judge, run_irf
from irfkit.synthetic import topical_corpus
from support import bm25_weight, reference_distill


def make_index(layout):
    return build_index([TermSequence(doc_id, tuple(terms)) for doc_id, terms in layout])


@pytest.fixture
def ab_index():
    return make_index([("D1", "aba"), ("D2", "b")])


class TestFeedbackPools:
    def test_insertion_order_and_disjointness(self):
        pools = FeedbackPools()
        pools.add("x", True)
        pools.add("y", False)
        pools.add("z", True)
        assert pools.relevant == ["x", "z"]
        assert pools.nonrelevant == ["y"]
        with pytest.raises(PoolConflictError):
            pools.add("y", True)


class TestModelParams:
    def test_lambda_sum_must_stay_below_one(self):
        with pytest.raises(FeedbackError, match="lambda1"):
            ModelParams(lambda1=0.6, lambda2=0.4)

    def test_interp_range(self):
        with pytest.raises(FeedbackError, match="interp"):
            ModelParams(interp_lambda=1.5)

    @pytest.mark.parametrize(
        "override,match", [({"mu": 0.0}, "mu"), ({"k1": -1.0}, "k1"), ({"b": 1.5}, "b")]
    )
    def test_ranking_fields_checked_like_ranking_params(self, override, match):
        # the range checks and messages of the scorers' mu, k1 and b
        value = override[match]
        message = f"{match} must be in [0, 1], got {value}" if match == "b" else f"{match} must be > 0, got {value}"
        with pytest.raises(FeedbackError, match=re.escape(message)):
            ModelParams(**override)

    @pytest.mark.parametrize(
        "name,value",
        [
            ("num_expansion_terms", 2.5),
            ("num_expansion_terms", True),
            ("em_max_iters", 2.5),
            ("em_max_iters", "3"),
            ("subtract_nonrelevant", 1),
            ("subtract_nonrelevant", "false"),
            ("mu", True),
            ("mu", "50"),
            ("em_tol", None),
        ],
    )
    def test_field_of_the_wrong_type_rejected(self, name, value):
        kind = type(getattr(ModelParams(), name)).__name__
        with pytest.raises(FeedbackError, match=re.escape(f"{name} must be {kind}, got {value!r}")):
            ModelParams(**{name: value})

    def test_int_is_a_float_field_value(self):
        params = ModelParams(mu=50, beta=2)
        assert params.mu == 50 and params.beta == 2

    @pytest.mark.parametrize("name", ["mu", "k1", "em_tol"])
    def test_int_too_large_for_a_float_rejected(self, name):
        # math.isfinite raises OverflowError on it, and a scorer would too
        with pytest.raises(FeedbackError, match=f"^{name} must be finite, got an int too large for a float$"):
            ModelParams(**{name: 10**400})
        assert type(ModelParams(mu=10**300).mu) is int  # an int that fits is kept as it is

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize(
        "name", ["mu", "k1", "b", "interp_lambda", "lambda1", "lambda2", "beta", "gamma", "em_tol"]
    )
    def test_non_finite_float_rejected(self, name, value):
        with pytest.raises(FeedbackError, match=f"{name} must be finite"):
            ModelParams(**{name: value})

    def test_line_without_equals_names_file_line_and_text(self, tmp_path):
        path = tmp_path / "params.txt"
        path.write_text("mu=100\nk1 1.2\n")
        with pytest.raises(FeedbackError, match=r"params.txt:2: expected key=value, got 'k1 1.2'"):
            load_params(path)

    def test_param_file_round_trip(self, tmp_path):
        params = ModelParams(mu=300.0, interp_lambda=0.4, num_expansion_terms=30)
        path = tmp_path / "params.txt"
        write_key_values(path, params.to_dict())
        assert load_params(path) == params

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "params.txt"
        path.write_text("mu=100\nalpha=3\n")
        with pytest.raises(FeedbackError, match="alpha"):
            load_params(path)

    def test_bad_value_names_file_line_and_key(self, tmp_path):
        path = tmp_path / "params.txt"
        path.write_text("mu=100\n\nsubtract_nonrelevant=maybe\n")
        with pytest.raises(FeedbackError, match=r"params.txt:3: .*'maybe'.*'subtract_nonrelevant'"):
            load_params(path)

    def test_line_ends_only_at_newline(self, tmp_path):
        path = tmp_path / "params.txt"
        path.write_text("mu=50\x85k1=1.3\n", "utf-8")
        with pytest.raises(FeedbackError, match=re.escape("params.txt:1: bad value '50\\x85k1=1.3' for parameter 'mu'")):
            load_params(path)

    @pytest.mark.parametrize(
        "text,lineno", [("mu=100\nmu=200\n", 2), ("mu=100\n# tuned\nk1=1.3\n mu = 200\n", 4)]
    )
    def test_repeated_key_names_both_lines(self, tmp_path, text, lineno):
        path = tmp_path / "params.txt"
        path.write_text(text)
        message = f"{path}:{lineno}: key 'mu' is already on line 1"
        with pytest.raises(FeedbackError, match=f"^{re.escape(message)}$"):
            load_params(path)

    def test_overrides_win(self, tmp_path):
        path = tmp_path / "params.txt"
        path.write_text("mu=100\nk1=1.2\n")
        params = load_params(path, {"mu": "500"})
        assert params.mu == 500.0 and params.k1 == 1.2

    def test_bool_parsing(self):
        assert parse_param("subtract_nonrelevant", "false") is False

    @pytest.mark.parametrize(
        "key,value",
        [
            ("num_expansion_terms", "1_0"),
            ("num_expansion_terms", "\u0661"),  # Arabic-Indic digit one
            ("mu", "1_000.0"),
            ("mu", "\uff15\uff10"),  # fullwidth 50
            ("em_tol", "1e-6_0"),
        ],
    )
    def test_number_must_be_ascii_without_underscore(self, key, value):
        with pytest.raises(FeedbackError, match=re.escape(f"bad value {value!r} for parameter {key!r}")):
            parse_param(key, value)

    def test_ascii_numbers_still_read(self):
        assert parse_param("num_expansion_terms", "+10") == 10
        assert parse_param("mu", "1e3") == 1000.0 and parse_param("em_tol", "-1E-6") == -1e-6
        with pytest.raises(FeedbackError, match="mu must be finite"):
            load_params(None, {"mu": "nan"})


class TestMLE:
    def test_single_doc_both_modes(self, ab_index):
        for mode in ("averaged", "concatenated"):
            assert mle(ab_index, ["D1"], mode) == pytest.approx({"a": 2 / 3, "b": 1 / 3})

    def test_two_docs_averaged_vs_concatenated(self, ab_index):
        assert mle(ab_index, ["D1", "D2"], "averaged") == pytest.approx({"a": 1 / 3, "b": 2 / 3})
        assert mle(ab_index, ["D1", "D2"], "concatenated") == pytest.approx({"a": 0.5, "b": 0.5})

    def test_output_sums_to_one(self, ab_index):
        for mode in ("averaged", "concatenated"):
            assert sum(mle(ab_index, ["D1", "D2"], mode).values()) == pytest.approx(1.0)

    def test_empty_doc_set_is_an_error(self, ab_index):
        with pytest.raises(FeedbackError):
            mle(ab_index, [])


class TestRM3:
    def test_interp_one_returns_original_regardless_of_pool(self, ab_index):
        params = ModelParams(interp_lambda=1.0, num_expansion_terms=5)
        model, fell_back, _ = estimate_rm3(ab_index, ["b"], FeedbackPools(["D1"]), params)
        assert not fell_back
        assert model.weights == {"b": 1.0}

    def test_hand_arithmetic(self, ab_index):
        params = ModelParams(interp_lambda=0.5, num_expansion_terms=5)
        model, _, _ = estimate_rm3(ab_index, ["b"], FeedbackPools(["D1"]), params)
        assert model.weights == pytest.approx({"a": 1 / 3, "b": 2 / 3})

    def test_interp_zero_reduces_to_averaged_mle(self, ab_index):
        params = ModelParams(interp_lambda=0.0, num_expansion_terms=5)
        model, _, _ = estimate_rm3(ab_index, ["b"], FeedbackPools(["D1", "D2"]), params)
        assert model.weights == pytest.approx(mle(ab_index, ["D1", "D2"], "averaged"))

    def test_empty_pool_falls_back_to_query_model(self, ab_index):
        estimate = estimate_rm3(ab_index, ["b", "b", "a"], FeedbackPools(), ModelParams())
        assert estimate.fallback
        assert estimate.model.weights == pytest.approx({"a": 1 / 3, "b": 2 / 3})

    def test_single_doc_pool_equals_exact_interpolation(self, ab_index):
        lam = 0.3
        params = ModelParams(interp_lambda=lam, num_expansion_terms=50)
        model, _, _ = estimate_rm3(ab_index, ["b"], FeedbackPools(["D1"]), params)
        doc_mle = {"a": 2 / 3, "b": 1 / 3}
        expected = {
            t: lam * {"b": 1.0}.get(t, 0.0) + (1 - lam) * doc_mle.get(t, 0.0)
            for t in ("a", "b")
        }
        assert model.weights == expected  # exact, no renormalization drift

    # rm3 and distillation share one update; with no mixture weight left on
    # the other components, distillation's EM keeps the pool's MLE too
    @pytest.mark.parametrize("estimate", [estimate_rm3, estimate_distillation], ids=lambda f: f.__name__)
    def test_truncation_keeps_top_terms_and_renormalizes(self, estimate):
        idx = make_index([("D1", "aaabbc")])
        params = ModelParams(interp_lambda=0.0, num_expansion_terms=2, lambda1=0.0, lambda2=0.0)
        model, _, _ = estimate(idx, ["a"], FeedbackPools(["D1"]), params)
        # top 2 of {a: 1/2, b: 1/3, c: 1/6} renormalized
        assert model.weights == pytest.approx({"a": 0.6, "b": 0.4})
        assert sum(model.weights.values()) == pytest.approx(1.0)


class TestDistillation:
    def test_zero_lambdas_converge_to_concatenated_mle(self, ab_index):
        counts = {"a": 2, "b": 2}
        p_rel, trace = distill_relevance_model(counts, {}, {"a": 0.5, "b": 0.5}, 0.0, 0.0)
        assert p_rel == pytest.approx({"a": 0.5, "b": 0.5})
        assert len(trace) >= 2

    def test_em_monotone_on_toy(self):
        _, trace = distill_relevance_model(
            {"a": 2, "b": 2}, {}, {"a": 0.9, "b": 0.1}, 0.0, 0.5, max_iters=200, tol=1e-12
        )
        assert all(b - a >= -1e-9 for a, b in zip(trace, trace[1:]))

    def test_matches_one_dimensional_grid_search(self):
        # 2-term toy where the background explains term a, so the relevance
        # topic should concentrate on b
        counts = {"a": 2, "b": 2}
        p_c = {"a": 0.9, "b": 0.1}

        def objective(pb):
            return 2 * math.log(0.5 * (1 - pb) + 0.5 * 0.9) + 2 * math.log(0.5 * pb + 0.5 * 0.1)

        grid_best = max(range(10001), key=lambda i: objective(i * 1e-4)) * 1e-4
        p_rel, _ = distill_relevance_model(counts, {}, p_c, 0.0, 0.5, max_iters=500, tol=1e-12)
        assert grid_best == pytest.approx(0.9)
        assert abs(p_rel["b"] - grid_best) < 1e-3

    def test_invalid_lambdas_rejected(self):
        with pytest.raises(FeedbackError, match="lambda"):
            distill_relevance_model({"a": 1}, {}, {"a": 1.0}, 0.7, 0.3)

    @pytest.mark.parametrize("lambdas", [(0.7, 0.3), (-0.3, 0.2), (0.2, -0.1), (math.nan, 0.2), (0.2, math.nan)])
    def test_lambdas_checked_as_model_params_checks_them(self, lambdas):
        with pytest.raises(FeedbackError) as fit_error:
            distill_relevance_model({"a": 1, "b": 1}, {}, {"a": 0.5, "b": 0.5}, *lambdas)
        assert str(fit_error.value) == f"lambda1 + lambda2 must be in [0, 1), got {lambdas[0]} + {lambdas[1]}"
        if not any(map(math.isnan, lambdas)):  # ModelParams rejects nan as not finite first
            with pytest.raises(FeedbackError, match=re.escape(str(fit_error.value))):
                ModelParams(lambda1=lambdas[0], lambda2=lambdas[1])

    def test_lambda1_zero_equals_two_component_mixture(self, ab_index):
        # with an empty non-relevant pool the lambda1 component is dropped
        # and the weights renormalized, matching the plain mixture model
        pools = FeedbackPools(["D1"])
        with_nrp_weight = ModelParams(lambda1=0.2, lambda2=0.4, interp_lambda=0.0)
        plain = ModelParams(lambda1=0.0, lambda2=0.5, interp_lambda=0.0)
        a, _, _ = estimate_distillation(ab_index, ["b"], pools, with_nrp_weight)
        b, _, _ = estimate_distillation(ab_index, ["b"], pools, plain)
        assert a.weights == pytest.approx(b.weights)

    def test_nonrelevant_pool_absorbs_its_topic(self):
        idx = make_index([("R1", "ax" * 3), ("N1", "x" * 6), ("F1", "cc")])
        pools = FeedbackPools(["R1"], ["N1"])
        with_nrp = ModelParams(lambda1=0.5, lambda2=0.0, interp_lambda=0.0)
        without = ModelParams(lambda1=0.0, lambda2=0.0, interp_lambda=0.0)
        a, _, _ = estimate_distillation(idx, ["a"], pools, with_nrp)
        b, _, _ = estimate_distillation(idx, ["a"], FeedbackPools(["R1"]), without)
        # x dominates the non-relevant pool, so the relevance topic sheds it
        assert a.weights["a"] > b.weights["a"]

    def test_empty_pool_falls_back(self, ab_index):
        estimate = estimate_distillation(ab_index, ["a"], FeedbackPools(), ModelParams())
        assert estimate.fallback and estimate.model.weights == {"a": 1.0}

    def test_output_is_a_distribution(self, ab_index):
        params = ModelParams(lambda1=0.2, lambda2=0.2, interp_lambda=0.3, num_expansion_terms=1)
        model, _, _ = estimate_distillation(ab_index, ["b"], FeedbackPools(["D1", "D2"]), params)
        assert sum(model.weights.values()) == pytest.approx(1.0)
        assert all(w >= 0 for w in model.weights.values())

    def test_diagnostics_report_the_em_fit(self, toy_index, toy_topic):
        pools = FeedbackPools(["d1"])
        estimate = estimate_distillation(toy_index, toy_topic.terms, pools, ModelParams())
        # with no non-relevant pool, lambda2 takes lambda1's share of the mixture
        counts = forward_sum(toy_index, ["d1"], lambda term, length, count: count)
        p_corpus = {t: toy_index.cf(t) / toy_index.stats.total_terms for t in counts}
        _, trace = distill_relevance_model(counts, {}, p_corpus, 0.0, 0.2 / (1.0 - 0.2))
        assert estimate.diagnostics == {
            "em_iterations": len(trace) - 1,
            "log_likelihood": trace[-1],
            "converged": True,
        }
        assert 1 < len(trace) - 1 < ModelParams().em_max_iters
        assert type(estimate.diagnostics["log_likelihood"]) is float

    def test_diagnostics_flag_a_fit_cut_at_em_max_iters(self, toy_index, toy_topic):
        pools = FeedbackPools(["d1", "d3", "d5"], ["d2", "d4", "d6"])
        cut = estimate_distillation(toy_index, toy_topic.terms, pools, ModelParams(em_max_iters=1))
        assert cut.diagnostics["em_iterations"] == 1
        assert cut.diagnostics["converged"] is False
        longer = estimate_distillation(toy_index, toy_topic.terms, pools, ModelParams(em_max_iters=2))
        assert longer.diagnostics["log_likelihood"] > cut.diagnostics["log_likelihood"]

    def test_fallback_has_no_diagnostics(self, ab_index):
        assert estimate_distillation(ab_index, ["a"], FeedbackPools(), ModelParams()).diagnostics == {}


class TestRocchio:
    def test_no_feedback_endpoint(self, ab_index):
        params = ModelParams(beta=0.0, gamma=0.0)
        pools = FeedbackPools(["D1"], ["D2"])
        model = estimate_rocchio(ab_index, ["b", "b", "a"], pools, params).model
        assert model.weights == {"b": 2.0, "a": 1.0}

    def test_relevant_centroid_hand_computed(self, ab_index):
        params = ModelParams(beta=1.0, gamma=0.5)
        model = estimate_rocchio(ab_index, ["b"], FeedbackPools(["D1"]), params).model
        assert model.weights["a"] == pytest.approx(bm25_weight(ab_index, "a", "D1", params))
        assert model.weights["b"] == pytest.approx(1.0 + bm25_weight(ab_index, "b", "D1", params))

    def test_two_doc_centroid_averages(self, ab_index):
        params = ModelParams(beta=1.0, gamma=0.0)
        model = estimate_rocchio(ab_index, ["a"], FeedbackPools(["D1", "D2"]), params).model
        expected_b = (bm25_weight(ab_index, "b", "D1", params) + bm25_weight(ab_index, "b", "D2", params)) / 2
        assert model.weights["b"] == pytest.approx(expected_b)

    def test_gamma_sign_configuration(self, ab_index):
        # c occurs only in the non-relevant doc
        idx = make_index([("R", "ab"), ("N", "c")])
        pools = FeedbackPools(["R"], ["N"])
        sub = estimate_rocchio(idx, ["a"], pools, ModelParams(gamma=2.0)).model
        add = estimate_rocchio(
            idx, ["a"], pools, ModelParams(gamma=2.0, subtract_nonrelevant=False)
        ).model
        centroid_weight = bm25_weight(idx, "c", "N", ModelParams())
        assert sub.weights["c"] == pytest.approx(-2.0 * centroid_weight)
        assert add.weights["c"] == pytest.approx(2.0 * centroid_weight)

    def test_linear_in_beta(self, ab_index):
        pools = FeedbackPools(["D1"], ["D2"])
        q0 = ["b"]
        models = {
            beta: estimate_rocchio(
                ab_index, q0, pools, ModelParams(beta=beta, gamma=1.5, num_expansion_terms=50)
            ).model.weights
            for beta in (0.0, 1.0, 2.0)
        }
        terms = set(models[0.0]) | set(models[1.0]) | set(models[2.0])
        for term in terms:
            combined = 2 * (models[1.0].get(term, 0.0) - models[0.0].get(term, 0.0)) + models[0.0].get(term, 0.0)
            assert models[2.0].get(term, 0.0) == pytest.approx(combined)

    def test_truncation_keeps_query_terms_and_top_expansion(self):
        idx = make_index([("D1", "cdefg"), ("D2", "q")])
        params = ModelParams(beta=1.0, gamma=0.0, num_expansion_terms=2)
        model = estimate_rocchio(idx, ["q"], FeedbackPools(["D1"]), params).model
        assert "q" in model.weights
        assert len([t for t in model.weights if t != "q"]) == 2


class TestProb:
    def make_prob_index(self):
        docs = []
        for i in range(100):
            terms = [f"f{i}"]
            if i < 10:
                terms.append("w")
            docs.append((f"D{i:03d}", terms))
        return make_index(docs)

    def test_hand_arithmetic_feedback_weight(self):
        idx = self.make_prob_index()
        pools = FeedbackPools(["D000", "D001"])  # both contain w
        params = ModelParams(interp_lambda=0.0, num_expansion_terms=50)
        model = estimate_prob(idx, ["w"], pools, params).model
        p_w = (2 + 10 / 100) / 3
        u_w = (10 - 2 + 10 / 100) / 99
        expected = math.log(p_w * (1 - u_w) / (u_w * (1 - p_w)))
        assert expected == pytest.approx(math.log(26.18518518518518), rel=1e-9)
        assert model.weights["w"] == pytest.approx(expected)

    def test_interp_one_gives_pure_idf_like_vector(self):
        idx = self.make_prob_index()
        pools = FeedbackPools(["D000"])
        params = ModelParams(interp_lambda=1.0)
        model = estimate_prob(idx, ["w"], pools, params).model
        assert model.weights == pytest.approx({"w": math.log((100 - 10) / 10)})

    def test_term_absent_from_corpus_excluded(self):
        idx = self.make_prob_index()
        pools = FeedbackPools(["D000"])
        model, _, diagnostics = estimate_prob(idx, ["zzz"], pools, ModelParams(interp_lambda=1.0))
        assert "zzz" not in model.weights
        assert diagnostics["excluded"] >= 1

    def test_term_in_every_document_excluded_with_warning(self):
        idx = make_index([("D1", "ca"), ("D2", "cb"), ("D3", "cx")])
        pools = FeedbackPools(["D1"])
        model, _, diagnostics = estimate_prob(idx, ["c"], pools, ModelParams(interp_lambda=0.5))
        assert "c" not in model.weights
        assert diagnostics["excluded"] == 2  # excluded on the feedback and the query side

    def test_empty_pool_falls_back_to_query_counts(self, ab_index):
        pools = FeedbackPools([], ["D2"])
        estimate = estimate_prob(ab_index, ["a", "b", "a"], pools, ModelParams())
        assert estimate.fallback
        assert estimate.model == query_count_vector(["a", "b", "a"])


class TestEstimatorsUseFullPoolsNotIncrements:
    def test_rm3_same_result_regardless_of_judgment_arrival(self, ab_index):
        # pools built in two different orders give identical models
        a = FeedbackPools()
        a.add("D1", True)
        a.add("D2", True)
        b = FeedbackPools()
        b.add("D2", True)
        b.add("D1", True)
        params = ModelParams(interp_lambda=0.5)
        model_a, _, _ = estimate_rm3(ab_index, ["b"], a, params)
        model_b, _, _ = estimate_rm3(ab_index, ["b"], b, params)
        assert model_a.weights == pytest.approx(model_b.weights)


class TestLanguageModelOutputsAreDistributions:
    def test_randomized_pools_and_params(self):
        rng = random.Random(77)
        for trial in range(60):
            docs = [
                (f"D{i}", [rng.choice("abcdef") for _ in range(rng.randint(1, 10))])
                for i in range(rng.randint(2, 8))
            ]
            idx = make_index(docs)
            doc_ids = [d for d, _ in docs]
            rng.shuffle(doc_ids)
            split = rng.randint(1, len(doc_ids) - 1)
            pools = FeedbackPools(doc_ids[:split], doc_ids[split:])
            params = ModelParams(
                mu=rng.choice([10.0, 100.0]),
                interp_lambda=rng.choice([0.0, 0.3, 0.7, 1.0]),
                num_expansion_terms=rng.choice([1, 2, 5, 50]),
                lambda1=rng.choice([0.0, 0.2]),
                lambda2=rng.choice([0.0, 0.4]),
            )
            query = [rng.choice("abcdef") for _ in range(rng.randint(1, 3))]
            for estimator in (estimate_rm3, estimate_distillation):
                model, _, _ = estimator(idx, query, pools, params)
                assert model.kind == "lm"
                assert sum(model.weights.values()) == pytest.approx(1.0)
                assert all(w > 0 for w in model.weights.values())


class TestRocchioGammaLinearity:
    def test_linear_in_gamma(self, ab_index):
        pools = FeedbackPools(["D1"], ["D2"])
        models = {
            gamma: estimate_rocchio(
                ab_index, ["b"], pools, ModelParams(beta=0.5, gamma=gamma, num_expansion_terms=50)
            ).model.weights
            for gamma in (0.0, 1.0, 2.0)
        }
        terms = set().union(*models.values())
        for term in terms:
            combined = 2 * (models[1.0].get(term, 0.0) - models[0.0].get(term, 0.0)) + models[
                0.0
            ].get(term, 0.0)
            assert models[2.0].get(term, 0.0) == pytest.approx(combined)


class TestEMMonotonicityRandomized:
    def test_log_likelihood_never_decreases(self):
        rng = random.Random(42)
        for _ in range(100):
            vocab = [f"t{i}" for i in range(rng.randint(2, 6))]
            counts = {t: rng.randint(1, 8) for t in vocab}
            p_c_raw = [rng.random() + 1e-3 for _ in vocab]
            total = sum(p_c_raw)
            p_c = {t: v / total for t, v in zip(vocab, p_c_raw)}
            p_n_raw = [rng.random() + 1e-3 for _ in vocab]
            total_n = sum(p_n_raw)
            p_n = {t: v / total_n for t, v in zip(vocab, p_n_raw)}
            lambda1 = rng.choice([0.0, 0.2, 0.4])
            lambda2 = rng.choice([0.0, 0.2, 0.4])
            _, trace = distill_relevance_model(
                counts, p_n, p_c, lambda1, lambda2, max_iters=60, tol=1e-12
            )
            assert all(b - a >= -1e-9 for a, b in zip(trace, trace[1:]))


@st.composite
def em_cases(draw):
    """Inputs of the distillation EM: 1 to 300 terms with counts up to 10^4
    (some 0, so dropped), a non-relevant model that misses some terms, zero
    and nonzero lambdas, and both ends of the iteration limit and tolerance.
    The per-term values come from a drawn seed: drawing hundreds of floats
    one by one would make each example slow."""
    n = draw(st.integers(1, 300))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    terms = [f"t{i:03d}" for i in range(n)]
    top = draw(st.sampled_from([1, 10, 10**4]))
    counts = {t: rng.randint(0, top) for t in terms}
    counts[rng.choice(terms)] = rng.randint(1, top)
    missing = draw(st.sampled_from([0.0, 0.3, 1.0]))
    nonrel = {t: rng.random() for t in terms if rng.random() >= missing}
    corpus = {t: rng.uniform(1e-7, 0.1) for t in terms}
    weight = st.one_of(st.just(0.0), st.sampled_from([0.2, 0.4]), st.floats(0.0, 0.49))
    return (
        counts,
        nonrel,
        corpus,
        draw(weight),
        draw(weight),
        draw(st.sampled_from([1, 2, 50, 500])),
        draw(st.sampled_from([0.0, 1e-12, 1e-6])),
    )


class TestArrayEMMatchesLoop:
    """``distill_relevance_model`` runs on arrays; ``support.reference_distill``
    is the per-term loop it replaced.  The two must give the same floats."""

    @staticmethod
    def assert_same_fit(got, want):
        (fit, trace), (want_fit, want_trace) = got, want
        assert [v.hex() for v in trace] == [v.hex() for v in want_trace]
        assert [(t, v.hex()) for t, v in fit.items()] == [(t, v.hex()) for t, v in want_fit.items()]
        # no numpy scalar may reach a QueryModel or a JSON record
        assert all(type(v) is float for v in [*fit.values(), *trace])

    @given(em_cases())
    @settings(max_examples=200, deadline=None)
    def test_random_fits_equal_the_loop(self, case):
        self.assert_same_fit(distill_relevance_model(*case), reference_distill(*case))

    def test_small_fits_equal_the_loop(self):
        # in a fit of one to three terms the last bit of each log reaches the
        # trace, so a log that rounds differently from math.log shows here
        rng = random.Random(7)
        for _ in range(1000):
            terms = [f"t{i}" for i in range(rng.randint(1, 3))]
            case = (
                {t: rng.randint(1, 10) for t in terms},
                {t: rng.random() for t in terms},
                {t: rng.random() for t in terms},
                rng.uniform(0.0, 0.49),
                rng.uniform(0.0, 0.49),
                50,
                1e-12,
            )
            self.assert_same_fit(distill_relevance_model(*case), reference_distill(*case))

    def test_session_fits_equal_the_loop(self, monkeypatch):
        # the sessions benchmark's corpus shape and distill parameters, with
        # a smaller background: pools of up to 10 passages of 45 terms
        docs, topics, qrels = topical_corpus(background_docs=1000, seed=3)
        idx = build_index(docs)
        params = ModelParams(mu=50.0, interp_lambda=0.5, lambda1=0.2, lambda2=0.4)
        fits = []

        def recording(*args):
            fits.append((args, distill_relevance_model(*args)))
            return fits[-1][1]

        monkeypatch.setattr(feedback, "distill_relevance_model", recording)
        for topic in topics[:4]:
            for docs_per_iter, iterations in ((1, 10), (5, 2)):
                budget = BudgetConfig(docs_per_iter, iterations)
                run_irf(idx, topic, "distill", params, budget, make_qrels_judge(qrels))
        assert len(fits) > 40
        assert max(len(args[0]) for args, _ in fits) > 100
        for args, got in fits:
            self.assert_same_fit(got, reference_distill(*args))


class TestStopDecision:
    """The EM decides whether to stop on an ``np.log`` log-likelihood within
    a proven bound, and on the exact values when the bound cannot decide;
    either way it must stop where ``support.reference_distill`` stops."""

    assert_same_fit = staticmethod(TestArrayEMMatchesLoop.assert_same_fit)

    @given(em_cases(), st.integers(min_value=1))
    @settings(max_examples=100, deadline=None)
    def test_a_tol_on_an_exact_step_stops_where_the_loop_stops(self, case, pick):
        # a tol equal to an exact gain, or one float off it, is within any
        # bound of the approximate gain, so the exact values decide
        _, want_trace = reference_distill(*case)
        assume(len(want_trace) > 1)
        j = 1 + pick % (len(want_trace) - 1)
        step = want_trace[j] - want_trace[j - 1]
        for tol in (np.nextafter(step, -math.inf), step, np.nextafter(step, math.inf)):
            args = (*case[:-1], float(tol))
            self.assert_same_fit(distill_relevance_model(*args), reference_distill(*args))

    def test_a_fit_takes_few_math_logs_before_its_trace_is_read(self, monkeypatch):
        rng = random.Random(11)
        terms = [f"t{i:03d}" for i in range(300)]
        case = (
            {t: rng.randint(1, 10) for t in terms},
            {t: rng.random() / 150 for t in terms},
            {t: rng.uniform(1e-5, 0.01) for t in terms},
            0.2,
            0.4,
            50,
            1e-6,
        )
        logs = []

        class CountingMath:
            def __getattr__(self, name):
                return getattr(math, name)

            def log(self, x):
                logs.append(x)
                return math.log(x)

        monkeypatch.setattr(feedback, "math", CountingMath())
        fit, trace = distill_relevance_model(*case)
        assert len(trace) - 1 >= 10
        # at most one step falls within its bound, and it reads two exact values
        assert len(logs) <= 2 * len(terms)
        reads = len(logs)
        trace[-1], trace[-1]
        assert len(logs) - reads <= len(terms)  # an entry is computed once, then kept
        self.assert_same_fit((fit, trace), reference_distill(*case))

    @pytest.mark.parametrize("p_corpus_b", [-0.5, -1.0], ids=["zero", "negative"])
    def test_a_mixture_entry_not_above_zero_raises_as_the_loop_does(self, p_corpus_b):
        # the mixture of b is 0.5 * 0.5 + 0.5 * p_corpus_b
        case = ({"a": 1, "b": 1}, {}, {"a": 0.5, "b": p_corpus_b}, 0.0, 0.5)
        with pytest.raises(ValueError) as want:
            reference_distill(*case)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError) as got:
                distill_relevance_model(*case)
        assert (type(got.value), str(got.value)) == (type(want.value), str(want.value))

    @pytest.mark.parametrize("value", [math.inf, math.nan])
    def test_a_non_finite_mixture_stops_where_the_loop_stops(self, value):
        case = ({"a": 3, "b": 1}, {}, {"a": value, "b": 0.5}, 0.0, 0.5, 5, 1e-6)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = distill_relevance_model(*case)
        self.assert_same_fit(got, reference_distill(*case))


# The pool reads as they were before ``index.forward_sum``: a dict loop over
# each judged document's term vector, with a weighting curried by term.  The
# reader must give the same sums, float for float and in the same term order.


def reference_vector(terms):
    counts = {}
    for term in terms:
        counts[term] = counts.get(term, 0) + 1
    return dict(sorted(counts.items()))


def reference_weighting(index, vectorizer, params):
    if vectorizer == "mle":
        return lambda term: lambda length, c: c / length
    k1, b, avgdl, num_docs = params.k1, params.b, index.stats.avg_doc_len, index.stats.num_docs

    def okapi(term):
        idf = math.log((num_docs + 1) / index.df(term))
        return lambda length, c: (k1 + 1.0) * c / (k1 * (1.0 - b + b * length / avgdl) + c) * idf

    return okapi


def reference_centroid(vectors, doc_ids, weighting):
    out = {}
    for doc_id in doc_ids:
        length = sum(vectors[doc_id].values())
        for term, count in vectors[doc_id].items():
            out[term] = out.get(term, 0.0) + weighting(term)(length, count)
    n = len(doc_ids)
    return {t: w / n for t, w in sorted(out.items())}


def reference_pool_counts(vectors, doc_ids):
    counts = {}
    for doc_id in doc_ids:
        for term, count in vectors[doc_id].items():
            counts[term] = counts.get(term, 0) + count
    return counts


def reference_pool_df(vectors, doc_ids):
    df_pool = {}
    for doc_id in doc_ids:
        for term in vectors[doc_id]:
            df_pool[term] = df_pool.get(term, 0) + 1
    return df_pool


def reference_bm25_weight(index, vectors, term, doc_id, params):
    count = vectors[doc_id].get(term, 0)
    if count == 0:
        return 0.0
    return reference_weighting(index, "bm25", params)(term)(sum(vectors[doc_id].values()), count)


POOL_TERMS = ["a", "b", "cc", "dd", "e"]


@st.composite
def pool_cases(draw):
    """A small index whose doc ids sort differently from their internal order
    (d10 before d9), some documents empty or long; a pool of distinct
    documents in any order; BM25 parameters."""
    numbers = draw(st.lists(st.integers(0, 40), min_size=1, max_size=12, unique=True))
    docs = [(f"d{n}", draw(st.lists(st.sampled_from(POOL_TERMS), max_size=12))) for n in numbers]
    if draw(st.booleans()):
        docs.append(("long", ["a"] * 700 + draw(st.lists(st.sampled_from(POOL_TERMS), max_size=5))))
    order = draw(st.permutations([doc_id for doc_id, _ in docs]))
    pool = order[: draw(st.integers(1, len(order)))]
    params = ModelParams(
        k1=draw(st.sampled_from([0.5, 1.2, 2.0])), b=draw(st.sampled_from([0.0, 0.75, 1.0]))
    )
    return make_index(docs), {doc_id: reference_vector(terms) for doc_id, terms in docs}, pool, params


class TestForwardReaderMatchesDictLoops:
    @given(pool_cases())
    @settings(max_examples=200, deadline=None)
    def test_pool_reads_equal_to_the_dict_loops(self, case):
        index, vectors, pool, params = case

        def same(got, want):  # equal float for float, in the same term order
            assert list(got.items()) == list(want.items())

        for vectorizer in ("bm25", "mle"):
            same(
                _centroid(index, pool, doc_weighting(index, vectorizer, params)),
                reference_centroid(vectors, pool, reference_weighting(index, vectorizer, params)),
            )
        counts = dict(sorted(reference_pool_counts(vectors, pool).items()))
        same(forward_sum(index, pool, lambda term, length, count: count), counts)
        total = sum(counts.values())
        same(mle(index, pool, "concatenated"), {t: c / total for t, c in counts.items()})
        same(
            mle(index, pool, "averaged"),
            reference_centroid(vectors, pool, reference_weighting(index, "mle", params)),
        )
        df_pool = reference_pool_df(vectors, pool)
        same(forward_sum(index, pool, lambda term, length, count: 1), dict(sorted(df_pool.items())))
        for doc_id in vectors:
            for term in [*POOL_TERMS, "zz"]:
                assert bm25_weight(index, term, doc_id, params) == reference_bm25_weight(
                    index, vectors, term, doc_id, params
                )
