import itertools
import math
import random
import re

import pytest

from irfkit import evaluation
from irfkit.corpus_io import QrelSet
from irfkit.evaluation import (
    assign_folds,
    average_precision,
    cross_validate,
    evaluate_run,
    fisher_randomization,
    ndcg_at_20,
)
from irfkit.feedback import GRID, MODELS, FeedbackError, ModelParams, load_grid


def make_qrels(entries):
    qrels = QrelSet()
    for query_id, doc_id, grade in entries:
        qrels.set(query_id, doc_id, grade)
    return qrels


class TestAveragePrecision:
    def test_relevant_at_ranks_one_and_three(self):
        qrels = make_qrels([("q", "A", 1), ("q", "C", 1)])
        run = ["A", "B", "C", "D"]
        assert average_precision(run, qrels, "q") == pytest.approx((1 + 2 / 3) / 2)

    def test_perfect_ranking(self):
        qrels = make_qrels([("q", "A", 1), ("q", "B", 2)])
        assert average_precision(["A", "B", "X"], qrels, "q") == 1.0

    def test_no_relevant_retrieved(self):
        qrels = make_qrels([("q", "Z", 1)])
        assert average_precision(["A", "B"], qrels, "q") == 0.0

    def test_cutoff_excludes_late_hits(self):
        qrels = make_qrels([("q", "Z", 1)])
        run = ["A"] * 1000 + ["Z"]
        assert average_precision(run, qrels, "q", cutoff=1000) == 0.0
        assert average_precision(run, qrels, "q", cutoff=1001) > 0.0

    def test_swapping_adjacent_nonrelevant_is_neutral(self):
        qrels = make_qrels([("q", "A", 1), ("q", "D", 1)])
        base = ["A", "B", "C", "D"]
        swapped = ["A", "C", "B", "D"]
        assert average_precision(base, qrels, "q") == average_precision(swapped, qrels, "q")

    def test_swapping_relevant_with_nonrelevant_changes_metric(self):
        qrels = make_qrels([("q", "A", 1), ("q", "C", 1)])
        base = ["A", "B", "C", "D"]
        swapped = ["A", "C", "B", "D"]
        assert average_precision(swapped, qrels, "q") > average_precision(base, qrels, "q")


class TestNdcgAt20:
    def test_ideal_ordering_scores_one(self):
        qrels = make_qrels([("q", "A", 3), ("q", "B", 1), ("q", "C", 2)])
        assert ndcg_at_20(["A", "C", "B"], qrels, "q") == pytest.approx(1.0)

    def test_single_relevant_at_rank_two(self):
        qrels = make_qrels([("q", "A", 1)])
        expected = (1 / math.log2(3)) / (1 / math.log2(2))
        assert ndcg_at_20(["X", "A"], qrels, "q") == pytest.approx(expected)
        assert expected == pytest.approx(0.6309, abs=1e-4)

    def test_empty_run(self):
        qrels = make_qrels([("q", "A", 1)])
        assert ndcg_at_20([], qrels, "q") == 0.0

    def test_graded_gains_matter(self):
        qrels = make_qrels([("q", "A", 3), ("q", "B", 1)])
        high_first = ndcg_at_20(["A", "B"], qrels, "q")
        low_first = ndcg_at_20(["B", "A"], qrels, "q")
        assert high_first == pytest.approx(1.0)
        assert low_first < high_first


class TestEvaluateRun:
    def test_mean_over_queries_with_relevant_docs_only(self):
        qrels = make_qrels([("q1", "A", 1), ("q2", "B", 0)])
        run = {"q1": ["A"], "q2": ["B"], "q3": ["C"]}
        result = evaluate_run(run, qrels, "map")
        assert set(result.per_query) == {"q1"}
        assert result.mean == 1.0

    def test_unknown_metric(self):
        with pytest.raises(ValueError, match="metric"):
            evaluate_run({}, QrelSet(), "err")


class TestFisherRandomization:
    def test_identical_systems_give_p_one(self):
        a = {"q1": 0.5, "q2": 0.7, "q3": 0.2}
        result = fisher_randomization(a, dict(a), seed=3)
        assert result.p_value == 1.0
        assert result.observed_mean_diff == 0.0

    def test_two_query_exact_enumeration(self):
        a = {"q1": 0.6, "q2": 0.6}
        b = {"q1": 0.5, "q2": 0.5}
        result = fisher_randomization(a, b)
        # sign patterns of (+0.1, +0.1): |mean| >= 0.1 for 2 of 4
        assert result.p_value == pytest.approx(0.5)
        assert result.samples == 4

    def test_disjoint_query_sets_error(self):
        with pytest.raises(ValueError, match="identical query sets"):
            fisher_randomization({"q1": 0.1}, {"q2": 0.1})

    def test_differing_query_sets_listed(self):
        with pytest.raises(ValueError, match=r"query sets differ \(only in A: \['q1'\], only in B: \['q2', 'q3'\]\)"):
            fisher_randomization({"q1": 0.1, "q4": 0.2}, {"q2": 0.1, "q3": 0.3, "q4": 0.2})

    @pytest.mark.parametrize("queries", [3, 25])  # exact enumeration and sampling
    @pytest.mark.parametrize("samples", [0, -5])
    def test_samples_below_one_rejected(self, queries, samples):
        a = {f"q{i}": 0.1 * i for i in range(queries)}
        with pytest.raises(ValueError, match=f"samples must be >= 1, got {samples}"):
            fisher_randomization(a, {q: 0.0 for q in a}, samples=samples)

    def test_symmetry(self):
        rng = random.Random(5)
        a = {f"q{i}": rng.random() for i in range(12)}
        b = {f"q{i}": rng.random() for i in range(12)}
        ab = fisher_randomization(a, b, seed=9)
        ba = fisher_randomization(b, a, seed=9)
        assert ab.p_value == ba.p_value
        assert ab.observed_mean_diff == -ba.observed_mean_diff

    def test_monte_carlo_agrees_with_exact_on_truncated_set(self):
        rng = random.Random(21)
        full = {f"q{i:02d}": rng.random() for i in range(25)}
        other = {q: v + rng.uniform(-0.1, 0.2) for q, v in full.items()}
        sub_a = {q: full[q] for q in sorted(full)[:18]}
        sub_b = {q: other[q] for q in sorted(full)[:18]}
        exact = fisher_randomization(sub_a, sub_b)
        assert exact.samples == 2**18
        samples = 60_000
        mc = fisher_randomization(sub_a, sub_b, samples=samples, seed=4, exact_limit=10)
        tol = 3 * math.sqrt(exact.p_value * (1 - exact.p_value) / samples) + 2 / samples
        assert abs(mc.p_value - exact.p_value) <= tol

    @pytest.mark.parametrize("block", [2**4, evaluation._EXACT_BLOCK])
    def test_exact_enumeration_matches_brute_force(self, monkeypatch, block):
        """At n = 10 every one of the 2^10 sign patterns is tried, whether in
        one block or in 64; the differences hold ties."""
        monkeypatch.setattr(evaluation, "_EXACT_BLOCK", block)
        rng = random.Random(13)
        a = {f"q{i}": rng.choice([0.1, 0.25, 0.4, 0.55]) for i in range(10)}
        b = {f"q{i}": rng.choice([0.1, 0.25, 0.4]) for i in range(10)}
        diffs = [a[q] - b[q] for q in sorted(a)]
        threshold = abs(sum(diffs) / 10) - 1e-12
        extreme = sum(
            abs(sum(s * d for s, d in zip(signs, diffs)) / 10) >= threshold
            for signs in itertools.product((-1.0, 1.0), repeat=10)
        )
        result = fisher_randomization(a, b)
        assert result.samples == 1024
        assert result.p_value == extreme / 1024

    def test_monte_carlo_reproducible_given_seed(self):
        rng = random.Random(8)
        a = {f"q{i}": rng.random() for i in range(30)}
        b = {f"q{i}": rng.random() for i in range(30)}
        first = fisher_randomization(a, b, samples=20_000, seed=17)
        second = fisher_randomization(a, b, samples=20_000, seed=17)
        assert first == second

    def test_monte_carlo_draws_pinned_across_the_chunk_boundary(self):
        """150,000 draws span two 100,000-draw chunks; drawing the signs in
        another order or type moves the count from 50,362."""
        diffs = [0.12, -0.05, 0.31, 0.0, -0.22, 0.08, 0.17, -0.11, 0.04, 0.26, -0.09, 0.15, -0.3,
                 0.07, 0.02, 0.19, -0.14, 0.1, 0.05, -0.03, 0.21, -0.18, 0.11, 0.06, -0.07]
        a = {f"q{i:02d}": d for i, d in enumerate(diffs)}
        result = fisher_randomization(a, {q: 0.0 for q in a}, samples=150_000, seed=0)
        assert result.samples == 150_000
        assert result.p_value == (50_362 + 1) / (150_000 + 1)


class TestGridSpec:
    """The grid points cross-validation searches: ``feedback.GRID`` and
    ``feedback.load_grid``."""

    def test_default_grids(self):
        assert GRID["mu"] == (30.0, 50.0, 300.0, 500.0, 1000.0, 1500.0)
        assert GRID["k1"] == (1.2, 1.4, 1.6, 1.8, 2.0)
        assert GRID["b"] == (0.75,)
        assert GRID["interp_lambda"] == (0.0, 0.2, 0.4, 0.6, 0.8, 1.0)
        assert GRID["num_expansion_terms"] == (10, 20, 30, 40, 50)
        assert GRID["beta"] == (0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0)
        # every axis of every model has default values, and GRID holds no other field
        assert set(GRID) == {axis for spec in MODELS.values() for axis in spec.axes}
        points = load_grid(None, "rm3")
        assert len(points) == 6 * 6 * 5
        assert points[:2] == [
            ModelParams(mu=30.0, interp_lambda=0.0, num_expansion_terms=10),
            ModelParams(mu=30.0, interp_lambda=0.0, num_expansion_terms=20),
        ]

    def test_expand_covers_model_axes(self, tmp_path):
        path = tmp_path / "grid.txt"
        path.write_text("mu=10.0,20.0\ninterp_lambda=0.2,0.4\nnum_expansion_terms=5\n")
        points = load_grid(path, "rm3")
        assert [(p.mu, p.interp_lambda) for p in points] == [
            (10.0, 0.2), (10.0, 0.4), (20.0, 0.2), (20.0, 0.4)
        ]
        assert {p.num_expansion_terms for p in points} == {5}
        # an axis the file leaves out keeps its built-in values
        path.write_text("mu=10.0\n")
        assert len(load_grid(path, "rm3")) == 6 * 5

    def test_expand_drops_invalid_lambda_pairs(self, tmp_path):
        path = tmp_path / "grid.txt"
        path.write_text(
            "mu=10.0\nlambda1=0.0,0.6\nlambda2=0.0,0.6\ninterp_lambda=0.5\nnum_expansion_terms=5\n"
        )
        points = load_grid(path, "distill")
        assert [(p.lambda1, p.lambda2) for p in points] == [(0.0, 0.0), (0.0, 0.6), (0.6, 0.0)]
        # cross_validate rejects a grid that keeps no point
        path.write_text("lambda1=0.6\nlambda2=0.4,0.6\n")
        assert load_grid(path, "distill") == []
        with pytest.raises(ValueError, match="empty parameter grid"):
            cross_validate(lambda params: {}, ["q1"], load_grid(path, "distill"), folds=1)

    def test_expand_rejects_out_of_range_value(self, tmp_path):
        path = tmp_path / "grid.txt"
        path.write_text("mu=50.0,0.0\n")
        with pytest.raises(FeedbackError, match="mu must be > 0"):
            load_grid(path, "rm3")

    def test_empty_axis_rejected(self, tmp_path):
        path = tmp_path / "grid.txt"
        path.write_text("interp_lambda=0.5\nmu=\n")
        with pytest.raises(FeedbackError, match=f"^{re.escape(str(path))}:2: no values for 'mu'$"):
            load_grid(path, "rm3")

    def test_repeated_axis_names_both_lines(self, tmp_path):
        path = tmp_path / "grid.txt"
        path.write_text("mu=100\nmu=200\n")
        with pytest.raises(FeedbackError, match=f"^{re.escape(str(path))}:2: key 'mu' is already on line 1$"):
            load_grid(path, "rm3")

    @pytest.mark.parametrize(
        "model,key", [("rm3", "beta"), ("rocchio", "mu"), ("distill", "em_tol"), ("prob", "warpfactor")]
    )
    def test_key_outside_the_model_axes_rejected(self, tmp_path, model, key):
        path = tmp_path / "grid.txt"
        path.write_text(f"num_expansion_terms=10\n{key}=1,2\n")
        with pytest.raises(FeedbackError, match=f"^{re.escape(str(path))}:2: {key!r} is not a grid axis of {model}"):
            load_grid(path, model)


class TestCrossValidate:
    def test_fold_assignment_deterministic_round_robin(self):
        qids = [f"q{i:02d}" for i in range(10)]
        folds = assign_folds(list(reversed(qids)), 5)
        assert folds == [[qids[i], qids[i + 5]] for i in range(5)]

    def test_singleton_grid_equals_plain_evaluation(self):
        qids = [f"q{i}" for i in range(6)]
        scores = {q: i / 10 for i, q in enumerate(qids)}
        point = ModelParams()
        result = cross_validate(lambda p: scores, qids, [point], folds=5)
        assert result.pooled_per_query == scores
        assert result.pooled_mean == pytest.approx(sum(scores.values()) / len(scores))
        assert all(f.best_params == point for f in result.folds)

    def test_dominant_params_selected_on_every_fold(self):
        qids = [f"q{i}" for i in range(10)]
        good = ModelParams(mu=42.0)
        bad = ModelParams(mu=7.0)

        def score(params):
            base = 0.9 if params is good else 0.1
            return {q: base for q in qids}

        result = cross_validate(score, qids, [bad, good], folds=5)
        assert all(f.best_params is good for f in result.folds)
        assert result.pooled_mean == pytest.approx(0.9)

    def test_heldout_query_cannot_influence_its_fold_selection(self):
        qids = [f"q{i}" for i in range(10)]
        folds = assign_folds(qids, 5)
        poisoned_query = folds[0][0]
        p1, p2 = ModelParams(mu=1.0), ModelParams(mu=2.0)

        def make_score(poison):
            def score(params):
                base = 0.6 if params is p1 else 0.5
                scores = {q: base for q in qids}
                if poison:
                    scores[poisoned_query] = 0.0 if params is p1 else 1.0
                return scores

            return score

        clean = cross_validate(make_score(False), qids, [p1, p2], folds=5)
        poisoned = cross_validate(make_score(True), qids, [p1, p2], folds=5)
        # the poisoned query is held out of fold 0, so fold 0's choice is
        # untouched no matter how wild its own scores become
        assert poisoned_query in poisoned.folds[0].query_ids
        assert clean.folds[0].best_params is p1
        assert poisoned.folds[0].best_params is p1

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError, match="grid"):
            cross_validate(lambda p: {}, ["q1"] * 6, [], folds=5)

    def test_too_few_queries_rejected(self):
        with pytest.raises(ValueError, match="queries"):
            cross_validate(lambda p: {}, ["q1", "q2"], [ModelParams()], folds=5)

    def test_zero_folds_rejected(self):
        with pytest.raises(ValueError, match="folds must be >= 1, got 0"):
            cross_validate(lambda p: {}, ["q1", "q2"], [ModelParams()], folds=0)

    def test_tie_broken_by_grid_order(self):
        qids = [f"q{i}" for i in range(5)]
        first, second = ModelParams(mu=1.0), ModelParams(mu=2.0)
        result = cross_validate(lambda p: {q: 0.5 for q in qids}, qids, [first, second], folds=5)
        assert all(f.best_params is first for f in result.folds)
