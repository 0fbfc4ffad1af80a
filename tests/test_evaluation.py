import itertools
import math
import random
import re
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from irfkit.corpus_io import QrelSet
from irfkit.evaluation import (
    assign_folds,
    average_precision,
    cross_validate,
    evaluate_run,
    fisher_randomization,
    ndcg_at_20,
)
from irfkit.feedback import GRID, MODELS, FeedbackError, ModelParams, ModelSpec, load_grid

from support import fisher_exact_by_blocks


def make_qrels(entries):
    qrels = QrelSet()
    for query_id, doc_id, grade in entries:
        qrels.set(query_id, doc_id, grade)
    return qrels


# Exact p-values recorded with the block enumeration that counted every sign
# pattern's mean as one row of a (patterns x n) matrix product.  Meet-in-the-middle
# counting must give the same floats.
PINNED_P_VALUES = [
    ("n20_continuous",
     [0.3238, 0.1508, 0.6509, 0.0724, 0.5359, 0.3657, 0.058, 0.5074, 0.0375, 0.4336,
      0.0699, 0.0907, 0.4245, 0.8269, 0.1238, 0.2232, 0.6274, 0.9477, 0.5771, 0.3967],
     [0.781, 0.0373, 0.6868, 0.2317, 0.1154, 0.0942, 0.2468, 0.6529, 0.1446, 0.4653,
      0.5111, 0.2979, 0.4382, 0.0502, 0.0477, 0.1648, 0.5443, 0.3421, 0.2513, 0.4684],
     0.5451393127441406),
    ("n20_continuous_2",
     [0.4532, 0.2998, 0.7944, 0.699, 0.2441, 0.5744, 0.5252, 0.8751, 0.7294, 0.2879,
      0.9802, 0.1181, 0.4181, 0.7571, 0.152, 0.489, 0.0392, 0.6682, 0.7646, 0.573],
     [0.7879, 0.2824, 0.6258, 0.5349, 0.5219, 0.4106, 0.756, 0.8502, 0.4267, 0.5977,
      0.0546, 0.6313, 0.5824, 0.8938, 0.7397, 0.2561, 0.3472, 0.6018, 0.0203, 0.4155],
     0.9518280029296875),
    ("n20_tenths",
     [0.2, 0.9, 0.1, 0.7, 0.0, 0.3, 0.4, 0.2, 0.3, 0.6, 0.6, 0.7, 0.1, 0.2, 0.7, 0.6, 0.8, 0.4, 0.2, 0.6],
     [0.8, 0.4, 0.6, 0.5, 0.6, 0.3, 0.2, 0.1, 0.2, 0.2, 0.3, 0.3, 0.0, 0.7, 0.2, 0.4, 0.4, 0.0, 0.2, 0.6],
     0.3602294921875),
    ("n20_fortieths",
     [0.85, 0.575, 0.975, 0.9, 0.5, 0.2, 0.8, 0.975, 0.075, 0.725,
      0.875, 0.625, 0.625, 0.625, 0.625, 0.15, 0.75, 1.0, 0.625, 0.075],
     [0.3, 0.1, 0.325, 0.7, 0.25, 0.175, 0.525, 0.075, 0.15, 0.0,
      0.9, 0.225, 0.85, 0.15, 0.575, 0.025, 0.1, 0.325, 0.6, 0.225],
     0.000827789306640625),
    ("n19_zeros",
     [0.634, 0.955, 0.602, 0.474, 0.115, 0.488, 0.978, 0.48, 0.312, 0.144,
      0.75, 0.74, 0.479, 0.692, 0.516, 0.205, 0.952, 0.362, 0.69],
     [0.634, 0.914, 0.758, 0.474, 0.298, 0.643, 0.978, 0.091, 0.845, 0.144,
      0.518, 0.908, 0.479, 0.356, 0.223, 0.205, 0.542, 0.503, 0.69],
     0.72900390625),
    ("n16_quarters",
     [0.0, 0.5, 0.0, 0.0, 0.75, 0.75, 0.0, 0.75, 0.0, 0.0, 0.25, 0.25, 0.0, 0.25, 0.0, 0.0],
     [0.0, 0.25, 0.0, 0.75, 0.0, 0.25, 0.0, 0.75, 0.0, 0.5, 0.0, 0.25, 0.0, 0.25, 0.0, 0.0],
     0.84375),
    ("n10_ties_every_sum_at_the_cut",
     [0.25, 0.25, 0.25, 0.55, 0.25, 0.25, 0.55, 0.4, 0.1, 0.1],
     [0.25, 0.25, 0.25, 0.1, 0.4, 0.4, 0.25, 0.25, 0.4, 0.25],
     1.0),
    ("n10_tenths_mean_zero",
     [0.5, 0.1, 0.3, 0.1, 0.3, 0.7, 0.3, 0.5, 0.3, 0.7],
     [0.0, 0.7, 0.5, 0.1, 0.1, 0.6, 0.3, 0.7, 0.2, 0.6],
     1.0),
    ("n10_tenths",
     [0.9, 0.8, 0.7, 0.6, 0.5, 0.4, 0.6, 0.7, 0.8, 0.9],
     [0.5, 0.5, 0.6, 0.6, 0.3, 0.5, 0.2, 0.4, 0.5, 0.4],
     0.01171875),
    ("n10_tenths_2",
     [0.3, 0.2, 0.1, 0.6, 0.5, 0.4, 0.2, 0.7, 0.3, 0.1],
     [0.1, 0.2, 0.4, 0.3, 0.3, 0.2, 0.4, 0.3, 0.2, 0.2],
     0.34765625),
    ("n2_tied", [0.6, 0.6], [0.5, 0.5], 0.5),
    ("n2_opposite", [0.6, 0.4], [0.5, 0.5], 1.0),
    ("n1_nonzero", [0.3], [0.1], 1.0),
    ("n1_zero", [0.3], [0.3], 1.0),
]


def by_query(values):
    return {f"q{i:02d}": value for i, value in enumerate(values)}


# per-query values: continuous, on the grids a metric over 10 or 40 documents
# takes, metric-like values full of zeros and ties, and large integers.  The
# integers sum exactly in any order, and their float error bound is wide
# enough that their ties and near ties fall in the window that the exact
# count decides pattern by pattern
VALUES = st.sampled_from([
    st.floats(0.0, 1.0),
    st.integers(0, 10).map(lambda k: k / 10),
    st.integers(0, 40).map(lambda k: k / 40),
    st.sampled_from([0.0, 0.0, 0.25, 0.5, 1 / 3]),
    st.tuples(st.integers(-1, 1), st.integers(-20, 20)).map(lambda mk: mk[0] * 1e14 + mk[1]),
])


@st.composite
def paired_systems(draw, max_queries=16):
    n = draw(st.integers(1, max_queries))
    value = draw(VALUES)
    a = draw(st.one_of(st.lists(value, min_size=n, max_size=n), value.map(lambda v: [v] * n)))
    b = draw(st.one_of(st.lists(value, min_size=n, max_size=n), value.map(lambda v: [v] * n), st.just(a)))
    return by_query(a), by_query(b)


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

    @pytest.mark.parametrize("cutoff, message", [(True, "must be int, got True"), (0, "must be >= 1, got 0")])
    def test_cutoff_follows_the_count_rule(self, cutoff, message):
        # True was read as a cutoff of 1 and gave AP 0.0
        qrels = make_qrels([("q", "A", 1), ("q", "B", 1)])
        with pytest.raises(ValueError, match=f"^cutoff {message}$"):
            average_precision(["B", "A"], qrels, "q", cutoff=cutoff)

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

    @pytest.mark.parametrize("ranking", ["p00001", None, {"p00001"}])
    def test_a_ranking_that_is_not_a_collection_rejected(self, ranking):
        # the str was read as the ranking "p", "0", ..., "1" and gave AP 0.0; a set has no order
        qrels = make_qrels([("q00", "p00001", 1)])
        shown = {str: f"the str {ranking!r}", set: "a set"}.get(type(ranking), "None")
        message = f"the run of query 'q00' must be a sequence of doc ids, not {shown}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            evaluate_run({"q00": ranking}, qrels, "map")


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

    @pytest.mark.parametrize("queries", [3, 25])
    @pytest.mark.parametrize("name, value", [("samples", True), ("samples", 2.0), ("samples", 2.5), ("seed", 2.5)])
    def test_count_that_is_not_an_int_rejected(self, queries, name, value):
        # True drew one sample, 2.0 and 2.5 raised TypeError from range, and seed 2.5 was echoed
        a = {f"q{i}": 0.1 * i for i in range(queries)}
        with pytest.raises(ValueError, match=f"^{name} must be int, got {value!r}$"):
            fisher_randomization(a, {q: 0.0 for q in a}, **{name: value})

    @pytest.mark.parametrize("queries", [3, 25])  # exact enumeration and sampling
    def test_negative_seed_rejected(self, queries):
        # echoed on the exact branch; numpy's unnamed "expected non-negative integer" on the other
        a = {f"q{i}": 0.1 * i for i in range(queries)}
        with pytest.raises(ValueError, match="^seed must be >= 0, got -1$"):
            fisher_randomization(a, {q: 0.0 for q in a}, seed=-1)

    @pytest.mark.parametrize("limit, message", [(True, "must be int, got True"), (-1, "must be >= 0, got -1")])
    def test_exact_limit_follows_the_count_rule(self, limit, message):
        # True was read as 1 and sent 3 queries to Monte Carlo sampling
        a = {f"q{i}": 0.1 * i for i in range(3)}
        with pytest.raises(ValueError, match=f"^exact_limit {message}$"):
            fisher_randomization(a, {q: 0.0 for q in a}, exact_limit=limit)
        assert fisher_randomization(a, {q: 0.0 for q in a}, exact_limit=0).samples == 100_000

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

    def test_exact_enumeration_matches_brute_force(self):
        """At n = 10 every one of the 2^10 sign patterns is tried; the
        differences hold ties."""
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

    @pytest.mark.parametrize("name, a, b, p_value", PINNED_P_VALUES, ids=[c[0] for c in PINNED_P_VALUES])
    def test_exact_p_value_pinned(self, name, a, b, p_value):
        result = fisher_randomization(by_query(a), by_query(b))
        assert result.samples == 2 ** len(a)
        assert result.p_value == p_value

    @settings(max_examples=300, deadline=None)
    @given(paired_systems())
    def test_exact_count_matches_the_block_enumeration(self, systems):
        a, b = systems
        for first, second in ((a, b), (b, a)):
            result = fisher_randomization(first, second)
            reference = fisher_exact_by_blocks(first, second)
            assert (result.p_value, result.samples) == (reference.p_value, reference.samples)

    @pytest.mark.parametrize("n, grid, seed", [(19, None, 1), (19, 40, 2), (20, None, 3), (20, 10, 4)])
    def test_exact_count_matches_the_block_enumeration_at_full_size(self, n, grid, seed):
        rng = random.Random(seed)
        draw = (lambda: rng.randint(0, grid) / grid) if grid else rng.random
        a, b = by_query([draw() for _ in range(n)]), by_query([draw() for _ in range(n)])
        result, reference = fisher_randomization(a, b), fisher_exact_by_blocks(a, b)
        assert (result.p_value, result.samples) == (reference.p_value, reference.samples)

    @pytest.mark.parametrize("n, seed", [(8, 1), (16, 2), (20, 3)])
    def test_exact_count_matches_the_block_enumeration_when_the_windows_meet(self, n, seed):
        """Large values that cancel leave a mean far below their float error
        bound, so the window around +cut and the one around -cut overlap."""
        rng = random.Random(seed)
        a = by_query([(-1) ** i * 1e14 + rng.randint(-3, 3) for i in range(n)])
        b = by_query([0.0] * n)
        result, reference = fisher_randomization(a, b), fisher_exact_by_blocks(a, b)
        assert 0 < abs(result.observed_mean_diff) < 1
        assert (result.p_value, result.samples) == (reference.p_value, reference.samples)

    @pytest.mark.parametrize("exact_limit", [20, 1])  # exact enumeration and sampling
    @pytest.mark.parametrize("side", ["A", "B"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_value_rejected(self, bad, side, exact_limit):
        # a NaN difference counted no pattern (p = 0.0) and an infinite one every pattern
        a, b = {"q1": 0.1, "q2": 0.2}, {"q1": 0.1, "q2": 0.1}
        (a if side == "A" else b)["q2"] = bad
        with pytest.raises(ValueError, match=r"must be finite, got .* for query 'q2'"):
            fisher_randomization(a, b, exact_limit=exact_limit)

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

    # Monte Carlo counts recorded when each 100,000-draw chunk was one
    # (rows x n) matrix: (n, seed, samples, extreme draws).  10,003 leaves
    # three rows past the last whole four.
    PINNED_MONTE_CARLO = [
        (21, 0, 100_000, 38_057), (21, 0, 10_003, 3_854), (21, 7, 100_000, 37_913), (21, 7, 10_003, 3_748),
        (50, 0, 100_000, 36_661), (50, 0, 10_003, 3_670), (50, 7, 100_000, 36_583), (50, 7, 10_003, 3_673),
        (249, 0, 100_000, 50_014), (249, 0, 10_003, 5_069), (249, 7, 100_000, 50_145), (249, 7, 10_003, 5_040),
    ]

    @staticmethod
    def monte_carlo_pair(n):
        rng = random.Random(1000 + n)
        a = {f"q{i:03d}": round(rng.random(), 4) for i in range(n)}
        return a, {q: round(v + rng.uniform(-0.12, 0.125), 4) for q, v in a.items()}

    @pytest.mark.parametrize("n, seed, samples, extreme", PINNED_MONTE_CARLO)
    def test_monte_carlo_p_value_pinned(self, n, seed, samples, extreme):
        result = fisher_randomization(*self.monte_carlo_pair(n), samples=samples, seed=seed)
        assert result.p_value == (extreme + 1) / (samples + 1)

    def test_monte_carlo_memory_is_bounded(self):
        """249 queries (Robust04's topics): one 100,000 x 249 int64 draw alone
        would be 199 MB; the draws are made and decided in blocks."""
        a, b = self.monte_carlo_pair(249)
        tracemalloc.start()
        try:
            fisher_randomization(a, b, samples=100_000, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**20


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

    def test_lambda_left_out_of_the_axes_takes_its_default(self, tmp_path, monkeypatch):
        # lambda2 keeps ModelParams' 0.2, so lambda1=0.8 reaches 1 and is dropped
        monkeypatch.setitem(MODELS, "rm3", ModelSpec("estimate_rm3", ("lambda1",)))
        path = tmp_path / "grid.txt"
        path.write_text("lambda1=0.6,0.8\n")
        assert [p.lambda1 for p in load_grid(path, "rm3")] == [0.6]

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

    def test_a_score_fn_that_omits_a_query_is_named(self):
        with pytest.raises(ValueError, match=r"^score_fn gave no score for query 'y' at grid point 0$"):
            cross_validate(lambda p: {"x": 1.0}, ["x", "y"], [ModelParams()], folds=2)
        # the index of the first point that omits a query, and the least id it omits
        picked = []
        points = [ModelParams(mu=1.0), ModelParams(mu=2.0)]
        scores = lambda p: {"q1": 0.5, "q2": 0.5, "q3": 0.5} if p is points[0] else {"q2": 0.5}
        with pytest.raises(ValueError, match=r"^score_fn gave no score for query 'q1' at grid point 1$"):
            cross_validate(lambda p: picked.append(p) or scores(p), ["q3", "q2", "q1"], points, folds=3)
        assert picked == points

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError, match="grid"):
            cross_validate(lambda p: {}, ["q1"] * 6, [], folds=5)

    def test_too_few_queries_rejected(self):
        with pytest.raises(ValueError, match="queries"):
            cross_validate(lambda p: {}, ["q1", "q2"], [ModelParams()], folds=5)

    def test_zero_folds_rejected(self):
        with pytest.raises(ValueError, match="folds must be >= 1, got 0"):
            cross_validate(lambda p: {}, ["q1", "q2"], [ModelParams()], folds=0)

    @pytest.mark.parametrize("folds", [True, 2.0, 2.5])
    def test_folds_that_is_not_an_int_rejected(self, folds):
        # True ran one fold, and 2.0 and 2.5 raised TypeError from range
        with pytest.raises(ValueError, match=f"^folds must be int, got {folds!r}$"):
            cross_validate(lambda p: {"q1": 0.5, "q2": 0.5}, ["q1", "q2"], [ModelParams()], folds=folds)

    def test_tie_broken_by_grid_order(self):
        qids = [f"q{i}" for i in range(5)]
        first, second = ModelParams(mu=1.0), ModelParams(mu=2.0)
        result = cross_validate(lambda p: {q: 0.5 for q in qids}, qids, [first, second], folds=5)
        assert all(f.best_params is first for f in result.folds)
