"""Run-list scoring (AP@1000, NDCG@20), paired sign-flip randomization
significance testing, and cross-validated grid search.

Queries without any relevant document in the qrels are dropped from every
mean, matching trec_eval behaviour.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from .corpus_io import QrelSet, check_collection, check_count
from .exact import ordered_sum
from .feedback import ModelParams


@dataclass(frozen=True)
class MetricResult:
    metric: str
    per_query: dict[str, float]
    mean: float


def average_precision(
    run: Sequence[str], qrels: QrelSet, query_id: str, cutoff: int = 1000
) -> float:
    """AP = (1/R) * sum over relevant ranks r <= cutoff of (hits(r) / r)."""
    check_collection("run", run, "doc ids", ordered=True)
    check_count("cutoff", cutoff)
    grades = qrels.grades_for(query_id)
    num_relevant = qrels.num_relevant(query_id)
    if num_relevant == 0:
        return 0.0
    ranks = [rank for rank, doc_id in enumerate(run[:cutoff], 1) if grades.get(doc_id, 0) >= 1]
    return ordered_sum(hits / rank for hits, rank in enumerate(ranks, 1)) / num_relevant


def ndcg_at_20(run: Sequence[str], qrels: QrelSet, query_id: str) -> float:
    """Linear-gain NDCG over the top 20 ranks with a log2(rank+1) discount."""
    check_collection("run", run, "doc ids", ordered=True)
    grades = qrels.grades_for(query_id)

    def discounted(gains: Iterable[int]) -> float:
        return ordered_sum(gain / math.log2(rank + 1) for rank, gain in enumerate(gains, 1) if gain > 0)

    dcg = discounted(grades.get(doc_id, 0) for doc_id in run[:20])
    ideal = discounted(sorted(grades.values(), reverse=True)[:20])
    return dcg / ideal if ideal > 0 else 0.0


METRICS: dict[str, Callable[[Sequence[str], QrelSet, str], float]] = {
    "map": average_precision,
    "ndcg20": ndcg_at_20,
}


def evaluate_run(
    run: Mapping[str, Sequence[str]], qrels: QrelSet, metric: str = "map"
) -> MetricResult:
    """Score every query of a run that has at least one relevant document."""
    if metric not in METRICS:
        raise ValueError(f"unknown metric {metric!r}; expected one of {sorted(METRICS)}")
    score = METRICS[metric]
    for query_id, doc_ids in run.items():
        check_collection(f"the run of query {query_id!r}", doc_ids, "doc ids", ordered=True)
    per_query = {
        query_id: score(doc_ids, qrels, query_id)
        for query_id, doc_ids in sorted(run.items())
        if qrels.num_relevant(query_id) > 0
    }
    mean = ordered_sum(per_query.values()) / len(per_query) if per_query else 0.0
    return MetricResult(metric, per_query, mean)


@dataclass(frozen=True)
class SigTestResult:
    p_value: float
    observed_mean_diff: float
    samples: int
    seed: int

    @property
    def significant(self) -> bool:
        return self.p_value < 0.05


# the most sign patterns the exact branch decides in one matrix product
_CHUNK = 100_000
# the most sign entries (patterns x queries) the Monte Carlo branch draws at a time
_DRAW_ENTRIES = 2**20


def _pattern_bits(patterns: np.ndarray, n: int) -> np.ndarray:
    """One 0/1 row per sign pattern index: bit j flips ``diffs[j]``."""
    return (patterns[:, None] >> np.arange(n)) & 1


def _extreme(bits: np.ndarray, diffs: np.ndarray, threshold: float, rows: int | None = None) -> int:
    """How many sign patterns (the first ``rows`` rows of ``bits``) have an
    |mean| of at least ``threshold``."""
    means = (bits * 2.0 - 1.0) @ diffs / len(diffs)
    return int((np.abs(means[:rows]) >= threshold).sum())


def _signed_sums(diffs: np.ndarray) -> np.ndarray:
    """The signed sum of ``diffs`` under every sign pattern, pattern p at index p."""
    return (_pattern_bits(np.arange(2 ** len(diffs)), len(diffs)) * 2.0 - 1.0) @ diffs


def _count_exact(diffs: np.ndarray, threshold: float) -> int:
    """How many of the 2^n sign patterns ``_extreme`` counts, by meet in the
    middle (two-list subset sums, Horowitz & Sahni, JACM 1974).

    A pattern's sum is l + r: l over the low half of ``diffs``, r over the
    high half.  With the r sorted, the pairs with |l + r| clear of the cut
    n * threshold by more than ``slack`` are counted by binary search; the
    pairs within ``slack`` of the cut are rebuilt as pattern indices and
    decided by ``_extreme`` itself.
    """
    n = len(diffs)
    if threshold <= 0:  # every |mean| reaches it; the two tails below would overlap
        return 2**n
    h = n // 2
    left = _signed_sums(diffs[:h])
    right = _signed_sums(diffs[h:])
    order = np.argsort(right)
    right = right[order]
    cut = n * threshold
    # The slack bounds the rounding.  With D = sum |d| and u = eps / 2, any
    # order of summing n signed terms (FMA or not) lands within n*u*D of the
    # exact sum, so ``_extreme``'s sum and l + r differ by at most 2n*u*D.  The
    # other roundings (its division by n, cut = n * threshold, cut + slack
    # and the subtraction of l below) add at most u * (2D + 3cut + 2slack).
    # slack = 8n*u*(D + cut) exceeds the total for every n >= 1, so a pair
    # outside the window gets the decision ``_extreme`` would give it.
    slack = 4 * n * np.finfo(float).eps * (float(np.abs(diffs).sum()) + cut)
    above = np.searchsorted(right, cut + slack - left, "left")  # r from here: surely in
    below = np.searchsorted(right, -cut - slack - left, "right")  # r before here: surely in
    count = int((len(right) - above).sum() + below.sum())
    # r in [upper, above) and [below, lower) are the window; [lower, upper)
    # is surely out, and empty when the two windows meet
    upper = np.searchsorted(right, cut - slack - left, "right")
    lower = np.minimum(np.searchsorted(right, slack - cut - left, "left"), upper)
    starts = np.concatenate([below, upper])
    lengths = np.concatenate([lower - below, above - upper])
    offsets = np.repeat(starts - (np.cumsum(lengths) - lengths), lengths) + np.arange(lengths.sum())
    window = np.tile(np.arange(len(left)), 2).repeat(lengths) | (order[offsets] << h)
    for start in range(0, len(window), _CHUNK):
        patterns = window[start : start + _CHUNK]
        # BLAS kernels take rows four at a time and round a leftover row
        # another way; the enumeration's blocks were whole fours, so pad to them
        padded = np.concatenate([patterns, np.zeros(-len(patterns) % 4, patterns.dtype)])
        count += _extreme(_pattern_bits(padded, n), diffs, threshold, len(patterns))
    return count


def fisher_randomization(
    per_query_a: Mapping[str, float],
    per_query_b: Mapping[str, float],
    samples: int = 100_000,
    seed: int = 0,
    exact_limit: int = 20,
) -> SigTestResult:
    """Two-sided paired sign-flip randomization test on per-query differences.

    Up to ``exact_limit`` queries all 2^n sign patterns are counted exactly;
    beyond that, Monte Carlo sampling with add-one smoothing of the p-value.
    """
    if set(per_query_a) != set(per_query_b):
        raise ValueError(
            "the two systems must be evaluated on identical query sets, but the query "
            f"sets differ (only in A: {sorted(set(per_query_a) - set(per_query_b))}, "
            f"only in B: {sorted(set(per_query_b) - set(per_query_a))})"
        )
    if not per_query_a:
        raise ValueError("empty query set")
    check_count("samples", samples)
    check_count("seed", seed, least=0)  # numpy's generator takes no negative seed
    check_count("exact_limit", exact_limit, least=0)
    query_ids = sorted(per_query_a)
    a = np.array([per_query_a[q] for q in query_ids], dtype=float)
    b = np.array([per_query_b[q] for q in query_ids], dtype=float)
    finite = np.isfinite(a) & np.isfinite(b)
    if not finite.all():
        q = query_ids[int(np.argmin(finite))]
        raise ValueError(
            f"per-query values must be finite, got {per_query_a[q]!r} in A and "
            f"{per_query_b[q]!r} in B for query {q!r}"
        )
    diffs = a - b
    n = len(diffs)
    observed = float(diffs.mean())
    threshold = abs(observed) - 1e-12
    if n <= exact_limit:
        return SigTestResult(_count_exact(diffs, threshold) / 2**n, observed, 2**n, seed)
    rng = np.random.default_rng(seed)
    # Blocks of draws concatenate to the bits of one draw.  A block is whole
    # fours of rows, as BLAS takes them, so only the last samples % 4 rows are
    # rounded as leftovers, wherever the blocks are cut.
    rows = max(4, _DRAW_ENTRIES // n // 4 * 4)
    count = sum(
        _extreme(rng.integers(0, 2, size=(min(samples - start, rows), n)), diffs, threshold)
        for start in range(0, samples, rows)
    )
    return SigTestResult((count + 1) / (samples + 1), observed, samples, seed)


@dataclass
class FoldResult:
    fold: int
    query_ids: list[str]
    best_params: ModelParams
    train_mean: float
    heldout_per_query: dict[str, float] = field(default_factory=dict)


@dataclass
class CVResult:
    folds: list[FoldResult]
    pooled_per_query: dict[str, float]
    pooled_mean: float


def assign_folds(query_ids: Sequence[str], folds: int = 5) -> list[list[str]]:
    """Deterministic round-robin assignment over query ids sorted ascending."""
    ordered = sorted(query_ids)
    return [ordered[i::folds] for i in range(folds)]


def cross_validate(
    score_fn: Callable[[ModelParams], Mapping[str, float]],
    query_ids: Sequence[str],
    grid_points: Sequence[ModelParams],
    folds: int = 5,
) -> CVResult:
    """Pick, per fold, the grid point maximizing the mean metric on the other
    folds, then pool the held-out per-query scores.

    ``score_fn`` maps a parameter point to per-query metric values, one for
    every query id; it is called once per point.
    """
    if not grid_points:
        raise ValueError("empty parameter grid")
    check_count("folds", folds)
    check_collection("query_ids", query_ids, "query ids")
    if len(query_ids) < folds:
        raise ValueError(
            f"need at least {folds} queries for {folds}-fold cross-validation, got {len(query_ids)}"
        )
    fold_members = assign_folds(query_ids, folds)
    table = [(params, dict(score_fn(params))) for params in grid_points]
    wanted = set(query_ids)
    for point, (_, scores) in enumerate(table):
        if missing := wanted.difference(scores):
            raise ValueError(f"score_fn gave no score for query {min(missing)!r} at grid point {point}")

    fold_results = []
    pooled: dict[str, float] = {}
    for fold_idx, heldout in enumerate(fold_members):
        heldout_set = set(heldout)
        train = [q for q in sorted(query_ids) if q not in heldout_set]
        best = None
        for params, scores in table:
            mean = ordered_sum(scores[q] for q in train) / len(train) if train else 0.0
            if best is None or mean > best[0]:
                best = (mean, params, scores)
        train_mean, best_params, best_scores = best
        heldout_scores = {q: best_scores[q] for q in heldout}
        pooled.update(heldout_scores)
        fold_results.append(FoldResult(fold_idx, heldout, best_params, train_mean, heldout_scores))
    pooled_mean = ordered_sum(pooled.values()) / len(pooled) if pooled else 0.0
    return CVResult(fold_results, pooled, pooled_mean)
