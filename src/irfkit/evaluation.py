"""Run-list scoring (AP@1000, NDCG@20), paired sign-flip randomization
significance testing, and cross-validated grid search.

Queries without any relevant document in the qrels are dropped from every
mean, matching trec_eval behaviour.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

import numpy as np

from .corpus_io import QrelSet
from .feedback import ModelParams
from .ranking import ordered_sum


@dataclass(frozen=True)
class MetricResult:
    metric: str
    per_query: dict[str, float]
    mean: float


def average_precision(
    run: Sequence[str], qrels: QrelSet, query_id: str, cutoff: int = 1000
) -> float:
    """AP = (1/R) * sum over relevant ranks r <= cutoff of (hits(r) / r)."""
    grades = qrels.grades_for(query_id)
    num_relevant = qrels.num_relevant(query_id)
    if num_relevant == 0:
        return 0.0
    hits = 0
    total = 0.0
    for rank, doc_id in enumerate(run[:cutoff], 1):
        if grades.get(doc_id, 0) >= 1:
            hits += 1
            total += hits / rank
    return total / num_relevant


def ndcg_at_20(run: Sequence[str], qrels: QrelSet, query_id: str) -> float:
    """Linear-gain NDCG over the top 20 ranks with a log2(rank+1) discount."""
    grades = qrels.grades_for(query_id)
    dcg = 0.0
    for rank, doc_id in enumerate(run[:20], 1):
        gain = grades.get(doc_id, 0)
        if gain > 0:
            dcg += gain / math.log2(rank + 1)
    ideal = 0.0
    for rank, gain in enumerate(sorted(grades.values(), reverse=True)[:20], 1):
        if gain > 0:
            ideal += gain / math.log2(rank + 1)
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


# sign patterns the exact test enumerates at a time, which bounds its memory
_EXACT_BLOCK = 2**12


def fisher_randomization(
    per_query_a: Mapping[str, float],
    per_query_b: Mapping[str, float],
    samples: int = 100_000,
    seed: int = 0,
    exact_limit: int = 20,
) -> SigTestResult:
    """Two-sided paired sign-flip randomization test on per-query differences.

    Up to ``exact_limit`` queries all 2^n sign patterns are enumerated;
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
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
    query_ids = sorted(per_query_a)
    diffs = np.array([per_query_a[q] - per_query_b[q] for q in query_ids])
    n = len(diffs)
    observed = float(diffs.mean())
    threshold = abs(observed) - 1e-12
    exact = n <= exact_limit
    total, block, add_one = (2**n, _EXACT_BLOCK, 0) if exact else (samples, 100_000, 1)
    rng = np.random.default_rng(seed)
    count = 0
    for start in range(0, total, block):
        size = min(total - start, block)
        if exact:
            bits = (np.arange(start, start + size, dtype=np.uint32)[:, None] >> np.arange(n)) & 1
        else:
            bits = rng.integers(0, 2, size=(size, n))
        means = (bits * 2.0 - 1.0) @ diffs / n
        count += int((np.abs(means) >= threshold).sum())
    return SigTestResult((count + add_one) / (total + add_one), observed, total, seed)


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

    ``score_fn`` maps a parameter point to per-query metric values; it is
    called once per point.
    """
    if not grid_points:
        raise ValueError("empty parameter grid")
    if folds < 1:
        raise ValueError(f"folds must be >= 1, got {folds}")
    if len(query_ids) < folds:
        raise ValueError(
            f"need at least {folds} queries for {folds}-fold cross-validation, got {len(query_ids)}"
        )
    fold_members = assign_folds(query_ids, folds)
    table = [(params, dict(score_fn(params))) for params in grid_points]

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
