"""Retrieval scorers: Dirichlet query likelihood, KL re-ranking, and
dot-product scoring over BM25 or MLE document vectors.

Every scorer sums q_w * weight(w, |x|, c(w,x)) in one postings loop, a term's
postings slice at a time into a float64 accumulator: KL weighs by its
Dirichlet delta, the dot product by one of the two document weightings of
``doc_weighting`` (Okapi BM25, MLE c/|x|), which the feedback centroids share.
Array arithmetic keeps the operation order, and every log is ``math.log``, so
the scores are the same floats a loop over single postings would give.

All scorers are pure functions over an immutable index.  Only documents
containing at least one query-model term are scored; ties break by
ascending doc_id so every ranking is deterministic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from .index import CollectionIndex, Weighting, forward_sum


@dataclass(frozen=True)
class RankingParams:
    mu: float = 1000.0
    k1: float = 1.2
    b: float = 0.75
    depth: int = 1000

    def __post_init__(self) -> None:
        if not self.mu > 0:
            raise ValueError(f"mu must be > 0, got {self.mu}")
        if not self.k1 > 0:
            raise ValueError(f"k1 must be > 0, got {self.k1}")
        if not 0.0 <= self.b <= 1.0:
            raise ValueError(f"b must be in [0, 1], got {self.b}")
        if self.depth < 1:
            raise ValueError(f"depth must be >= 1, got {self.depth}")


def ordered_sum(values: Iterable[float]) -> float:
    """Float sum in iteration order.  From Python 3.12 ``sum()`` compensates
    rounding, so its float results differ between Python versions."""
    total = 0.0
    for value in values:
        total += value
    return total


@dataclass(frozen=True)
class QueryModel:
    """Weighted term map: a probability distribution (lm) or a free-weight
    vector.  Zero-weight entries are dropped at construction."""

    kind: str
    weights: dict[str, float]

    @classmethod
    def lm(cls, weights: Mapping[str, float]) -> "QueryModel":
        cleaned = {t: float(w) for t, w in weights.items() if w != 0.0}
        if any(w < 0 for w in cleaned.values()):
            raise ValueError("language-model weights must be non-negative")
        total = ordered_sum(cleaned.values())
        if cleaned and abs(total - 1.0) > 1e-9:
            raise ValueError(f"language-model weights must sum to 1, got {total}")
        return cls("lm", cleaned)

    @classmethod
    def vector(cls, weights: Mapping[str, float]) -> "QueryModel":
        return cls("vector", {t: float(w) for t, w in weights.items() if w != 0.0})


def query_language_model(terms: Sequence[str]) -> QueryModel:
    """Maximum-likelihood unigram model of a term sequence."""
    n = len(terms)
    return QueryModel.lm({t: c / n for t, c in query_count_vector(terms).weights.items()})


def query_count_vector(terms: Sequence[str]) -> QueryModel:
    counts: dict[str, float] = {}
    for term in terms:
        counts[term] = counts.get(term, 0.0) + 1.0
    return QueryModel.vector(counts)


@dataclass(frozen=True)
class ScoredList:
    query_id: str
    entries: tuple[tuple[str, float], ...]

    @property
    def doc_ids(self) -> list[str]:
        return [doc_id for doc_id, _ in self.entries]


def _rank(
    index: CollectionIndex, candidates: np.ndarray, scores: np.ndarray, depth: int
) -> tuple[tuple[str, float], ...]:
    """The top ``depth`` candidates by (score desc, doc_id asc): a partition
    keeps every candidate tied at the cut, then a sort orders what it kept."""
    if len(candidates) > depth:
        cut = np.partition(-scores, depth - 1)[depth - 1]
        kept = -scores <= cut
        candidates, scores = candidates[kept], scores[kept]
    order = np.lexsort((index.doc_id_rank[candidates], -scores))[:depth]
    doc_ids = index.doc_ids
    return tuple(zip([doc_ids[x] for x in candidates[order].tolist()], scores[order].tolist()))


def _accumulate(
    index: CollectionIndex, model: QueryModel, weighting: Weighting, exclude: Iterable[str]
) -> tuple[np.ndarray, np.ndarray]:
    """sum_w q_w * weighting(w, |x|, c(w,x)) per document x outside ``exclude``,
    w sorted: the candidates' internal ids, ascending, and their scores."""
    postings = index.postings
    scores = np.zeros(index.num_docs)
    scored = np.zeros(index.num_docs, dtype=bool)
    for term, q_weight in sorted(model.weights.items()):
        docs, counts = postings.columns(term)
        if not docs.size:
            continue
        scores[docs] += q_weight * weighting(term, index.doc_length_array[docs], counts)
        scored[docs] = True
    scored[[index.internal_id(d) for d in exclude if index.has_doc(d)]] = False
    candidates = np.flatnonzero(scored)
    return candidates, scores[candidates]


def _log_each(values: np.ndarray, offset: float) -> np.ndarray:
    """math.log(v + offset) of every value, one call per distinct value.  The
    values are non-negative integers (counts or lengths): small ones index a
    table, and a sort finds the distinct ones when a table would be large."""
    values = values.astype(np.int64, copy=False)
    if values.size and values.max() > 2 * values.size + 1024:
        distinct, where = np.unique(values, return_inverse=True)
        return np.array([math.log(v + offset) for v in distinct.tolist()])[where]
    present = np.bincount(values)
    logs = np.zeros(present.size)
    distinct = np.flatnonzero(present)
    logs[distinct] = [math.log(v + offset) for v in distinct.tolist()]
    return logs[values]


def retrieve_kl(
    index: CollectionIndex,
    model: QueryModel,
    params: RankingParams,
    exclude: Iterable[str] = (),
    query_id: str = "",
) -> ScoredList:
    """Rank by negative KL divergence against Dirichlet-smoothed document
    models, which reduces to sum_w p_Q(w) * log p_x(w).

    Query terms missing from a document contribute their background-only
    probability; query terms missing from the whole collection are dropped
    (they would add the same -inf to every document).
    """
    if model.kind != "lm":
        raise ValueError(f"retrieve_kl requires an lm query model, got {model.kind!r}")
    total_terms = index.stats.total_terms
    backgrounds = {
        t: params.mu * index.cf(t) / total_terms for t in sorted(model.weights) if index.cf(t) > 0
    }
    if not backgrounds:
        return ScoredList(query_id, ())
    # score(x) = sum_w q_w * log(c(w,x) + mu*bg_w) - (sum_w q_w) * log(|x| + mu)
    # accumulated as a delta over the all-background baseline so only
    # postings entries are touched.
    baseline = weight_sum = 0.0
    for term, background in backgrounds.items():
        baseline += model.weights[term] * math.log(background)
        weight_sum += model.weights[term]

    def dirichlet_delta(term: str, lengths: np.ndarray, counts: np.ndarray) -> np.ndarray:
        background = backgrounds[term]
        return _log_each(counts, background) - math.log(background)

    candidates, partial = _accumulate(index, model, dirichlet_delta, exclude)
    lengths = index.doc_length_array[candidates]
    scores = partial + baseline - weight_sum * _log_each(lengths, params.mu)
    return ScoredList(query_id, _rank(index, candidates, scores, params.depth))


def retrieve_ql(
    index: CollectionIndex,
    terms: Sequence[str],
    params: RankingParams,
    exclude: Iterable[str] = (),
    query_id: str = "",
) -> ScoredList:
    """Dirichlet-smoothed query likelihood: KL under the terms' MLE model,
    which is rank-equivalent to scoring raw counts."""
    return retrieve_kl(index, query_language_model(terms), params, exclude, query_id)


VECTORIZERS = ("bm25", "mle")


def doc_weighting(index: CollectionIndex, vectorizer: str, params: RankingParams) -> Weighting:
    """weight(term, |x|, c), the weight of count c of a term in a document of
    length |x|: Okapi BM25 ((k1+1)c / (k1(1-b+b|x|/avgdl) + c)) * idf with idf
    log((N+1)/df), or MLE c/|x|.  On Python numbers it returns a Python float."""
    if vectorizer not in VECTORIZERS:
        raise ValueError(f"unknown vectorizer {vectorizer!r}; expected one of {VECTORIZERS}")
    if vectorizer == "mle":
        return lambda term, length, c: c / length
    k1, b, avgdl, num_docs = params.k1, params.b, index.stats.avg_doc_len, index.stats.num_docs

    def bm25(term: str, length, c):
        idf = math.log((num_docs + 1) / index.df(term))
        return (k1 + 1.0) * c / (k1 * (1.0 - b + b * length / avgdl) + c) * idf

    return bm25


def bm25_weight(index: CollectionIndex, term: str, doc_id: str, params: RankingParams) -> float:
    """Okapi weight of a term in a document, with idf log((N+1)/df)."""
    return forward_sum(index, [doc_id], doc_weighting(index, "bm25", params)).get(term, 0.0)


def retrieve_dot(
    index: CollectionIndex,
    model: QueryModel,
    vectorizer: str,
    params: RankingParams,
    exclude: Iterable[str] = (),
    query_id: str = "",
) -> ScoredList:
    """Dot product of the query vector with BM25-weighted or MLE document
    vectors."""
    if model.kind != "vector":
        raise ValueError(f"retrieve_dot requires a vector query model, got {model.kind!r}")
    weighting = doc_weighting(index, vectorizer, params)
    candidates, scores = _accumulate(index, model, weighting, exclude)
    return ScoredList(query_id, _rank(index, candidates, scores, params.depth))
