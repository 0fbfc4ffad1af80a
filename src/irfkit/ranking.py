"""Retrieval scorers: Dirichlet query likelihood, KL re-ranking, BM25,
and dot-product scoring over BM25 or MLE document vectors.

All scorers are pure functions over an immutable index.  Only documents
containing at least one query-model term are scored; ties break by
ascending doc_id so every ranking is deterministic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from .index import CollectionIndex


@dataclass(frozen=True)
class RankingParams:
    mu: float = 1000.0
    k1: float = 1.2
    b: float = 0.75
    depth: int = 1000

    def __post_init__(self) -> None:
        if self.mu <= 0:
            raise ValueError(f"mu must be > 0, got {self.mu}")
        if self.k1 <= 0:
            raise ValueError(f"k1 must be > 0, got {self.k1}")
        if not 0.0 <= self.b <= 1.0:
            raise ValueError(f"b must be in [0, 1], got {self.b}")
        if self.depth < 1:
            raise ValueError(f"depth must be >= 1, got {self.depth}")


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
        total = sum(cleaned.values())
        if cleaned and abs(total - 1.0) > 1e-9:
            raise ValueError(f"language-model weights must sum to 1, got {total}")
        return cls("lm", cleaned)

    @classmethod
    def vector(cls, weights: Mapping[str, float]) -> "QueryModel":
        return cls("vector", {t: float(w) for t, w in weights.items() if w != 0.0})


def query_language_model(terms: Sequence[str]) -> QueryModel:
    """Maximum-likelihood unigram model of a term sequence."""
    if not terms:
        return QueryModel.lm({})
    counts: dict[str, int] = {}
    for term in terms:
        counts[term] = counts.get(term, 0) + 1
    n = len(terms)
    return QueryModel.lm({t: c / n for t, c in counts.items()})


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


def _rank(index: CollectionIndex, scores: dict[int, float], depth: int) -> tuple[tuple[str, float], ...]:
    items = [(index.doc_ids[internal], score) for internal, score in scores.items()]
    items.sort(key=lambda pair: (-pair[1], pair[0]))
    return tuple(items[:depth])


def _excluded_internals(index: CollectionIndex, exclude: Iterable[str]) -> set[int]:
    return {index.internal_id(d) for d in exclude if index.has_doc(d)}


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
    terms = [(t, w) for t, w in sorted(model.weights.items()) if index.cf(t) > 0]
    if not terms or total_terms == 0:
        return ScoredList(query_id, ())
    mu = params.mu
    excluded = _excluded_internals(index, exclude)
    # score(x) = sum_w q_w * log(c(w,x) + mu*bg_w) - (sum_w q_w) * log(|x| + mu)
    # accumulated as a delta over the all-background baseline so only
    # postings entries are touched.
    baseline = 0.0
    weight_sum = 0.0
    partial: dict[int, float] = {}
    for term, q_weight in terms:
        background = mu * index.cf(term) / total_terms
        baseline += q_weight * math.log(background)
        weight_sum += q_weight
        for internal, count in index.postings[term]:
            if internal in excluded:
                continue
            delta = q_weight * (math.log(count + background) - math.log(background))
            partial[internal] = partial.get(internal, 0.0) + delta
    scores = {
        internal: acc + baseline - weight_sum * math.log(index.doc_lengths[internal] + mu)
        for internal, acc in partial.items()
    }
    return ScoredList(query_id, _rank(index, scores, params.depth))


def retrieve_ql(
    index: CollectionIndex,
    query: QueryModel | Sequence[str],
    params: RankingParams,
    exclude: Iterable[str] = (),
    query_id: str = "",
) -> ScoredList:
    """Dirichlet-smoothed query likelihood; raw term sequences are turned
    into their MLE model, which is rank-equivalent to scoring raw counts."""
    if isinstance(query, QueryModel):
        model = query
    else:
        model = query_language_model(query)
    return retrieve_kl(index, model, params, exclude, query_id)


def bm25_idf(index: CollectionIndex, term: str) -> float:
    """log((N+1)/df) of a term that occurs in the collection."""
    return math.log((index.stats.num_docs + 1) / index.df(term))


def okapi_weight(
    index: CollectionIndex, internal: int, count: int, idf: float, params: RankingParams
) -> float:
    """Okapi weight ((k1+1)c / (k1(1-b+b|x|/avgdl) + c)) * idf of a count in doc ``internal``."""
    norm = params.k1 * (
        1.0 - params.b + params.b * index.doc_lengths[internal] / index.stats.avg_doc_len
    )
    return (params.k1 + 1.0) * count / (norm + count) * idf


def bm25_weight(index: CollectionIndex, term: str, doc_id: str, params: RankingParams) -> float:
    """Okapi weight of a term in a document, with idf log((N+1)/df)."""
    internal = index.internal_id(doc_id)
    count = index.forward[internal].get(term, 0)
    if count == 0:
        return 0.0
    return okapi_weight(index, internal, count, bm25_idf(index, term), params)


VECTORIZERS = ("bm25", "mle")


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
    if vectorizer not in VECTORIZERS:
        raise ValueError(f"unknown vectorizer {vectorizer!r}; expected one of {VECTORIZERS}")
    excluded = _excluded_internals(index, exclude)
    scores: dict[int, float] = {}
    for term, q_weight in sorted(model.weights.items()):
        plist = index.postings.get(term)
        if not plist:
            continue
        if vectorizer == "bm25":
            idf = bm25_idf(index, term)
            for internal, count in plist:
                if internal in excluded:
                    continue
                doc_weight = okapi_weight(index, internal, count, idf, params)
                scores[internal] = scores.get(internal, 0.0) + q_weight * doc_weight
        else:
            for internal, count in plist:
                if internal in excluded:
                    continue
                doc_weight = count / index.doc_lengths[internal]
                scores[internal] = scores.get(internal, 0.0) + q_weight * doc_weight
    return ScoredList(query_id, _rank(index, scores, params.depth))


def write_run(runs: Iterable[ScoredList], path, run_tag: str = "irfkit") -> None:
    """TREC run format: query_id Q0 doc_id rank score tag."""
    with open(path, "w", encoding="utf-8") as handle:
        for scored in runs:
            for rank, (doc_id, score) in enumerate(scored.entries, 1):
                handle.write(f"{scored.query_id} Q0 {doc_id} {rank} {score:.6f} {run_tag}\n")
