"""Retrieval scorers: KL re-ranking, Dirichlet query likelihood under a
``query_language_model``, and dot products over BM25 or MLE document vectors.

Every scorer sums q_w * weight(w, |x|, c(w,x)) over the postings of the model's
terms, gathered a block of whole terms at a time and weighed a block at once,
into a float64 accumulator: KL weighs by its Dirichlet delta, from a table of
one ``math.log`` pair per distinct (term, count), the dot product by the
elementwise ``doc_weighting`` (Okapi BM25 with idf ``CollectionIndex.idf``, MLE
c/|x|), which the feedback centroids share.  ``np.add.at`` adds in entry order,
and sums and logs follow ``irfkit.exact``: the same floats a loop over postings
would give.

All scorers are pure functions over an immutable index.  Only documents
containing at least one query-model term are scored; ties break by
ascending doc_id so every ranking is deterministic, and a score that is not
finite is an error.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Iterable, Mapping, Sequence

import numpy as np

from .corpus_io import check_count, check_value
from .exact import each, log_each, ordered_sum
from .index import CollectionIndex

if TYPE_CHECKING:  # feedback imports this module
    from .feedback import ModelParams


@dataclass(frozen=True)
class QueryModel:
    """Weighted term map, scored by KL if ``kind`` is ``lm`` (a probability
    distribution), else by a dot product with document vectors under the
    weighting ``kind`` names.  Zero weights are dropped; the rest must be finite."""

    kind: str
    weights: dict[str, float]

    @classmethod
    def lm(cls, weights: Mapping[str, float]) -> "QueryModel":
        cleaned = {t: float(w) for t, w in weights.items() if w != 0.0}
        if any(w < 0 for w in cleaned.values()):
            raise ValueError("language-model weights must be non-negative")
        total = ordered_sum(cleaned.values())
        if not math.isfinite(total):  # a nan or inf weight, unless the sum overflowed
            _check_finite(cleaned)
        if cleaned and abs(total - 1.0) > 1e-9:
            raise ValueError(f"language-model weights must sum to 1, got {total}")
        return cls("lm", cleaned)

    @classmethod
    def vector(cls, weights: Mapping[str, float], weighting: str) -> "QueryModel":
        if weighting == "lm":  # KL scoring needs the distribution QueryModel.lm checks
            raise ValueError("a language model is built by QueryModel.lm, not QueryModel.vector")
        return cls(weighting, _check_finite({t: float(w) for t, w in weights.items() if w != 0.0}))


def _check_finite(weights: dict[str, float]) -> dict[str, float]:
    for term, weight in weights.items():
        check_value(f"query weight of {term!r}", weight, float)
    return weights


def query_language_model(terms: Sequence[str]) -> QueryModel:
    """Maximum-likelihood unigram model of a term sequence."""
    n = len(terms)
    return QueryModel.lm({t: c / n for t, c in Counter(terms).items()})


def query_count_vector(terms: Sequence[str]) -> QueryModel:
    """Term counts as a BM25 vector: the vector models' initial query."""
    return QueryModel.vector(Counter(terms), "bm25")


@dataclass(frozen=True)
class ScoredList:
    entries: tuple[tuple[str, float], ...]

    @property
    def doc_ids(self) -> list[str]:
        # a run keeps every page and tail: list() of a list is exact-size, a comprehension is not
        return list([doc_id for doc_id, _ in self.entries])


def _rank(
    index: CollectionIndex, candidates: np.ndarray, scores: np.ndarray, depth: int
) -> tuple[tuple[str, float], ...]:
    """The top ``depth`` candidates by (score desc, doc_id asc): a partition
    keeps every candidate tied at the cut, then a sort orders what it kept.
    A score that is not finite, from parameters so large that a weight
    overflows, is an error, not a rank."""
    check_count("depth", depth)
    if not (finite := np.isfinite(scores)).all():
        first = int(np.argmin(finite))
        raise ValueError(f"the score of doc {index.doc_ids[candidates[first]]!r} is not finite: {scores[first]}")
    if len(candidates) > depth:
        cut = np.partition(-scores, depth - 1)[depth - 1]
        kept = -scores <= cut
        candidates, scores = candidates[kept], scores[kept]
    order = np.lexsort((index.doc_id_rank[candidates], -scores))[:depth]
    doc_ids = index.doc_ids
    return tuple(zip([doc_ids[x] for x in candidates[order].tolist()], scores[order].tolist()))


_BLOCK = 2**20  # postings entries gathered at once: a retrieval's arrays stay O(block + docs)


def _accumulate(
    index: CollectionIndex, rows: np.ndarray, weigh: Callable[..., np.ndarray], exclude: Iterable[str]
) -> tuple[np.ndarray, np.ndarray]:
    """sum_w q_w * weight(w, x) per document x outside ``exclude`` over the
    postings ``rows`` of the model's terms in the collection, in sorted term
    order: the candidates' internal ids, ascending, and their scores.  A block
    of whole terms, at most _BLOCK entries unless one term holds more, is
    gathered at once; ``weigh(spread, docs, counts)`` gives its entries' q_w * weight,
    ``spread`` repeating a per-term array over them.  ``np.add.at`` adds in
    entry order, so a score is the same additions in term order, whatever the blocks."""
    if isinstance(exclude, str):  # its characters are not doc ids
        raise ValueError(f"exclude must be a collection of doc ids, not the str {exclude!r}")
    postings = index.postings
    scores, scored = np.zeros(index.num_docs), np.zeros(index.num_docs, dtype=bool)
    starts, ends = postings.offsets[rows], postings.offsets[rows + 1]
    sizes = ends - starts
    placed = np.concatenate(([0], np.cumsum(sizes)))  # where each term's entries start in one gather of all
    cuts = [0]  # block i is terms cuts[i] to cuts[i + 1]: as many whole terms as fit, or one
    while cuts[-1] < len(rows):
        cuts.append(max(cuts[-1] + 1, int(np.searchsorted(placed, placed[cuts[-1]] + _BLOCK, "right")) - 1))
    for first, last in zip(cuts, cuts[1:]):
        spans = list(zip(starts[first:last].tolist(), ends[first:last].tolist()))
        docs = np.concatenate([postings.docs[start:end] for start, end in spans], dtype=np.intp)
        counts = np.concatenate([postings.counts[start:end] for start, end in spans])
        spread = lambda per_term: np.repeat(per_term[first:last], sizes[first:last])
        np.add.at(scores, docs, weigh(spread, docs, counts))
        scored[docs] = True
    scored[[index.internal_id(d) for d in exclude if index.has_doc(d)]] = False
    candidates = np.flatnonzero(scored)
    return candidates, scores[candidates]


def _in_collection(index: CollectionIndex, model: QueryModel) -> tuple[list[str], np.ndarray, np.ndarray]:
    """The model's terms in the collection, in sorted order, with their
    postings rows and query weights."""
    row_of = index.postings.rows
    terms = [term for term in sorted(model.weights) if term in row_of]
    return terms, np.array([row_of[t] for t in terms], dtype=np.int64), np.array([model.weights[t] for t in terms])


def retrieve_kl(
    index: CollectionIndex,
    model: QueryModel,
    params: ModelParams,
    exclude: Iterable[str] = (),
    depth: int = 1000,
) -> ScoredList:
    """Rank by negative KL divergence against Dirichlet-smoothed document
    models, which reduces to sum_w p_Q(w) * log p_x(w), and keep the top
    ``depth``.

    Query terms missing from a document contribute their background-only
    probability; query terms missing from the whole collection are dropped
    (they would add the same -inf to every document).
    """
    if model.kind != "lm":
        raise ValueError(f"retrieve_kl requires an lm query model, got {model.kind!r}")
    terms, rows, q = _in_collection(index, model)
    total_terms = index.stats.total_terms
    # Python floats: a mu * cf that overflows is inf, which _rank rejects, not a numpy warning
    backgrounds = [params.mu * index.cf(term) / total_terms for term in terms]
    if 0.0 in backgrounds:  # its log would be a math domain error
        term = terms[backgrounds.index(0.0)]
        raise ValueError(f"mu={params.mu} is so small that mu * cf / total_terms is 0.0 for term {term!r}")
    backgrounds = np.array(backgrounds)
    # score(x) = sum_w q_w * log(c(w,x) + mu*bg_w) - (sum_w q_w) * log(|x| + mu)
    # accumulated as a delta over the all-background baseline so only
    # postings entries are touched.
    baseline, weight_sum = ordered_sum(q * log_each(backgrounds)), ordered_sum(q)
    per_term = list(zip(q.tolist(), backgrounds.tolist()))

    def dirichlet_delta(spread: Callable, docs: np.ndarray, counts: np.ndarray) -> np.ndarray:
        width = int(counts.max()) + 1  # one math.log pair per distinct (term, count)

        def weighted(key: int) -> float:
            term, count = divmod(key, width)
            q_weight, background = per_term[term]
            return q_weight * (math.log(count + background) - math.log(background))

        return each(spread(np.arange(len(per_term))) * width + counts, weighted)

    candidates, partial = _accumulate(index, rows, dirichlet_delta, exclude)
    lengths = index.doc_length_array[candidates]
    scores = partial + baseline - weight_sum * each(lengths, lambda length: math.log(length + params.mu))
    return ScoredList(_rank(index, candidates, scores, depth))


VECTORIZERS = ("bm25", "mle")


def doc_weighting(index: CollectionIndex, vectorizer: str, params: ModelParams) -> Callable[..., np.ndarray]:
    """weigh(rows, lengths, counts): elementwise, the weight of count c of the
    term in postings row ``row`` in a document of length |x|, Okapi BM25
    ((k1+1)c / (k1(1-b+b|x|/avgdl) + c)) * idf with idf ``index.idf[row]``,
    log((N+1)/df), or MLE c/|x|."""
    if vectorizer not in VECTORIZERS:
        raise ValueError(f"unknown vectorizer {vectorizer!r}; expected one of {VECTORIZERS}")
    if vectorizer == "mle":
        return lambda rows, lengths, counts: counts / lengths
    k1, b, avgdl = params.k1, params.b, index.stats.avg_doc_len
    return lambda rows, lengths, c: (k1 + 1.0) * c / (k1 * (1.0 - b + b * lengths / avgdl) + c) * index.idf[rows]


def retrieve_dot(
    index: CollectionIndex,
    model: QueryModel,
    params: ModelParams,
    exclude: Iterable[str] = (),
    depth: int = 1000,
) -> ScoredList:
    """Dot product of the query vector with document vectors under the
    model's weighting, BM25 or MLE; the top ``depth`` documents."""
    weighting = doc_weighting(index, model.kind, params)
    _, rows, q = _in_collection(index, model)

    def weigh(spread: Callable, docs: np.ndarray, counts: np.ndarray) -> np.ndarray:
        return spread(q) * weighting(spread(rows), index.doc_length_array[docs], counts)

    candidates, scores = _accumulate(index, rows, weigh, exclude)
    return ScoredList(_rank(index, candidates, scores, depth))
