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

A page, a retrieval whose ``depth`` is small beside the postings it would
read, is pruned MaxScore-style (Turtle & Flood, IP&M 1995), with the same
floats.  A term's weight is bounded by its weight at its postings row's largest
count and least document length (``CollectionIndex.max_counts`` and
``.min_lengths``): the Dirichlet delta and both dot weightings grow with the
count and fall, or stay, with the length, and KL's length term falls with the
length.  A negative query weight adds at most 0, so its bound is 0.  Terms
lead in decreasing bound, and the leading terms' documents are rescored
exactly from the forward store: a document's forward rows are in sorted term
order, so ``np.add.at`` from 0.0 makes the full pass's additions in its order,
and KL adds its length term by the full pass's expression.  A document in none
of the leading terms is dropped only when the bounds of the other terms, plus
the length term's, fall strictly below the depth-th exact score of the
non-excluded candidates by a pad that exceeds the rounding of any score and
of the ``np.log`` bounds.  So no document that reaches the page, or ties at
its cut, is dropped.  A page with a bound that is not finite, or that pruning
cannot make cheaper, takes the full pass.

All scorers are pure functions over an immutable index.  Only documents
containing at least one query-model term are scored; ties break by
ascending doc_id so every ranking is deterministic, and a score that is not
finite is an error.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Iterable, Mapping, Sequence

import numpy as np

from .corpus_io import check_collection, check_count, check_value
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
    if not all(map(math.isfinite, weights.values())):  # a float fails check_value only here
        for term, weight in weights.items():
            check_value(f"query weight of {term!r}", weight, float)
    return weights


def query_language_model(query_terms: Sequence[str]) -> QueryModel:
    """Maximum-likelihood unigram model of a term sequence."""
    check_collection("query_terms", query_terms, "terms")
    n = len(query_terms)
    return QueryModel.lm({t: c / n for t, c in Counter(query_terms).items()})


def query_count_vector(query_terms: Sequence[str]) -> QueryModel:
    """Term counts as a BM25 vector: the vector models' initial query."""
    check_collection("query_terms", query_terms, "terms")
    return QueryModel.vector(Counter(query_terms), "bm25")


@dataclass(frozen=True, eq=False)
class ScoredList:
    """A ranking, best first: internal doc ids and their float64 scores.
    ``doc_ids`` names the ids in one gather from ``names``, the index's
    ``doc_id_array``, and ``entries`` pairs them with the scores as Python
    floats, each built when read.  Two rankings are equal when their entries
    are: the same names and scores, whatever index numbered them."""

    ids: np.ndarray
    scores: np.ndarray
    names: np.ndarray = field(repr=False)

    @property
    def doc_ids(self) -> list[str]:
        return self.names[self.ids].tolist()

    @property
    def entries(self) -> tuple[tuple[str, float], ...]:
        return tuple(zip(self.doc_ids, self.scores.tolist()))

    def __eq__(self, other: object) -> bool:
        return self.entries == other.entries if isinstance(other, ScoredList) else NotImplemented


def _rank(index: CollectionIndex, candidates: np.ndarray, scores: np.ndarray, depth: int) -> ScoredList:
    """The top ``depth`` candidates by (score desc, doc_id asc): a partition
    keeps every candidate tied at the cut, then a sort orders what it kept.
    A score that is not finite, from parameters so large that a weight
    overflows, is an error, not a rank."""
    if not (finite := np.isfinite(scores)).all():
        first = int(np.argmin(finite))
        raise ValueError(f"the score of doc {index.doc_ids[candidates[first]]!r} is not finite: {scores[first]}")
    if len(candidates) > depth:
        cut = np.partition(-scores, depth - 1)[depth - 1]
        kept = -scores <= cut
        candidates, scores = candidates[kept], scores[kept]
    order = np.lexsort((index.doc_id_rank[candidates], -scores))[:depth]
    return ScoredList(candidates[order], scores[order], index.doc_id_array)


_BLOCK = 2**20  # postings entries gathered at once: a retrieval's arrays stay O(block + docs)
# A page is attempted only when its postings outnumber _PRUNE times the
# forward entries (avgdl per document) of depth + |exclude| + one per term
# documents: those it rescores at least, and the fixed work of the pruned path,
# which grows with the terms.  At 20k passages (avgdl 45) a 20-term page reads
# 13-19k postings against a threshold of 7.6-10.8k, and its pruned pass takes
# about 60% of the full one; at 5k passages a page reads under 5.2k, and a
# pruned pass costs more than the full one.  Tails (depth 990) never qualify.
_PRUNE = 8


def _cuts(sizes: np.ndarray) -> list[int]:
    """Blocks of whole slices of ``sizes`` entries: block i is slices cuts[i]
    to cuts[i + 1], as many as fit in _BLOCK entries, or one."""
    if len(sizes) and sizes.sum() <= _BLOCK:
        return [0, len(sizes)]
    placed = np.concatenate(([0], np.cumsum(sizes)))
    cuts = [0]
    while cuts[-1] < len(sizes):
        cuts.append(max(cuts[-1] + 1, int(np.searchsorted(placed, placed[cuts[-1]] + _BLOCK, "right")) - 1))
    return cuts


def _accumulate(
    index: CollectionIndex, rows: np.ndarray, weigh: Callable[..., np.ndarray], excluded: Iterable[int]
) -> tuple[np.ndarray, np.ndarray]:
    """sum_w q_w * weight(w, x) per document x, but the internal ids
    ``excluded``, over the postings ``rows`` of the model's terms in the
    collection, in sorted term order: the candidates' internal ids, ascending,
    and their scores.  A block of whole terms (``_cuts``) is gathered at once;
    ``weigh(spread, docs, counts)`` gives its entries' q_w * weight, ``spread``
    repeating a per-term array over them.  ``np.add.at`` adds in entry order,
    so a score is the same additions in term order, whatever the blocks."""
    postings = index.postings
    scores, scored = np.zeros(index.num_docs), np.zeros(index.num_docs, dtype=bool)
    starts, ends = postings.offsets[rows], postings.offsets[rows + 1]
    sizes = ends - starts
    cuts = _cuts(sizes)
    for first, last in zip(cuts, cuts[1:]):
        spans = list(zip(starts[first:last].tolist(), ends[first:last].tolist()))
        docs = np.concatenate([postings.docs[start:end] for start, end in spans], dtype=np.intp)
        counts = np.concatenate([postings.counts[start:end] for start, end in spans])
        spread = lambda per_term: np.repeat(per_term[first:last], sizes[first:last])
        np.add.at(scores, docs, weigh(spread, docs, counts))
        scored[docs] = True
    scored[np.asarray(excluded, dtype=np.intp)] = False
    candidates = np.flatnonzero(scored)
    return candidates, scores[candidates]


def _matching(index: CollectionIndex, rows: np.ndarray, drop: np.ndarray) -> np.ndarray:
    """The documents in the postings ``rows`` but not in ``drop``, ascending,
    gathered a block of whole rows at a time."""
    offsets, docs = index.postings.offsets, index.postings.docs
    starts, ends = offsets[rows], offsets[rows + 1]
    found = np.empty(0, np.int32)
    cuts = _cuts(ends - starts)
    for first, last in zip(cuts, cuts[1:]):
        block = [docs[s:e] for s, e in zip(starts[first:last].tolist(), ends[first:last].tolist())]
        # a row holds each document once, ascending
        found = block[0] if len(block) == 1 and not found.size else np.union1d(found, np.concatenate(block))
    at = np.minimum(np.searchsorted(found, drop), len(found) - 1)
    return np.delete(found, at[found[at] == drop])


def _rescore(
    index: CollectionIndex, candidates: np.ndarray, rows: np.ndarray, weigh: Callable[..., np.ndarray]
) -> np.ndarray:
    """What ``_accumulate`` gives the ``candidates``, from their forward
    entries in the postings ``rows``, a block of whole documents at a time: a
    document's entries are in sorted term order, so ``np.add.at`` from 0.0 does
    the same additions in the same order."""
    offsets, terms = index.forward_offsets, index.forward_terms
    starts = offsets[candidates]
    sizes = offsets[candidates + 1] - starts
    held = np.append(rows, -1)  # a term index past the model's rows finds no row
    partial = np.zeros(len(candidates))
    cuts = _cuts(sizes)
    for first, last in zip(cuts, cuts[1:]):
        block = sizes[first:last]
        entries = np.arange(block.sum()) + np.repeat(starts[first:last] - (np.cumsum(block) - block), block)
        term = np.searchsorted(rows, terms[entries])
        hit = held[term] == terms[entries]
        owner, term, entries = np.repeat(np.arange(first, last), block)[hit], term[hit], entries[hit]
        np.add.at(partial, owner, weigh(lambda per_term: per_term[term], candidates[owner], index.forward_counts[entries]))
    return partial


def _top(
    index: CollectionIndex, rows: np.ndarray, weigh: Callable[..., np.ndarray], finish: Callable[..., np.ndarray],
    bound: Callable[..., tuple], exclude: Iterable[str], depth: int,
) -> ScoredList:
    """The top ``depth`` documents outside ``exclude`` by finish(candidates,
    partial) over the postings ``rows``; ``bound(max_counts, min_lengths)``
    gives each term's bound, the length term's bound and the sum of the
    magnitudes a score adds.

    A page, where _PRUNE says pruning may pay, is pruned: terms lead in
    decreasing bound.  Each pass rescores exactly the next leading terms'
    documents outside ``exclude`` and the candidates so far, and theta is the
    depth-th score among the candidates.  More terms lead until the bounds of
    the rest, plus the length term's, fall strictly below theta by more than
    the rounding can move a score; a document in none of the leading terms
    cannot reach theta.  Theta only rises, so a second pass leads no more
    terms.  A bound that is not finite sends the retrieval to the full pass,
    and so, unless _PRUNE is 0, does every term leading or a pass that
    rescores more forward entries, about avgdl a document, than the full pass
    reads postings."""
    check_count("depth", depth)
    check_collection("exclude", exclude, "doc ids", stream=True)  # for both paths
    excluded = np.array([index.internal_id(d) for d in exclude if index.has_doc(d)], dtype=np.intp)
    sizes = index.postings.offsets[rows + 1] - index.postings.offsets[rows]
    if sizes.sum() > _PRUNE * (depth + len(excluded) + len(rows)) * index.stats.avg_doc_len:
        with np.errstate(all="ignore"):  # a bound that is not finite leaves the error to the full pass
            bounds, prior, scale = bound(index.max_counts[rows], index.min_lengths[rows])
        upper = np.maximum(bounds, 0.0)  # a negative query weight adds at most 0
        order = np.argsort(-upper, kind="stable")
        rest = np.append(np.cumsum(upper[order][::-1])[::-1], 0.0)  # rest[i]: the bound of order[i:]
        reach = np.append(0, np.cumsum(sizes[order]))  # reach[i]: the postings of order[:i]
        lead, more = 0, min(int(np.searchsorted(reach, depth + len(excluded))), len(rows))
        candidates, scores = excluded[:0], np.empty(0)
        while math.isfinite(scale) and math.isfinite(prior) and not (
            _PRUNE and (more == len(rows) or (reach[more] - reach[lead]) * index.stats.avg_doc_len > reach[-1])
        ):  # _PRUNE = 0 sends every page through here, as the tests do
            new = _matching(index, rows[order[lead:more]], np.concatenate((excluded, candidates)))
            candidates = np.concatenate((candidates, new))
            scores = np.concatenate((scores, finish(new, _rescore(index, new, rows, weigh))))
            theta = np.partition(scores, -depth)[-depth] if len(scores) >= depth else -math.inf
            pad = 4 * (len(rows) + 8) * np.finfo(float).eps * (scale + abs(theta))
            clears = rest[more:] + prior < theta - pad
            lead, more = more, more + int(np.argmax(clears)) if clears.any() else len(rows)
            if more == lead:
                return _rank(index, candidates, scores, depth)
    candidates, partial = _accumulate(index, rows, weigh, excluded)
    return _rank(index, candidates, finish(candidates, partial), depth)


def in_collection(index: CollectionIndex, weights: Mapping[str, float]) -> tuple[np.ndarray, np.ndarray]:
    """The terms of a term -> weight map that the collection holds, as
    ascending postings rows (int64, so in sorted term order), and their
    weights (float64): the one way from terms to the postings, for the
    scorers and the feedback estimators alike."""
    row_of = index.postings.rows
    terms = sorted(term for term in weights if term in row_of)
    return np.array([row_of[t] for t in terms], dtype=np.int64), np.array([weights[t] for t in terms], dtype=float)


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
    rows, q = in_collection(index, model.weights)
    total_terms = index.stats.total_terms
    # Python floats: a mu * cf that overflows is inf, which _rank rejects, not a numpy warning
    backgrounds = [params.mu * cf / total_terms for cf in index.cfs[rows].tolist()]
    if 0.0 in backgrounds:  # its log would be a math domain error
        term = index.postings.terms[rows[backgrounds.index(0.0)]]
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

    def length_term(candidates: np.ndarray, partial: np.ndarray) -> np.ndarray:
        lengths = index.doc_length_array[candidates]
        return partial + baseline - weight_sum * each(lengths, lambda length: math.log(length + params.mu))

    def bound(counts: np.ndarray, lengths: np.ndarray) -> tuple[np.ndarray, float, float]:
        # the delta grows with the count, and the length term falls with the length
        high, low, length = np.log(counts + backgrounds), np.log(backgrounds), np.log(lengths.min() + params.mu)
        scale = float(np.abs(q * high).sum() + np.abs(q * low).sum() + abs(baseline) + abs(weight_sum * length))
        return q * (high - low), baseline - weight_sum * float(length), scale

    return _top(index, rows, dirichlet_delta, length_term, bound, exclude, depth)


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
    rows, q = in_collection(index, model.weights)

    def weigh(spread: Callable, docs: np.ndarray, counts: np.ndarray) -> np.ndarray:
        return spread(q) * weighting(spread(rows), index.doc_length_array[docs], counts)

    def bound(counts: np.ndarray, lengths: np.ndarray) -> tuple[np.ndarray, float, float]:
        # both weightings grow with the count, and neither grows with the length
        terms = q * weighting(rows, lengths, counts)
        return terms, 0.0, float(np.abs(terms).sum())

    return _top(index, rows, weigh, lambda candidates, partial: partial, bound, exclude, depth)
