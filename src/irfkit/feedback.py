"""Feedback estimators that re-build a query model from judged documents.

Four estimators, one per retrieval framework:

* ``estimate_rm3``         relevance-model expansion over the relevant pool,
                           interpolated with the original query model.
* ``estimate_distillation`` EM mixture of a relevance topic, the judged
                           non-relevant pool, and the corpus background.
* ``estimate_rocchio``     vector-space update against BM25 centroids of the
                           relevant and non-relevant pools.
* ``estimate_prob``        probabilistic term weighting from document
                           frequencies inside and outside the relevant pool.

Every estimator starts from the original query and the full pools; none of
them chains off the previous iteration's model, which is known to drift.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Callable, Iterator, NamedTuple, Sequence

from .corpus_io import read_text
from .index import CollectionIndex, Weighting, forward_sum
from .ranking import (
    QueryModel,
    RankingParams,
    doc_weighting,
    ordered_sum,
    query_count_vector,
    query_language_model,
)


class FeedbackError(ValueError):
    """Raised on invalid estimator inputs or parameters."""


class PoolConflictError(ValueError):
    """Raised when a document would land in both judgment pools."""


class FeedbackPools:
    """Cumulative pools of judged relevant and non-relevant doc ids.

    Insertion order is preserved; the pools never overlap.
    """

    def __init__(
        self, relevant: Sequence[str] = (), nonrelevant: Sequence[str] = ()
    ) -> None:
        self.relevant: list[str] = []
        self.nonrelevant: list[str] = []
        self._seen: set[str] = set()
        for doc_id in relevant:
            self.add(doc_id, True)
        for doc_id in nonrelevant:
            self.add(doc_id, False)

    def add(self, doc_id: str, is_relevant: bool) -> None:
        if doc_id in self._seen:
            raise PoolConflictError(f"doc {doc_id!r} already judged")
        self._seen.add(doc_id)
        (self.relevant if is_relevant else self.nonrelevant).append(doc_id)


@dataclass(frozen=True)
class ModelParams:
    """Every tunable knob of the pipeline, loadable from a key=value file."""

    mu: float = 1000.0
    k1: float = 1.2
    b: float = 0.75
    interp_lambda: float = 0.5
    num_expansion_terms: int = 20
    lambda1: float = 0.2
    lambda2: float = 0.2
    beta: float = 1.0
    gamma: float = 0.5
    subtract_nonrelevant: bool = True
    em_max_iters: int = 50
    em_tol: float = 1e-6

    def __post_init__(self) -> None:
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, float) and not math.isfinite(value):
                raise FeedbackError(f"{f.name} must be finite, got {value}")
        if not 0.0 <= self.interp_lambda <= 1.0:
            raise FeedbackError(f"interp_lambda must be in [0, 1], got {self.interp_lambda}")
        if self.num_expansion_terms < 1:
            raise FeedbackError(f"num_expansion_terms must be >= 1, got {self.num_expansion_terms}")
        if self.lambda1 < 0 or self.lambda2 < 0 or self.lambda1 + self.lambda2 >= 1.0:
            raise FeedbackError(
                f"lambda1 + lambda2 must be in [0, 1), got {self.lambda1} + {self.lambda2}"
            )
        if self.beta < 0 or self.gamma < 0:
            raise FeedbackError("beta and gamma must be non-negative")
        if self.em_max_iters < 1:
            raise FeedbackError(f"em_max_iters must be >= 1, got {self.em_max_iters}")
        try:  # RankingParams holds the range checks of mu, k1 and b
            self.ranking_params()
        except ValueError as exc:
            raise FeedbackError(str(exc)) from None

    def ranking_params(self, depth: int = 1000) -> RankingParams:
        return RankingParams(mu=self.mu, k1=self.k1, b=self.b, depth=depth)

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}


_FIELD_TYPES = {f.name: type(f.default) for f in fields(ModelParams)}
_BOOLS = {"true": True, "false": False, "1": True, "0": False}


def parse_param(key: str, value: str):
    """Coerce one string value to the type of the ModelParams field ``key``."""
    if key not in _FIELD_TYPES:
        raise FeedbackError(f"unknown parameter {key!r}")
    field_type = _FIELD_TYPES[key]
    try:
        return _BOOLS[value.lower()] if field_type is bool else field_type(value)
    except (ValueError, KeyError):
        raise FeedbackError(f"bad value {value!r} for parameter {key!r}") from None


def split_key_value(text: str, where: str) -> tuple[str, str]:
    """Split ``key=value`` at the first ``=``; ``where`` prefixes the error."""
    key, sep, value = text.partition("=")
    if not sep:
        raise FeedbackError(f"{where}: expected key=value, got {text!r}")
    return key.strip(), value.strip()


def read_key_values(path: str | Path) -> Iterator[tuple[str, str, str]]:
    """Yield (path:line, key, value) for each key=value line of a file;
    blank lines and # comments are skipped."""
    for lineno, line in enumerate(read_text(path, FeedbackError).splitlines(), 1):
        line = line.strip()
        if line and not line.startswith("#"):
            where = f"{path}:{lineno}"
            yield (where, *split_key_value(line, where))


def format_key_values(values: dict, sep: str = "\n") -> str:
    """``key=value`` for each entry in sorted key order, joined by ``sep``."""
    return sep.join(f"{key}={value}" for key, value in sorted(values.items()))


def write_key_values(path: str | Path, values: dict) -> None:
    Path(path).write_text(format_key_values(values) + "\n", "utf-8")


def load_params(path: str | Path | None, overrides: dict[str, str] | None = None) -> ModelParams:
    """Read a flat key=value parameter file (if any), then apply overrides."""
    values = {}
    for where, key, value in read_key_values(path) if path is not None else ():
        try:
            values[key] = parse_param(key, value)
        except FeedbackError as exc:
            raise FeedbackError(f"{where}: {exc}") from None
    values.update((key, parse_param(key, value)) for key, value in (overrides or {}).items())
    return ModelParams(**values)


def write_params(params: ModelParams, path: str | Path) -> None:
    write_key_values(path, params.to_dict())


def _centroid(index: CollectionIndex, doc_ids: Sequence[str], weighting: Weighting) -> dict[str, float]:
    """Mean of the documents' vectors under a ``ranking.doc_weighting``, in
    sorted term order."""
    n = len(doc_ids)
    return {t: w / n for t, w in forward_sum(index, doc_ids, weighting).items()}


def mle(index: CollectionIndex, doc_set: Sequence[str], mode: str = "concatenated") -> dict[str, float]:
    """Maximum-likelihood term distribution of a document set.

    ``averaged`` is the mean of per-document distributions; ``concatenated``
    treats the set as one long document.  Either way the output sums to 1.
    """
    if not doc_set:
        raise FeedbackError("mle requires a non-empty document set")
    if mode == "averaged":
        return _centroid(index, doc_set, doc_weighting(index, "mle", RankingParams()))
    if mode == "concatenated":
        counts = forward_sum(index, doc_set, lambda term, length, count: count)
        total = sum(counts.values())
        return {t: c / total for t, c in counts.items()}
    raise FeedbackError(f"unknown mle mode {mode!r}")


def _top_terms(
    weights: dict[str, float], m: int, key: Callable[[float], float] = float
) -> dict[str, float]:
    """The m terms with the largest key(weight), ties to the smaller term, in
    that order; ``weights`` itself when it holds no more than m terms."""
    if len(weights) <= m:
        return weights
    return dict(sorted(weights.items(), key=lambda kv: (-key(kv[1]), kv[0]))[:m])


def _truncate_distribution(dist: dict[str, float], m: int) -> dict[str, float]:
    """Keep the top-m terms by weight; renormalize only if terms dropped."""
    if len(dist) <= m:
        return dist
    top = _top_terms(dist, m)
    total = ordered_sum(top.values())
    return {t: w / total for t, w in top.items()}


def _interpolate(
    original: dict[str, float], expansion: dict[str, float], interp_lambda: float
) -> dict[str, float]:
    out: dict[str, float] = {}
    for term in sorted(set(original) | set(expansion)):
        weight = interp_lambda * original.get(term, 0.0) + (1.0 - interp_lambda) * expansion.get(term, 0.0)
        if weight != 0.0:
            out[term] = weight
    return out


class Estimate(NamedTuple):
    """What every estimator returns.

    ``fallback`` is set when the pools held nothing to estimate from and
    ``model`` is the initial ranker's query model; ``diagnostics`` holds
    estimator-specific figures (``excluded`` terms for ``prob``).
    """

    model: QueryModel
    fallback: bool
    diagnostics: dict


def estimate_rm3(
    index: CollectionIndex,
    query_terms: Sequence[str],
    pools: FeedbackPools,
    params: ModelParams,
) -> Estimate:
    """Relevance-model update: average the MLE models of the relevant pool,
    truncate, and interpolate with the original query model.

    With an empty relevant pool the original query model comes back as a
    fallback.
    """
    original = query_language_model(query_terms)
    if not pools.relevant:
        return Estimate(original, True, {})
    relevance = mle(index, pools.relevant, mode="averaged")
    relevance = _truncate_distribution(relevance, params.num_expansion_terms)
    model = QueryModel.lm(_interpolate(original.weights, relevance, params.interp_lambda))
    return Estimate(model, False, {})


def distill_relevance_model(
    pool_counts: dict[str, int],
    p_nonrel: dict[str, float],
    p_corpus: dict[str, float],
    lambda1: float,
    lambda2: float,
    max_iters: int = 50,
    tol: float = 1e-6,
) -> tuple[dict[str, float], list[float]]:
    """EM fit of the relevance topic in the three-way mixture
    (1-l1-l2)*p_rel + l1*p_nonrel + l2*p_corpus against pooled term counts.

    Returns the fitted distribution and the log-likelihood trace, which is
    non-decreasing.
    """
    if lambda1 + lambda2 >= 1.0:
        raise FeedbackError(f"lambda1 + lambda2 must be < 1, got {lambda1} + {lambda2}")
    terms = sorted(t for t, c in pool_counts.items() if c > 0)
    if not terms:
        raise FeedbackError("distillation requires a non-empty relevant pool")
    counts = [pool_counts[t] for t in terms]
    total = sum(counts)
    rel_weight = 1.0 - lambda1 - lambda2
    fixed = [lambda1 * p_nonrel.get(t, 0.0) + lambda2 * p_corpus.get(t, 0.0) for t in terms]
    p_rel = [c / total for c in counts]

    def log_likelihood(p: list[float]) -> float:
        return ordered_sum(c * math.log(rel_weight * pw + fw) for c, pw, fw in zip(counts, p, fixed))

    trace = [log_likelihood(p_rel)]
    for _ in range(max_iters):
        expected = [
            c * (rel_weight * pw) / (rel_weight * pw + fw)
            for c, pw, fw in zip(counts, p_rel, fixed)
        ]
        mass = ordered_sum(expected)
        if mass == 0.0:
            break
        p_rel = [e / mass for e in expected]
        trace.append(log_likelihood(p_rel))
        if trace[-1] - trace[-2] < tol:
            break
    return dict(zip(terms, p_rel)), trace


def estimate_distillation(
    index: CollectionIndex,
    query_terms: Sequence[str],
    pools: FeedbackPools,
    params: ModelParams,
) -> Estimate:
    """Mixture-model update: distill the relevance topic out of the relevant
    pool via EM, truncate, and interpolate with the original query model.

    With an empty non-relevant pool, that mixture component is dropped and
    the remaining weights renormalized.  With an empty relevant pool the
    original query model comes back as a fallback.
    """
    original = query_language_model(query_terms)
    if not pools.relevant:
        return Estimate(original, True, {})
    lambda1, lambda2 = params.lambda1, params.lambda2
    if pools.nonrelevant:
        p_nonrel = mle(index, pools.nonrelevant, mode="concatenated")
    else:
        p_nonrel = {}
        remaining = 1.0 - lambda1
        lambda1, lambda2 = 0.0, lambda2 / remaining
    total_terms = index.stats.total_terms
    pool_counts = forward_sum(index, pools.relevant, lambda term, length, count: count)
    p_corpus = {t: index.cf(t) / total_terms for t in pool_counts}
    relevance, _ = distill_relevance_model(
        pool_counts, p_nonrel, p_corpus, lambda1, lambda2, params.em_max_iters, params.em_tol
    )
    relevance = {t: p for t, p in relevance.items() if p > 0.0}
    relevance = _truncate_distribution(relevance, params.num_expansion_terms)
    model = QueryModel.lm(_interpolate(original.weights, relevance, params.interp_lambda))
    return Estimate(model, False, {})


def estimate_rocchio(
    index: CollectionIndex,
    query_terms: Sequence[str],
    pools: FeedbackPools,
    params: ModelParams,
) -> Estimate:
    """Vector-space update: original query counts plus beta times the BM25
    centroid of the relevant pool and gamma times the non-relevant centroid
    (subtracted by default; the sign is configurable).  Empty pools simply
    drop their term; with both empty the query counts come back as a
    fallback.

    Expansion terms outside the original query are truncated to the top
    num_expansion_terms by absolute weight; query terms are always kept.
    """
    bm25 = doc_weighting(index, "bm25", params.ranking_params())
    vector = dict(query_count_vector(query_terms).weights)
    query_term_set = set(vector)
    sign = -1.0 if params.subtract_nonrelevant else 1.0
    for pool, coefficient in (pools.relevant, params.beta), (pools.nonrelevant, sign * params.gamma):
        if pool and coefficient != 0.0:
            for term, weight in _centroid(index, pool, bm25).items():
                vector[term] = vector.get(term, 0.0) + coefficient * weight
    expansion = {t: w for t, w in vector.items() if t not in query_term_set}
    kept = _top_terms(expansion, params.num_expansion_terms, abs)
    vector = {t: w for t, w in vector.items() if t in query_term_set or t in kept}
    fallback = not pools.relevant and not pools.nonrelevant
    return Estimate(QueryModel.vector(vector), fallback, {})


def estimate_prob(
    index: CollectionIndex,
    query_terms: Sequence[str],
    pools: FeedbackPools,
    params: ModelParams,
) -> Estimate:
    """Probabilistic update: feedback terms from the relevant pool weighted
    by log-odds of occurrence in relevant versus non-relevant documents,
    combined with idf-like original-query weights.

    The diagnostics count as ``excluded`` the terms dropped because their
    document frequency makes the log-odds undefined (absent from the
    collection, in every document, or so frequent the non-relevant occurrence
    estimate reaches 1).  With an empty relevant pool the query counts come
    back as a fallback, for BM25 scoring.
    """
    num_docs = index.num_docs
    num_rel = len(pools.relevant)
    if num_rel == 0:
        return Estimate(query_count_vector(query_terms), True, {})
    if num_docs <= num_rel:
        raise FeedbackError("relevant pool covers the whole collection")
    excluded = 0

    df_pool = forward_sum(index, pools.relevant, lambda term, length, count: 1)
    feedback: dict[str, float] = {}
    for term in df_pool:
        df_all = index.df(term)
        if df_all >= num_docs:
            excluded += 1
            continue
        p_rel = (df_pool[term] + df_all / num_docs) / (num_rel + 1)
        p_nonrel = (df_all - df_pool[term] + df_all / num_docs) / (num_docs - num_rel + 1)
        if p_nonrel >= 1.0:
            excluded += 1
            continue
        feedback[term] = math.log(p_rel * (1.0 - p_nonrel) / (p_nonrel * (1.0 - p_rel)))

    feedback = _top_terms(feedback, params.num_expansion_terms)

    original: dict[str, float] = {}
    for term in sorted(set(query_terms)):
        df_all = index.df(term)
        if df_all == 0 or df_all >= num_docs:
            excluded += 1
            continue
        original[term] = math.log((num_docs - df_all) / df_all)

    combined = _interpolate(original, feedback, params.interp_lambda)
    return Estimate(QueryModel.vector(combined), False, {"excluded": excluded})


class ModelSpec(NamedTuple):
    """How a feedback model estimates, scores and is tuned.

    ``estimator`` names its ``estimate_*`` function in this module.
    ``vectorizer`` is the ``retrieve_dot`` document weighting of a vector
    model, or None for KL scoring of an lm model; a fallback estimate is
    scored with BM25.  ``axes`` are the ModelParams fields cross-validation
    tunes, in grid order.
    """

    estimator: str
    vectorizer: str | None
    axes: tuple[str, ...]


MODELS = {
    "rm3": ModelSpec("estimate_rm3", None, ("mu", "interp_lambda", "num_expansion_terms")),
    "distill": ModelSpec(
        "estimate_distillation",
        None,
        ("mu", "lambda1", "lambda2", "interp_lambda", "num_expansion_terms"),
    ),
    "rocchio": ModelSpec(
        "estimate_rocchio", "bm25", ("k1", "b", "beta", "gamma", "num_expansion_terms")
    ),
    "prob": ModelSpec("estimate_prob", "mle", ("k1", "b", "interp_lambda", "num_expansion_terms")),
}


def model_spec(model_kind: str) -> ModelSpec:
    try:
        return MODELS[model_kind]
    except KeyError:
        raise FeedbackError(
            f"unknown model {model_kind!r}; expected one of {tuple(MODELS)}"
        ) from None
