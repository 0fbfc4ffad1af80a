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
Sums add in order and logs are ``math.log`` (``irfkit.exact``), so an
estimate is the same floats on every Python version and CPU.

The estimators keep postings rows and float64 arrays until they build their
``QueryModel``: the pools come from ``index.forward_rows``, the query's rows
from ``ranking.in_collection``, and document and collection frequencies from
the ``dfs`` and ``cfs`` columns.  A row id sorts like its term, so the loops
over sorted terms they replaced are operations on ascending rows: a top-m cut
is ``np.lexsort`` on (row, -key), ties to the smaller term, and an
interpolation or a centroid update is a merge of sorted rows with the same
elementwise operations in the same order.  Query terms outside the collection
have no row; they keep their place in the weights.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .corpus_io import check_collection, check_count, check_value, parse_number, read_text, reject_repeats
from .exact import log_each, ordered_sum
from .index import CollectionIndex, by_term, distinct, forward_rows
from .ranking import QueryModel, doc_weighting, in_collection, query_count_vector, query_language_model


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
        check_collection("relevant", relevant, "doc ids", FeedbackError)
        check_collection("nonrelevant", nonrelevant, "doc ids", FeedbackError)
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


def _check_lambdas(lambda1: float, lambda2: float) -> None:
    """The distillation mixture's weights: each at least 0, and together
    below 1, so the relevance topic keeps a positive share.  NaN fails."""
    if not (0 <= lambda1 and 0 <= lambda2 and lambda1 + lambda2 < 1):
        raise FeedbackError(f"lambda1 + lambda2 must be in [0, 1), got {lambda1} + {lambda2}")


@dataclass(frozen=True)
class ModelParams:
    """Every tunable knob of the pipeline, the scorers' mu, k1 and b among
    them, checked for type and range; loadable from a key=value file."""

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
            check_value(f.name, getattr(self, f.name), _FIELD_TYPES[f.name], FeedbackError)
        if not self.mu > 0:
            raise FeedbackError(f"mu must be > 0, got {self.mu}")
        if not self.k1 > 0:
            raise FeedbackError(f"k1 must be > 0, got {self.k1}")
        if not 0.0 <= self.b <= 1.0:
            raise FeedbackError(f"b must be in [0, 1], got {self.b}")
        if not 0.0 <= self.interp_lambda <= 1.0:
            raise FeedbackError(f"interp_lambda must be in [0, 1], got {self.interp_lambda}")
        check_count("num_expansion_terms", self.num_expansion_terms, FeedbackError)
        _check_lambdas(self.lambda1, self.lambda2)
        if self.beta < 0 or self.gamma < 0:
            raise FeedbackError("beta and gamma must be non-negative")
        check_count("em_max_iters", self.em_max_iters, FeedbackError)

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}


_FIELD_TYPES = {f.name: type(f.default) for f in fields(ModelParams)}
_BOOLS = {"true": True, "false": False, "1": True, "0": False}


def parse_param(key: str, value: str):
    """Coerce one string value to the type of the ModelParams field ``key``."""
    if key not in _FIELD_TYPES:
        raise FeedbackError(f"unknown parameter {key!r}")
    if not isinstance(value, str):
        raise FeedbackError(f"parameter {key!r} must be given as a str, got {value!r}")
    field_type = _FIELD_TYPES[key]
    try:
        return _BOOLS[value.lower()] if field_type is bool else parse_number(value, field_type)
    except (ValueError, KeyError):
        raise FeedbackError(f"bad value {value!r} for parameter {key!r}") from None


def split_key_value(text: str, where: str) -> tuple[str, str]:
    """Split ``key=value`` at the first ``=``; ``where`` prefixes the error."""
    key, sep, value = text.partition("=")
    if not sep:
        raise FeedbackError(f"{where}: expected key=value, got {text!r}")
    return key.strip(), value.strip()


def read_key_values(path: str | Path) -> list[tuple[str, str, str]]:
    """(path:line, key, value) for each key=value line of a file; blank lines
    and # comments are skipped, and a key on two lines is rejected."""
    lines = []
    for lineno, line in enumerate(read_text(path, FeedbackError).split("\n"), 1):
        line = line.strip()
        if line and not line.startswith("#"):
            lines.append((lineno, *split_key_value(line, f"{path}:{lineno}")))
    reject_repeats(path, [(lineno, key) for lineno, key, _ in lines], lambda k: f"key {k!r}", FeedbackError)
    return [(f"{path}:{lineno}", key, value) for lineno, key, value in lines]


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


def load_grid(path: str | Path | None, model_kind: str) -> list[ModelParams]:
    """The grid points of a model: every combination of its axes' values, in
    ``itertools.product`` order, less those with lambda1 + lambda2 >= 1.  A
    ``key=v1,v2,...`` file (if any) sets the values of some axes; the others
    keep their ``GRID`` values.  Every other field keeps its default."""
    axes = model_spec(model_kind).axes
    values = {axis: GRID[axis] for axis in axes}
    for where, key, raw in read_key_values(path) if path is not None else ():
        if key not in values:
            raise FeedbackError(
                f"{where}: {key!r} is not a grid axis of {model_kind}; expected one of {axes}"
            )
        try:
            values[key] = tuple(parse_param(key, v.strip()) for v in raw.split(",") if v.strip())
        except FeedbackError as exc:
            raise FeedbackError(f"{where}: {exc}") from None
        if not values[key]:
            raise FeedbackError(f"{where}: no values for {key!r}")
    points = (dict(zip(axes, point)) for point in itertools.product(*values.values()))
    lambda1, lambda2 = ModelParams.lambda1, ModelParams.lambda2
    return [ModelParams(**p) for p in points if p.get("lambda1", lambda1) + p.get("lambda2", lambda2) < 1.0]


def _counts(rows: np.ndarray, lengths: np.ndarray, counts: np.ndarray) -> np.ndarray:
    return counts


def _mean_rows(index: CollectionIndex, doc_ids: Sequence[str], weighting: Callable) -> tuple[np.ndarray, np.ndarray]:
    """Mean of the documents' vectors under a ``ranking.doc_weighting``: the
    postings rows, ascending, and their weights."""
    rows, sums = forward_rows(index, doc_ids, weighting)
    return rows, sums / len(doc_ids)


def _at(rows: np.ndarray, held: np.ndarray, values: np.ndarray) -> np.ndarray:
    """The ``values`` of the postings rows ``held`` at ``rows``, 0.0 at a row
    it lacks; both ascending."""
    out = np.zeros(rows.size)
    if held.size:
        where = np.minimum(np.searchsorted(held, rows), held.size - 1)
        found = held[where] == rows
        out[found] = values[where[found]]
    return out


def _top(rows: np.ndarray, key: np.ndarray, m: int) -> np.ndarray:
    """The places of the m largest keys, ties to the smaller row, so the
    smaller term, in that order."""
    return np.lexsort((rows, -key))[:m]


def _interpolate(
    index: CollectionIndex,
    original: tuple[np.ndarray, np.ndarray, dict[str, float]],
    expansion: tuple[np.ndarray, np.ndarray],
    interp_lambda: float,
) -> dict[str, float]:
    """interp_lambda * original + (1 - interp_lambda) * expansion, term by
    term, in sorted term order, less the terms whose weight is 0.0.  Both are
    ascending postings rows and their weights; the original's terms outside
    the collection, which the expansion never holds, come by term."""
    (o_rows, o_weights, outside), (e_rows, e_weights) = original, expansion
    rows = distinct(np.concatenate((o_rows, e_rows)))
    weights = interp_lambda * _at(rows, o_rows, o_weights) + (1.0 - interp_lambda) * _at(rows, e_rows, e_weights)
    pairs = list(by_term(index, rows, weights).items())
    if outside:
        pairs = sorted([*pairs, *((t, interp_lambda * w + (1.0 - interp_lambda) * 0.0) for t, w in outside.items())])
    return {t: w for t, w in pairs if w != 0.0}


class Estimate(NamedTuple):
    """What every estimator returns.

    ``fallback`` is set when the pools held nothing to estimate from and
    ``model`` is the initial ranker's query model; ``diagnostics`` holds
    estimator-specific figures: ``excluded`` terms for ``prob``, and for
    ``distill`` its EM's ``em_iterations``, final ``log_likelihood`` and
    ``converged``, true only when the last EM step gained less than
    ``em_tol``.  A fallback carries none.
    """

    model: QueryModel
    fallback: bool
    diagnostics: dict


def _lm_update(
    index: CollectionIndex, original: QueryModel, rows: np.ndarray, relevance: np.ndarray, params: ModelParams
) -> Estimate:
    """The update rm3 and distillation share: keep the feedback model's top
    num_expansion_terms terms (ascending postings rows and their weights),
    renormalized only if terms dropped, the kept weights added in (-weight,
    term) order, and interpolate it with the original query model by
    interp_lambda.  An empty query model would leave the interpolation only
    1 - interp_lambda of the mass, so it is refused unless interp_lambda is 0
    or 1."""
    if not original.weights and 0.0 < params.interp_lambda < 1.0:
        raise FeedbackError(f"query_terms must hold a term to interpolate with by interp_lambda={params.interp_lambda}")
    if rows.size > params.num_expansion_terms:
        kept = _top(rows, relevance, params.num_expansion_terms)
        total = ordered_sum(relevance[kept])
        kept.sort()
        rows, relevance = rows[kept], relevance[kept] / total
    query = original.weights
    outside = {t: query[t] for t in sorted(query) if t not in index.postings.rows}
    weights = _interpolate(index, (*in_collection(index, query), outside), (rows, relevance), params.interp_lambda)
    return Estimate(QueryModel.lm(weights), False, {})


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
    return _lm_update(index, original, *_mean_rows(index, pools.relevant, doc_weighting(index, "mle", params)), params)


def _log_likelihood(counts: np.ndarray, mixture: np.ndarray) -> float:
    """A distillation iterate's log-likelihood: ``math.log`` per term and the
    products added in order.  ``math.log`` raises on an entry <= 0."""
    return ordered_sum(counts * log_each(mixture))


_EM_BLOCK = 8  # EM iterates stepped between two reads of the stop test


def _distill(
    counts: np.ndarray, p_nonrel: np.ndarray, p_corpus: np.ndarray,
    lambda1: float, lambda2: float, max_iters: int, tol: float,
) -> tuple[np.ndarray, list[np.ndarray]]:
    """``distill_relevance_model`` on arrays: the pooled counts as float64
    and the two fixed models at the same terms; the fitted distribution at
    those terms and the mixture of each kept iterate, whose
    ``_log_likelihood`` is its trace entry.

    The E and M steps run a block of up to ``_EM_BLOCK`` iterates at a time
    with numpy raising on every floating-point error, and the block's
    log-likelihoods and bounds come from one ``np.log``.  The stop test then
    reads the iterates one after another, as the loop did, and the fit ends
    at the first that stops it: the iterates stepped past it are dropped.  A
    step that raised is taken again, on its own under the caller's error
    state, only once every iterate before it has passed the stop test.  So
    the fit stops where the loop stops, and every numpy warning or error
    lands where the loop's did: a step that raises nothing sets no flag the
    caller's state could report.
    """
    _check_lambdas(lambda1, lambda2)
    if not counts.size:
        raise FeedbackError("distillation requires a non-empty relevant pool")
    rel_weight = 1.0 - lambda1 - lambda2
    fixed = lambda1 * p_nonrel + lambda2 * p_corpus
    mixtures = []  # of the iterates the stop test has read
    bound_per_unit = (counts.size + 8) * 2.0**-50
    p_rel = counts / ordered_sum(counts)
    weighted = rel_weight * p_rel
    # each iterate's p_rel, and the weighted p_rel and mixture the next E step
    # divides; the mixture is also its log-likelihood's argument
    latest = p_rel, weighted, weighted + fixed
    block = [latest]  # iterates stepped that the stop test has not read
    last = None  # the approximate log-likelihood and bound of the iterate it read last
    steps, going, raised = 0, True, False

    def step() -> bool:
        """Step on to the next iterate; False once the expected counts sum to 0.0."""
        nonlocal latest, steps
        expected = counts * latest[1] / latest[2]
        mass = ordered_sum(expected)
        if mass == 0.0:
            return False
        p_rel = expected / mass
        weighted = rel_weight * p_rel
        latest = p_rel, weighted, weighted + fixed
        block.append(latest)
        steps += 1
        return True

    while True:
        if raised:  # the step that raised, on its own under the caller's error state
            going, raised = step(), False
        with np.errstate(all="raise"):
            try:
                while going and steps < max_iters and len(block) < _EM_BLOCK:
                    going = step()
            except FloatingPointError:
                raised = True
        if block:
            stacked = np.array([mixture for _, _, mixture in block])
            with np.errstate(all="ignore"):  # np.log of an entry <= 0 is -inf or nan
                weighted_logs = counts * np.log(stacked)
                approxes = weighted_logs.sum(axis=1).tolist()
                bounds = (bound_per_unit * np.abs(weighted_logs).sum(axis=1)).tolist()
            for (p_rel, _, _), mixture, approx, bound in zip(block, stacked, approxes, bounds):
                mixtures.append(mixture)
                if not math.isfinite(bound):
                    _log_likelihood(counts, mixture)  # math.log raises on an entry <= 0, as the loop did
                if last is not None:
                    gain = approx - last[0]
                    margin = bound + last[1] + 2.0**-50 * (abs(gain) + abs(tol))
                    if math.isfinite(margin) and abs(gain - tol) > margin:
                        converged = gain < tol
                    else:
                        converged = _log_likelihood(counts, mixture) - _log_likelihood(counts, mixtures[-2]) < tol
                    if converged:
                        return p_rel, mixtures
                last = approx, bound
            block.clear()
        if not raised and not (going and steps < max_iters):
            return p_rel, mixtures


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

    Each count is an int, at least 0; the terms counted 0 are dropped.
    Returns the fitted distribution, in sorted term order, and the
    log-likelihood trace, which is non-decreasing up to rounding.  The fit
    (``_distill``) runs on float64 arrays with the arithmetic of a loop over
    terms: the same operation order and sums added in order.  Every float it
    returns is the loop's, bit for bit, trace entries included: the fit
    returns each kept iterate's mixture, and ``_log_likelihood`` takes
    ``math.log`` of it per term, because ``np.log``'s SIMD kernels round some
    inputs differently by CPU.

    The stop test reads ``np.log`` within a proven bound.  With u = 2^-53
    and n terms, let A be an iterate's log-likelihood from ``np.log``
    summed in any order, L the exact one, and S the sum of |count * log|
    from ``np.log``.  Taking each of ``np.log`` and ``math.log`` within 2
    ulps of the logarithm (numpy's tests hold ``np.log`` to 1), two logs
    of one value differ by at most 8u|log|.  Each product rounds by at
    most u, and a sum of n terms in any order is within (n-1)u(1 + O(nu))
    sum |x_i| of exact (Higham, *Accuracy and Stability of Numerical
    Algorithms*, 2002, ch. 4).  So |A - L| <= (2n + 10)u S to first order,
    and B = (8n + 64)u S, at least 4 times that, also covers the
    second-order terms and the rounding of S and B.  The approximate gain
    d = A_t - A_{t-1} is within B_t + B_{t-1} of the exact one, and
    4u(|d| + |tol|) more covers the rounding of both subtractions and of
    d - tol.  Past that margin d < tol decides; within it, or when a bound
    is not finite, the exact values do.  A bound is not finite when a
    mixture entry is inf, nan or <= 0, and on the last the exact log
    raises ``math.log``'s ValueError, as the loop did.  Each iterate's
    decision is its own, whatever block its ``np.log`` came in.
    """
    for term, count in pool_counts.items():
        check_count(f"the pool count of term {term!r}", count, FeedbackError, least=0)
    terms = sorted(t for t, c in pool_counts.items() if c > 0)

    def at_terms(model: dict[str, float]) -> np.ndarray:
        return np.array([model.get(t, 0.0) for t in terms], dtype=float)

    counts = at_terms(pool_counts)  # every count and their total are below 2^53, so float64 holds them exactly
    p_rel, mixtures = _distill(counts, at_terms(p_nonrel), at_terms(p_corpus), lambda1, lambda2, max_iters, tol)
    return dict(zip(terms, p_rel.tolist())), [_log_likelihood(counts, mixture) for mixture in mixtures]


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
    rows, counts = forward_rows(index, pools.relevant, _counts)
    if pools.nonrelevant:  # the pool as one document
        nonrel_rows, nonrel_counts = forward_rows(index, pools.nonrelevant, _counts)
        # counts and their total are below 2^53, so each quotient is the int one
        p_nonrel = _at(rows, nonrel_rows, nonrel_counts / int(nonrel_counts.sum()))
    else:
        p_nonrel = np.zeros(rows.size)
        remaining = 1.0 - lambda1
        lambda1, lambda2 = 0.0, lambda2 / remaining
    p_corpus = index.cfs[rows] / index.stats.total_terms
    pooled = counts.astype(float)
    relevance, mixtures = _distill(pooled, p_nonrel, p_corpus, lambda1, lambda2, params.em_max_iters, params.em_tol)
    log_likelihood = _log_likelihood(pooled, mixtures[-1])
    diagnostics = {
        "em_iterations": len(mixtures) - 1,
        "log_likelihood": log_likelihood,
        "converged": len(mixtures) > 1 and log_likelihood - _log_likelihood(pooled, mixtures[-2]) < params.em_tol,
    }
    kept = relevance > 0.0
    return _lm_update(index, original, rows[kept], relevance[kept], params)._replace(diagnostics=diagnostics)


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
    The weights come in the order of a dict updated term by term: the query
    terms first, then the relevant centroid's new terms and the non-relevant
    one's, each in sorted term order.  A weight of inf - inf (a beta and gamma
    that overflow both centroids) is refused by ``QueryModel.vector`` before the cut.
    """
    bm25 = doc_weighting(index, "bm25", params)
    vector = dict(query_count_vector(query_terms).weights)
    q_rows, q_counts = in_collection(index, vector)
    sign = -1.0 if params.subtract_nonrelevant else 1.0
    centroids = [
        (coefficient, *_mean_rows(index, pool, bm25))
        for pool, coefficient in ((pools.relevant, params.beta), (pools.nonrelevant, sign * params.gamma))
        if pool and coefficient != 0.0
    ]
    rows = distinct(np.concatenate([q_rows, *(c_rows for _, c_rows, _ in centroids)]))
    weights, new, first = np.zeros(rows.size), np.ones(rows.size, bool), np.zeros(rows.size, bool)
    at = np.searchsorted(rows, q_rows)
    weights[at], new[at] = q_counts, False
    # an overflow is an inf, as in float arithmetic, which QueryModel.vector rejects
    with np.errstate(over="ignore", invalid="ignore"):
        for i, (coefficient, c_rows, c_weights) in enumerate(centroids):
            at = np.searchsorted(rows, c_rows)
            weights[at] = weights[at] + coefficient * c_weights
            first[at] |= i == 0
    vector.update(by_term(index, q_rows, weights[~new]))
    expansion = np.flatnonzero(new)
    # in the order of a dict updated term by term: the first centroid's new terms, then the other's
    expansion = expansion[np.lexsort((expansion, ~first[expansion]))]
    if np.isnan(weights).any():  # inf - inf: refused whole, as no cut can rank a nan
        QueryModel.vector({**vector, **by_term(index, rows[expansion], weights[expansion])}, "bm25")
    if expansion.size > (m := params.num_expansion_terms):
        expansion = expansion[np.sort(_top(rows[expansion], np.abs(weights[expansion]), m))]
    vector.update(by_term(index, rows[expansion], weights[expansion]))
    fallback = not pools.relevant and not pools.nonrelevant
    return Estimate(QueryModel.vector(vector, "bm25"), fallback, {})


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
    query = query_count_vector(query_terms)
    num_docs = index.num_docs
    num_rel = len(pools.relevant)
    if num_rel == 0:
        return Estimate(query, True, {})

    rows, in_pool = forward_rows(index, pools.relevant, lambda rows, lengths, counts: 1)
    in_pool = in_pool.astype(float)  # counts below 2^53: exact floats
    in_all = index.dfs[rows].astype(float)
    p_rel = (in_pool + in_all / num_docs) / (num_rel + 1)
    p_nonrel = (in_all - in_pool + in_all / num_docs) / (num_docs - num_rel + 1)
    kept = (in_all < num_docs) & (p_nonrel < 1.0)  # where the log-odds is defined
    rows, p_rel, p_nonrel = rows[kept], p_rel[kept], p_nonrel[kept]
    log_odds = log_each(p_rel * (1.0 - p_nonrel) / (p_nonrel * (1.0 - p_rel)))
    excluded = kept.size - log_odds.size
    if rows.size > params.num_expansion_terms:
        top = np.sort(_top(rows, log_odds, params.num_expansion_terms))
        rows, log_odds = rows[top], log_odds[top]

    query_rows, _ = in_collection(index, query.weights)
    df_all = index.dfs[query_rows]
    defined = df_all < num_docs  # and a term outside the collection, df 0, has no row
    excluded += len(query.weights) - int(np.count_nonzero(defined))
    df_all = df_all[defined]
    original = query_rows[defined], log_each((num_docs - df_all) / df_all), {}
    combined = _interpolate(index, original, (rows, log_odds), params.interp_lambda)
    return Estimate(QueryModel.vector(combined, "mle"), False, {"excluded": excluded})


class ModelSpec(NamedTuple):
    """How a feedback model estimates and is tuned.

    ``estimator`` names its ``estimate_*`` function in this module, whose
    query model names the document weighting it is scored with.  ``axes``
    are the ModelParams fields cross-validation tunes, in grid order.
    """

    estimator: str
    axes: tuple[str, ...]


MODELS = {
    "rm3": ModelSpec("estimate_rm3", ("mu", "interp_lambda", "num_expansion_terms")),
    "distill": ModelSpec(
        "estimate_distillation", ("mu", "lambda1", "lambda2", "interp_lambda", "num_expansion_terms")
    ),
    "rocchio": ModelSpec("estimate_rocchio", ("k1", "b", "beta", "gamma", "num_expansion_terms")),
    "prob": ModelSpec("estimate_prob", ("k1", "b", "interp_lambda", "num_expansion_terms")),
}

# the built-in candidate values of each axis for cross-validation
GRID = {
    "mu": (30.0, 50.0, 300.0, 500.0, 1000.0, 1500.0),
    "k1": (1.2, 1.4, 1.6, 1.8, 2.0),
    "b": (0.75,),
    "interp_lambda": (0.0, 0.2, 0.4, 0.6, 0.8, 1.0),
    "lambda1": (0.0, 0.2, 0.4, 0.6, 0.8, 1.0),
    "lambda2": (0.0, 0.2, 0.4, 0.6, 0.8, 1.0),
    "num_expansion_terms": (10, 20, 30, 40, 50),
    "beta": (0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0),
    "gamma": (0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0),
}


def model_spec(model_kind: str) -> ModelSpec:
    try:
        return MODELS[model_kind]
    except KeyError:
        raise FeedbackError(
            f"unknown model {model_kind!r}; expected one of {tuple(MODELS)}"
        ) from None
