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
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .corpus_io import check_count, check_value, parse_number, read_text, reject_repeats
from .exact import log_each, ordered_sum
from .index import CollectionIndex, forward_sum
from .ranking import QueryModel, doc_weighting, query_count_vector, query_language_model


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


def _centroid(index: CollectionIndex, doc_ids: Sequence[str], weighting: Callable) -> dict[str, float]:
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
        return _centroid(index, doc_set, doc_weighting(index, "mle", ModelParams()))
    if mode == "concatenated":
        counts = forward_sum(index, doc_set, lambda rows, lengths, counts: counts)
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
    estimator-specific figures: ``excluded`` terms for ``prob``, and for
    ``distill`` its EM's ``em_iterations``, final ``log_likelihood`` and
    ``converged``, true only when the last EM step gained less than
    ``em_tol``.  A fallback carries none.
    """

    model: QueryModel
    fallback: bool
    diagnostics: dict


def _lm_update(original: QueryModel, relevance: dict[str, float], params: ModelParams) -> Estimate:
    """The update rm3 and distillation share: keep the feedback model's top
    num_expansion_terms terms, renormalized only if terms dropped, and
    interpolate it with the original query model by interp_lambda."""
    if len(relevance) > params.num_expansion_terms:
        relevance = _top_terms(relevance, params.num_expansion_terms)
        total = ordered_sum(relevance.values())
        relevance = {t: w / total for t, w in relevance.items()}
    return Estimate(QueryModel.lm(_interpolate(original.weights, relevance, params.interp_lambda)), False, {})


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
    return _lm_update(original, mle(index, pools.relevant, mode="averaged"), params)


class _LogLikelihoods(Sequence[float]):
    """The trace of a distillation fit: each kept iterate's log-likelihood,
    ``math.log`` per term and the products added in order.  An entry holds
    its iterate's mixture until it is first read, and its value after."""

    def __init__(self, counts: np.ndarray) -> None:
        self._counts = counts
        self._entries: list[np.ndarray | float] = []

    def append(self, mixture: np.ndarray) -> None:
        self._entries.append(mixture)

    def __len__(self) -> int:
        return len(self._entries)

    def __getitem__(self, i: int | slice) -> float | list[float]:
        if isinstance(i, slice):
            return [self[j] for j in range(*i.indices(len(self)))]
        entry = self._entries[i]
        if isinstance(entry, np.ndarray):
            entry = self._entries[i] = ordered_sum(self._counts * log_each(entry))
        return entry


def distill_relevance_model(
    pool_counts: dict[str, int],
    p_nonrel: dict[str, float],
    p_corpus: dict[str, float],
    lambda1: float,
    lambda2: float,
    max_iters: int = 50,
    tol: float = 1e-6,
) -> tuple[dict[str, float], Sequence[float]]:
    """EM fit of the relevance topic in the three-way mixture
    (1-l1-l2)*p_rel + l1*p_nonrel + l2*p_corpus against pooled term counts.

    Returns the fitted distribution, in sorted term order, and the
    log-likelihood trace, which is non-decreasing up to rounding.  The fit
    runs on float64 arrays with the arithmetic of a loop over terms: the
    same operation order and sums added in order.  Every float it returns
    is the loop's, bit for bit, trace entries included: they take
    ``math.log`` per term, because ``np.log``'s SIMD kernels round some
    inputs differently by CPU.  The trace computes an entry when it is
    first read, so until then it keeps the iterates' mixtures: (iterations
    + 1) x terms floats.

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
    raises ``math.log``'s ValueError, as the loop did.
    """
    _check_lambdas(lambda1, lambda2)
    terms = sorted(t for t, c in pool_counts.items() if c > 0)
    if not terms:
        raise FeedbackError("distillation requires a non-empty relevant pool")
    # every count and their total are below 2^53, so float64 holds them exactly
    counts = np.array([pool_counts[t] for t in terms], dtype=float)
    p_rel = counts / ordered_sum(counts)

    def at_terms(model: dict[str, float]) -> np.ndarray:
        return np.array([model.get(t, 0.0) for t in terms], dtype=float)

    rel_weight = 1.0 - lambda1 - lambda2
    fixed = lambda1 * at_terms(p_nonrel) + lambda2 * at_terms(p_corpus)
    trace = _LogLikelihoods(counts)
    bound_per_unit = (counts.size + 8) * 2.0**-50

    def keep(mixture: np.ndarray) -> tuple[float, float]:
        """Append an iterate to the trace; its approximate log-likelihood
        and the bound on that value's distance from the exact one."""
        trace.append(mixture)
        with np.errstate(all="ignore"):  # np.log of an entry <= 0 is -inf or nan
            weighted_logs = counts * np.log(mixture)
            approx = weighted_logs.sum().item()
            bound = bound_per_unit * np.abs(weighted_logs).sum().item()
        if not math.isfinite(bound):
            trace[-1]  # math.log raises on an entry <= 0, as the loop did
        return approx, bound

    # the mixture at p_rel is both its log-likelihood's argument and the
    # denominator of the next E step
    weighted = rel_weight * p_rel
    mixture = weighted + fixed
    last, last_bound = keep(mixture)
    for _ in range(max_iters):
        expected = counts * weighted / mixture
        mass = ordered_sum(expected)
        if mass == 0.0:
            break
        p_rel = expected / mass
        weighted = rel_weight * p_rel
        mixture = weighted + fixed
        approx, bound = keep(mixture)
        gain = approx - last
        margin = bound + last_bound + 2.0**-50 * (abs(gain) + abs(tol))
        if math.isfinite(margin) and abs(gain - tol) > margin:
            converged = gain < tol
        else:
            converged = trace[-1] - trace[-2] < tol
        if converged:
            break
        last, last_bound = approx, bound
    return dict(zip(terms, p_rel.tolist())), trace


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
    pool_counts = forward_sum(index, pools.relevant, lambda rows, lengths, counts: counts)
    p_corpus = {t: index.cf(t) / total_terms for t in pool_counts}
    relevance, trace = distill_relevance_model(
        pool_counts, p_nonrel, p_corpus, lambda1, lambda2, params.em_max_iters, params.em_tol
    )
    diagnostics = {
        "em_iterations": len(trace) - 1,
        "log_likelihood": trace[-1],
        "converged": len(trace) > 1 and trace[-1] - trace[-2] < params.em_tol,
    }
    estimate = _lm_update(original, {t: p for t, p in relevance.items() if p > 0.0}, params)
    return estimate._replace(diagnostics=diagnostics)


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
    bm25 = doc_weighting(index, "bm25", params)
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
    num_docs = index.num_docs
    num_rel = len(pools.relevant)
    if num_rel == 0:
        return Estimate(query_count_vector(query_terms), True, {})

    df_pool = forward_sum(index, pools.relevant, lambda rows, lengths, counts: 1)
    in_pool = np.array(list(df_pool.values()), dtype=float)  # counts below 2^53: exact floats
    in_all = np.array([index.df(term) for term in df_pool], dtype=float)
    p_rel = (in_pool + in_all / num_docs) / (num_rel + 1)
    p_nonrel = (in_all - in_pool + in_all / num_docs) / (num_docs - num_rel + 1)
    kept = (in_all < num_docs) & (p_nonrel < 1.0)  # where the log-odds is defined
    p_rel, p_nonrel = p_rel[kept], p_nonrel[kept]
    log_odds = log_each(p_rel * (1.0 - p_nonrel) / (p_nonrel * (1.0 - p_rel)))
    excluded = kept.size - log_odds.size
    feedback = dict(zip(itertools.compress(df_pool, kept.tolist()), log_odds.tolist()))
    feedback = _top_terms(feedback, params.num_expansion_terms)

    original: dict[str, float] = {}
    for term in sorted(set(query_terms)):
        df_all = index.df(term)
        if df_all == 0 or df_all >= num_docs:
            excluded += 1
            continue
        original[term] = math.log((num_docs - df_all) / df_all)

    combined = _interpolate(original, feedback, params.interp_lambda)
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
