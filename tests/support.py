"""Inputs and reference values shared by the test modules."""

from __future__ import annotations

import itertools
import math
import random
import re
from array import array
from collections import Counter, defaultdict
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from irfkit import krovetz
from irfkit.corpus_io import QrelSet, TermSequence, Topic, check_field, not_one_field
from irfkit.evaluation import SigTestResult
from irfkit.exact import log_each, ordered_sum
from irfkit.feedback import Estimate, FeedbackError, FeedbackPools, ModelParams, _centroid, _check_lambdas, mle
from irfkit.index import CollectionIndex, IndexDataError, Postings, _check_analysis, _transpose, forward_sum
from irfkit.ranking import QueryModel, doc_weighting, query_count_vector, query_language_model


def random_corpus(
    num_docs: int,
    vocab_size: int = 50,
    min_len: int = 3,
    max_len: int = 12,
    seed: int = 0,
    prefix: str = "d",
) -> list[TermSequence]:
    rng = random.Random(seed)
    vocab = [f"w{i:03d}" for i in range(vocab_size)]
    docs = []
    for i in range(num_docs):
        length = rng.randint(min_len, max_len)
        terms = tuple(rng.choice(vocab) for _ in range(length))
        docs.append(TermSequence(f"{prefix}{i:04d}", terms))
    return docs


def random_topics(
    num_topics: int, vocab_size: int = 50, max_terms: int = 3, seed: int = 1
) -> list[Topic]:
    rng = random.Random(seed)
    vocab = [f"w{i:03d}" for i in range(vocab_size)]
    topics = []
    for i in range(num_topics):
        n = rng.randint(1, max_terms)
        topics.append(Topic(f"q{i:03d}", tuple(rng.choice(vocab) for _ in range(n))))
    return topics


def random_qrels(
    topics: Sequence[Topic],
    docs: Sequence[TermSequence],
    relevant_prob: float = 0.15,
    seed: int = 2,
) -> QrelSet:
    rng = random.Random(seed)
    qrels = QrelSet()
    for topic in topics:
        for doc in docs:
            if rng.random() < relevant_prob:
                qrels.set(topic.query_id, doc.doc_id, rng.randint(1, 2))
            elif rng.random() < 0.1:
                qrels.set(topic.query_id, doc.doc_id, 0)
    return qrels


def normalize_per_token(text: str, stoplist: frozenset[str] = frozenset(), stemmer: str = "krovetz") -> list[str]:
    """Normalization as first written: every token, repeated or not, is
    casefolded, stopped, stemmed and stopped again."""
    stem = krovetz.stem if stemmer == "krovetz" else lambda w: w
    out = []
    for token in re.findall(r"[^\W_]+", text):
        token = token.casefold()
        if token in stoplist:
            continue
        token = stem(token)
        if token and token not in stoplist:
            out.append(token)
    return out


def reference_build_index(docs: Iterable[TermSequence], analysis: dict | None = None) -> CollectionIndex:
    """``build_index`` as first written: one ``Counter`` per document, its
    entries in order of first use, and each term checked on its own."""
    _check_analysis({} if analysis is None else analysis, "analysis")
    doc_ids: list[str] = []
    term_ids: defaultdict[str, int] = defaultdict()
    term_ids.default_factory = term_ids.__len__
    term_column, count_column, ends = array("i"), array("i"), array("q", [0])
    seen: set[str] = set()
    for seq in docs:
        if seq.doc_id in seen:
            raise IndexDataError(f"duplicate doc_id {seq.doc_id!r}")
        check_field(seq.doc_id, "doc_id", IndexDataError)
        seen.add(seq.doc_id)
        doc_ids.append(seq.doc_id)
        counts = Counter(seq.terms)
        term_column.extend(map(term_ids.__getitem__, counts))
        count_column.extend(counts.values())
        ends.append(len(term_column))
    terms = sorted(term_ids)
    row_of_id = np.empty(len(terms), dtype=np.int32)
    row_of_id[[term_ids[term] for term in terms]] = np.arange(len(terms))
    rows = row_of_id[np.frombuffer(term_column, dtype=np.int32)]
    columns = _transpose(
        np.frombuffer(ends, dtype=np.int64), rows, np.frombuffer(count_column, dtype=np.int32), len(terms)
    )
    postings = Postings(terms, *columns)
    for row, term in enumerate(terms):
        if flaw := not_one_field(term):
            doc_id = doc_ids[postings.docs[postings.offsets[row]]]
            raise IndexDataError(f"doc {doc_id!r} has an empty term or one with {flaw}: {term!r}")
    return CollectionIndex(doc_ids, postings, analysis)


def bm25_weight(index: CollectionIndex, term: str, doc_id: str, params: ModelParams) -> float:
    """Okapi weight of a term in one document, as the Rocchio centroid reads it."""
    return forward_sum(index, [doc_id], doc_weighting(index, "bm25", params)).get(term, 0.0)


def fisher_exact_by_blocks(per_query_a: Mapping[str, float], per_query_b: Mapping[str, float]) -> SigTestResult:
    """The exact sign-flip test as first written: every one of the 2^n sign
    patterns' means is a row of a (4096 x n) matrix product, and the row is
    counted when its absolute value reaches the observed one."""
    block = 2**12
    query_ids = sorted(per_query_a)
    diffs = np.array([per_query_a[q] - per_query_b[q] for q in query_ids])
    n = len(diffs)
    observed = float(diffs.mean())
    threshold = abs(observed) - 1e-12
    count = 0
    for start in range(0, 2**n, block):
        size = min(2**n - start, block)
        bits = (np.arange(start, start + size, dtype=np.uint32)[:, None] >> np.arange(n)) & 1
        means = (bits * 2.0 - 1.0) @ diffs / n
        count += int((np.abs(means) >= threshold).sum())
    return SigTestResult(count / 2**n, observed, 2**n, 0)


def reference_distill(
    pool_counts: Mapping[str, int],
    p_nonrel: Mapping[str, float],
    p_corpus: Mapping[str, float],
    lambda1: float,
    lambda2: float,
    max_iters: int = 50,
    tol: float = 1e-6,
) -> tuple[dict[str, float], list[float]]:
    """The distillation EM as first written, one term at a time in every
    iteration: ``feedback.distill_relevance_model`` without its argument
    checks, which must return the same floats."""
    terms = sorted(t for t, c in pool_counts.items() if c > 0)
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


# The estimators as they were written on str dicts, before they kept postings
# rows: each must give the same model, weights and term order included, the
# same fallback and the same diagnostics.


def reference_top_terms(
    weights: dict[str, float], m: int, key: Callable[[float], float] = float
) -> dict[str, float]:
    """The m terms with the largest key(weight), ties to the smaller term, in
    that order; ``weights`` itself when it holds no more than m terms."""
    if len(weights) <= m:
        return weights
    return dict(sorted(weights.items(), key=lambda kv: (-key(kv[1]), kv[0]))[:m])


def reference_interpolate(
    original: dict[str, float], expansion: dict[str, float], interp_lambda: float
) -> dict[str, float]:
    out: dict[str, float] = {}
    for term in sorted(set(original) | set(expansion)):
        weight = interp_lambda * original.get(term, 0.0) + (1.0 - interp_lambda) * expansion.get(term, 0.0)
        if weight != 0.0:
            out[term] = weight
    return out


def reference_lm_update(original: QueryModel, relevance: dict[str, float], params: ModelParams) -> Estimate:
    if len(relevance) > params.num_expansion_terms:
        relevance = reference_top_terms(relevance, params.num_expansion_terms)
        total = ordered_sum(relevance.values())
        relevance = {t: w / total for t, w in relevance.items()}
    return Estimate(QueryModel.lm(reference_interpolate(original.weights, relevance, params.interp_lambda)), False, {})


def reference_rm3(
    index: CollectionIndex, query_terms: Sequence[str], pools: FeedbackPools, params: ModelParams
) -> Estimate:
    original = query_language_model(query_terms)
    if not pools.relevant:
        return Estimate(original, True, {})
    return reference_lm_update(original, mle(index, pools.relevant, mode="averaged"), params)


def reference_distillation(
    index: CollectionIndex, query_terms: Sequence[str], pools: FeedbackPools, params: ModelParams
) -> Estimate:
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
    _check_lambdas(lambda1, lambda2)
    if not pool_counts:
        raise FeedbackError("distillation requires a non-empty relevant pool")
    relevance, trace = reference_distill(
        pool_counts, p_nonrel, p_corpus, lambda1, lambda2, params.em_max_iters, params.em_tol
    )
    diagnostics = {
        "em_iterations": len(trace) - 1,
        "log_likelihood": trace[-1],
        "converged": len(trace) > 1 and trace[-1] - trace[-2] < params.em_tol,
    }
    estimate = reference_lm_update(original, {t: p for t, p in relevance.items() if p > 0.0}, params)
    return estimate._replace(diagnostics=diagnostics)


def reference_rocchio(
    index: CollectionIndex, query_terms: Sequence[str], pools: FeedbackPools, params: ModelParams
) -> Estimate:
    bm25 = doc_weighting(index, "bm25", params)
    vector = dict(query_count_vector(query_terms).weights)
    query_term_set = set(vector)
    sign = -1.0 if params.subtract_nonrelevant else 1.0
    for pool, coefficient in (pools.relevant, params.beta), (pools.nonrelevant, sign * params.gamma):
        if pool and coefficient != 0.0:
            for term, weight in _centroid(index, pool, bm25).items():
                vector[term] = vector.get(term, 0.0) + coefficient * weight
    expansion = {t: w for t, w in vector.items() if t not in query_term_set}
    kept = reference_top_terms(expansion, params.num_expansion_terms, abs)
    vector = {t: w for t, w in vector.items() if t in query_term_set or t in kept}
    fallback = not pools.relevant and not pools.nonrelevant
    return Estimate(QueryModel.vector(vector, "bm25"), fallback, {})


def reference_prob(
    index: CollectionIndex, query_terms: Sequence[str], pools: FeedbackPools, params: ModelParams
) -> Estimate:
    num_docs = index.num_docs
    num_rel = len(pools.relevant)
    if num_rel == 0:
        return Estimate(query_count_vector(query_terms), True, {})
    df_pool = forward_sum(index, pools.relevant, lambda rows, lengths, counts: 1)
    in_pool = np.array(list(df_pool.values()), dtype=float)
    in_all = np.array([index.df(term) for term in df_pool], dtype=float)
    p_rel = (in_pool + in_all / num_docs) / (num_rel + 1)
    p_nonrel = (in_all - in_pool + in_all / num_docs) / (num_docs - num_rel + 1)
    kept = (in_all < num_docs) & (p_nonrel < 1.0)
    p_rel, p_nonrel = p_rel[kept], p_nonrel[kept]
    log_odds = log_each(p_rel * (1.0 - p_nonrel) / (p_nonrel * (1.0 - p_rel)))
    excluded = kept.size - log_odds.size
    feedback = dict(zip(itertools.compress(df_pool, kept.tolist()), log_odds.tolist()))
    feedback = reference_top_terms(feedback, params.num_expansion_terms)
    original: dict[str, float] = {}
    for term in sorted(set(query_terms)):
        df_all = index.df(term)
        if df_all == 0 or df_all >= num_docs:
            excluded += 1
            continue
        original[term] = math.log((num_docs - df_all) / df_all)
    combined = reference_interpolate(original, feedback, params.interp_lambda)
    return Estimate(QueryModel.vector(combined, "mle"), False, {"excluded": excluded})
