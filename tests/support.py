"""Inputs and reference values shared by the test modules."""

from __future__ import annotations

import math
import random
import re
from typing import Mapping, Sequence

import numpy as np

from irfkit import krovetz
from irfkit.corpus_io import QrelSet, TermSequence, Topic
from irfkit.evaluation import SigTestResult
from irfkit.exact import ordered_sum
from irfkit.feedback import ModelParams
from irfkit.index import CollectionIndex, forward_sum
from irfkit.ranking import doc_weighting


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
