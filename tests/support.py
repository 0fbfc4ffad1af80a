"""Inputs and reference values shared by the test modules."""

from __future__ import annotations

import random
import re
from typing import Mapping, Sequence

import numpy as np

from irfkit import krovetz
from irfkit.corpus_io import QrelSet, TermSequence, Topic
from irfkit.evaluation import SigTestResult
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
