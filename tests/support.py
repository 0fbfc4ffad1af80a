"""Inputs and reference values shared by the test modules."""

from __future__ import annotations

import random
from typing import Sequence

from irfkit.corpus_io import QrelSet, TermSequence, Topic
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


def bm25_weight(index: CollectionIndex, term: str, doc_id: str, params: ModelParams) -> float:
    """Okapi weight of a term in one document, as the Rocchio centroid reads it."""
    return forward_sum(index, [doc_id], doc_weighting(index, "bm25", params)).get(term, 0.0)
