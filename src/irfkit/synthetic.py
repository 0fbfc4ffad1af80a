"""Deterministic synthetic corpora for experiments and stress tests."""

from __future__ import annotations

import random

from .corpus_io import QrelSet, TermSequence, Topic


def topical_corpus(
    num_queries: int = 25,
    rel_per_query: int = 40,
    distractors_per_query: int = 40,
    background_docs: int = 3000,
    doc_len: int = 45,
    topic_vocab: int = 10,
    background_vocab: int = 400,
    query_term_prob: float = 0.7,
    topic_terms_per_doc: int = 14,
    seed: int = 0,
) -> tuple[list[TermSequence], list[Topic], QrelSet]:
    """Passage collection with two planted topics per query.

    Every query has a relevant topic and a look-alike distractor topic.  Both
    kinds of passage carry the (shared) query terms with the same
    probability, so the initial ranking cannot tell them apart; only the
    topic-specific vocabulary revealed by judged passages separates them.
    Passage ids are assigned after shuffling so ties do not favour either
    side.
    """
    rng = random.Random(seed)
    background = [f"b{i:03d}" for i in range(background_vocab)]

    def passage(query_idx: int | None, flavor: str) -> list[str]:
        terms: list[str] = []
        if query_idx is not None:
            for shared in (f"q{query_idx:02d}s0", f"q{query_idx:02d}s1"):
                if rng.random() < query_term_prob:
                    terms.extend([shared] * rng.randint(1, 2))
            vocab = [f"t{query_idx:02d}{flavor}{j}" for j in range(topic_vocab)]
            terms.extend(rng.choice(vocab) for _ in range(topic_terms_per_doc))
        while len(terms) < doc_len:
            terms.append(rng.choice(background))
        rng.shuffle(terms)
        return terms

    labelled: list[tuple[list[str], str | None]] = []
    for qi in range(num_queries):
        for _ in range(rel_per_query):
            labelled.append((passage(qi, "r"), f"q{qi:02d}"))
        for _ in range(distractors_per_query):
            labelled.append((passage(qi, "d"), None))
    for _ in range(background_docs):
        labelled.append((passage(None, ""), None))
    rng.shuffle(labelled)

    docs = []
    qrels = QrelSet()
    for i, (terms, rel_query) in enumerate(labelled):
        doc_id = f"p{i:05d}"
        docs.append(TermSequence(doc_id, tuple(terms)))
        if rel_query is not None:
            qrels.set(rel_query, doc_id, 1)
    topics = [
        Topic(f"q{qi:02d}", (f"q{qi:02d}s0", f"q{qi:02d}s1")) for qi in range(num_queries)
    ]
    return docs, topics, qrels
