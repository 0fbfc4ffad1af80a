"""The retrieve, show, judge, re-estimate loop and freezing run lists.

A session splits a fixed judgment budget into ``iterations`` rounds of
``docs_per_iter`` documents.  Documents already shown stay frozen in display
order; after the last round one more retrieval with the fully updated model
fills the tail.  With a single iteration this is exactly one-shot top-k
relevance feedback.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields
from itertools import repeat
from typing import Callable, Iterable, TextIO

from .corpus_io import QrelSet, Topic, check_count, check_field
from .feedback import (  # the estimators are looked up by name in _retrieve
    MODELS,
    FeedbackPools,
    ModelParams,
    estimate_distillation,
    estimate_prob,
    estimate_rm3,
    estimate_rocchio,
    model_spec,
)
from .index import CollectionIndex, doc_vector
from .ranking import ScoredList, retrieve_dot, retrieve_kl

MODEL_KINDS = tuple(MODELS)

JudgmentProvider = Callable[[str, str], bool]


class SessionAborted(Exception):
    """Raised by a judgment provider to end the session early."""


@dataclass(frozen=True)
class BudgetConfig:
    docs_per_iter: int
    iterations: int
    final_depth: int = 1000

    def __post_init__(self) -> None:
        for f in fields(self):
            check_count(f.name, getattr(self, f.name))
        if self.final_depth < self.total_budget:
            raise ValueError(
                "final_depth must cover the judgment budget "
                f"({self.docs_per_iter} x {self.iterations})"
            )

    @property
    def total_budget(self) -> int:
        return self.docs_per_iter * self.iterations


@dataclass
class IterationRecord:
    iteration: int
    shown: list[str]
    judgments: list[tuple[str, bool]]
    model_summary: dict


@dataclass
class FreezingRunList:
    query_id: str
    frozen: list[str]
    tail: list[str]
    records: list[IterationRecord] = field(default_factory=list)
    aborted: bool = False

    @property
    def doc_ids(self) -> list[str]:
        return self.frozen + self.tail


def make_qrels_judge(qrels: QrelSet) -> JudgmentProvider:
    """True labels: relevant iff the qrels grade is >= 1; unjudged pairs are
    non-relevant."""
    return qrels.is_relevant


def _retrieve(
    index: CollectionIndex,
    topic: Topic,
    model_kind: str,
    params: ModelParams,
    pools: FeedbackPools,
    exclude: Iterable[str],
    depth: int,
) -> tuple[ScoredList, dict]:
    """One retrieval under the model re-estimated from the current pools, by
    the scorer its kind names.  With empty pools every model degenerates to
    its initial ranker: QL for the language-model estimators, BM25 for the
    vector ones.
    """
    # looked up at call time so perfbench's tracer can wrap the estimator and the scorers
    estimate = globals()[model_spec(model_kind).estimator](index, topic.terms, pools, params)
    model = estimate.model
    retrieve = retrieve_kl if model.kind == "lm" else retrieve_dot
    scored = retrieve(index, model, params, exclude, depth)
    summary = {"model": model_kind, "fallback": estimate.fallback, "terms": len(model.weights)}
    return scored, summary


def initial_ranking(
    index: CollectionIndex, topic: Topic, model_kind: str, params: ModelParams, depth: int = 1000
) -> ScoredList:
    """The ranking a session starts from, before any feedback."""
    scored, _ = _retrieve(index, topic, model_kind, params, FeedbackPools(), (), depth)
    return scored


def run_irf(
    index: CollectionIndex,
    topic: Topic,
    model_kind: str,
    params: ModelParams,
    budget: BudgetConfig,
    judge: JudgmentProvider,
) -> FreezingRunList:
    """Run one feedback session for one topic.

    Each iteration shows the top unshown documents of the current model,
    collects judgments, and grows the pools; shown documents are excluded at
    retrieval time from every later ranking.  If the provider aborts, the
    partial result is still assembled.
    """
    pools = FeedbackPools()
    shown: list[str] = []
    records: list[IterationRecord] = []
    aborted = False

    for iteration in range(1, budget.iterations + 1):
        scored, summary = _retrieve(index, topic, model_kind, params, pools, shown, budget.docs_per_iter)
        page = scored.doc_ids
        if not page:
            records.append(IterationRecord(iteration, [], [], summary))
            break
        judgments: list[tuple[str, bool]] = []
        try:
            for doc_id in page:
                judgments.append((doc_id, bool(judge(topic.query_id, doc_id))))
        except SessionAborted:
            aborted = True
        shown.extend(page)
        for doc_id, is_relevant in judgments:
            pools.add(doc_id, is_relevant)
        records.append(IterationRecord(iteration, page, judgments, summary))
        if aborted:
            break

    tail: list[str] = []
    tail_depth = budget.final_depth - len(shown)
    if tail_depth > 0:
        scored, _ = _retrieve(index, topic, model_kind, params, pools, shown, tail_depth)
        tail = scored.doc_ids
    return FreezingRunList(topic.query_id, shown, tail, records, aborted)


def interactive_judge(
    in_stream: TextIO,
    out_stream: TextIO,
    snippet_fn: Callable[[str], str] | None = None,
) -> JudgmentProvider:
    """Ask a human for y/n judgments on a terminal; EOF aborts the session."""

    def judge(query_id: str, doc_id: str) -> bool:
        snippet = f"  {snippet_fn(doc_id)}" if snippet_fn else ""
        out_stream.write(f"[{query_id}] {doc_id}{snippet}\n")
        while True:
            out_stream.write("relevant? [y/n] ")
            out_stream.flush()
            line = in_stream.readline()
            if line == "":
                raise SessionAborted("end of input")
            answer = line.strip().lower()
            if answer in ("y", "yes"):
                return True
            if answer in ("n", "no"):
                return False
            out_stream.write("please answer y or n\n")

    return judge


def term_snippet(index: CollectionIndex, doc_id: str, max_terms: int = 12) -> str:
    """Most frequent terms of a document, the closest thing to a preview the
    index can reconstruct."""
    check_count("max_terms", max_terms, least=0)
    top = sorted(doc_vector(index, doc_id).items(), key=lambda kv: (-kv[1], kv[0]))[:max_terms]
    return " ".join(term for term, _ in top)


def write_freezing_run(runs: Iterable[FreezingRunList], path, run_tag: str = "irfkit") -> None:
    """TREC run file: frozen prefix then tail, with synthetic strictly
    decreasing scores so score-sorting consumers preserve the list order:
    rank r of n documents scores n - r + 1.  Every name is checked before the
    file is opened; each rank's and score's text is formatted once per call, in
    two tables as long as the longest run, and each run is written in one join."""
    check_field(run_tag, "run tag")
    runs = list(runs)
    longest = 0
    for run in runs:  # before the file is opened
        check_field(run.query_id, "query id")
        docs = run.doc_ids
        joined = " ".join(docs)  # one pass in C for whitespace; only then, or if not ASCII, each id
        if joined.split() != docs or not joined.isascii():
            for doc_id in docs:
                check_field(doc_id, "doc id")
        longest = max(longest, len(docs))
    ranks = [f" {rank} " for rank in range(1, longest + 1)]
    scores = [f"{float(score):.6f} {run_tag}\n" for score in range(1, longest + 1)]
    with open(path, "w", encoding="utf-8") as handle:
        for run in runs:
            docs = run.doc_ids
            pieces = zip(repeat(f"{run.query_id} Q0 "), docs, ranks, reversed(scores[: len(docs)]))
            handle.write("".join(map("".join, pieces)))


def write_session_log(runs: Iterable[FreezingRunList], path) -> None:
    """One JSON line per iteration: shown docs, judgments, model summary."""
    with open(path, "w", encoding="utf-8") as handle:
        for run in runs:
            for record in run.records:
                handle.write(
                    json.dumps(
                        {
                            "query_id": run.query_id,
                            "iteration": record.iteration,
                            "shown": record.shown,
                            "judgments": [[doc, rel] for doc, rel in record.judgments],
                            "model": record.model_summary,
                        },
                        sort_keys=True,
                    )
                    + "\n"
                )
