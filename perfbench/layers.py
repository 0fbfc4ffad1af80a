"""Which irfkit functions the traced run wraps, and the per-layer metrics
derived from their spans.

Each function is wrapped where its callers look it up: ``irfkit.session``
imported the estimators and scorers by name, ``irfkit.cli`` imported
``load_index``, and ``normalize`` reads ``irfkit.krovetz.stem`` at call time.
"""

from __future__ import annotations

import statistics
from collections import defaultdict
from pathlib import Path

from irfkit import cli, corpus_io, evaluation, index, krovetz, session

from spans import Span, Tracer
from workloads import BUDGETS, budget_name, snapshot_bytes

MODEL_ESTIMATORS = {
    "rm3": "estimate_rm3",
    "distill": "estimate_distillation",
    "rocchio": "estimate_rocchio",
    "prob": "estimate_prob",
}
CLI_COMMANDS = ("run", "eval", "compare", "sweep")
WRITERS = ("session.write_freezing_run", "session.write_session_log", "cli._write_echo")


def _retrieve_hook(span: Span, call: dict, result) -> None:
    span.counts["postings"] = sum(call["index"].df(term) for term in call["model"].weights)
    span.counts["returned"] = len(result.entries)


def _estimate_hook(span: Span, call: dict, result) -> None:
    pools = call["pools"]
    model = result[0] if isinstance(result, tuple) else result
    span.counts["pool_docs"] = len(pools.relevant) + len(pools.nonrelevant)
    span.counts["model_terms"] = len(model.weights)


def _session_hook(span: Span, call: dict, result) -> None:
    budget = call["budget"]
    span.tag = f"{call['model_kind']}.{budget_name(budget.docs_per_iter, budget.iterations)}"


def _build_hook(span: Span, call: dict, result) -> None:
    span.counts["postings_entries"] = sum(len(plist) for plist in result.postings.values())


def _save_hook(span: Span, call: dict, result) -> None:
    span.counts["snapshot_bytes"] = snapshot_bytes(Path(call["directory"]))


def _fisher_hook(span: Span, call: dict, result) -> None:
    span.counts["sign_patterns"] = result.samples


def install(tracer: Tracer) -> None:
    """Wrap the public functions of every layer; undo with tracer.restore()."""
    wrap = tracer.wrap
    wrap(corpus_io, "parse_trec_collection", "corpus_io.parse_trec_collection", "gen")
    wrap(corpus_io, "normalize_collection", "corpus_io.normalize_collection", "gen")
    wrap(corpus_io, "normalize", "corpus_io.normalize", "agg")
    wrap(corpus_io, "parse_topics", "corpus_io.parse_topics")
    wrap(corpus_io, "parse_qrels", "corpus_io.parse_qrels")
    wrap(krovetz, "stem", "krovetz.stem", "leaf")
    wrap(index, "build_index", "index.build_index", hook=_build_hook)
    wrap(index, "save_index", "index.save_index", hook=_save_hook)
    wrap(index, "load_index", "index.load_index")
    wrap(cli, "load_index", "index.load_index")
    wrap(session, "retrieve_kl", "ranking.retrieve_kl", hook=_retrieve_hook)
    wrap(session, "retrieve_dot", "ranking.retrieve_dot", hook=_retrieve_hook)
    for function in MODEL_ESTIMATORS.values():
        wrap(session, function, f"feedback.{function}", hook=_estimate_hook)
    wrap(session, "run_irf", "session.run_irf", hook=_session_hook)
    wrap(session, "write_freezing_run", "session.write_freezing_run")
    wrap(session, "write_session_log", "session.write_session_log")
    make_judge = session.make_qrels_judge
    tracer.patch(session, "make_qrels_judge",
                 lambda qrels: tracer.leaf(make_judge(qrels), "session.judge"))
    wrap(cli, "_write_echo", "cli._write_echo")
    wrap(evaluation, "evaluate_run", "evaluation.evaluate_run")
    wrap(evaluation, "fisher_randomization", "evaluation.fisher_randomization",
         hook=_fisher_hook)
    wrap(evaluation, "cross_validate", "evaluation.cross_validate")


def _unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if "_ms" in name or ".ms." in name:
        return "ms"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith("_bytes"):
        return "B"
    if name.endswith("_pct"):
        return "%"
    if ".share." in name or name.endswith(("_ratio", "_per_token")):
        return "ratio"
    return "count"


PER_LAYER_NAMES = [
    "corpus_io.parse_s", "corpus_io.normalize_s", "corpus_io.terms_per_token",
    "krovetz.stem_calls", "krovetz.stem_s",
    "index.build_s", "index.save_s", "index.load_s", "index.snapshot_bytes",
    "index.postings_entries",
    "ranking.retrieve_ms.kl", "ranking.retrieve_ms.dot", "ranking.retrieve_calls",
    "ranking.postings_touched", "ranking.returned_ratio",
    *(f"feedback.estimate_ms.{model}" for model in MODEL_ESTIMATORS),
    "feedback.estimate_calls", "feedback.pool_docs", "feedback.model_terms",
    "session.self_ms", "session.judge_ms", "session.judge_calls",
    *(f"session.ms.{model}.{budget_name(k, n)}" for model in MODEL_ESTIMATORS
      for k, n in BUDGETS),
    *(f"{layer}.share.{model}" for layer in ("ranking", "feedback")
      for model in MODEL_ESTIMATORS),
    "evaluation.fisher_ms", "evaluation.sign_patterns", "evaluation.fisher_rss_mb",
    "evaluation.evaluate_run_ms", "evaluation.cross_validate_self_ms",
    *(f"cli.self_ms.{command}" for command in CLI_COMMANDS), "cli.write_ms",
    "trace.overhead_pct",
]
PER_LAYER = [(name, _unit(name)) for name in PER_LAYER_NAMES]


def _mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def per_layer_metrics(spans: list[Span], terms_per_token: float,
                      overhead_pct: float) -> dict[str, float]:
    """Per-layer figures of one traced run.

    Times per call are means over the calls made; ``*_calls`` and other
    per-operation counts are divided by the sessions (or, for the ingest
    stages, the timed operations) they occurred in.  A layer the workload
    does not exercise reads 0.
    """
    by_name: dict[str, list[Span]] = defaultdict(list)
    for span in spans:
        by_name[span.name].append(span)
    # set-up is traced too, for index.build_s and index.save_s on the
    # workloads that build in set-up; per-operation figures leave it out
    timed = [s for s in spans if s.op is not None and not s.op.startswith("setup/")]
    ops = [s for s in timed if s.name.startswith("bench.")]
    per_op = 1 / len(ops) if ops else 0.0
    sessions = by_name["session.run_irf"]
    per_session = 1 / len(sessions) if sessions else 0.0

    def leaf_total(name: str, field: int) -> int:
        return sum(s.leaves.get(name, (0, 0, 0))[field] for s in timed)

    def durations(name: str) -> list[int]:
        return [s.duration for s in by_name[name]]

    out: dict[str, float] = {}
    out["corpus_io.parse_s"] = sum(s.duration for s in timed
                                   if s.name == "corpus_io.parse_trec_collection") * 1e-9 * per_op
    normalize_self = (sum(s.self_ns for s in by_name["corpus_io.normalize_collection"])
                      + leaf_total("corpus_io.normalize", 2))
    out["corpus_io.normalize_s"] = normalize_self * 1e-9 * per_op
    out["corpus_io.terms_per_token"] = terms_per_token
    out["krovetz.stem_calls"] = leaf_total("krovetz.stem", 0) * per_op
    out["krovetz.stem_s"] = leaf_total("krovetz.stem", 1) * 1e-9 * per_op

    out["index.build_s"] = _mean(durations("index.build_index")) * 1e-9
    out["index.save_s"] = _mean(durations("index.save_index")) * 1e-9
    out["index.load_s"] = _mean(durations("index.load_index")) * 1e-9
    out["index.snapshot_bytes"] = _mean(s.counts["snapshot_bytes"]
                                        for s in by_name["index.save_index"])
    out["index.postings_entries"] = _mean(s.counts["postings_entries"]
                                          for s in by_name["index.build_index"])

    retrievals = by_name["ranking.retrieve_kl"] + by_name["ranking.retrieve_dot"]
    out["ranking.retrieve_ms.kl"] = _mean(durations("ranking.retrieve_kl")) * 1e-6
    out["ranking.retrieve_ms.dot"] = _mean(durations("ranking.retrieve_dot")) * 1e-6
    out["ranking.retrieve_calls"] = len(retrievals) * per_session
    touched = sum(s.counts["postings"] for s in retrievals)
    out["ranking.postings_touched"] = touched / len(retrievals) if retrievals else 0.0
    out["ranking.returned_ratio"] = (
        sum(s.counts["returned"] for s in retrievals) / touched if touched else 0.0
    )

    estimates = []
    for model, function in MODEL_ESTIMATORS.items():
        calls = by_name[f"feedback.{function}"]
        estimates += calls
        out[f"feedback.estimate_ms.{model}"] = _mean(s.duration for s in calls) * 1e-6
    out["feedback.estimate_calls"] = len(estimates) * per_session
    out["feedback.pool_docs"] = _mean(s.counts["pool_docs"] for s in estimates)
    out["feedback.model_terms"] = _mean(s.counts["model_terms"] for s in estimates)

    out["session.self_ms"] = _mean(s.self_ns for s in sessions) * 1e-6
    judge = [s.leaves.get("session.judge", (0, 0, 0)) for s in sessions]
    out["session.judge_ms"] = sum(j[1] for j in judge) * 1e-6 * per_session
    out["session.judge_calls"] = sum(j[0] for j in judge) * per_session
    by_combo: dict[str, list[int]] = defaultdict(list)
    for s in sessions:
        by_combo[s.tag].append(s.duration)
    for model in MODEL_ESTIMATORS:
        for k, n in BUDGETS:
            combo = f"{model}.{budget_name(k, n)}"
            values = by_combo.get(combo)
            out[f"session.ms.{combo}"] = statistics.median(values) * 1e-6 if values else 0.0

    # self time of each layer inside the sessions of each model
    session_of: dict[int, Span] = {}
    parent_of = {s.id: s.parent for s in spans}
    by_id = {s.id: s for s in spans}
    for s in spans:
        ancestor = s.parent
        while ancestor is not None and by_id[ancestor].name != "session.run_irf":
            ancestor = parent_of[ancestor]
        if ancestor is not None:
            session_of[s.id] = by_id[ancestor]
    layer_self: dict[tuple[str, str], int] = defaultdict(int)
    for span_id, owner in session_of.items():
        layer = by_id[span_id].name.split(".", 1)[0]
        layer_self[(owner.tag.split(".", 1)[0], layer)] += by_id[span_id].self_ns
    for layer in ("ranking", "feedback"):
        for model in MODEL_ESTIMATORS:
            total = sum(s.duration for s in sessions if s.tag.startswith(model + "."))
            out[f"{layer}.share.{model}"] = layer_self[(model, layer)] / total if total else 0.0

    fisher = by_name["evaluation.fisher_randomization"]
    out["evaluation.fisher_ms"] = _mean(s.duration for s in fisher) * 1e-6
    out["evaluation.sign_patterns"] = _mean(s.counts["sign_patterns"] for s in fisher)
    out["evaluation.fisher_rss_mb"] = max((s.maxrss_kb for s in fisher), default=0) / 1024
    out["evaluation.evaluate_run_ms"] = _mean(durations("evaluation.evaluate_run")) * 1e-6
    out["evaluation.cross_validate_self_ms"] = _mean(
        s.self_ns for s in by_name["evaluation.cross_validate"]) * 1e-6

    for command in CLI_COMMANDS:
        out[f"cli.self_ms.{command}"] = _mean(s.self_ns for s in by_name[f"bench.{command}"]) * 1e-6
    runs = by_name["bench.run"]
    writes = sum(sum(durations(name)) for name in WRITERS)
    out["cli.write_ms"] = writes * 1e-6 / len(runs) if runs else 0.0
    out["trace.overhead_pct"] = overhead_pct
    return out


def rss_by_stage(spans: list[Span]) -> dict[str, float]:
    """Peak RSS (MB, getrusage of this process) seen at the end of each kind
    of span: a high-water mark, so a stage's figure includes earlier peaks."""
    peaks: dict[str, int] = {}
    for s in spans:
        peaks[s.name] = max(peaks.get(s.name, 0), s.maxrss_kb)
    return {name: kb / 1024 for name, kb in sorted(peaks.items())}
