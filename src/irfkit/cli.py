"""Command-line pipeline: index, run, eval, compare, sweep.

Exit codes: 0 on success, 1 on data errors, 2 on usage errors.  Every run
writes a resolved-config echo file next to its output so experiments can be
reproduced byte for byte.  The library checks its inputs; a command reports
the ``ValueError`` it raises as a data error.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import corpus_io, evaluation, feedback, session
from .exact import ordered_sum
from .feedback import write_key_values as _write_echo
from .index import CollectionIndex, build_index, load_index, save_index

USAGE_ERROR = 2
DATA_ERROR = 1


def _emit(report: list[str], output: str | None) -> None:
    """Write the report's lines to ``output``, if given, and to stdout."""
    text = "\n".join(report) + "\n"
    if output:
        Path(output).write_text(text, "utf-8")
    print(text, end="")


def _session_setup(args) -> tuple[CollectionIndex, list[corpus_io.Topic], session.BudgetConfig]:
    """The index, the topics analysed the way the index was, and the budget."""
    index = load_index(args.index)
    analysis = index.analysis
    topics = corpus_io.parse_topics(
        args.topics,
        args.topics_format,
        frozenset(analysis.get("stoplist", ())),
        analysis.get("stemmer", "krovetz"),
    )
    return index, topics, session.BudgetConfig(args.docs_per_iter, args.iterations, args.final_depth)


def cmd_index(args) -> int:
    stoplist = corpus_io.load_stoplist(args.stoplist)
    raw = corpus_io.parse_trec_collection(args.corpus, args.format)
    sequences = corpus_io.normalize_collection(raw, stoplist, args.stemmer)
    analysis = {"stemmer": args.stemmer, "stoplist": sorted(stoplist)}
    index = build_index(sequences, analysis)
    save_index(index, args.output)
    stats = index.stats
    print(f"documents      {stats.num_docs}")
    print(f"avg doc length {stats.avg_doc_len:.2f}")
    print(f"vocabulary     {stats.vocab_size}")
    print(f"total terms    {stats.total_terms}")
    print(f"index saved to {args.output}")
    return 0


def cmd_run(args) -> int:
    if not args.interactive and args.qrels is None:
        print("error: --qrels is required unless --interactive", file=sys.stderr)
        return USAGE_ERROR
    corpus_io.check_field(args.run_tag, "run tag")  # before the sessions ask for any judgment
    overrides = dict(feedback.split_key_value(item, "--set") for item in args.set or [])
    params = feedback.load_params(args.params, overrides)
    index, topics, budget = _session_setup(args)

    if args.interactive:
        judge = session.interactive_judge(
            sys.stdin, sys.stdout, lambda doc_id: session.term_snippet(index, doc_id)
        )
    else:
        judge = session.make_qrels_judge(corpus_io.parse_qrels(args.qrels))
    runs = [session.run_irf(index, topic, args.model, params, budget, judge) for topic in topics]

    output = Path(args.output)
    output.parent.mkdir(parents=True, exist_ok=True)
    session.write_freezing_run(runs, output, args.run_tag)
    session.write_session_log(runs, output.with_name(output.name + ".sessions.jsonl"))
    # every run option; --params and --set are echoed as the parameters they resolve to
    echo = {key: value for key, value in vars(args).items() if key not in ("command", "func", "params", "set")}
    echo["qrels"] = args.qrels or ""
    _write_echo(output.with_name(output.name + ".config"), {**echo, **params.to_dict()})
    judged = sum(len(r.judgments) for run in runs for r in run.records)
    print(f"wrote {output} ({len(runs)} topics, {judged} judgments)")
    return 0


def cmd_eval(args) -> int:
    run = corpus_io.parse_run(args.run)
    qrels = corpus_io.parse_qrels(args.qrels)
    lines = []
    for metric in evaluation.METRICS if args.metric == "all" else [args.metric]:
        result = evaluation.evaluate_run(run, qrels, metric)
        for query_id, value in sorted(result.per_query.items()):
            lines.append(f"{query_id}\t{metric}\t{value:.4f}")
        lines.append(f"all\t{metric}\t{result.mean:.4f}")
    _emit(lines, args.output)
    return 0


def cmd_compare(args) -> int:
    run_a = corpus_io.parse_run(args.run_a)
    run_b = corpus_io.parse_run(args.run_b)
    qrels = corpus_io.parse_qrels(args.qrels)
    result_a = evaluation.evaluate_run(run_a, qrels, args.metric)
    result_b = evaluation.evaluate_run(run_b, qrels, args.metric)
    sig = evaluation.fisher_randomization(
        result_a.per_query, result_b.per_query, samples=args.samples, seed=args.seed
    )
    verdict = "significant" if sig.significant else "not significant"
    header = "metric\tmean_a\tmean_b\tdiff\tp_value\tsamples\tseed\tverdict"
    row = (
        f"{args.metric}\t{result_a.mean:.4f}\t{result_b.mean:.4f}\t"
        f"{sig.observed_mean_diff:+.4f}\t{sig.p_value:.4f}\t{sig.samples}\t{sig.seed}\t{verdict}"
    )
    _emit([header, row], args.output)
    print(f"p={sig.p_value:.4f}: {verdict} at 0.05")
    return 0


def cmd_sweep(args) -> int:
    index, topics, budget = _session_setup(args)
    qrels = corpus_io.parse_qrels(args.qrels)
    judge = session.make_qrels_judge(qrels)
    points = feedback.load_grid(args.grid, args.model)
    eligible = [t for t in topics if qrels.num_relevant(t.query_id) > 0]

    def score_point(params: feedback.ModelParams) -> dict[str, float]:
        runs = {
            t.query_id: session.run_irf(index, t, args.model, params, budget, judge).doc_ids for t in eligible
        }
        return evaluation.evaluate_run(runs, qrels, args.metric).per_query

    result = evaluation.cross_validate(
        score_point, [t.query_id for t in eligible], points, folds=args.folds
    )
    lines = ["fold\tqueries\tbest_params\ttrain_mean\theldout_mean"]
    for fold in result.folds:  # cross_validate leaves no fold empty
        heldout = fold.heldout_per_query
        lines.append(
            f"{fold.fold}\t{','.join(fold.query_ids)}\t"
            f"{feedback.format_key_values(fold.best_params.to_dict(), ' ')}\t"
            f"{fold.train_mean:.4f}\t{ordered_sum(heldout.values()) / len(heldout):.4f}"
        )
    lines.append(f"pooled\tall\t-\t-\t{result.pooled_mean:.4f}")
    _emit(lines, args.output)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="irfkit",
        description="Iterative relevance feedback retrieval toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_index = sub.add_parser("index", help="build and save a collection index")
    p_index.add_argument("--corpus", required=True)
    p_index.add_argument("--format", choices=corpus_io.COLLECTION_FORMATS, default="trectext")
    p_index.add_argument("--output", required=True)
    p_index.add_argument("--stoplist", default=None, help="one word per line; default: built-in INQUERY list")
    p_index.add_argument("--stemmer", choices=corpus_io.STEMMERS, default="krovetz")
    p_index.set_defaults(func=cmd_index)

    shared = argparse.ArgumentParser(add_help=False)  # the session options of run and sweep
    shared.add_argument("--index", required=True)
    shared.add_argument("--topics", required=True)
    shared.add_argument("--topics-format", choices=corpus_io.TOPIC_FORMATS, default="tsv")
    shared.add_argument("--model", required=True, choices=session.MODEL_KINDS)
    shared.add_argument("--docs-per-iter", type=corpus_io.parse_number, required=True)
    shared.add_argument("--iterations", type=corpus_io.parse_number, required=True)
    shared.add_argument("--final-depth", type=corpus_io.parse_number, default=1000)
    report = argparse.ArgumentParser(add_help=False)  # the options of eval, compare and sweep
    report.add_argument("--qrels", required=True)
    report.add_argument("--output", default=None)
    metrics = tuple(evaluation.METRICS)

    p_run = sub.add_parser("run", parents=[shared], help="run feedback sessions and write a freezing run file")
    p_run.add_argument("--qrels", default=None)
    p_run.add_argument("--params", default=None, help="flat key=value parameter file")
    p_run.add_argument("--set", action="append", metavar="KEY=VALUE", help="override one parameter")
    p_run.add_argument("--output", required=True)
    p_run.add_argument("--interactive", action="store_true")
    p_run.add_argument("--run-tag", default="irfkit")
    p_run.set_defaults(func=cmd_run)

    p_eval = sub.add_parser("eval", parents=[report], help="score a run file against qrels")
    p_eval.add_argument("--run", required=True)
    p_eval.add_argument("--metric", choices=(*metrics, "all"), default="all")
    p_eval.set_defaults(func=cmd_eval)

    p_cmp = sub.add_parser("compare", parents=[report], help="randomization significance test between two runs")
    p_cmp.add_argument("--run-a", required=True)
    p_cmp.add_argument("--run-b", required=True)
    p_cmp.add_argument("--metric", choices=metrics, default="map")
    p_cmp.add_argument("--samples", type=corpus_io.parse_number, default=100_000)
    p_cmp.add_argument("--seed", type=corpus_io.parse_number, default=0)
    p_cmp.set_defaults(func=cmd_compare)

    p_sweep = sub.add_parser("sweep", parents=[shared, report], help="cross-validated grid search")
    p_sweep.add_argument("--grid", default=None, help="key=v1,v2,... file; default: built-in grids")
    p_sweep.add_argument("--metric", choices=metrics, default="map")
    p_sweep.add_argument("--folds", type=corpus_io.parse_number, default=5)
    p_sweep.set_defaults(func=cmd_sweep)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError) as exc:  # every irfkit data error is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return DATA_ERROR


if __name__ == "__main__":
    sys.exit(main())
