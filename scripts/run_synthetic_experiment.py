#!/usr/bin/env python3
"""Feedback-budget experiment on a synthetic two-topic passage collection.

Splits a fixed budget of 10 judgments over 1, 2, 5, and 10 iterations for
each feedback model, evaluates the freezing rank lists, and marks
significant improvements over the initial ranking (*) and over the one-shot
top-10 run (+) with a paired randomization test at 0.05.

Usage:
    python3 scripts/run_synthetic_experiment.py [--queries 25] [--seed 0]
"""

import argparse
import sys
import time

from irfkit.corpus_io import parse_number
from irfkit.evaluation import evaluate_run, fisher_randomization
from irfkit.feedback import ModelParams
from irfkit.index import build_index
from irfkit.session import MODEL_KINDS, BudgetConfig, initial_ranking, make_qrels_judge, run_irf
from irfkit.synthetic import topical_corpus

BUDGETS = [(10, 1), (5, 2), (2, 5), (1, 10)]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--queries", type=parse_number, default=25)
    parser.add_argument("--passages", type=parse_number, default=5000)
    parser.add_argument("--seed", type=parse_number, default=0)
    parser.add_argument("--samples", type=parse_number, default=20_000, help="randomization samples")
    args = parser.parse_args(argv)

    start = time.time()
    background = args.passages - args.queries * 80
    if background < 0:
        parser.error("--passages must be at least 80 per query")
    docs, topics, qrels = topical_corpus(
        num_queries=args.queries, background_docs=background, seed=args.seed
    )
    index = build_index(docs)
    stats = index.stats
    print(
        f"collection: {stats.num_docs} passages, avg length {stats.avg_doc_len:.1f}, "
        f"vocab {stats.vocab_size}, {len(topics)} queries"
    )

    params = ModelParams(
        mu=50.0, interp_lambda=0.5, num_expansion_terms=20,
        lambda1=0.2, lambda2=0.4, beta=1.0, gamma=0.5,
    )
    judge = make_qrels_judge(qrels)

    header = f"{'model':9s}{'metric':8s}{'initial':>9s}" + "".join(
        f"{f'{k}x{n}':>9s}" for k, n in BUDGETS
    )
    print(header)
    print("-" * len(header))
    for model_kind in MODEL_KINDS:
        initial_run = {
            t.query_id: initial_ranking(index, t, model_kind, params).doc_ids for t in topics
        }
        budget_runs = {
            (k, n): {
                t.query_id: run_irf(index, t, model_kind, params, BudgetConfig(k, n), judge).doc_ids
                for t in topics
            }
            for k, n in BUDGETS
        }
        for metric in ("map", "ndcg20"):
            initial = evaluate_run(initial_run, qrels, metric)
            base = evaluate_run(budget_runs[(10, 1)], qrels, metric)
            cells = []
            for k, n in BUDGETS:
                result = evaluate_run(budget_runs[(k, n)], qrels, metric)
                marks = ""
                sig_init = fisher_randomization(
                    result.per_query, initial.per_query, samples=args.samples, seed=args.seed
                )
                if sig_init.significant and result.mean > initial.mean:
                    marks += "*"
                if (k, n) != (10, 1):
                    sig_base = fisher_randomization(
                        result.per_query, base.per_query, samples=args.samples, seed=args.seed
                    )
                    if sig_base.significant and result.mean > base.mean:
                        marks += "+"
                cells.append(f"{result.mean:.3f}{marks:<2s}")
            print(
                f"{model_kind:9s}{metric:8s}{initial.mean:>9.3f}"
                + "".join(f"{c:>9s}" for c in cells)
            )
    print(f"done in {time.time() - start:.0f}s "
          "(* better than initial, + better than 10x1; randomization test, p<0.05)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
