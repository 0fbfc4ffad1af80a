"""End-to-end acceptance suite.

Each test prints one PASS line when its criterion holds; a pytest failure is
the corresponding FAIL line.  The last criterion needs licensed TREC data
supplied via environment variables and is skipped otherwise.
"""

import math
import os
import random
import time

import pytest

from irfkit import cli
from irfkit.corpus_io import QrelSet, Topic, parse_qrels, parse_topics, parse_trec_collection
from irfkit.corpus_io import default_stoplist, normalize_collection
from irfkit.evaluation import (
    average_precision,
    cross_validate,
    evaluate_run,
    fisher_randomization,
    ndcg_at_20,
)
from irfkit.feedback import (
    GRID,
    FeedbackPools,
    ModelParams,
    distill_relevance_model,
    estimate_distillation,
    estimate_prob,
    estimate_rm3,
    estimate_rocchio,
    load_grid,
)
from irfkit.index import build_index
from irfkit.ranking import (
    QueryModel,
    query_count_vector,
    query_language_model,
    retrieve_dot,
    retrieve_kl,
)
from irfkit.session import (
    MODEL_KINDS,
    BudgetConfig,
    FreezingRunList,
    initial_ranking,
    make_qrels_judge,
    run_irf,
    write_freezing_run,
)
from irfkit.synthetic import topical_corpus
from support import random_corpus, random_qrels, random_topics


# --------------------------------------------------------------------------
# criterion 1: with a single iteration, the session loop is byte-identical
# to an independently coded one-shot top-k feedback reference
# --------------------------------------------------------------------------


def one_shot_topk_reference(index, topic, model_kind, params, k, final_depth, qrels):
    """Straight-line top-k feedback: retrieve once, judge the top k, rebuild
    the query model, retrieve the tail.  No session machinery.  It names
    each vector's document weighting itself: it re-tags the weights that
    ranking and the estimators return, so a wrong weighting there fails."""

    def vector(model, weighting):
        return QueryModel.vector(model.weights, weighting)

    bm25_query = vector(query_count_vector(topic.terms), "bm25")
    if model_kind in ("rm3", "distill"):
        first = retrieve_kl(index, query_language_model(topic.terms), params, (), k)
    else:
        first = retrieve_dot(index, bm25_query, params, (), k)
    shown = first.doc_ids[:k]
    relevant = [d for d in shown if qrels.is_relevant(topic.query_id, d)]
    nonrelevant = [d for d in shown if not qrels.is_relevant(topic.query_id, d)]
    pools = FeedbackPools(relevant, nonrelevant)

    tail_depth = final_depth - len(shown)
    if model_kind == "rm3":
        model = estimate_rm3(index, topic.terms, pools, params).model
        tail = retrieve_kl(index, model, params, shown, tail_depth)
    elif model_kind == "distill":
        model = estimate_distillation(index, topic.terms, pools, params).model
        tail = retrieve_kl(index, model, params, shown, tail_depth)
    elif model_kind == "rocchio":
        model = estimate_rocchio(index, topic.terms, pools, params).model
        tail = retrieve_dot(index, vector(model, "bm25"), params, shown, tail_depth)
    else:
        if relevant:
            model = estimate_prob(index, topic.terms, pools, params).model
            tail = retrieve_dot(index, vector(model, "mle"), params, shown, tail_depth)
        else:
            tail = retrieve_dot(index, bm25_query, params, shown, tail_depth)
    return FreezingRunList(topic.query_id, shown, tail.doc_ids)


def test_criterion_1_baseline_equivalence(tmp_path):
    start = time.time()
    docs = random_corpus(400, vocab_size=60, min_len=5, max_len=25, seed=100)
    topics = random_topics(50, vocab_size=60, max_terms=3, seed=101)
    qrels = random_qrels(topics, docs, relevant_prob=0.08, seed=102)
    index = build_index(docs)
    params = ModelParams(mu=20.0, interp_lambda=0.5, num_expansion_terms=20)
    budget = BudgetConfig(10, 1, final_depth=200)
    judge = make_qrels_judge(qrels)
    for model_kind in MODEL_KINDS:
        looped = [run_irf(index, t, model_kind, params, budget, judge) for t in topics]
        reference = [
            one_shot_topk_reference(index, t, model_kind, params, 10, 200, qrels)
            for t in topics
        ]
        for got, want in zip(looped, reference):
            assert got.frozen == want.frozen
            assert got.tail == want.tail
        loop_file = tmp_path / f"loop_{model_kind}.run"
        ref_file = tmp_path / f"ref_{model_kind}.run"
        write_freezing_run(looped, loop_file)
        write_freezing_run(reference, ref_file)
        assert loop_file.read_bytes() == ref_file.read_bytes()
    elapsed = time.time() - start
    assert elapsed < 60
    print(f"\ncriterion 1 PASS: single-iteration sessions match one-shot top-10 "
          f"feedback exactly for all models, 50 topics ({elapsed:.1f}s)")


# --------------------------------------------------------------------------
# criterion 2: hand-executed session trace on the bundled 6-doc fixture
# --------------------------------------------------------------------------


def test_criterion_2_oracle_trace(toy_index, toy_topic, toy_qrels):
    # Fixture: d1=(apple apple banana) R, d2=(apple cherry cherry) N,
    # d3=(banana apple banana) R, d4=(cherry banana plum) N,
    # d5=(banana banana plum) R, d6=(plum plum cherry) N; query = apple.
    # mu=1, interpolation 0.5.  Hand trace with exact fractions:
    #   background: apple 4/18, banana 6/18.
    #   iter 1, model {apple: 1}: p(apple|d) = (c + 4/18) / (len + 1)
    #     d1: (2+2/9)/4 = 5/9 > d2 = d3: (1+2/9)/4 = 11/36, tie -> d2 by id.
    #     show d1 -> relevant.
    #   iter 2, expansion mle(d1) = {apple 2/3, banana 1/3},
    #     model {apple 5/6, banana 1/6}, exclude {d1}:
    #     d3: 5/6 ln(11/36) + 1/6 ln(7/12) = -1.0778  (top)
    #     d2: 5/6 ln(11/36) + 1/6 ln(1/12) = -1.4021
    #     d5: 5/6 ln(1/18)  + 1/6 ln(7/12) = -2.4985
    #     d4: 5/6 ln(1/18)  + 1/6 ln(1/3)  = -2.5917
    #     show d3 -> relevant.
    #   iter 3, expansion avg(mle(d1), mle(d3)) = {apple 1/2, banana 1/2},
    #     model {apple 3/4, banana 1/4}, exclude {d1, d3}:
    #     d2: -1.5104 > d5: -2.3025 > d4: -2.4425; show d2 -> non-relevant.
    #   final, same model, exclude {d1, d3, d2}: d5 > d4; d6 shares no term.
    params = ModelParams(mu=1.0, interp_lambda=0.5, num_expansion_terms=10)
    budget = BudgetConfig(1, 3, final_depth=1000)
    run = run_irf(toy_index, toy_topic, "rm3", params, budget, make_qrels_judge(toy_qrels))

    assert [r.shown for r in run.records] == [["d1"], ["d3"], ["d2"]]
    assert [r.judgments for r in run.records] == [
        [("d1", True)],
        [("d3", True)],
        [("d2", False)],
    ]
    # pools after each iteration
    pools = FeedbackPools()
    expected_pools = [(["d1"], []), (["d1", "d3"], []), (["d1", "d3"], ["d2"])]
    for record, (want_rel, want_non) in zip(run.records, expected_pools):
        for doc, rel in record.judgments:
            pools.add(doc, rel)
        assert pools.relevant == want_rel
        assert pools.nonrelevant == want_non
    assert run.frozen == ["d1", "d3", "d2"]
    assert run.tail == ["d5", "d4"]
    assert run.doc_ids == ["d1", "d3", "d2", "d5", "d4"]
    print("\ncriterion 2 PASS: 1x3 session reproduces the hand-executed trace "
          "on the bundled fixture")


# --------------------------------------------------------------------------
# criterion 3: EM behaviour of the mixture estimator
# --------------------------------------------------------------------------


def test_criterion_3_em_monotone_and_grid_oracle():
    rng = random.Random(300)
    for _ in range(200):
        vocab = [f"t{i}" for i in range(rng.randint(2, 8))]
        counts = {t: rng.randint(1, 12) for t in vocab}
        raw_c = [rng.random() + 1e-6 for _ in vocab]
        p_corpus = {t: v / sum(raw_c) for t, v in zip(vocab, raw_c)}
        raw_n = [rng.random() + 1e-6 for _ in vocab]
        p_nonrel = {t: v / sum(raw_n) for t, v in zip(vocab, raw_n)}
        lambda1 = rng.choice([0.0, 0.2, 0.4])
        lambda2 = rng.choice([0.0, 0.2, 0.4])
        _, trace = distill_relevance_model(
            counts, p_nonrel, p_corpus, lambda1, lambda2, max_iters=80, tol=1e-12
        )
        for before, after in zip(trace, trace[1:]):
            assert after - before >= -1e-9

    # two-term instances: EM against an exhaustive 1e-4 grid of the mixture
    # objective, agreement within 1e-3 total variation
    for _ in range(60):
        count_a, count_b = rng.randint(1, 20), rng.randint(1, 20)
        pc_a = rng.uniform(0.05, 0.95)
        p_corpus = {"a": pc_a, "b": 1 - pc_a}
        lambda2 = rng.choice([0.2, 0.4, 0.6])

        def objective(pb):
            mix_a = (1 - lambda2) * (1 - pb) + lambda2 * p_corpus["a"]
            mix_b = (1 - lambda2) * pb + lambda2 * p_corpus["b"]
            return count_a * math.log(mix_a) + count_b * math.log(mix_b)

        grid_best = max(range(10001), key=lambda i: objective(i * 1e-4)) * 1e-4
        fitted, _ = distill_relevance_model(
            {"a": count_a, "b": count_b}, {}, p_corpus, 0.0, lambda2,
            max_iters=2000, tol=1e-13,
        )
        tv = 0.5 * (abs(fitted["a"] - (1 - grid_best)) + abs(fitted["b"] - grid_best))
        assert tv < 1e-3
    print("\ncriterion 3 PASS: EM log-likelihood monotone on 200 instances; "
          "two-term fits match the grid-search oracle within 1e-3 TV")


# --------------------------------------------------------------------------
# criterion 4: metrics against a brute-force definitional scorer
# --------------------------------------------------------------------------


def brute_force_ap(run, qrels, query_id, cutoff=1000):
    grades = qrels.grades_for(query_id)
    relevant = {d for d, g in grades.items() if g >= 1}
    if not relevant:
        return 0.0
    total = 0.0
    for rank in range(1, min(cutoff, len(run)) + 1):
        if run[rank - 1] in relevant:
            hits = sum(1 for d in run[:rank] if d in relevant)
            total += hits / rank
    return total / len(relevant)


def brute_force_ndcg20(run, qrels, query_id):
    grades = qrels.grades_for(query_id)
    dcg = 0.0
    for rank in range(1, min(20, len(run)) + 1):
        dcg += grades.get(run[rank - 1], 0) / math.log2(rank + 1)
    ideal_gains = sorted(grades.values(), reverse=True)[:20]
    idcg = 0.0
    for rank, gain in enumerate(ideal_gains, 1):
        idcg += gain / math.log2(rank + 1)
    return dcg / idcg if idcg > 0 else 0.0


def test_criterion_4_metric_oracle():
    start = time.time()
    rng = random.Random(400)
    for trial in range(1000):
        num_docs = rng.randint(1, 50)
        doc_ids = [f"D{i:02d}" for i in range(num_docs)]
        run = rng.sample(doc_ids, rng.randint(0, num_docs))
        qrels = QrelSet()
        for doc in doc_ids:
            if rng.random() < 0.4:
                qrels.set("q", doc, rng.randint(0, 3))
        cutoff = rng.choice([5, 20, 1000])
        assert average_precision(run, qrels, "q", cutoff) == brute_force_ap(run, qrels, "q", cutoff)
        assert ndcg_at_20(run, qrels, "q") == brute_force_ndcg20(run, qrels, "q")
    elapsed = time.time() - start
    assert elapsed < 10
    print(f"\ncriterion 4 PASS: AP and NDCG@20 equal the brute-force scorer on "
          f"1000 random instances ({elapsed:.1f}s)")


# --------------------------------------------------------------------------
# criterion 5: randomization test calibration
# --------------------------------------------------------------------------


def test_criterion_5_randomization_calibration():
    rng = random.Random(500)
    for trial in range(100):
        n = rng.randint(2, 20)
        a = {f"q{i:02d}": rng.random() for i in range(n)}
        b = {q: v + rng.uniform(-0.15, 0.25) for q, v in a.items()}
        exact = fisher_randomization(a, b)
        assert exact.samples == 2**n
        mc = fisher_randomization(a, b, samples=100_000, seed=trial, exact_limit=1)
        assert abs(mc.p_value - exact.p_value) <= 0.01
    same = {f"q{i}": rng.random() for i in range(15)}
    assert fisher_randomization(same, dict(same)).p_value == 1.0
    print("\ncriterion 5 PASS: Monte Carlo p within 0.01 of exact enumeration "
          "on 100 instances; identical inputs give p=1.0")


# --------------------------------------------------------------------------
# criterion 6: feedback helps, and more iterations help more, on a planted
# two-topic passage collection
# --------------------------------------------------------------------------


def test_criterion_6_directional_feedback_benefit():
    start = time.time()
    docs, topics, qrels = topical_corpus(num_queries=25, seed=0)
    assert len(docs) == 5000
    assert abs(sum(len(d.terms) for d in docs) / len(docs) - 45) < 1
    index = build_index(docs)
    params = ModelParams(
        mu=50.0, interp_lambda=0.5, num_expansion_terms=20,
        lambda1=0.2, lambda2=0.4, beta=1.0, gamma=0.5,
    )
    judge = make_qrels_judge(qrels)

    def mean_map(runs):
        values = [average_precision(r.doc_ids, qrels, r.query_id) for r in runs]
        return sum(values) / len(values)

    summary = {}
    for model_kind in MODEL_KINDS:
        initial = [initial_ranking(index, t, model_kind, params) for t in topics]
        initial_map = sum(
            average_precision(s.doc_ids, qrels, t.query_id) for s, t in zip(initial, topics)
        ) / len(initial)
        one_shot = mean_map(
            run_irf(index, t, model_kind, params, BudgetConfig(10, 1), judge) for t in topics
        )
        iterated = mean_map(
            run_irf(index, t, model_kind, params, BudgetConfig(1, 10), judge) for t in topics
        )
        summary[model_kind] = (initial_map, one_shot, iterated)
        assert iterated > initial_map, f"{model_kind}: {iterated} vs initial {initial_map}"
    for model_kind in ("rm3", "rocchio"):
        initial_map, one_shot, iterated = summary[model_kind]
        assert iterated > one_shot, f"{model_kind}: 1x10 {iterated} vs 10x1 {one_shot}"
    elapsed = time.time() - start
    assert elapsed < 300
    lines = ", ".join(
        f"{kind}: init {i:.3f} / 10x1 {o:.3f} / 1x10 {it:.3f}"
        for kind, (i, o, it) in summary.items()
    )
    print(f"\ncriterion 6 PASS: iterated feedback beats the initial ranking for "
          f"every model and beats one-shot for rm3 and rocchio ({lines}; {elapsed:.0f}s)")


# --------------------------------------------------------------------------
# criterion 7: freezing soundness and budget compliance, randomized
# --------------------------------------------------------------------------


def test_criterion_7_freezing_and_budget_invariants():
    start = time.time()
    rng = random.Random(700)
    sessions = 0
    corpora = []
    for c in range(250):
        docs = random_corpus(rng.randint(4, 30), vocab_size=15, min_len=1, max_len=10, seed=c)
        corpora.append((build_index(docs), docs))
    while sessions < 10_000:
        index, docs = corpora[rng.randrange(len(corpora))]
        topic = Topic(f"q{sessions}", tuple(f"w{rng.randint(0, 14):03d}" for _ in range(rng.randint(1, 3))))
        qrels = QrelSet()
        for doc in docs:
            if rng.random() < 0.3:
                qrels.set(topic.query_id, doc.doc_id, rng.randint(0, 2))
        k = rng.randint(1, 5)
        n = rng.randint(1, 4)
        budget = BudgetConfig(k, n, final_depth=rng.choice([20, 40]))
        model_kind = MODEL_KINDS[sessions % len(MODEL_KINDS)]
        run = run_irf(index, topic, model_kind, ModelParams(mu=4.0), budget, make_qrels_judge(qrels))

        shown_in_order = [d for rec in run.records for d in rec.shown]
        assert run.frozen == shown_in_order, "frozen prefix must equal shown order"
        judged = [d for rec in run.records for d, _ in rec.judgments]
        assert len(judged) == len(set(judged)), "no document judged twice"
        assert len(judged) <= budget.total_budget, "budget overrun"
        assert len(set(run.frozen)) == len(run.frozen)
        assert set(run.frozen).isdisjoint(run.tail)
        assert len(run.frozen) + len(run.tail) <= budget.final_depth
        for rec in run.records:
            assert len(rec.shown) <= k
        sessions += 1
    elapsed = time.time() - start
    print(f"\ncriterion 7 PASS: freezing and budget invariants hold over "
          f"{sessions} randomized sessions ({elapsed:.0f}s)")


# --------------------------------------------------------------------------
# criterion 8 (optional): reproduction against user-supplied TREC Robust
# --------------------------------------------------------------------------

ROBUST_DIR = os.environ.get("IRFKIT_ROBUST_DIR")


@pytest.mark.skipif(
    not ROBUST_DIR,
    reason="set IRFKIT_ROBUST_DIR to a directory with corpus.trectext, "
    "topics.txt (title format), and qrels.txt to run the reproduction",
)
def test_criterion_8_robust_reproduction(tmp_path):
    corpus_path = os.path.join(ROBUST_DIR, "corpus.trectext")
    topics_path = os.path.join(ROBUST_DIR, "topics.txt")
    qrels_path = os.path.join(ROBUST_DIR, "qrels.txt")
    stoplist = default_stoplist()
    index = build_index(
        normalize_collection(parse_trec_collection(corpus_path), stoplist),
        {"stemmer": "krovetz", "stoplist": sorted(stoplist)},
    )
    topics = parse_topics(topics_path, "trec_title", stoplist)
    qrels = parse_qrels(qrels_path)
    eligible = [t for t in topics if qrels.num_relevant(t.query_id) > 0]

    # query-likelihood baseline, cross-validated mu
    def ql_scores(params):
        return {
            t.query_id: average_precision(
                retrieve_kl(index, query_language_model(t.terms), params).doc_ids,
                qrels,
                t.query_id,
            )
            for t in eligible
        }

    ql_points = [ModelParams(mu=mu) for mu in GRID["mu"]]
    ql_cv = cross_validate(ql_scores, [t.query_id for t in eligible], ql_points)
    assert abs(ql_cv.pooled_mean - 0.253) <= 0.02

    # one-shot top-10 fed back rm3, cross-validated
    judge = make_qrels_judge(qrels)
    budget = BudgetConfig(10, 1, final_depth=1000)

    def rm3_scores(params):
        return {
            t.query_id: average_precision(
                run_irf(index, t, "rm3", params, budget, judge).doc_ids, qrels, t.query_id
            )
            for t in eligible
        }

    rm3_cv = cross_validate(rm3_scores, [t.query_id for t in eligible], load_grid(None, "rm3"))
    assert abs(rm3_cv.pooled_mean - 0.316) <= 0.02
    print("\ncriterion 8 PASS: Robust reproduction within tolerance")
