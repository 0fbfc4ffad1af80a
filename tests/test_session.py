import io
import json
import random
import re
import struct
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from irfkit import feedback, session
from irfkit.corpus_io import QrelSet, TermSequence, Topic, parse_run
from irfkit.feedback import MODELS, FeedbackPools, ModelParams
from irfkit.index import build_index
from irfkit.session import (
    MODEL_KINDS,
    BudgetConfig,
    FreezingRunList,
    initial_ranking,
    interactive_judge,
    make_qrels_judge,
    run_irf,
    term_snippet,
    write_freezing_run,
    write_session_log,
)
from support import random_corpus, random_qrels, random_topics, reference_write_freezing_run


def make_index(layout):
    return build_index([TermSequence(doc_id, tuple(terms)) for doc_id, terms in layout])


def make_qrels(entries):
    qrels = QrelSet()
    for query_id, doc_id, grade in entries:
        qrels.set(query_id, doc_id, grade)
    return qrels


class TestSimulateJudgment:
    def test_graded_to_binary_threshold(self):
        qrels = make_qrels([("q", "D1", 2), ("q", "D2", 0)])
        assert make_qrels_judge(qrels)("q", "D1") is True
        assert make_qrels_judge(qrels)("q", "D2") is False

    def test_unjudged_is_nonrelevant(self):
        qrels = make_qrels([("q", "D1", 1)])
        assert qrels.grade("q", "unseen") == 0
        assert make_qrels_judge(qrels)("q", "unseen") is False


class TestBudgetConfig:
    def test_total_budget(self):
        assert BudgetConfig(5, 2).total_budget == 10

    def test_validation(self):
        with pytest.raises(ValueError):
            BudgetConfig(0, 3)

    @pytest.mark.parametrize(
        "name,value",
        [("docs_per_iter", 1.5), ("docs_per_iter", True), ("iterations", 2.0), ("final_depth", "10")],
    )
    def test_field_that_is_not_an_int_rejected(self, name, value):
        fields = {"docs_per_iter": 2, "iterations": 1, "final_depth": 10, name: value}
        with pytest.raises(ValueError, match=f"^{name} must be int, got {re.escape(repr(value))}$"):
            BudgetConfig(**fields)


@pytest.fixture
def small_setup():
    idx = make_index(
        [
            ("d1", "xxy"),
            ("d2", "xzz"),
            ("d3", "yyx"),
            ("d4", "zzy"),
        ]
    )
    topic = Topic("q", ("x",))
    qrels = make_qrels([("q", "d1", 1), ("q", "d3", 1)])
    return idx, topic, qrels


# each model's (document weighting, scorer): with empty pools, then with a relevant document
ROUTES = {
    "rm3": [("lm", "retrieve_kl"), ("lm", "retrieve_kl")],
    "distill": [("lm", "retrieve_kl"), ("lm", "retrieve_kl")],
    "rocchio": [("bm25", "retrieve_dot"), ("bm25", "retrieve_dot")],
    "prob": [("bm25", "retrieve_dot"), ("mle", "retrieve_dot")],
}


@pytest.mark.parametrize("model_kind", MODEL_KINDS)
def test_estimate_names_the_weighting_and_the_session_its_scorer(monkeypatch, model_kind):
    idx = make_index([("D1", "ab"), ("D2", "bc"), ("D3", "ca")])
    estimator = getattr(feedback, MODELS[model_kind].estimator)
    kinds = [
        estimator(idx, ("a",), pools, ModelParams()).model.kind
        for pools in (FeedbackPools(), FeedbackPools(["D1"], ["D2"]))
    ]
    assert kinds == [kind for kind, _ in ROUTES[model_kind]]

    calls = []

    def recording(name, scorer):
        def record(index, model, *args):
            calls.append((model.kind, name))
            return scorer(index, model, *args)
        return record

    for name in ("retrieve_kl", "retrieve_dot"):  # the names perfbench's tracer wraps
        monkeypatch.setattr(session, name, recording(name, getattr(session, name)))
    run_irf(idx, Topic("q", ("a",)), model_kind, ModelParams(), BudgetConfig(1, 1, 3), lambda q, d: True)
    assert calls == ROUTES[model_kind]


class TestRunIrf:
    def test_single_iteration_is_one_shot_feedback(self, small_setup):
        idx, topic, qrels = small_setup
        params = ModelParams(mu=1.0, interp_lambda=0.5)
        budget = BudgetConfig(2, 1, final_depth=10)
        run = run_irf(idx, topic, "rm3", params, budget, make_qrels_judge(qrels))
        initial = initial_ranking(idx, topic, "rm3", params, depth=10)
        assert run.frozen == initial.doc_ids[:2]
        assert len(run.records) == 1
        assert set(run.frozen).isdisjoint(run.tail)

    def test_exclusion_bookkeeping_one_by_one(self):
        idx = make_index([("d1", "xx"), ("d2", "xy"), ("d3", "x")])
        topic = Topic("q", ("x",))
        qrels = make_qrels([("q", "d1", 1)])
        budget = BudgetConfig(1, 2, final_depth=10)
        run = run_irf(idx, topic, "rm3", ModelParams(mu=1.0), budget, make_qrels_judge(qrels))
        assert len(run.frozen) == 2
        assert len(set(run.frozen)) == 2
        assert run.records[1].shown[0] != run.records[0].shown[0]

    @pytest.mark.parametrize("model_kind", MODEL_KINDS)
    def test_all_models_complete_and_respect_freezing(self, small_setup, model_kind):
        idx, topic, qrels = small_setup
        budget = BudgetConfig(1, 3, final_depth=10)
        run = run_irf(idx, topic, model_kind, ModelParams(mu=1.0), budget, make_qrels_judge(qrels))
        shown_in_order = [doc for record in run.records for doc in record.shown]
        assert run.frozen == shown_in_order
        assert set(run.frozen).isdisjoint(run.tail)
        assert len(run.frozen) + len(run.tail) <= budget.final_depth
        judged = [doc for record in run.records for doc, _ in record.judgments]
        assert len(judged) == len(set(judged)) <= budget.total_budget

    def test_shortfall_shows_what_exists(self):
        idx = make_index([("d1", "x"), ("d2", "xy")])
        topic = Topic("q", ("x",))
        qrels = make_qrels([("q", "d1", 1)])
        budget = BudgetConfig(5, 2, final_depth=10)
        run = run_irf(idx, topic, "rm3", ModelParams(mu=1.0), budget, make_qrels_judge(qrels))
        assert len(run.records[0].shown) == 2  # only two docs match
        assert run.tail == []

    @pytest.mark.parametrize("model_kind", MODEL_KINDS)
    def test_budget_beyond_a_collection_that_is_all_relevant(self, model_kind):
        # the relevant pool ends up holding every document; prob's log-odds stay defined
        idx = make_index([("D1", "ab"), ("D2", "ac"), ("D3", "abc")])
        judge = make_qrels_judge(make_qrels([("q", doc, 1) for doc in idx.doc_ids]))
        run = run_irf(idx, Topic("q", ("a",)), model_kind, ModelParams(), BudgetConfig(1, 4, 4), judge)
        assert sorted(run.frozen) == idx.doc_ids and run.tail == []
        assert [len(record.shown) for record in run.records] == [1, 1, 1, 0]

    def test_pages_and_tail_are_exact_size_lists(self):
        # a run keeps these lists for every topic, so they hold no spare slots
        idx = make_index([(f"d{i:02d}", ("xz", "xy", "yy")[i % 3]) for i in range(30)])
        judge = make_qrels_judge(make_qrels([("q", "d01", 1), ("q", "d05", 1)]))
        run = run_irf(idx, Topic("q", ("x", "y")), "rm3", ModelParams(), BudgetConfig(1, 10, 25), judge)
        assert len(run.tail) == 15
        # an exact-size list is its header and one pointer per item
        for ids in [run.tail, *(record.shown for record in run.records)]:
            assert sys.getsizeof(ids) == sys.getsizeof([]) + len(ids) * struct.calcsize("P")

    def test_unknown_model_rejected(self, small_setup):
        idx, topic, qrels = small_setup
        with pytest.raises(ValueError, match="model"):
            run_irf(idx, topic, "bm25f", ModelParams(), BudgetConfig(1, 1), make_qrels_judge(qrels))

    def test_judgments_flow_into_pools_across_iterations(self, small_setup):
        idx, topic, qrels = small_setup
        budget = BudgetConfig(1, 2, final_depth=10)
        run = run_irf(idx, topic, "rm3", ModelParams(mu=1.0), budget, make_qrels_judge(qrels))
        # iteration 2 is estimated from iteration 1's judgment, so it no
        # longer reports the fallback model
        first_doc = run.records[0].shown[0]
        if qrels.is_relevant("q", first_doc):
            assert run.records[1].model_summary["fallback"] is False


class TestInteractiveJudge:
    def test_scripted_yes_no(self, small_setup):
        idx, topic, _ = small_setup
        stdin = io.StringIO("y\nn\n")
        out = io.StringIO()
        judge = interactive_judge(stdin, out, lambda d: term_snippet(idx, d))
        budget = BudgetConfig(1, 2, final_depth=10)
        run = run_irf(idx, topic, "rm3", ModelParams(mu=1.0), budget, judge)
        flat = [rel for record in run.records for _, rel in record.judgments]
        assert flat == [True, False]
        assert "relevant? [y/n]" in out.getvalue()

    def test_the_snippet_takes_max_terms_of_the_most_frequent(self, small_setup):
        idx, _, _ = small_setup
        assert [term_snippet(idx, "d1", n) for n in (0, 1, 2, 3)] == ["", "x", "x y", "x y"]

    @pytest.mark.parametrize("max_terms,message", [(-1, "must be >= 0, got -1"), (True, "must be int, got True")])
    def test_max_terms_that_is_not_a_count_is_named(self, small_setup, max_terms, message):
        # -1 returned every term but the last, True one term
        idx, _, _ = small_setup
        with pytest.raises(ValueError, match=f"^max_terms {message}$"):
            term_snippet(idx, "d1", max_terms)

    def test_invalid_answer_reprompts(self):
        stdin = io.StringIO("maybe\ny\n")
        out = io.StringIO()
        judge = interactive_judge(stdin, out)
        assert judge("q", "d") is True
        assert "please answer y or n" in out.getvalue()

    def test_immediate_eof_aborts_with_zero_judgments(self, small_setup):
        idx, topic, _ = small_setup
        judge = interactive_judge(io.StringIO(""), io.StringIO())
        budget = BudgetConfig(1, 3, final_depth=10)
        run = run_irf(idx, topic, "rm3", ModelParams(mu=1.0), budget, judge)
        assert run.aborted
        assert sum(len(r.judgments) for r in run.records) == 0
        assert len(run.records) == 1
        assert run.frozen == run.records[0].shown  # shown doc is still frozen
        assert run.tail  # partial list still emitted

    def test_eof_on_second_judgment_keeps_the_first(self, small_setup, tmp_path):
        idx, topic, _ = small_setup
        budget = BudgetConfig(1, 3, final_depth=10)
        live = run_irf(
            idx, topic, "rm3", ModelParams(mu=1.0), budget,
            interactive_judge(io.StringIO("y\n"), io.StringIO()),
        )
        assert live.aborted and len(live.frozen) == 2
        log = tmp_path / "session.jsonl"
        write_session_log([live], log)
        records = [json.loads(line) for line in log.read_text().splitlines()]
        assert [j for record in records for j in record["judgments"]] == [[live.frozen[0], True]]


class TestOutputs:
    def test_freezing_run_file_format(self, small_setup, tmp_path):
        idx, topic, qrels = small_setup
        budget = BudgetConfig(1, 2, final_depth=10)
        run = run_irf(idx, topic, "rm3", ModelParams(mu=1.0), budget, make_qrels_judge(qrels))
        path = tmp_path / "run.txt"
        write_freezing_run([run], path, "tag")
        lines = [line.split() for line in path.read_text().splitlines()]
        assert [l[2] for l in lines] == run.frozen + run.tail
        assert [int(l[3]) for l in lines] == list(range(1, len(lines) + 1))
        scores = [float(l[4]) for l in lines]
        assert scores == sorted(scores, reverse=True)

    @pytest.mark.parametrize("tag", ["my tag", "", "tab\ttag", "t\udcff", "\ufeffq"])
    def test_run_tag_a_run_line_cannot_hold_rejected_before_writing(self, small_setup, tmp_path, tag):
        idx, topic, qrels = small_setup
        run = run_irf(idx, topic, "rm3", ModelParams(mu=1.0), BudgetConfig(1, 1, 10), make_qrels_judge(qrels))
        path = tmp_path / "run.txt"
        with pytest.raises(ValueError, match="run tag .* is empty or contains whitespace"):
            write_freezing_run([run], path, tag)
        assert not path.exists()

    @pytest.mark.parametrize("query_id", ["q 1", "", "q\t1", "t\udcff", "\ufeffq"])
    def test_query_id_a_run_line_cannot_hold_rejected_before_writing(self, tmp_path, query_id):
        # written, each gave lines of 5 or 7 fields that parse_run rejects, a file cut short
        # at the lone surrogate, or an id read back without its BOM if on the file's first line
        runs = [FreezingRunList("q0", ["D1"], ["D2"]), FreezingRunList(query_id, ["D1"], ["D2"])]
        path = tmp_path / "run.txt"
        with pytest.raises(ValueError, match="query id .* is empty or contains whitespace"):
            write_freezing_run(runs, path)
        assert not path.exists()

    @pytest.mark.parametrize("frozen, tail, bad", [
        (["D1"], ["D 2", "D3"], "D 2"), (["D1", ""], ["D2"], ""), (["D\t1"], ["D 2"], "D\t1"),
        (["D1"], ["t\udcff"], "t\udcff"), (["\ufeffq"], ["D2"], "\ufeffq"),
    ])
    def test_doc_id_a_run_line_cannot_hold_rejected_before_writing(self, tmp_path, frozen, tail, bad):
        # written, "D 2" gave a 7-field line and "" a 5-field one, which parse_run rejects,
        # and the lone surrogate a file cut short at its line
        runs = [FreezingRunList("q0", ["D1"], ["D2"]), FreezingRunList("q1", frozen, tail)]
        path = tmp_path / "run.txt"
        with pytest.raises(ValueError, match=re.escape(f"doc id {bad!r} is empty or contains whitespace")):
            write_freezing_run(runs, path)
        assert not path.exists()

    # names of any characters, with whitespace, a lone surrogate and the BOM drawn often, or
    # names of no control, surrogate or space character, so both outcomes are drawn often
    ANY = st.text(st.one_of(st.characters(exclude_categories=()), st.sampled_from("a\ufeff\udcff \x85")), max_size=3)
    PLAIN = st.text(st.characters(exclude_categories=("Cc", "Cs", "Zs", "Zl", "Zp")), min_size=1, max_size=3)
    RANKED = [st.dictionaries(n, st.lists(n, min_size=1, max_size=4, unique=True), max_size=3) for n in (ANY, PLAIN)]

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(RANKED))
    def test_a_run_file_round_trips_any_name_or_is_refused_before_it_is_opened(self, tmp_path_factory, ranked):
        path = tmp_path_factory.getbasetemp() / "round_trip.run"
        old = b"q0 Q0 D0 1 1.000000 old\n"
        path.write_bytes(old)
        try:
            write_freezing_run([FreezingRunList(q, docs[:1], docs[1:]) for q, docs in ranked.items()], path)
        except ValueError:
            assert path.read_bytes() == old
            assert not all(name.isalnum() for q, docs in ranked.items() for name in (q, *docs))
        else:
            assert parse_run(path) == ranked

    # runs of mixed lengths: drawn names, some not ASCII and some a line cannot hold,
    # then a long tail of generated ids, so the rank and score tables serve several
    # lengths in one call, an empty run among them
    NAMES = st.text(st.characters(codec="utf-8") | st.sampled_from("dé \ufeff\udcff"), min_size=1, max_size=3)
    TAILS = st.sampled_from([0, 1, 9, 10, 99, 100, 1000]) | st.integers(0, 30)
    QUERY_IDS = st.sampled_from(["q1", "q2", "é"]) | NAMES
    MIXED = st.lists(st.tuples(QUERY_IDS, st.lists(NAMES, max_size=4), TAILS), max_size=5)

    @settings(max_examples=200, deadline=None)
    @given(MIXED, st.sampled_from(["irfkit", "tag", "t\u00e9"]) | NAMES)
    def test_the_same_bytes_as_the_per_line_writer(self, tmp_path_factory, drawn, run_tag):
        runs = [FreezingRunList(q, docs[:1], [*docs[1:], *(f"p{i}" for i in range(n))]) for q, docs, n in drawn]
        outcomes = []
        for writer in (write_freezing_run, reference_write_freezing_run):
            path = tmp_path_factory.getbasetemp() / "mixed.run"
            path.unlink(missing_ok=True)
            try:
                writer(runs, path, run_tag)
            except ValueError as error:
                outcomes.append((type(error), str(error), path.exists()))
            else:
                outcomes.append(path.read_bytes())
        assert outcomes[0] == outcomes[1]

    def test_freezing_run_reads_back(self, tmp_path):
        runs = (FreezingRunList(query_id, ["D1"], ["D2", "D3"]) for query_id in ("q1", "q2"))
        write_freezing_run(runs, tmp_path / "run.txt")
        assert parse_run(tmp_path / "run.txt") == {"q1": ["D1", "D2", "D3"], "q2": ["D1", "D2", "D3"]}

    def test_session_log_is_json_lines(self, small_setup, tmp_path):
        idx, topic, qrels = small_setup
        budget = BudgetConfig(2, 2, final_depth=10)
        run = run_irf(idx, topic, "rm3", ModelParams(mu=1.0), budget, make_qrels_judge(qrels))
        path = tmp_path / "log.jsonl"
        write_session_log([run], path)
        records = [json.loads(line) for line in path.read_text().splitlines()]
        assert [r["iteration"] for r in records] == [rec.iteration for rec in run.records]
        assert all(r["query_id"] == "q" for r in records)
        assert {tuple(j) for r in records for j in r["judgments"]} == {
            (doc, rel) for rec in run.records for doc, rel in rec.judgments
        }


class TestFreezingInvariantsRandomized:
    def test_invariants_over_random_sessions(self):
        rng = random.Random(11)
        for trial in range(150):
            docs = random_corpus(rng.randint(3, 25), vocab_size=12, seed=trial)
            topics = random_topics(2, vocab_size=12, seed=trial + 1)
            qrels = random_qrels(topics, docs, seed=trial + 2)
            idx = build_index(docs)
            k = rng.randint(1, 4)
            n = rng.randint(1, 4)
            model_kind = rng.choice(MODEL_KINDS)
            budget = BudgetConfig(k, n, final_depth=rng.choice([20, 50]))
            topic = topics[trial % 2]
            run = run_irf(
                idx, topic, model_kind, ModelParams(mu=5.0), budget, make_qrels_judge(qrels)
            )
            shown_in_order = [d for rec in run.records for d in rec.shown]
            assert run.frozen == shown_in_order
            assert len(set(run.frozen)) == len(run.frozen)
            assert set(run.frozen).isdisjoint(run.tail)
            assert len(set(run.tail)) == len(run.tail)
            assert len(run.frozen) + len(run.tail) <= budget.final_depth
            judged = [d for rec in run.records for d, _ in rec.judgments]
            assert len(judged) == len(set(judged))
            assert len(judged) <= budget.total_budget
            for rec in run.records:
                assert len(rec.shown) <= k
