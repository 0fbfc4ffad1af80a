"""Smoke test of the benchmark harness at a tiny size, so it cannot rot.

    python3 -m pytest perfbench

Not part of the repository's test suite (pytest's testpaths is tests/).
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import hostspeed  # noqa: E402
import run  # noqa: E402
import textgen  # noqa: E402
import workloads  # noqa: E402
from irfkit import corpus_io, krovetz, session  # noqa: E402

TINY = {
    "sessions": workloads.SessionsSize(queries=5, background=200),
    "ingest": workloads.IngestSize(docs=300, stems=200),
    "tune": workloads.TuneSize(queries=5, background=200),
}
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", sorted(TINY))
def test_run_reports_every_metric(name, trace, tmp_path):
    args = argparse.Namespace(workload=name, seed=3, seconds=0.01, trace=trace)
    result = run.run(args, out=tmp_path, size=TINY[name])

    assert result["correct"], result
    assert result["failed"] == 0 and result["attempted"] >= 1
    listed = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in listed} == {
        name: metric["unit"] for name, metric in result["metrics"].items()
    }
    if not trace:
        assert all(metric["value"] > 0 for metric in result["metrics"].values())
    for function in (session.run_irf, krovetz.stem, corpus_io.normalize):
        assert not hasattr(function, "__wrapped__"), "tracing left a wrapper installed"
    assert not list(tmp_path.glob("work-*")), "work directory left behind"


def test_traced_sessions_show_layer_profile(tmp_path):
    args = argparse.Namespace(workload="sessions", seed=3, seconds=0.01, trace=1)
    metrics = run.run(args, out=tmp_path, size=TINY["sessions"])["metrics"]
    assert metrics["ranking.retrieve_calls"]["value"] >= 2
    assert metrics["session.judge_calls"]["value"] == 10
    for model in ("rm3", "distill", "rocchio", "prob"):
        shares = metrics[f"ranking.share.{model}"]["value"] + metrics[f"feedback.share.{model}"]["value"]
        assert 0 < shares <= 1


def test_digest_gate_rejects_unknown_outputs(tmp_path):
    workload = workloads.SessionsWorkload(tmp_path, 3, TINY["sessions"])
    workload.setup()
    records = workload.run_unit(0)
    workload.verify(records, {"sessions": {}})
    assert all(r.error == "no committed digest" for r in records)


def test_ingest_digest_gate_rejects_other_terms(tmp_path):
    workload = workloads.IngestWorkload(tmp_path, 3, TINY["ingest"])
    workload.prepare()
    records = workload.run_unit(0)
    assert [r.kind for r in records] == list(workloads.IngestWorkload.STAGES)
    assert not any(r.error for r in records)
    workload.verify(records, {"ingest": "0" * 64})
    assert all(r.error for r in records)


def test_an_exception_in_the_program_fails_the_operation(tmp_path, monkeypatch):
    workload = workloads.SessionsWorkload(tmp_path, 3, TINY["sessions"])
    workload.setup()

    def broken(*args, **kwargs):
        raise RuntimeError("boom")

    monkeypatch.setattr(session, "run_irf", broken)
    records = workload.run_unit(0)
    workload.verify(records, None)
    assert all(r.error == "raised RuntimeError: boom" for r in records)


def test_each_operation_of_the_mix_is_timed_at_its_median_repetition():
    def record(key: str, unit: int, seconds: float) -> workloads.OpRecord:
        # as if the host ran at half the reference speed
        return workloads.OpRecord("session", key, unit, seconds, 1, True, ref_seconds=seconds / 2)

    records = [record("rm3/10x1/q00", unit, seconds)
               for unit, seconds in enumerate([0.4, 0.2, 0.3])]
    records.append(record("prob/1x10/q00", 0, 1.0))
    assert run.typical_seconds(records) == {
        "rm3/10x1/q00": (0.15, 1, True), "prob/1x10/q00": (0.5, 1, True)}
    metrics = run.end_to_end(records, [2.0, 1.0, 3.0], 100.0)
    assert metrics["setup_s"] == 2.0
    assert metrics["op_ms_p50"] == 325.0 and metrics["op_ms_p90"] == 500.0
    assert metrics["items_per_s"] == 2 / 0.65


def test_times_are_scaled_by_the_probes_around_them():
    host = hostspeed.HostSpeed()
    host.at_reference(0.25)
    before = list(host.last)
    assert len(before) == 1 + int(0.25 / hostspeed.PERIOD_S)
    scaled = host.at_reference(0.01)
    assert len(host.last) == 1 and host.samples == before + host.last
    assert scaled == 0.01 * hostspeed.REFERENCE_S / statistics.fmean(before + host.last)


def test_freezing_invariants_catch_a_repeated_document():
    run_list = session.FreezingRunList("q", ["d1", "d2"], ["d2", "d3"])
    problems = workloads.check_freezing_run(run_list, session.BudgetConfig(2, 1))
    assert problems == ["tail repeats a frozen document"]


def test_generated_text_is_deterministic_and_exercises_normalization(tmp_path):
    first = textgen.render_collection(tmp_path / "a.trectext", 200, 100, seed=5)
    second = textgen.render_collection(tmp_path / "b.trectext", 200, 100, seed=5)
    assert first.path.read_bytes() == second.path.read_bytes()
    docs = list(corpus_io.parse_trec_collection(first.path))
    stoplist = corpus_io.default_stoplist()
    assert set(textgen.STOPWORDS) <= stoplist
    tokens = [t for d in docs for t in corpus_io.normalize(d.text, frozenset(), "none")]
    assert len(tokens) == first.num_tokens
    kept = [t for t in tokens if t not in stoplist]
    assert 0.3 < 1 - len(kept) / len(tokens) < 0.5  # stop filter removes function words
    changed = sum(1 for t in kept if krovetz.stem(t) != t)
    assert changed / len(kept) > 0.2  # the stemmer's rules fire
    assert any(c.isupper() for d in docs for c in d.text)  # casefolding has work


def test_exits_nonzero_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        BENCHMARK["command"] + ["--workload", "sessions", "--seed", "0", "--seconds", "1",
                                "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
