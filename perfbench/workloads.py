"""The three workloads: what is set up, what one timed operation is, and how
its output is checked.

Each workload runs in one process as a closed loop with one client: the next
operation starts when the previous one returns.  Operations come in units
(a round of sessions, an ingest pass, a cycle of CLI commands) so that every
run holds the same mix; the harness runs units until its time is up.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import os
import shutil
import statistics
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Any

from irfkit import cli, corpus_io, evaluation, index, session, synthetic
from irfkit.feedback import ModelParams

import textgen
from hostspeed import HostSpeed

# The parameters of scripts/run_synthetic_experiment.py.
PARAMS = ModelParams(
    mu=50.0, interp_lambda=0.5, num_expansion_terms=20,
    lambda1=0.2, lambda2=0.4, beta=1.0, gamma=0.5,
)
BUDGETS = ((10, 1), (5, 2), (2, 5), (1, 10))


@dataclass
class OpRecord:
    """One timed operation.  ``items`` and ``item_time`` feed items_per_s:
    the sessions, documents entering an ingest pass or grid points the
    operation handles, and whether its time counts as time spent on them.
    ``output`` is what verify() checks; ``error`` is set if the
    operation raised or its output is wrong."""

    kind: str
    key: str
    unit: int
    seconds: float
    items: int = 0
    item_time: bool = False
    extra: dict = field(default_factory=dict)
    output: Any = None
    error: str | None = None
    ref_seconds: float = 0.0  # ``seconds`` at the reference host speed


def percentile(values: list[float], pct: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * pct // 100))
    return ordered[int(rank) - 1]


def tail_percentile(count: int) -> int:
    """Highest whole percentile with at least ten samples beyond it (0 if
    the run is too short for any)."""
    for pct in range(99, 49, -1):
        if count - -(-count * pct // 100) >= 10:
            return pct
    return 0


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def budget_name(docs_per_iter: int, iterations: int) -> str:
    return f"{docs_per_iter}x{iterations}"


class Workload:
    Size: type  # the dataclass of the workload's sizes; its defaults define it
    # A run holds at least this many units, however slow the machine.
    min_units = 1

    def __init__(self, workdir: Path, seed: int, size=None) -> None:
        self.workdir = workdir
        self.seed = seed
        self.size = size or self.Size()
        self.tracer = None  # set while the run is traced
        self.host = HostSpeed()

    def op(self, kind: str, op_id: str):
        """Context of one timed operation; a span when tracing."""
        if self.tracer is None:
            return contextlib.nullcontext()
        return self.tracer.op(kind, op_id)

    def done(self, record: OpRecord) -> OpRecord:
        """Probe the host after a timed operation, outside its timer."""
        record.ref_seconds = self.host.at_reference(record.seconds)
        return record

    def prepare(self) -> None:
        """Generate the benchmark's own inputs, once and untimed."""

    def setup(self) -> None:
        """The program's set-up, timed as setup_s; runs several times."""
        raise NotImplementedError

    def run_unit(self, unit: int) -> list[OpRecord]:
        raise NotImplementedError

    def verify(self, records: list[OpRecord], digests: dict | None) -> None:
        """Set ``error`` on every record whose output is wrong."""

    def sizes(self) -> dict:
        raise NotImplementedError

    def summary(self, records: list[OpRecord]) -> dict:
        """Workload-specific figures for the report, beyond the metrics."""
        return {}


def error_text(exc: Exception) -> str:
    return f"raised {type(exc).__name__}: {exc}"


# -- sessions -----------------------------------------------------------------


@dataclass(frozen=True)
class SessionsSize:
    queries: int = 25
    background: int = 18_000


class SessionsWorkload(Workload):
    """Sessions back to back.  Unit u runs every model x budget on topic
    u mod 25, so every unit holds the same mix and a run moves through the
    topics."""

    Size = SessionsSize
    min_units = 8  # 128 sessions, so op_ms_p90 has ten samples beyond it

    def setup(self) -> None:
        self.index = None  # drop the previous repetition's index first
        docs, self.topics, self.qrels = synthetic.topical_corpus(
            num_queries=self.size.queries, background_docs=self.size.background, seed=self.seed
        )
        self.index = index.build_index(docs)
        self.combos = [(model, session.BudgetConfig(k, n))
                       for model in session.MODEL_KINDS for k, n in BUDGETS]

    def sizes(self) -> dict:
        return {"passages": self.index.num_docs, "queries": len(self.topics),
                "vocabulary": self.index.stats.vocab_size}

    def run_unit(self, unit: int) -> list[OpRecord]:
        records = []
        topic = self.topics[unit % len(self.topics)]
        for model, budget in self.combos:
            key = f"{model}/{budget_name(budget.docs_per_iter, budget.iterations)}/{topic.query_id}"
            run, error = None, None
            with self.op("session", key):
                judge = session.make_qrels_judge(self.qrels)
                start = perf_counter()
                try:
                    run = session.run_irf(self.index, topic, model, PARAMS, budget, judge)
                except Exception as exc:
                    error = error_text(exc)
                elapsed = perf_counter() - start
            records.append(self.done(OpRecord("session", key, unit, elapsed, 1, True,
                                              {"budget": budget}, run, error)))
        return records

    def session_digest(self, run: session.FreezingRunList) -> str:
        """SHA-256 of the session's run-file lines followed by its log lines,
        both written by the program's own writers."""
        run_path = self.workdir / "session.run"
        log_path = self.workdir / "session.sessions.jsonl"
        session.write_freezing_run([run], run_path)
        session.write_session_log([run], log_path)
        return sha256(run_path.read_bytes() + log_path.read_bytes())

    def verify(self, records, digests) -> None:
        expected = (digests or {}).get("sessions")
        for record in records:
            if record.error:
                continue
            run = record.output
            problems = check_freezing_run(run, record.extra["budget"])
            if expected is not None:
                want = expected.get(record.key)
                if want is None:
                    problems.append("no committed digest")
                elif self.session_digest(run) != want:
                    problems.append("run file or session log differs from the committed digest")
            if problems:
                record.error = "; ".join(problems)

    def summary(self, records) -> dict:
        """MAP@1000 and NDCG@20 per model x budget over the sessions run,
        the layout of the paper's result table."""
        cells: dict[str, dict[str, list[float]]] = {}
        for record in records:
            run = record.output
            if run is None:
                continue
            combo = record.key.rsplit("/", 1)[0]
            cell = cells.setdefault(combo, {"map": [], "ndcg20": []})
            cell["map"].append(evaluation.average_precision(run.doc_ids, self.qrels, run.query_id))
            cell["ndcg20"].append(evaluation.ndcg_at_20(run.doc_ids, self.qrels, run.query_id))
        quality = {
            combo: {"queries": len(cell["map"]),
                    "map": sum(cell["map"]) / len(cell["map"]),
                    "ndcg20": sum(cell["ndcg20"]) / len(cell["ndcg20"])}
            for combo, cell in sorted(cells.items())
        }
        latencies = [r.ref_seconds * 1000 for r in records]
        named = {"session_ms_p50": statistics.median(latencies),
                 "session_ms_p90": percentile(latencies, 90),
                 "sessions_per_s": len(records) / sum(r.ref_seconds for r in records)}
        return {"named": named, "quality": quality}


def check_freezing_run(run: session.FreezingRunList, budget: session.BudgetConfig) -> list[str]:
    """Seed-independent invariants of one freezing run list."""
    problems = []
    if len(set(run.frozen)) != len(run.frozen):
        problems.append("duplicate documents in the frozen prefix")
    if not run.aborted and len(run.frozen) != budget.total_budget:
        problems.append(f"frozen prefix holds {len(run.frozen)} documents, budget is {budget.total_budget}")
    if set(run.tail) & set(run.frozen):
        problems.append("tail repeats a frozen document")
    if len(set(run.tail)) != len(run.tail):
        problems.append("duplicate documents in the tail")
    if len(run.doc_ids) > budget.final_depth:
        problems.append("run list longer than the final depth")
    return problems


# -- ingest -------------------------------------------------------------------


@dataclass(frozen=True)
class IngestSize:
    docs: int = 20_000
    stems: int = 8_000


class IngestWorkload(Workload):
    """TREC text to a saved snapshot, then the snapshot back into memory.

    An operation is one call of the pipeline (parse, normalize, build, save,
    load); one pass of the five is a unit.  The text is rendered once,
    untimed; set-up is the program's first read of it.
    """

    Size = IngestSize
    min_units = 3
    STAGES = ("parse", "normalize", "build", "save", "load")

    def __init__(self, workdir, seed, size=None):
        super().__init__(workdir, seed, size)
        self.corpus_path = workdir / "collection.trectext"
        self.snapshot = workdir / "ingest-index"

    def prepare(self) -> None:
        self.collection = textgen.render_collection(
            self.corpus_path, self.size.docs, self.size.stems, self.seed
        )

    def setup(self) -> None:
        corpus_io.load_stoplist()
        list(corpus_io.parse_trec_collection(self.corpus_path, "trectext"))

    def sizes(self) -> dict:
        return {"passages": self.collection.num_docs, "tokens": self.collection.num_tokens,
                "stems": self.collection.num_stems,
                "text_bytes": self.corpus_path.stat().st_size}

    def run_unit(self, unit: int) -> list[OpRecord]:
        records: list[OpRecord] = []
        outputs: dict[str, Any] = {}

        def stage(kind: str, call) -> None:
            start = perf_counter()
            try:
                outputs[kind] = call()
            finally:
                records.append(self.done(OpRecord(kind, kind, unit, perf_counter() - start)))

        problems = []
        with self.op("pass", f"ingest/{unit}"):
            try:
                stage("parse", lambda: list(corpus_io.parse_trec_collection(
                    self.corpus_path, "trectext")))
                stoplist = corpus_io.load_stoplist()
                stage("normalize", lambda: list(corpus_io.normalize_collection(
                    outputs["parse"], stoplist, "krovetz")))
                stage("build", lambda: index.build_index(
                    outputs["normalize"], {"stemmer": "krovetz", "stoplist": sorted(stoplist)}))
                stage("save", lambda: index.save_index(outputs["build"], self.snapshot))
                stage("load", lambda: index.load_index(self.snapshot))
            except Exception as exc:
                problems.append(error_text(exc))

        # items_per_s: documents through the whole pass, parse to load
        records[0].items = self.collection.num_docs
        for record in records:
            record.item_time = True
        if not problems:
            sequences, built = outputs["normalize"], outputs["build"]
            problems = check_ingest(sequences, built, outputs["load"], stoplist,
                                    self.collection)
            terms = sum(len(seq.terms) for seq in sequences)
            records[-1].extra["terms_per_token"] = terms / self.collection.num_tokens
            records[-1].output = ingest_digest(sequences, built)
        if problems:  # the pass's output is wrong, so every stage of it fails
            for record in records:
                record.error = "; ".join(problems)
        return records

    def verify(self, records, digests) -> None:
        expected = (digests or {}).get("ingest")
        if expected is None:
            return
        wrong = {r.unit for r in records if r.output is not None and r.output != expected}
        for record in records:
            if record.unit in wrong:
                record.error = "normalized terms or index differ from the committed digest"

    def summary(self, records) -> dict:
        def total(kinds) -> float:
            return sum(r.ref_seconds for r in records if r.kind in kinds)

        passes = len({r.unit for r in records})
        named = {"index_docs_per_s": self.collection.num_docs * passes
                 / total(self.STAGES[:-1]),
                 "load_s": statistics.median(r.ref_seconds for r in records if r.kind == "load")}
        ratios = [r.extra["terms_per_token"] for r in records if "terms_per_token" in r.extra]
        return {"named": named, "terms_per_token": ratios[0] if ratios else None}


def check_ingest(sequences, built, loaded, stoplist, collection) -> list[str]:
    """Seed-independent checks of one ingest pass."""
    problems = []
    if loaded != built:
        problems.append("load_index(save_index(x)) != x")
    if built.num_docs != collection.num_docs:
        problems.append(f"indexed {built.num_docs} of {collection.num_docs} documents")
    if any(term in stoplist for term in built.postings):
        problems.append("a stopword reached the index")
    terms = sum(len(seq.terms) for seq in sequences)
    if not 0 < terms < collection.num_tokens:
        problems.append(f"{terms} terms from {collection.num_tokens} tokens")
    return problems


def ingest_digest(sequences, built) -> str:
    """SHA-256 of every document's normalized terms, in order, and of the
    index built from them: document lengths and each term's postings."""
    digest = hashlib.sha256()
    for seq in sequences:
        digest.update(f"{seq.doc_id}\t{' '.join(seq.terms)}\n".encode())
    digest.update(f"{built.doc_ids}\n{built.doc_lengths}\n".encode())
    for term in sorted(built.postings):
        digest.update(f"{term}\t{built.postings[term]}\n".encode())
    return digest.hexdigest()


def snapshot_bytes(directory: Path) -> int:
    return sum(path.stat().st_size for path in directory.iterdir() if path.is_file())


# -- tune ---------------------------------------------------------------------


@dataclass(frozen=True)
class TuneSize:
    queries: int = 20
    background: int = 3_400


# Grid files: one mu shared by every point while interp_lambda and
# num_expansion_terms (rm3) or lambda1 and lambda2 (distill) vary, so grid
# points share first pages and, for distill, EM fits that do not depend on
# interp_lambda or the term count.
GRIDS = {
    "rm3": "mu=50\ninterp_lambda=0.3,0.6\nnum_expansion_terms=10,20\n",
    "distill": "mu=50\nlambda1=0.1,0.3\nlambda2=0.2,0.4\ninterp_lambda=0.5\n"
               "num_expansion_terms=20\n",
}
# Every line of a grid file is an axis of its model and every combination is
# valid (lambda1 + lambda2 < 1), so a grid has the product of its line lengths.
GRID_POINTS = {model: math.prod(len(line.split("=", 1)[1].split(","))
                                for line in text.splitlines())
               for model, text in GRIDS.items()}
SWEEP_BUDGET = (5, 2)
# run_a is one-shot feedback, run_b spends the same ten judgments one at a
# time: compare then asks the paper's question.
RUNS = {"a": ("rm3", 10, 1), "b": ("rm3", 1, 10)}


class TuneWorkload(Workload):
    """The CLI as an experimenter drives it: run, eval, compare, sweep.  An
    operation is one command; one cycle of the seven is a unit."""

    Size = TuneSize
    min_units = 3

    def setup(self) -> None:
        self.built = None
        docs, self.topics, self.qrels = synthetic.topical_corpus(
            num_queries=self.size.queries, background_docs=self.size.background, seed=self.seed
        )
        self.built = index.build_index(docs)
        index.save_index(self.built, self.workdir / "idx")
        (self.workdir / "topics.tsv").write_text(
            "".join(f"{t.query_id}\t{' '.join(t.terms)}\n" for t in self.topics), "utf-8"
        )
        corpus_io.write_qrels(self.qrels, self.workdir / "qrels.txt")
        (self.workdir / "params.txt").write_text(
            "".join(f"{k}={v}\n" for k, v in sorted(PARAMS.to_dict().items())), "utf-8"
        )
        for model, text in GRIDS.items():
            (self.workdir / f"grid_{model}.txt").write_text(text, "utf-8")
        (self.workdir / "runs").mkdir(exist_ok=True)
        (self.workdir / "reports").mkdir(exist_ok=True)

    def sizes(self) -> dict:
        return {"passages": self.built.num_docs, "queries": len(self.topics),
                "vocabulary": self.built.stats.vocab_size, "grid_points": GRID_POINTS}

    def commands(self) -> list[tuple[str, str, list[str], list[str]]]:
        """(kind, key, argv, output files) of one cycle, paths relative to the
        work directory so the run-file and report bytes do not depend on it."""
        common = ["--index", "idx", "--topics", "topics.tsv", "--qrels", "qrels.txt"]
        out = []
        for name, (model, k, n) in RUNS.items():
            run = f"runs/{name}.run"
            out.append(("run", f"run_{name}", ["run", *common, "--model", model,
                        "--docs-per-iter", str(k), "--iterations", str(n),
                        "--params", "params.txt", "--output", run],
                        [run, run + ".sessions.jsonl"]))
        for name in RUNS:
            report = f"reports/{name}.eval"
            out.append(("eval", f"eval_{name}", ["eval", "--run", f"runs/{name}.run",
                        "--qrels", "qrels.txt", "--output", report], [report]))
        out.append(("compare", "compare_ab", ["compare", "--run-a", "runs/a.run",
                    "--run-b", "runs/b.run", "--qrels", "qrels.txt",
                    "--output", "reports/ab.compare"], ["reports/ab.compare"]))
        k, n = SWEEP_BUDGET
        for model in GRIDS:
            report = f"reports/{model}.sweep"
            out.append(("sweep", f"sweep_{model}", ["sweep", *common, "--model", model,
                        "--docs-per-iter", str(k), "--iterations", str(n),
                        "--grid", f"grid_{model}.txt", "--output", report], [report]))
        return out

    def run_unit(self, unit: int) -> list[OpRecord]:
        records = []
        with working_directory(self.workdir):
            for kind, key, argv, outputs in self.commands():
                sink = io.StringIO()
                code, error = None, None
                with self.op(kind, f"{key}/{unit}"), contextlib.redirect_stdout(sink), \
                        contextlib.redirect_stderr(sink):
                    start = perf_counter()
                    try:
                        code = cli.main(argv)
                    except Exception as exc:
                        error = error_text(exc)
                    elapsed = perf_counter() - start
                record = OpRecord(kind, key, unit, elapsed, error=error)
                if kind == "sweep":
                    record.items = GRID_POINTS[key.split("_", 1)[1]]
                    record.item_time = True
                if error is None and code != 0:
                    record.error = f"exit code {code}: {sink.getvalue().strip()[-300:]}"
                elif error is None:
                    record.output = {path: Path(path).read_bytes() for path in outputs}
                records.append(self.done(record))
        return records

    def verify(self, records, digests) -> None:
        expected = (digests or {}).get("tune")
        try:
            direct = self.direct_run_files()
            round_trip = index.load_index(self.workdir / "idx") == self.built
            oracle_error = None
        except Exception as exc:
            oracle_error = error_text(exc)
        for record in records:
            if record.error:
                continue
            outputs = record.output
            problems = []
            if record.kind == "run" and oracle_error:
                problems.append(f"the library's own run {oracle_error}")
            elif record.kind == "run":
                name = record.key.split("_", 1)[1]
                if outputs[f"runs/{name}.run"] != direct[name]:
                    problems.append("CLI run file differs from session.write_freezing_run")
                if not round_trip:
                    problems.append("load_index(save_index(x)) != x")
            if expected is not None:
                for path, data in outputs.items():
                    if expected.get(path) != sha256(data):
                        problems.append(f"{path} differs from the committed digest")
            if problems:
                record.error = "; ".join(problems)

    def direct_run_files(self) -> dict[str, bytes]:
        """The run files of RUNS computed through the library on the index
        built in set-up, with topics read the way the CLI reads them."""
        analysis = self.built.analysis
        topics = corpus_io.parse_topics(
            self.workdir / "topics.tsv", "tsv",
            frozenset(analysis.get("stoplist", ())), analysis.get("stemmer", "krovetz"),
        )
        qrels = corpus_io.parse_qrels(self.workdir / "qrels.txt")
        out = {}
        for name, (model, k, n) in RUNS.items():
            budget = session.BudgetConfig(k, n)
            runs = [session.run_irf(self.built, t, model, PARAMS, budget,
                                    session.make_qrels_judge(qrels)) for t in topics]
            path = self.workdir / f"direct_{name}.run"
            session.write_freezing_run(runs, path)
            out[name] = path.read_bytes()
        return out

    def summary(self, records) -> dict:
        def median_ms(kind: str) -> float:
            return statistics.median(r.ref_seconds * 1000 for r in records if r.kind == kind)

        sweeps = [r for r in records if r.kind == "sweep"]
        named = {"grid_point_ms": sum(r.ref_seconds for r in sweeps) * 1000
                 / sum(r.items for r in sweeps),
                 "run_s": median_ms("run") / 1000, "eval_ms": median_ms("eval"),
                 "compare_ms": median_ms("compare")}
        reports = {path: data.decode("utf-8")
                   for r in records if r.unit == 0 and r.output
                   for path, data in r.output.items() if path.startswith("reports/")}
        return {"named": named, "reports": reports}


@contextlib.contextmanager
def working_directory(path: Path):
    previous = os.getcwd()
    os.chdir(path)
    try:
        yield
    finally:
        os.chdir(previous)


WORKLOADS = {"sessions": SessionsWorkload, "ingest": IngestWorkload, "tune": TuneWorkload}


def clean(workdir: Path) -> None:
    shutil.rmtree(workdir, ignore_errors=True)
