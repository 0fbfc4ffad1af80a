"""Golden outputs: the exact bytes of run files, session logs and sweep
reports on a small synthetic collection.

Refactors of the feedback models, the session loop or the CLI must leave
these digests unchanged.  A change that alters them on purpose says why in
CHANGES.md and re-records them with ``python tests/test_golden.py``.
"""

import hashlib
import sys

import pytest

from irfkit import cli, corpus_io, feedback, index, ranking, synthetic
from irfkit.feedback import ModelParams, write_key_values

MODELS = ("rm3", "distill", "rocchio", "prob")
BUDGETS = ((10, 1), (5, 2), (2, 5), (1, 10))
PARAMS = ModelParams(
    mu=50.0, interp_lambda=0.5, num_expansion_terms=20,
    lambda1=0.2, lambda2=0.4, beta=1.0, gamma=0.5,
)
GRIDS = {
    "rm3": "mu=50\ninterp_lambda=0.3,0.6\nnum_expansion_terms=10,20\n",
    "distill": "mu=50\nlambda1=0.1,0.3\nlambda2=0.2,0.4\ninterp_lambda=0.5\n"
               "num_expansion_terms=20\n",
}

RUN_DIGESTS = {
    "rm3.10x1": "ebb8afd3d5d01d493ae8de2087aaae14df95766443f48198566fda0c4fe0f632",
    "rm3.5x2": "69599fb8ae8998013663cfce6d0e15d1e375e900436e004ce8ee793d70b92ce3",
    "rm3.2x5": "517c80b8db37ed6c9d7f76a2c528746c5c4eb4bf06f599def17d898e885fbc0c",
    "rm3.1x10": "2d8fe7d25bf18ce0e03e1042778edf89c26591ed245f0b06c9d84d6817c7be59",
    "distill.10x1": "3c0dd805ae59fbd5ef7f556afb0dfc1dfdd29251445b128f83a540e51fca72b7",
    "distill.5x2": "99335ff78909811a5b230973a91288e8f21a66c131360fa02e90d1d9dd023628",
    "distill.2x5": "5fcb4366c109780aa2c01242566489dacd7a4318c31c9506f33f389d0420fddd",
    "distill.1x10": "8d9c1e7b8765a4fc73e0a2e7a9ebc87da7f52ec362fc67bbadf1bd77790a6675",
    "rocchio.10x1": "5dce5b30516eca597ec51a7f10ab7be7229d7dc06f5c224916e7aa9f257d3640",
    "rocchio.5x2": "3331185033e64a6cf22387d4c2c5840b8246c9043dd771414d3541cd65447f9c",
    "rocchio.2x5": "c4b591740b9382abebd26120cdc27179ec63b4e47ed94a1d107057c92a6593f6",
    "rocchio.1x10": "05f873409d0377745af5d543af2b74ff85e008419325efe1d6ef2676f8c86e99",
    "prob.10x1": "b202039485a7b55d21c4329fcb3380fdb2c703a541ff448c2250ea68886fad72",
    "prob.5x2": "7d3328e7ff2b2b425fae5fe67262c5e65310a81fe0fa72714b3c838695ff076f",
    "prob.2x5": "9b705706c8d53432cfdcbcb6426433b3d85f7e36219e770d5d5add0f1e6580f3",
    "prob.1x10": "26ada01365c43c80130166276d0280f034d4e358abce06fe49c912d11c3da813",
}
SWEEP_DIGESTS = {
    "rm3": "d6272b1cdf319c8a7349a9e26575a3f06b7a2d237cdf1613a72c8512e04293a5",
    "distill": "dacc07ee5067196079b216146e524bf1cacdb127c7ea823870ddc0a87f1f57c1",
}


def sha256(*blobs: bytes) -> str:
    digest = hashlib.sha256()
    for blob in blobs:
        digest.update(hashlib.sha256(blob).digest())
    return digest.hexdigest()


def make_workdir(root):
    docs, topics, qrels = synthetic.topical_corpus(
        num_queries=6, rel_per_query=20, distractors_per_query=20, background_docs=300, seed=3
    )
    index.save_index(index.build_index(docs), root / "idx")
    (root / "topics.tsv").write_text(
        "".join(f"{t.query_id}\t{' '.join(t.terms)}\n" for t in topics), "utf-8"
    )
    corpus_io.write_qrels(qrels, root / "qrels.txt")
    write_key_values(root / "params.txt", PARAMS.to_dict())
    for model, text in GRIDS.items():
        (root / f"grid_{model}.txt").write_text(text, "utf-8")
    return root


def common_args(root):
    return ["--index", str(root / "idx"), "--topics", str(root / "topics.tsv"),
            "--qrels", str(root / "qrels.txt")]


def run_digest(root, model, k, n):
    output = root / f"{model}.{k}x{n}.run"
    assert cli.main(["run", *common_args(root), "--model", model, "--docs-per-iter", str(k),
                     "--iterations", str(n), "--params", str(root / "params.txt"),
                     "--output", str(output)]) == 0
    log = output.with_name(output.name + ".sessions.jsonl")
    return sha256(output.read_bytes(), log.read_bytes())


def sweep_digest(root, model):
    output = root / f"{model}.sweep"
    assert cli.main(["sweep", *common_args(root), "--model", model, "--docs-per-iter", "5",
                     "--iterations", "2", "--grid", str(root / f"grid_{model}.txt"),
                     "--folds", "3", "--output", str(output)]) == 0
    return sha256(output.read_bytes())


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return make_workdir(tmp_path_factory.mktemp("golden"))


@pytest.mark.parametrize("model", MODELS)
@pytest.mark.parametrize("k,n", BUDGETS)
def test_run_file_and_session_log_bytes(workdir, model, k, n, capsys):
    assert run_digest(workdir, model, k, n) == RUN_DIGESTS[f"{model}.{k}x{n}"]


@pytest.mark.parametrize("model", sorted(GRIDS))
def test_sweep_report_bytes(workdir, model, capsys):
    assert sweep_digest(workdir, model) == SWEEP_DIGESTS[model]


def test_the_same_bytes_with_every_page_pruned(workdir, monkeypatch, capsys):
    # _PRUNE at 0 sends every retrieval with postings, page or tail, through the pruned loop
    monkeypatch.setattr(ranking, "_PRUNE", 0)
    matched, whole = [], []
    matching, accumulate = ranking._matching, ranking._accumulate
    monkeypatch.setattr(ranking, "_matching", lambda *args: matched.append(args[1]) or matching(*args))

    def accumulated(index, rows, *rest):
        whole.append(int((index.postings.offsets[rows + 1] - index.postings.offsets[rows]).sum()))
        return accumulate(index, rows, *rest)

    monkeypatch.setattr(ranking, "_accumulate", accumulated)
    runs = {f"{m}.{k}x{n}": run_digest(workdir, m, k, n) for m in MODELS for k, n in BUDGETS}
    assert runs == RUN_DIGESTS
    assert {m: sweep_digest(workdir, m) for m in GRIDS} == SWEEP_DIGESTS
    assert matched and not any(whole)  # only retrievals without postings take the full pass


def test_the_same_bytes_with_one_em_iterate_a_block(workdir, monkeypatch, capsys):
    # _EM_BLOCK at 1 steps the distillation EM one iterate between two reads of its stop test
    monkeypatch.setattr(feedback, "_EM_BLOCK", 1)
    runs = {f"{m}.{k}x{n}": run_digest(workdir, m, k, n) for m in MODELS for k, n in BUDGETS}
    assert runs == RUN_DIGESTS
    assert {m: sweep_digest(workdir, m) for m in GRIDS} == SWEEP_DIGESTS


def record(root) -> None:
    """Print the digest tables of the current code, for pasting above."""
    make_workdir(root)
    runs = {f"{m}.{k}x{n}": run_digest(root, m, k, n) for m in MODELS for k, n in BUDGETS}
    sweeps = {m: sweep_digest(root, m) for m in GRIDS}
    for name, table in (("RUN_DIGESTS", runs), ("SWEEP_DIGESTS", sweeps)):
        print(f"{name} = {{", file=sys.stderr)
        for key, value in table.items():
            print(f'    "{key}": "{value}",', file=sys.stderr)
        print("}", file=sys.stderr)


if __name__ == "__main__":
    import tempfile
    from pathlib import Path

    with tempfile.TemporaryDirectory() as scratch:
        record(Path(scratch))
