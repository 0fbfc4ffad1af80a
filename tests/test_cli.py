import io

import pytest

from irfkit import cli, corpus_io, session
from irfkit.feedback import ModelParams


@pytest.fixture
def indexed(tmp_path, toy_paths):
    index_dir = tmp_path / "index"
    rc = cli.main(
        [
            "index",
            "--corpus", str(toy_paths["corpus"]),
            "--format", "trectext",
            "--output", str(index_dir),
        ]
    )
    assert rc == 0
    return index_dir


def run_args(indexed, toy_paths, tmp_path, model="rm3", k="1", n="3", extra=()):
    return [
        "run",
        "--index", str(indexed),
        "--topics", str(toy_paths["topics"]),
        "--qrels", str(toy_paths["qrels"]),
        "--model", model,
        "--docs-per-iter", k,
        "--iterations", n,
        "--set", "mu=1.0",
        "--set", "interp_lambda=0.5",
        "--output", str(tmp_path / "run.txt"),
        *extra,
    ]


def sweep_args(indexed, toy_paths, extra=()):
    return [
        "sweep",
        "--index", str(indexed),
        "--topics", str(toy_paths["topics"]),
        "--qrels", str(toy_paths["qrels"]),
        "--model", "rm3",
        "--docs-per-iter", "1",
        "--iterations", "1",
        *extra,
    ]


def compare_args(toy_paths, tmp_path):
    run = str(tmp_path / "run.txt")
    return ["compare", "--run-a", run, "--run-b", run, "--qrels", str(toy_paths["qrels"])]


class TestIndexCommand:
    def test_bundled_fixture_stats(self, tmp_path, toy_paths, capsys):
        rc = cli.main(
            [
                "index",
                "--corpus", str(toy_paths["corpus"]),
                "--output", str(tmp_path / "index"),
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "documents      6" in out
        assert "vocabulary     4" in out

    def test_bad_format_flag_exits_2(self, tmp_path, toy_paths, capsys):
        with pytest.raises(SystemExit) as excinfo:
            cli.main(
                [
                    "index",
                    "--corpus", str(toy_paths["corpus"]),
                    "--format", "docx",
                    "--output", str(tmp_path / "x"),
                ]
            )
        assert excinfo.value.code == 2

    def test_missing_corpus_is_data_error(self, tmp_path, capsys):
        rc = cli.main(
            ["index", "--corpus", str(tmp_path / "none"), "--output", str(tmp_path / "x")]
        )
        assert rc == 1
        assert "error" in capsys.readouterr().err


class TestRunCommand:
    def test_writes_run_log_and_config_echo(self, indexed, toy_paths, tmp_path, capsys):
        rc = cli.main(run_args(indexed, toy_paths, tmp_path))
        assert rc == 0
        run_file = tmp_path / "run.txt"
        assert run_file.exists()
        assert (tmp_path / "run.txt.sessions.jsonl").exists()
        echo = (tmp_path / "run.txt.config").read_text()
        assert "model=rm3" in echo and "mu=1.0" in echo

    def test_run_file_matches_oracle_trace(self, indexed, toy_paths, tmp_path):
        cli.main(run_args(indexed, toy_paths, tmp_path))
        docs = [line.split()[2] for line in (tmp_path / "run.txt").read_text().splitlines()]
        assert docs == ["d1", "d3", "d2", "d5", "d4"]

    def test_ten_iteration_budget_runs_until_candidates_exhausted(
        self, indexed, toy_paths, tmp_path
    ):
        rc = cli.main(run_args(indexed, toy_paths, tmp_path, k="1", n="10"))
        assert rc == 0
        lines = (tmp_path / "run.txt.sessions.jsonl").read_text().splitlines()
        # feedback expansion eventually reaches every toy doc, after which
        # the session runs out of unshown candidates and stops early
        assert 1 <= len(lines) <= 10
        docs = [line.split()[2] for line in (tmp_path / "run.txt").read_text().splitlines()]
        assert len(docs) == len(set(docs)) == 6

    def test_unknown_model_exits_2(self, indexed, toy_paths, tmp_path):
        with pytest.raises(SystemExit) as excinfo:
            cli.main(run_args(indexed, toy_paths, tmp_path, model="splade"))
        assert excinfo.value.code == 2

    def test_rerun_is_byte_identical(self, indexed, toy_paths, tmp_path):
        cli.main(run_args(indexed, toy_paths, tmp_path))
        first = (tmp_path / "run.txt").read_bytes()
        first_echo = (tmp_path / "run.txt.config").read_bytes()
        cli.main(run_args(indexed, toy_paths, tmp_path))
        assert (tmp_path / "run.txt").read_bytes() == first
        assert (tmp_path / "run.txt.config").read_bytes() == first_echo

    @pytest.mark.parametrize("with_params_file", [False, True])
    def test_config_echo_keys(self, indexed, toy_paths, tmp_path, with_params_file):
        # the echo is every run option, with --params and --set echoed as the parameters
        # they resolve to: a new run option changes this list only on purpose
        (tmp_path / "params.txt").write_text("mu=2.0\n")
        extra = ("--params", str(tmp_path / "params.txt")) if with_params_file else ()
        cli.main(run_args(indexed, toy_paths, tmp_path, extra=extra))
        lines = (tmp_path / "run.txt.config").read_text().splitlines()
        keys = [line.split("=", 1)[0] for line in lines]
        run_keys = ["index", "topics", "topics_format", "qrels", "model", "docs_per_iter",
                    "iterations", "final_depth", "output", "interactive", "run_tag"]
        assert keys == sorted(run_keys + list(ModelParams().to_dict()))

    def test_unknown_param_in_file_is_data_error(self, indexed, toy_paths, tmp_path, capsys):
        params = tmp_path / "params.txt"
        params.write_text("mu=1.0\nwarp=9\n")
        args = run_args(indexed, toy_paths, tmp_path, extra=("--params", str(params)))
        rc = cli.main(args)
        assert rc == 1
        assert "warp" in capsys.readouterr().err

    def test_bad_param_value_names_file_line_and_key(self, indexed, toy_paths, tmp_path, capsys):
        params = tmp_path / "params.txt"
        params.write_text("# tuned\nmu=1.0\nnum_expansion_terms=2.5\n")
        args = run_args(indexed, toy_paths, tmp_path, extra=("--params", str(params)))
        assert cli.main(args) == 1
        err = capsys.readouterr().err
        assert f"{params}:3:" in err and "'num_expansion_terms'" in err and "'2.5'" in err

    def test_repeated_param_key_is_data_error(self, indexed, toy_paths, tmp_path, capsys):
        params = tmp_path / "params.txt"
        params.write_text("mu=100\nmu=200\n")
        args = run_args(indexed, toy_paths, tmp_path, extra=("--params", str(params)))
        assert cli.main(args) == 1
        assert capsys.readouterr().err == f"error: {params}:2: key 'mu' is already on line 1\n"

    def test_repeated_set_item_overrides_the_earlier(self, indexed, toy_paths, tmp_path):
        # --set is a list of overrides, not a file: the last item for a key wins
        assert cli.main(run_args(indexed, toy_paths, tmp_path, extra=("--set", "mu=2.0"))) == 0
        assert "mu=2.0" in (tmp_path / "run.txt.config").read_text().splitlines()

    def test_non_finite_param_is_data_error(self, indexed, toy_paths, tmp_path, capsys):
        args = run_args(indexed, toy_paths, tmp_path, extra=("--set", "lambda1=nan"))
        assert cli.main(args) == 1
        assert "lambda1 must be finite, got nan" in capsys.readouterr().err

    def test_a_score_that_is_not_finite_is_data_error(self, indexed, toy_paths, tmp_path, capsys):
        # mu * cf overflows to inf, and the query's scores with it
        args = run_args(indexed, toy_paths, tmp_path, extra=("--set", "mu=1e308"))
        assert cli.main(args) == 1
        assert "the score of doc 'd1' is not finite: nan" in capsys.readouterr().err
        assert not (tmp_path / "run.txt").exists()

    def test_a_mu_whose_background_underflows_is_data_error(self, indexed, toy_paths, tmp_path, capsys):
        args = run_args(indexed, toy_paths, tmp_path, extra=("--set", "mu=5e-324"))
        assert cli.main(args) == 1
        assert "error: mu=5e-324 is so small that mu * cf / total_terms is 0.0" in capsys.readouterr().err
        assert not (tmp_path / "run.txt").exists()

    def test_set_without_equals_is_data_error(self, indexed, toy_paths, tmp_path, capsys):
        args = run_args(indexed, toy_paths, tmp_path, extra=("--set", "mu"))
        assert cli.main(args) == 1
        assert "--set: expected key=value, got 'mu'" in capsys.readouterr().err

    @pytest.mark.parametrize("tag", ["my tag", ""])
    def test_run_tag_a_run_line_cannot_hold_is_data_error(self, indexed, toy_paths, tmp_path, capsys, tag):
        args = run_args(indexed, toy_paths, tmp_path, extra=("--run-tag", tag))
        assert cli.main(args) == 1
        assert "run tag" in capsys.readouterr().err
        assert not (tmp_path / "run.txt").exists()

    def test_run_tag_utf8_cannot_encode_is_refused_before_any_judgment(
        self, indexed, toy_paths, tmp_path, capsys, monkeypatch
    ):
        # a process decodes argv bytes that are not UTF-8 to lone surrogates: $'t\xff' is 't\udcff'
        judged = []
        spy = lambda qrels: lambda query_id, doc_id: judged.append(doc_id) or qrels.is_relevant(query_id, doc_id)
        monkeypatch.setattr(session, "make_qrels_judge", spy)
        run_file = tmp_path / "run.txt"
        run_file.write_bytes(b"q1 Q0 d1 1 1.000000 old\n")
        assert cli.main(run_args(indexed, toy_paths, tmp_path, extra=("--run-tag", "t\udcff"))) == 1
        assert "error: run tag 't\\udcff' is empty or contains" in capsys.readouterr().err
        assert judged == [] and run_file.read_bytes() == b"q1 Q0 d1 1 1.000000 old\n"
        assert cli.main(run_args(indexed, toy_paths, tmp_path)) == 0 and judged  # the spy sees judgments

    def test_topic_id_a_run_line_cannot_hold_is_data_error(self, indexed, toy_paths, tmp_path, capsys):
        topics = tmp_path / "topics.tsv"
        topics.write_text("q 1\tapple\n")
        args = run_args(indexed, toy_paths, tmp_path)
        args[args.index("--topics") + 1] = str(topics)
        assert cli.main(args) == 1
        assert f"{topics}:1: query id 'q 1'" in capsys.readouterr().err

    def test_run_with_tag_round_trips_through_eval(self, indexed, toy_paths, tmp_path, capsys):
        assert cli.main(run_args(indexed, toy_paths, tmp_path, extra=("--run-tag", "my-tag"))) == 0
        run_file = tmp_path / "run.txt"
        assert {line.split()[5] for line in run_file.read_text().splitlines()} == {"my-tag"}
        assert cli.main(["eval", "--run", str(run_file), "--qrels", str(toy_paths["qrels"])]) == 0
        assert "all\tmap\t" in capsys.readouterr().out

    def test_qrels_required_without_interactive(self, indexed, toy_paths, tmp_path, capsys):
        args = run_args(indexed, toy_paths, tmp_path)
        idx = args.index("--qrels")
        del args[idx : idx + 2]
        rc = cli.main(args)
        assert rc == 2

    def test_interactive_matches_replayed_simulated_judge(
        self, indexed, toy_paths, tmp_path, monkeypatch
    ):
        # simulated run first
        cli.main(run_args(indexed, toy_paths, tmp_path))
        simulated = (tmp_path / "run.txt").read_bytes()
        # the oracle trace judges d1 yes, d3 yes, d2 no
        monkeypatch.setattr("sys.stdin", io.StringIO("y\ny\nn\n"))
        args = run_args(indexed, toy_paths, tmp_path, extra=("--interactive",))
        idx = args.index("--qrels")
        del args[idx : idx + 2]
        args[args.index(str(tmp_path / "run.txt"))] = str(tmp_path / "run2.txt")
        rc = cli.main(args)
        assert rc == 0
        assert (tmp_path / "run2.txt").read_bytes() == simulated


class TestEvalCommand:
    def test_perfect_run_scores_map_one(self, tmp_path, toy_paths, capsys):
        run_file = tmp_path / "perfect.txt"
        lines = [
            f"q1 Q0 {doc} {rank} {10.0 - rank:.6f} tag"
            for rank, doc in enumerate(["d1", "d3", "d5", "d2", "d4", "d6"], 1)
        ]
        run_file.write_text("\n".join(lines) + "\n")
        rc = cli.main(
            ["eval", "--run", str(run_file), "--qrels", str(toy_paths["qrels"]), "--metric", "map"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "all\tmap\t1.0000" in out

    def test_report_file_written(self, tmp_path, toy_paths):
        run_file = tmp_path / "r.txt"
        run_file.write_text("q1 Q0 d1 1 1.000000 tag\n")
        report = tmp_path / "report.tsv"
        rc = cli.main(
            [
                "eval",
                "--run", str(run_file),
                "--qrels", str(toy_paths["qrels"]),
                "--output", str(report),
            ]
        )
        assert rc == 0
        text = report.read_text()
        assert "q1\tmap\t" in text and "q1\tndcg20\t" in text

    def test_malformed_run_is_data_error(self, tmp_path, toy_paths, capsys):
        run_file = tmp_path / "bad.txt"
        run_file.write_text("q1 d1 1\n")
        rc = cli.main(["eval", "--run", str(run_file), "--qrels", str(toy_paths["qrels"])])
        assert rc == 1

    def test_docs_ordered_by_score_not_rank(self, tmp_path, capsys):
        # trec_eval sorts by score and ignores the rank field, which some systems write as 0
        run_file = tmp_path / "r.txt"
        run_file.write_text("q1 Q0 d1 0 1.0 t\nq1 Q0 d2 0 9.0 t\n")
        qrels = tmp_path / "qrels.txt"
        qrels.write_text("q1 0 d1 0\nq1 0 d2 1\n")
        rc = cli.main(["eval", "--run", str(run_file), "--qrels", str(qrels), "--metric", "map"])
        assert rc == 0
        assert "all\tmap\t1.0000" in capsys.readouterr().out

    def test_score_ties_broken_by_doc_id_descending(self, tmp_path):
        run_file = tmp_path / "r.txt"
        run_file.write_text("q1 Q0 d1 1 5.0 t\nq1 Q0 d3 2 5.0 t\nq1 Q0 d2 3 7.0 t\n")
        assert corpus_io.parse_run(run_file) == {"q1": ["d2", "d3", "d1"]}

    @pytest.mark.parametrize("score", ["nan", "inf", "-inf", "high", "1_0.0", "\u0661.0"])
    def test_bad_score_is_data_error(self, tmp_path, toy_paths, capsys, score):
        run_file = tmp_path / "r.txt"
        run_file.write_text(f"q1 Q0 d1 1 2.0 t\nq1 Q0 d2 2 {score} t\n", "utf-8")
        assert cli.main(["eval", "--run", str(run_file), "--qrels", str(toy_paths["qrels"])]) == 1
        assert f"{run_file}:2: bad score {score!r}" in capsys.readouterr().err

    @pytest.mark.parametrize("rank", ["1_0", "\u0661"])
    def test_rank_is_an_ascii_integer(self, tmp_path, toy_paths, capsys, rank):
        run_file = tmp_path / "r.txt"
        run_file.write_text(f"q1 Q0 d1 1 2.0 t\nq1 Q0 d2 {rank} 1.0 t\n", "utf-8")
        assert cli.main(["eval", "--run", str(run_file), "--qrels", str(toy_paths["qrels"])]) == 1
        assert f"{run_file}:2: non-integer rank {rank!r}" in capsys.readouterr().err

    def test_repeated_doc_is_data_error(self, tmp_path, toy_paths, capsys):
        run_file = tmp_path / "dup.txt"
        run_file.write_text("q1 Q0 d1 1 2.000000 t\nq1 Q0 d1 2 1.000000 t\n")
        assert cli.main(["eval", "--run", str(run_file), "--qrels", str(toy_paths["qrels"])]) == 1
        assert f"{run_file}:2: doc 'd1' of query 'q1' is already on line 1" in capsys.readouterr().err


class TestCompareCommand:
    def test_run_against_itself_not_significant(self, indexed, toy_paths, tmp_path, capsys):
        cli.main(run_args(indexed, toy_paths, tmp_path))
        capsys.readouterr()
        rc = cli.main(
            [
                "compare",
                "--run-a", str(tmp_path / "run.txt"),
                "--run-b", str(tmp_path / "run.txt"),
                "--qrels", str(toy_paths["qrels"]),
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "p=1.0000: not significant" in out

    def test_mismatched_query_sets_exit_1(self, tmp_path, capsys):
        (tmp_path / "a.txt").write_text("q1 Q0 d1 1 1.000000 t\n")
        (tmp_path / "b.txt").write_text("q2 Q0 d9 1 1.000000 t\n")
        (tmp_path / "q.txt").write_text("q1 0 d1 1\nq2 0 d9 1\n")
        rc = cli.main(
            [
                "compare",
                "--run-a", str(tmp_path / "a.txt"),
                "--run-b", str(tmp_path / "b.txt"),
                "--qrels", str(tmp_path / "q.txt"),
            ]
        )
        assert rc == 1
        assert "query sets differ" in capsys.readouterr().err


    def test_repeated_doc_is_data_error(self, tmp_path, toy_paths, capsys):
        (tmp_path / "a.txt").write_text("q1 Q0 d1 1 2.000000 t\nq1 Q0 d2 2 1.000000 t\n")
        (tmp_path / "b.txt").write_text("q1 Q0 d1 1 2.000000 t\nq1 Q0 d1 2 1.000000 t\n")
        rc = cli.main(
            [
                "compare",
                "--run-a", str(tmp_path / "a.txt"),
                "--run-b", str(tmp_path / "b.txt"),
                "--qrels", str(toy_paths["qrels"]),
            ]
        )
        assert rc == 1
        assert "doc 'd1' of query 'q1' is already on line 1" in capsys.readouterr().err

    def test_samples_below_one_is_data_error(self, tmp_path, toy_paths, capsys):
        (tmp_path / "a.txt").write_text("q1 Q0 d1 1 1.000000 t\n")
        rc = cli.main(
            [
                "compare",
                "--run-a", str(tmp_path / "a.txt"),
                "--run-b", str(tmp_path / "a.txt"),
                "--qrels", str(toy_paths["qrels"]),
                "--samples", "0",
            ]
        )
        assert rc == 1
        assert "samples must be >= 1" in capsys.readouterr().err


    @pytest.mark.parametrize("queries", [3, 25])  # exact enumeration and sampling
    def test_negative_seed_is_data_error(self, tmp_path, queries, capsys):
        # it succeeded on the exact branch and failed without naming seed on the other
        (tmp_path / "a.txt").write_text("".join(f"q{i} Q0 d{i} 1 1.000000 t\n" for i in range(queries)))
        (tmp_path / "q.txt").write_text("".join(f"q{i} 0 d{i} 1\n" for i in range(queries)))
        rc = cli.main(
            [
                "compare",
                "--run-a", str(tmp_path / "a.txt"),
                "--run-b", str(tmp_path / "a.txt"),
                "--qrels", str(tmp_path / "q.txt"),
                "--seed", "-1",
            ]
        )
        assert rc == 1
        assert "seed must be >= 0, got -1" in capsys.readouterr().err


class TestSweepCommand:
    def test_singleton_grid_matches_eval(self, indexed, toy_paths, tmp_path, capsys):
        cli.main(run_args(indexed, toy_paths, tmp_path))
        capsys.readouterr()
        rc = cli.main(
            [
                "eval",
                "--run", str(tmp_path / "run.txt"),
                "--qrels", str(toy_paths["qrels"]),
                "--metric", "map",
            ]
        )
        assert rc == 0
        eval_out = capsys.readouterr().out
        map_value = [l for l in eval_out.splitlines() if l.startswith("all")][0].split("\t")[2]

        grid = tmp_path / "grid.txt"
        grid.write_text(
            "mu=1.0\ninterp_lambda=0.5\nnum_expansion_terms=20\n"
        )
        rc = cli.main(
            [
                "sweep",
                "--index", str(indexed),
                "--topics", str(toy_paths["topics"]),
                "--qrels", str(toy_paths["qrels"]),
                "--model", "rm3",
                "--docs-per-iter", "1",
                "--iterations", "3",
                "--grid", str(grid),
                "--folds", "1",
            ]
        )
        assert rc == 0
        sweep_out = capsys.readouterr().out
        pooled = [l for l in sweep_out.splitlines() if l.startswith("pooled")][0]
        assert pooled.split("\t")[4] == map_value

    def test_bad_grid_value_names_file_line_and_key(self, indexed, toy_paths, tmp_path, capsys):
        grid = tmp_path / "grid.txt"
        grid.write_text("interp_lambda=0.5\nmu=50,5o\n")
        rc = cli.main(sweep_args(indexed, toy_paths, extra=("--grid", str(grid))))
        assert rc == 1
        err = capsys.readouterr().err
        assert f"{grid}:2:" in err and "'mu'" in err and "'5o'" in err

    def test_unknown_grid_key_is_data_error(self, indexed, toy_paths, tmp_path, capsys):
        grid = tmp_path / "grid.txt"
        grid.write_text("warpfactor=2\n")
        rc = cli.main(sweep_args(indexed, toy_paths, extra=("--grid", str(grid))))
        assert rc == 1
        assert "warpfactor" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "text,message",
        [
            ("interp_lambda=0.5\nbeta=7,8\n", ":2: 'beta' is not a grid axis of rm3"),
            ("mu=100\nmu=200\n", ":2: key 'mu' is already on line 1"),
            ("interp_lambda=0.5\nem_tol=0.1\n", ":2: 'em_tol' is not a grid axis of rm3"),
            ("mu=\n", ":1: no values for 'mu'"),
            ("mu= , ,\n", ":1: no values for 'mu'"),
        ],
        ids=["other_model_axis", "repeated_axis", "field_not_an_axis", "no_values", "only_commas"],
    )
    def test_grid_line_the_model_cannot_use_names_file_and_line(
        self, indexed, toy_paths, tmp_path, capsys, text, message
    ):
        grid = tmp_path / "grid.txt"
        grid.write_text(text)
        rc = cli.main(sweep_args(indexed, toy_paths, extra=("--grid", str(grid))))
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: {grid}{message}") and captured.out == ""

    def test_too_few_topics_for_folds_is_data_error(self, indexed, toy_paths, tmp_path, capsys):
        rc = cli.main(sweep_args(indexed, toy_paths, extra=("--folds", "5")))
        assert rc == 1

    def test_zero_folds_is_data_error(self, indexed, toy_paths, tmp_path, capsys):
        rc = cli.main(sweep_args(indexed, toy_paths, extra=("--folds", "0")))
        assert rc == 1
        captured = capsys.readouterr()
        assert "folds must be >= 1, got 0" in captured.err and captured.out == ""


# the integer options of each command; a later occurrence of an option overrides the earlier
INTEGER_OPTIONS = [
    *(("run", option) for option in ("--docs-per-iter", "--iterations", "--final-depth")),
    *(("sweep", option) for option in ("--docs-per-iter", "--iterations", "--final-depth", "--folds")),
    ("compare", "--samples"),
    ("compare", "--seed"),
]


@pytest.mark.parametrize("text", ["1_0", "\u0661", "\uff11"], ids=["underscore", "arabic_indic", "fullwidth"])
@pytest.mark.parametrize("command,option", INTEGER_OPTIONS)
def test_integer_option_is_an_ascii_number(toy_paths, tmp_path, capsys, command, option, text):
    index = tmp_path / "index"  # the parser rejects the value before any file is read
    argv = {
        "run": run_args(index, toy_paths, tmp_path),
        "sweep": sweep_args(index, toy_paths),
        "compare": compare_args(toy_paths, tmp_path),
    }[command]
    with pytest.raises(SystemExit) as excinfo:
        cli.main([*argv, option, text])
    assert excinfo.value.code == 2
    err = capsys.readouterr().err
    assert f"argument {option}: " in err and repr(text) in err


@pytest.mark.parametrize("command", ["eval", "compare", "sweep"])
def test_report_command_without_qrels_exits_2(toy_paths, tmp_path, capsys, command):
    argv = {
        "eval": ["eval", "--run", str(tmp_path / "run.txt"), "--qrels", str(toy_paths["qrels"])],
        "sweep": sweep_args(tmp_path / "index", toy_paths),
        "compare": compare_args(toy_paths, tmp_path),
    }[command]
    at = argv.index("--qrels")
    del argv[at : at + 2]
    with pytest.raises(SystemExit) as excinfo:
        cli.main(argv)
    assert excinfo.value.code == 2
    assert "--qrels" in capsys.readouterr().err


# each text input with a byte that is not UTF-8, the line it is on, and the
# command and options that read the file
NON_UTF8_INPUTS = {
    "qrels": (b"q1 0 d1 1\nq1 0 d\xff2 1\n", 2, "run", ["--qrels"]),
    "run": (b"q1 Q0 d1 1 2.0 t\nq1 Q0 d\xff2 2 1.0 t\n", 2, "eval", ["--run"]),
    "topics_tsv": (b"q1\talpha\nq2\tbeta \xff\n", 2, "run", ["--topics"]),
    "topics_trec_title": (
        b"<top>\n<num> 1\n<title> \xff\n</top>\n",
        3,
        "run",
        ["--topics-format", "trec_title", "--topics"],
    ),
    "params": (b"mu=1.0\nb=\xff\n", 2, "run", ["--params"]),
    "grid": (b"mu=1.0\nb=\xff\n", 2, "sweep", ["--grid"]),
    "stoplist": (b"the\n\xff\n", 2, "index", ["--stoplist"]),
}


@pytest.mark.parametrize("kind", NON_UTF8_INPUTS)
def test_non_utf8_input_reports_path_and_line(indexed, toy_paths, tmp_path, capsys, kind):
    data, line, command, options = NON_UTF8_INPUTS[kind]
    bad = tmp_path / "bad.txt"
    bad.write_bytes(data)
    reads_bad = [*options, str(bad)]
    if command == "run":
        argv = run_args(indexed, toy_paths, tmp_path, extra=reads_bad)
    elif command == "eval":
        argv = ["eval", *reads_bad, "--qrels", str(toy_paths["qrels"])]
    elif command == "sweep":
        argv = sweep_args(indexed, toy_paths, extra=reads_bad)
    else:
        argv = ["index", "--corpus", str(toy_paths["corpus"]), "--output", str(tmp_path / "x"), *reads_bad]
    assert cli.main(argv) == 1
    assert capsys.readouterr().err == f"error: {bad}:{line}: not UTF-8 text\n"
