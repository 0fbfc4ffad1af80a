import importlib.util
from pathlib import Path

import pytest

from irfkit.session import MODEL_KINDS

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "run_synthetic_experiment.py"


def load_script():
    spec = importlib.util.spec_from_file_location("run_synthetic_experiment", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_budget_split_table(capsys):
    script = load_script()
    assert script.main(["--queries", "4", "--passages", "400", "--samples", "200"]) == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    rows = [row for row in rows if row and row[0] in MODEL_KINDS]
    assert [row[:2] for row in rows] == [
        [model, metric] for model in MODEL_KINDS for metric in ("map", "ndcg20")
    ]
    for row in rows:
        # the initial ranking and the 10x1, 5x2, 2x5 and 1x10 splits; a cell
        # may carry the significance marks * and +
        values = [float(cell.rstrip("*+")) for cell in row[2:]]
        assert len(values) == 5 and all(0.0 <= value <= 1.0 for value in values)


def test_integer_option_is_an_ascii_number(capsys):
    # the number rule of irfkit's own options: 1_0 is not 10
    script = load_script()
    with pytest.raises(SystemExit) as exc:
        script.main(["--seed", "1_0"])
    assert exc.value.code == 2
    assert "--seed" in capsys.readouterr().err
