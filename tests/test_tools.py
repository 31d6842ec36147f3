"""tools/ab.py: its summary of recorded runs, and its refusal to compare
trees whose benchmarks differ; tools/op_digests.py on one tree twice;
tools/census.py's three passes on the 2x2 0-1 set."""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("ab", ROOT / "tools" / "ab.py")
ab = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ab)

END_TO_END = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]


def test_summary_reproduces_the_recorded_cells():
    entries = json.loads((ROOT / "BENCH_38.json").read_text())["bench_pairs"]
    cells = [(entry[m["name"]], m) for entry in entries for m in END_TO_END]
    assert len(cells) == 24
    for cell, metric in cells:
        got = ab.summary(cell["parent"], cell["change"], metric["better"], metric["bound"])
        for key in ("parent_median_q1_q3", "change_median_q1_q3"):
            assert got[key] == pytest.approx(cell[key], abs=5e-5)
        assert got["change_better"] == cell["change_better"]
        assert got["verdict"] in ("no worse", "unresolved")


def _tree(root: Path, run_py: str, benchmark: dict) -> Path:
    (root / "src").mkdir(parents=True)
    (root / "bench").mkdir()
    (root / "bench" / "run.py").write_text(run_py)
    (root / "BENCHMARK.json").write_text(json.dumps(benchmark))
    return root


def test_trees_whose_benchmarks_differ_are_refused_before_any_run(tmp_path, capsys):
    marker = tmp_path / "ran"
    run_py = f"open({str(marker)!r}, 'w').close()\n"
    benchmark = {"command": [sys.executable, "bench/run.py"], "run_seconds": 1,
                 "workloads": [{"name": "w"}], "end_to_end": END_TO_END}
    parent = _tree(tmp_path / "p", run_py, benchmark)
    change = _tree(tmp_path / "c", run_py + " ", benchmark)
    assert ab.main([str(parent), str(change), "--pairs", "2"]) == 2
    assert "bench differs" in capsys.readouterr().err
    assert not marker.exists()
    # the same trees with their benchmarks equal do run; this run.py prints
    # no result, so the first run stops the tool
    with pytest.raises(SystemExit) as stop:
        ab.main([str(parent), str(parent), "--pairs", "2"])
    assert stop.value.code == 2 and marker.exists()
    assert "the parent run of w at seed 1 failed (exit code 0)" in capsys.readouterr().err


def test_op_digests_of_a_tree_against_itself_agree():
    # both runs hash every op of each workload at seeds 0 and 401
    run = subprocess.run([sys.executable, str(ROOT / "tools" / "op_digests.py"), str(ROOT),
                          str(ROOT)], stdout=subprocess.PIPE, text=True, timeout=300)
    lines = run.stdout.splitlines()
    assert run.returncode == 0, run.stdout
    assert len(lines) == 8 and not any("DIFFERS" in line for line in lines)


@pytest.fixture
def census(monkeypatch):
    """tools/census.py, its settings of the BLAS thread counts and of sys.path
    undone after the test."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, "1")
    monkeypatch.setattr(sys, "path", sys.path[:])
    spec = importlib.util.spec_from_file_location("census", ROOT / "tools" / "census.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _differences(out: str) -> list[int]:
    """Every count of float/exact differences that census.py printed: the
    "float/exact differences" line, and each table column headed
    "differences" or "skip differences"."""
    counts, columns, width = [], [], 0
    for line in out.splitlines():
        head, _, rest = line.strip().partition(": ")
        cells = rest.split(", ")
        if head == "float/exact differences":
            counts += [int(cell.split()[-1]) for cell in cells]
        elif not line.startswith("    "):  # a header: its columns
            columns = [i for i, cell in enumerate(cells) if cell.endswith("differences")]
            width = len(cells)
        elif len(cells) == width:  # a row of the table under that header
            counts += [int(cells[i].split()[0].replace(",", "")) for i in columns]
    return counts


def test_census_passes_find_no_difference_on_the_2x2_0_1_set(census, capsys):
    # runs each pass through the private names it imports from geninv
    census.census(2, (0, 1))
    census.criterion_pass(2, (0, 1))
    census.pair_pass(2, (0, 1), None)
    counts = _differences(capsys.readouterr().out)
    assert len(counts) == (3 + 2 * len(census._SUITES) + len(census.CRITERIA)
                           + len(census.PAIR_SUITES) + len(census.OrderKind))
    assert counts == [0] * len(counts)
