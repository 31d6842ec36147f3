"""tools/ab.py: its summary of recorded runs, and its refusal to compare
trees whose benchmarks differ; tools/op_digests.py on one tree twice."""

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
