"""The command-line handling of ``scripts/bench_layers.py``, with its timed
child processes replaced by canned rows."""

import importlib.util
import json
import os
import subprocess
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bench_layers.py"


@pytest.fixture
def bench_layers():
    spec = importlib.util.spec_from_file_location("bench_layers", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def canned_children(monkeypatch, module) -> list[list[str]]:
    """Stub the script's child runs: the k-th call reports row ``a`` at
    k ms and row ``b`` at 2k ms.  Returns the list of argvs it was given."""
    calls = []

    def run(argv, **kwargs):
        calls.append(argv)
        s = len(calls) / 1000
        rows = [{"name": "a", "s": s, "E": 3}, {"name": "b", "s": 2 * s, "M": 1}]
        return subprocess.CompletedProcess(argv, 0, "".join(json.dumps(r) + "\n" for r in rows))

    monkeypatch.setattr(module.subprocess, "run", run)
    return calls


def test_bench_layers_without_arguments_writes_one_local_file(bench_layers, monkeypatch,
                                                              tmp_path):
    calls = canned_children(monkeypatch, bench_layers)
    monkeypatch.chdir(tmp_path)
    assert bench_layers.main([]) == 0
    assert [argv[2:] for argv in calls] == [
        ["--child", "--src", os.path.join(bench_layers.ROOT, "src")]] * bench_layers.REPEATS
    assert os.listdir(tmp_path) == ["BENCH_local.json"]
    report = json.loads((tmp_path / "BENCH_local.json").read_text())
    assert report["label"] == "local" and report["repeats"] == 10
    assert "alternated_with" not in report
    a, b = report["rows"]
    assert (a["name"], a["best_s"], a["median_s"], a["E"]) == ("a", 0.001, 0.0055, 3)
    assert (b["name"], b["best_s"], b["median_s"], b["M"]) == ("b", 0.002, 0.011, 1)
    assert a["q1_s"] < a["median_s"] < a["q3_s"]


def test_bench_layers_needs_labels_for_two_checkouts(bench_layers, monkeypatch, tmp_path,
                                                     capsys):
    calls = canned_children(monkeypatch, bench_layers)
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        bench_layers.main(["--src", "one", "--src", "two"])
    assert exc.value.code == 2
    assert "give one --label per --src" in capsys.readouterr().err
    assert calls == [] and os.listdir(tmp_path) == []
