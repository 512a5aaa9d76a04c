"""The bench JSON merge helper stamps every section with its provenance.

``benchmarks/conftest.py`` is loaded under its own name, as pytest would
only load it for the benchmark directory.
"""

import importlib.util
import json
import os
import platform
import shutil
import subprocess
from datetime import datetime, timedelta
from pathlib import Path

import numpy as np
import pytest

CONFTEST = Path(__file__).resolve().parent.parent / "benchmarks" / "conftest.py"


@pytest.fixture()
def bench():
    spec = importlib.util.spec_from_file_location("bench_conftest", CONFTEST)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _merge_two(bench, path):
    path.write_text(json.dumps({"kept": {"x": 1}, "a": {"v": 0}}))
    bench.merge_bench_json(path, {"a": {"v": 1}})
    bench.merge_bench_json(path, {"b": {"v": 2}})
    return json.loads(path.read_text())


def test_merge_stamps_each_section_and_keeps_the_rest(bench, tmp_path):
    data = _merge_two(bench, tmp_path / "BENCH.json")
    assert (data["kept"], data["a"], data["b"]) == ({"x": 1}, {"v": 1}, {"v": 2})
    stamps = data["provenance"]
    assert set(stamps) == {"a", "b"}
    for stamp in stamps.values():
        assert set(stamp) == {
            "commit", "dirty", "date_utc", "nproc", "python", "numpy"
        }
        assert stamp["commit"] is None or len(stamp["commit"]) == 40
        assert (stamp["commit"] is None) == (stamp["dirty"] is None)
        assert datetime.fromisoformat(stamp["date_utc"]).utcoffset() == timedelta(0)
        assert 1 <= stamp["nproc"] <= os.cpu_count()
        assert stamp["python"] == platform.python_version()
        assert stamp["numpy"] == np.__version__


@pytest.mark.skipif(shutil.which("git") is None, reason="needs git")
def test_commit_and_dirty_flag(bench, tmp_path, monkeypatch):
    repo = (tmp_path / "repo").resolve()
    repo.mkdir()
    monkeypatch.setattr(bench, "REPO_ROOT", repo)
    path = repo / "BENCH.json"
    assert _merge_two(bench, path)["provenance"]["a"]["commit"] is None

    def git(*args):
        subprocess.run(
            ["git", "-c", "user.name=bench", "-c", "user.email=bench@example.com",
             "-c", "commit.gpgsign=false", *args],
            cwd=repo, check=True, capture_output=True,
        )

    (repo / "code.py").write_text("x = 1\n")
    git("init", "-q")
    git("add", "code.py", "BENCH.json")
    git("commit", "-q", "-m", "seed")
    head = subprocess.run(
        ["git", "rev-parse", "HEAD"], cwd=repo, check=True, capture_output=True,
        text=True,
    ).stdout.strip()
    # Rewriting the bench file itself does not make the tree dirty...
    stamps = _merge_two(bench, path)["provenance"]
    assert stamps["a"]["commit"] == stamps["b"]["commit"] == head
    assert stamps["a"]["dirty"] is stamps["b"]["dirty"] is False
    # ...but a modified tracked file does.
    (repo / "code.py").write_text("x = 2\n")
    assert _merge_two(bench, path)["provenance"]["b"]["dirty"] is True
