"""Bench-harness unit tests: cache fingerprint, scale cells, rerun equality.

The fingerprint bug these pin down: a brand-new (untracked) module
changes simulator behaviour but is invisible to ``git diff HEAD``, so
the result cache kept serving cells measured against code that no
longer existed.  The fingerprint must react to untracked files and --
in the no-git fallback -- to ``benchmarks/`` edits, not just ``src/``.
"""

import os
import subprocess

import pytest

from benchmarks.harness import (
    FIGURE_SWEEPS,
    ResultCache,
    _scale_cell,
    code_fingerprint,
    run_sweep,
)


def _git(root, *argv):
    subprocess.run(
        ["git", "-C", str(root), *argv],
        check=True,
        capture_output=True,
        env={
            **os.environ,
            "GIT_AUTHOR_NAME": "t",
            "GIT_AUTHOR_EMAIL": "t@t",
            "GIT_COMMITTER_NAME": "t",
            "GIT_COMMITTER_EMAIL": "t@t",
        },
    )


@pytest.fixture
def repo(tmp_path):
    (tmp_path / "src").mkdir()
    (tmp_path / "benchmarks").mkdir()
    (tmp_path / "src" / "mod.py").write_text("A = 1\n")
    (tmp_path / "benchmarks" / "bench.py").write_text("B = 1\n")
    _git(tmp_path, "init", "-q")
    _git(tmp_path, "add", "-A")
    _git(tmp_path, "commit", "-q", "-m", "seed")
    return tmp_path


def test_fingerprint_sees_untracked_files(repo):
    clean = code_fingerprint(str(repo))
    (repo / "src" / "new_scheduler.py").write_text("C = 3\n")
    with_untracked = code_fingerprint(str(repo))
    assert with_untracked != clean
    # Content matters, not just presence.
    (repo / "src" / "new_scheduler.py").write_text("C = 4\n")
    assert code_fingerprint(str(repo)) != with_untracked
    (repo / "src" / "new_scheduler.py").unlink()
    assert code_fingerprint(str(repo)) == clean


def test_fingerprint_sees_untracked_benchmark_files(repo):
    clean = code_fingerprint(str(repo))
    (repo / "benchmarks" / "bench_new.py").write_text("D = 1\n")
    assert code_fingerprint(str(repo)) != clean


def test_fingerprint_still_sees_tracked_modifications(repo):
    clean = code_fingerprint(str(repo))
    (repo / "src" / "mod.py").write_text("A = 2\n")
    assert code_fingerprint(str(repo)) != clean


def test_fingerprint_covers_rt_substrate(repo):
    """``src/repro/rt`` (the asyncio substrate) must invalidate the
    bench cache like any other src/ code: tracked edits, new untracked
    modules, and the no-git fallback walk all have to see it."""
    rt = repo / "src" / "repro" / "rt"
    rt.mkdir(parents=True)
    (rt / "effects.py").write_text("E = 1\n")
    _git(repo, "add", "-A")
    _git(repo, "commit", "-q", "-m", "rt")
    clean = code_fingerprint(str(repo))
    (rt / "effects.py").write_text("E = 2\n")
    assert code_fingerprint(str(repo)) != clean
    _git(repo, "checkout", "--", ".")
    assert code_fingerprint(str(repo)) == clean
    (rt / "transport.py").write_text("T = 1\n")
    assert code_fingerprint(str(repo)) != clean


def test_fallback_fingerprint_covers_rt_substrate(tmp_path):
    rt = tmp_path / "src" / "repro" / "rt"
    rt.mkdir(parents=True)
    (rt / "effects.py").write_text("E = 1\n")
    base = code_fingerprint(str(tmp_path))
    assert base.startswith("src-")
    (rt / "effects.py").write_text("E = 2\n")
    assert code_fingerprint(str(tmp_path)) != base


def test_fallback_fingerprint_covers_benchmarks(tmp_path):
    """Without git, the walk must include benchmarks/ alongside src/."""
    (tmp_path / "src").mkdir()
    (tmp_path / "benchmarks").mkdir()
    (tmp_path / "src" / "mod.py").write_text("A = 1\n")
    (tmp_path / "benchmarks" / "bench.py").write_text("B = 1\n")
    base = code_fingerprint(str(tmp_path))
    assert base.startswith("src-")
    (tmp_path / "benchmarks" / "bench.py").write_text("B = 2\n")
    changed = code_fingerprint(str(tmp_path))
    assert changed != base
    assert changed.startswith("src-")


def test_scale_cell_shape():
    cell = _scale_cell(1000, processes=8)
    assert cell["clients"] == 1000
    assert cell["processes"] == 8
    assert cell["workload"] == "xcdn-scale"
    assert cell["config"]["delegation_chunk"] == 1024 * 1024
    assert "scheduler" not in cell
    assert FIGURE_SWEEPS["scale-smoke"] == [cell]


def test_rerun_cells_equal_the_first_run(tmp_path):
    """A cell records model outputs only, so two uncached runs of the
    same sweep are equal -- the property the result cache rests on, and
    one a wall-clock field in the record would break."""
    cache = ResultCache(str(tmp_path))
    first = run_sweep("smoke", seeds=1, jobs=1, cache=cache, use_cache=False)
    again = run_sweep("smoke", seeds=1, jobs=1, cache=cache, use_cache=False)
    assert first["cells"] and first["cells"] == again["cells"]
    assert first["totals"] == again["totals"]
    for record in first["cells"]:
        assert record["events"] > 0
        assert not {"wall_time", "events_per_second"} & set(record)
