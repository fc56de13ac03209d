"""The declared-change rule of ``scripts/compare_outputs.py``."""

import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "compare_outputs.py"
_spec = importlib.util.spec_from_file_location("compare_outputs", SCRIPT)
compare_outputs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(compare_outputs)

CHANGED = ["seed1/case0/out/report.json", "seed1/classify/test.csv", "seed2/classify/test.csv"]


def test_every_change_declared_and_every_pattern_used():
    assert compare_outputs.undeclared(CHANGED, ["seed*/case0/out/report.json",
                                                "seed*/classify/*"]) == []


def test_star_crosses_directories():
    assert compare_outputs.undeclared(CHANGED, ["*.json", "*/test.csv"]) == []


def test_undeclared_change_fails():
    assert compare_outputs.undeclared(CHANGED, ["seed*/classify/*"]) == [
        "undeclared: seed1/case0/out/report.json"]


def test_stale_pattern_fails():
    assert compare_outputs.undeclared(CHANGED, ["*", "netinfo/*"]) == ["stale pattern: netinfo/*"]


def test_no_change_needs_no_pattern():
    assert compare_outputs.undeclared([], []) == []
    assert compare_outputs.undeclared([], ["*"]) == ["stale pattern: *"]


def test_comments_and_blank_lines_ignored(tmp_path):
    path = tmp_path / "expected.txt"
    path.write_text("# header\n\nseed*/out/*  # why\n   \n*.csv\n")
    assert compare_outputs.declared_patterns(path) == ["seed*/out/*", "*.csv"]

