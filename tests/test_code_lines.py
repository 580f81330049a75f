"""tools/code_lines.py, on small modules written to a temporary directory."""

import importlib.util
from pathlib import Path

_PATH = Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"
_SPEC = importlib.util.spec_from_file_location("code_lines", _PATH)
code_lines = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(code_lines)

# Docstrings on lines 1-3 and 9; code on lines 8, 10, 11, 12 and 13.
SAMPLE = '''"""A module docstring
that runs over
three lines."""

# A comment-only line.


def f(x):
    """A function docstring."""
    total = (x +
             1)
    "a bare string, not a docstring"
    return total
'''


def test_count_splits_code_from_docstrings(tmp_path):
    path = tmp_path / "sample.py"
    path.write_text(SAMPLE)
    assert code_lines.count(path) == (5, 4)


def test_main_totals_every_module(tmp_path, capsys):
    (tmp_path / "sample.py").write_text(SAMPLE)
    (tmp_path / "one.py").write_text("x = 1\n")
    (tmp_path / "notes.txt").write_text("not a module\n")
    code_lines.main([str(tmp_path)])
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert rows == [
        ["module", "code", "docs"],
        ["one.py", "1", "0"],
        ["sample.py", "5", "4"],
        ["total", "6", "4"],
    ]
