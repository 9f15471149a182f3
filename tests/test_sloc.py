"""tools/sloc.py, the line counter that src/ sizes are quoted from, on a
fixture module small enough to count by hand."""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

_PATH = Path(__file__).resolve().parent.parent / "tools" / "sloc.py"
_SPEC = importlib.util.spec_from_file_location("sloc", _PATH)
sloc = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(sloc)

# code: X (line 5), every line of TEXT (7-9), the two defs (12, 16) and
# the two returns (17, 19); the docstrings, comments and blanks are not
FIXTURE = '''"""A module docstring
over two lines."""

# a comment-only line
X = 1  # a trailing comment

TEXT = """a string
that spans
three lines"""


def outer(a):
    """The docstring of outer."""
    # a comment inside

    def inner(b):
        return b + 1

    return inner(a)
'''
CODE_LINES = {5, 7, 8, 9, 12, 16, 17, 19}


def _fixture(tmp_path):
    path = tmp_path / "fixture.py"
    path.write_text(FIXTURE, encoding="utf-8")
    return path


def test_count_separates_code_from_docstrings_and_comments(tmp_path):
    raw, code, tree = sloc.count(_fixture(tmp_path))
    assert raw == 19
    assert code == CODE_LINES
    assert tree.body[-1].name == "outer"


def test_main_lists_totals_and_nested_functions(tmp_path, capsys):
    """A nested function counts inside its parent and is listed on its own."""
    _fixture(tmp_path)
    assert sloc.main([str(tmp_path)]) == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines() if line.strip()]
    assert rows == [
        ["module", "raw", "code"],
        ["fixture.py", "19", "8"],
        ["total", "19", "8"],
        ["largest", "functions", "raw", "code"],
        ["fixture.py:outer", "8", "4"],
        ["fixture.py:inner", "2", "2"],
    ]


def test_a_closed_reader_stops_it_quietly():
    """Writing to a pipe whose reader is gone, as under `| head -1`, ends
    with exit 0 and nothing on stderr, not a BrokenPipeError traceback."""
    r, w = os.pipe()
    os.close(r)  # closed before the child starts, so its first write fails
    try:
        proc = subprocess.run(
            [sys.executable, str(_PATH)], stdout=w, stderr=subprocess.PIPE, timeout=60
        )
    finally:
        os.close(w)
    assert (proc.returncode, proc.stderr) == (0, b"")
