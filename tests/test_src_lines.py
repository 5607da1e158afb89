"""tools/src_lines.py on a small package."""

import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "src_lines.py"

SNIPPET = '''"""A module docstring
over two lines."""

# a comment line
import math  # a trailing comment


def area(r):
    """A function docstring."""

    return (math.pi
            * r * r)


TEXT = """a string
that is not a docstring"""
'''


def test_counts_lines_and_code_lines(tmp_path):
    (tmp_path / "geometry.py").write_text(SNIPPET)
    (tmp_path / "empty.py").write_text("")
    out = subprocess.run([sys.executable, str(TOOL), "--src", str(tmp_path)],
                         capture_output=True, text=True, check=True).stdout
    # code: import, def, the two lines of the return and the two of TEXT
    assert [line.split() for line in out.splitlines()] == [
        ["file", "lines", "code"], ["empty.py", "0", "0"], ["geometry.py", "16", "6"],
        ["total", "16", "6"]]
