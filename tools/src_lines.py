#!/usr/bin/env python3
"""Line counts of the simulator's sources, per file and in total.

Usage, from the repository root:

    python3 tools/src_lines.py [--src DIR]

For every `*.py` file directly under DIR (default `src/leofl`) it prints the
file's line count and its code lines: the lines that hold a token other than
a comment or a docstring, so blank lines, comment lines and docstrings do not
count. A statement or string that spans several lines counts each of them.
The last row is the total.
"""

import argparse
import ast
import io
import tokenize
from pathlib import Path

_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
           tokenize.ENCODING, tokenize.ENDMARKER}


def _docstring_starts(source: str) -> set[tuple[int, int]]:
    """(row, column) of every module, class and function docstring."""
    starts = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                starts.add((first.lineno, first.col_offset))
    return starts


def counts(source: str) -> tuple[int, int]:
    """(lines, code lines) of one Python source text."""
    docstrings = _docstring_starts(source)
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type in _LAYOUT or (tok.type == tokenize.STRING and tok.start in docstrings):
            continue
        code.update(range(tok.start[0], tok.end[0] + 1))
    return len(source.splitlines()), len(code)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", type=Path, default=Path("src/leofl"))
    args = parser.parse_args()
    rows = [(path.name, *counts(path.read_text(encoding="utf-8")))
            for path in sorted(args.src.glob("*.py"))]
    rows.append(("total", sum(r[1] for r in rows), sum(r[2] for r in rows)))
    width = max(len(name) for name, _, _ in rows)
    print(f"{'file':<{width}}  {'lines':>6}  {'code':>6}")
    for name, lines, code in rows:
        print(f"{name:<{width}}  {lines:>6}  {code:>6}")


if __name__ == "__main__":
    main()
