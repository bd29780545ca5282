#!/usr/bin/env python3
"""Count the lines of each module of `src/nclie`, and in total.

Two numbers per module: code lines, the lines that hold a token other than
a comment outside every docstring, and all lines.  A docstring is the
string that opens a module, class or function body.

Usage: python scripts/line_count.py [--src src/nclie]
"""

import argparse
import ast
import io
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SKIP = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
        tokenize.ENCODING, tokenize.ENDMARKER}


def count(source: str) -> tuple[int, int]:
    """(code lines, all lines) of one module's source."""
    docs = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                docs.update(range(first.lineno, first.end_lineno + 1))
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in SKIP:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return len(code - docs), len(source.splitlines())


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--src", type=Path, default=ROOT / "src" / "nclie")
    args = ap.parse_args()
    rows = [(path.name, *count(path.read_text())) for path in sorted(args.src.glob("*.py"))]
    rows.append(("total", sum(r[1] for r in rows), sum(r[2] for r in rows)))
    print(f"{'module':<16s} {'code':>6s} {'all':>6s}")
    for name, code, total in rows:
        print(f"{name:<16s} {code:>6d} {total:>6d}")


if __name__ == "__main__":
    main()
