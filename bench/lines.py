"""Count the lines of each Python module under a directory by kind.

    python3 bench/lines.py src

Every line of a module is one of four kinds:
  docstring  a line of a module's, class's or function's docstring, as
             `ast` finds them
  comment    a line whose only token is a comment, as `tokenize` finds it
  blank      a line of whitespace alone, outside any string
  code       any other line: a statement, a continuation, a line of a
             string that is not a docstring, or code with a comment after it

The table gives the four counts and their sum per module, in path order,
and the totals over the directory; the sum equals `wc -l`'s count.
"""

from __future__ import annotations

import ast
import io
import os
import sys
import tokenize

KINDS = ("code", "docstring", "comment", "blank")
# Tokens that mark no line as code.
_LAYOUT = {tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER,
           tokenize.COMMENT}


def kinds(text: str) -> list[str]:
    """The kind of each line of the module text."""
    kind = ["blank"] * len(text.splitlines())
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        # A comment ends its line, so any code on that line came before it.
        if tok.type == tokenize.COMMENT and kind[tok.start[0] - 1] == "blank":
            kind[tok.start[0] - 1] = "comment"
        elif tok.type not in _LAYOUT:
            kind[tok.start[0] - 1:tok.end[0]] = ["code"] * (tok.end[0] - tok.start[0] + 1)
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                kind[first.lineno - 1:first.end_lineno] = ["docstring"] * (
                    first.end_lineno - first.lineno + 1)
    return kind


def main() -> int:
    if len(sys.argv) != 2 or not os.path.isdir(sys.argv[1]):
        sys.exit(__doc__.split("\n\n")[1])
    root = sys.argv[1]
    modules = sorted(os.path.relpath(os.path.join(d, name), root)
                     for d, _, names in os.walk(root) for name in names if name.endswith(".py"))
    width = max([len(m) for m in modules] + [5])
    print(f"{'module':<{width}}" + "".join(f"{k:>10}" for k in KINDS) + f"{'lines':>10}")
    totals = dict.fromkeys(KINDS, 0)
    for module in modules:
        with open(os.path.join(root, module), encoding="utf-8") as fh:
            found = kinds(fh.read())
        counts = {k: found.count(k) for k in KINDS}
        for k in KINDS:
            totals[k] += counts[k]
        print(f"{module:<{width}}" + "".join(f"{counts[k]:>10}" for k in KINDS) + f"{len(found):>10}")
    print(f"{'total':<{width}}" + "".join(f"{totals[k]:>10}" for k in KINDS)
          + f"{sum(totals.values()):>10}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
