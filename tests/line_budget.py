"""Each package module's docstring, comment, code and blank lines at HEAD^1
and HEAD, side by side.

A line is a docstring line if it lies in a module, class or function
docstring (found with ``ast``); otherwise a code line if a token other than
a comment starts or runs through it, a comment line if it holds only a
comment (both found with ``tokenize``), and blank if it holds nothing.  The
files are read from git, so the working tree does not count, and a module
missing at one commit counts 0 lines there.  It only prints.  pytest does
not collect this file.  Run it from the repository root:
``python tests/line_budget.py``.
"""

from __future__ import annotations

import ast
import io
import subprocess
import tokenize

PACKAGE = "src/toxicspans"
KINDS = ("docstring", "comment", "code", "blank")
_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
             tokenize.ENCODING, tokenize.ENDMARKER}


def line_kinds(source: str) -> dict[str, int]:
    """The number of lines of each kind in ``source``, and their total."""
    docstring = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) \
                    and isinstance(first.value.value, str):
                docstring.update(range(first.lineno, first.end_lineno + 1))
    code, comment = set(), set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type == tokenize.COMMENT:
            comment.add(token.start[0])
        elif token.type not in _NOT_CODE:
            code.update(range(token.start[0], token.end[0] + 1))
    counts = dict.fromkeys(KINDS, 0)
    for number in range(1, len(source.splitlines()) + 1):
        kind = ("docstring" if number in docstring else "code" if number in code
                else "comment" if number in comment else "blank")
        counts[kind] += 1
    return {**counts, "total": sum(counts.values())}


def _git(*args: str) -> str:
    return subprocess.run(["git", *args], capture_output=True, text=True, check=True).stdout


def module_counts(rev: str) -> dict[str, dict[str, int]]:
    """Per module of the package at ``rev``, its line counts."""
    return {name: line_kinds(_git("show", f"{rev}:{PACKAGE}/{name}"))
            for name in _git("ls-tree", "--name-only", f"{rev}:{PACKAGE}").split() if name.endswith(".py")}


def main() -> None:
    before, after = module_counts("HEAD^1"), module_counts("HEAD")
    columns = (*KINDS, "total")
    empty = dict.fromkeys(columns, 0)
    rows = {module: (before.get(module, empty), after.get(module, empty))
            for module in sorted(after.keys() | before.keys())}
    rows["total"] = tuple({kind: sum(counts[side][kind] for counts in rows.values()) for kind in columns}
                          for side in (0, 1))
    print(f"{PACKAGE} lines by kind, HEAD^1 -> HEAD")
    print(f"{'module':<16}" + "".join(f"{kind:<20}" for kind in columns).rstrip())
    for module, (old, new) in rows.items():
        cells = [f"{old[kind]} -> {new[kind]}" + (f" ({new[kind] - old[kind]:+d})" if new[kind] != old[kind] else "")
                 for kind in columns]
        print(f"{module:<16}" + "".join(f"{cell:<20}" for cell in cells).rstrip())


if __name__ == "__main__":
    main()
