"""Which ``raise`` statements of the package no test reaches.

Runs the tier-1 suite in this process under a ``sys.settrace`` line tracer
that records only lines of the imported ``toxicspans`` package, then lists
every ``raise`` statement of the package (found with ``ast``) that no test
reached: the guards that nothing checks.  Exits 0 when every unreached site
is in :data:`ALLOWED` with its reason, 1 when one is not, and 2 when the
suite itself fails.  pytest does not collect this file.  Run it from the
repository root:

    PYTHONPATH=src python tests/raise_sites.py

Tracing roughly doubles the suite's time (about 64 s against 34 s on a
2-vCPU host).  Tests that run the package in a subprocess are not traced, so
a site that only they reach counts as unreached.  Hypothesis runs
derandomized and without deadlines.
"""

from __future__ import annotations

import ast
import sys
import threading
from pathlib import Path

import pytest

import toxicspans

TESTS = Path(__file__).resolve().parent
PACKAGE = Path(toxicspans.__file__).resolve().parent

# (file, head of the raised expression) -> why no test needs to reach it
ALLOWED: dict[tuple[str, str], str] = {}


def _head(source: str, node: ast.Raise) -> str:
    """The raised expression's source, whitespace collapsed, cut to 60
    characters; a bare ``raise`` is ``(re-raise)``."""
    if node.exc is None:
        return "(re-raise)"
    return " ".join(ast.get_source_segment(source, node.exc).split())[:60]


def raise_sites() -> list[tuple[str, int, int, str]]:
    """(file, first line, last line, head) of every ``raise`` in the package."""
    sites = []
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        for node in ast.walk(ast.parse(source, str(path))):
            if isinstance(node, ast.Raise):
                sites.append((path.name, node.lineno, node.end_lineno, _head(source, node)))
    return sorted(sites)


class _Derandomized:
    """A pytest plugin: Hypothesis runs derandomized, so the map is the same
    from run to run, and without deadlines, which tracing would overrun."""

    def pytest_configure(self, config) -> None:
        from hypothesis import settings

        settings.register_profile("raise-sites", derandomize=True, deadline=None)
        settings.load_profile("raise-sites")


def run_traced() -> tuple[int, set[tuple[str, int]]]:
    """The suite's exit code and the (file, line) pairs of the package that
    it executed."""
    seen: set[tuple[str, int]] = set()
    prefix = str(PACKAGE) + "/"

    def local(frame, event, arg):
        if event == "line":
            seen.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def calls(frame, event, arg):
        return local if frame.f_code.co_filename.startswith(prefix) else None

    threading.settrace(calls)
    sys.settrace(calls)
    try:
        code = pytest.main(["-q", "-p", "no:cacheprovider", str(TESTS)], plugins=[_Derandomized()])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return int(code), {(Path(name).name, line) for name, line in seen}


def main() -> int:
    code, seen = run_traced()
    if code != 0:
        print(f"raise sites: the suite exited {code}, so the map is not trustworthy")
        return 2
    sites = raise_sites()
    unreached, missing = [], []
    for site in sites:
        name, first, last, head = site
        if any((name, line) in seen for line in range(first, last + 1)):
            print(f"  reached   {name}:{first}  {head}")
            continue
        unreached.append(site)
        reason = ALLOWED.get((name, head))
        print(f"  unreached {name}:{first}  {head}" + (f"  (allowed: {reason})" if reason else ""))
        if reason is None:
            missing.append(site)
    print(f"raise sites: {len(sites)} in {PACKAGE}, {len(sites) - len(unreached)} reached by a test")
    for name, head in sorted(ALLOWED.keys() - {(site[0], site[3]) for site in unreached}):
        print(f"  allowed but reached or gone: {name}  {head}")
    if missing:
        print(f"raise sites: {len(missing)} unreached and not allowed; add a test, or an ALLOWED entry with its reason")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
