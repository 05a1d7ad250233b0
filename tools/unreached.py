"""List the statements of src/ncgdesk that no test runs.

Usage (from the repository root, standard library only):

    python tools/unreached.py [extra pytest arguments]

Runs the tier-1 suite (``python -m pytest -q --continue-on-collection-errors``,
without pytest's cache) with line tracing limited to ``src/ncgdesk``.  A ``sitecustomize.py``
written to a temporary directory, put first on PYTHONPATH, installs the
tracer in the pytest process and in every Python process a test starts
with the inherited environment, such as the ``python -m ncgdesk.cli``
subprocesses; each process writes the lines it ran when it exits.

A statement counts as run when any line from its first (decorator) line to
its last line ran.  Docstrings, ``global`` and ``nonlocal`` run no code and
are not counted.  Prints, per file, each statement no test ran, then the
total and the total per kind: ``raise`` statements, the other statements
of ``verify.py`` (its failure records), and the rest.  Exits with pytest's
status when pytest fails, else 1 when the total exceeds ``CEILING``, else
0.  Traced, the suite took 2.7 min where it takes 70 s untraced (about
2.3x; 952 tests, Python 3.11, a shared 2-vCPU host).
"""

from __future__ import annotations

import ast
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
PACKAGE = REPO / "src" / "ncgdesk"
# the most unreached statements a change may leave; lower it when tests
# reach more, so that code added without a test fails
CEILING = 1

SITECUSTOMIZE = '''\
import atexit, os, sys, threading

_ROOT, _OUT = {root!r}, {out!r}
_hits = {{}}


def _line(frame, event, arg):
    if event == "line":
        _hits.setdefault(frame.f_code.co_filename, set()).add(frame.f_lineno)
    return _line


def _call(frame, event, arg):
    return _line if frame.f_code.co_filename.startswith(_ROOT) else None


@atexit.register
def _write():
    sys.settrace(None)
    import json
    with open(os.path.join(_OUT, f"{{os.getpid()}}.json"), "w") as fh:
        json.dump({{f: sorted(lines) for f, lines in _hits.items()}}, fh)


sys.settrace(_call)
threading.settrace(_call)
'''


def statements(tree):
    """(first line, last line) of every counted statement."""
    docstrings = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(
                    first.value, ast.Constant) and isinstance(
                    first.value.value, str):
                docstrings.add(first)
    for node in ast.walk(tree):
        if not isinstance(node, ast.stmt) or node in docstrings \
                or isinstance(node, (ast.Global, ast.Nonlocal)):
            continue
        start = min([node.lineno] + [d.lineno for d in getattr(
            node, "decorator_list", ())])
        yield start, node.end_lineno, isinstance(node, ast.Raise)


def unreached(path: Path, ran: set):
    """(first line, kind, text) of each statement of ``path`` not run."""
    source = path.read_text(encoding="utf-8")
    lines = source.splitlines()
    other = "verify" if path.name == "verify.py" else "other"
    out = []
    for start, end, is_raise in statements(ast.parse(source)):
        if not any(n in ran for n in range(start, end + 1)):
            out.append((start, "raise" if is_raise else other,
                        lines[start - 1].strip()))
    return sorted(out)


def main(argv) -> int:
    out = tempfile.mkdtemp(prefix="ncgdesk-unreached-")
    try:
        site = Path(out, "site")
        hits = Path(out, "hits")
        site.mkdir()
        hits.mkdir()
        (site / "sitecustomize.py").write_text(SITECUSTOMIZE.format(
            root=str(PACKAGE) + os.sep, out=str(hits)))
        path = [str(site), str(REPO / "src"), os.environ.get("PYTHONPATH")]
        env = dict(os.environ,
                   PYTHONPATH=os.pathsep.join(p for p in path if p))
        status = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
             "--continue-on-collection-errors", *argv],
            cwd=REPO, env=env).returncode
        ran = {}
        for f in hits.iterdir():
            for name, lines in json.loads(f.read_text()).items():
                ran.setdefault(os.path.realpath(name), set()).update(lines)
    finally:
        shutil.rmtree(out, ignore_errors=True)
    kinds = dict.fromkeys(("raise", "verify", "other"), 0)
    for path in sorted(PACKAGE.glob("*.py")):
        missed = unreached(path, ran.get(os.path.realpath(path), set()))
        print(f"{path.relative_to(REPO)}: {len(missed)} unreached")
        for line, kind, text in missed:
            kinds[kind] += 1
            print(f"  {line}: {text}")
    total = sum(kinds.values())
    print(f"total: {total} unreached statements ({kinds['raise']} raise, "
          f"{kinds['verify']} verify records, {kinds['other']} other; "
          f"ceiling {CEILING})")
    if status:
        return status
    if total > CEILING:
        print(f"error: {total} unreached statements, over the ceiling of "
              f"{CEILING}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
