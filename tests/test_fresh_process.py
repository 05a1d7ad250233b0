"""CLI checks run as fresh processes, from one table of cases.

Each case runs ``python -m ncgdesk.cli`` with its argv, in which a name in
braces is the path of an input document written by ``DOCUMENTS``.  Every
case must end with its exit code, no traceback and at most one ``error:``
line; a nonzero exit prints exactly that one line, and a case may also
check the JSON on stdout or match that line against a pattern.  ``verify``
exits 0 only when every battery passes.
"""

import json
import os
import pathlib
import re
import subprocess
import sys
from fractions import Fraction
from typing import Callable, NamedTuple, Optional

import pytest

from ncgdesk import serialize as sz
from ncgdesk.algebra import AlgebraElement, MultiMatrixAlgebra

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"
M2 = MultiMatrixAlgebra((2,))


def _diagonal(*values):
    return sz.element_to_json(AlgebraElement.diagonal(M2, [list(values)]))


def _matrix(rows):
    return lambda: sz.element_to_json(AlgebraElement(M2, 1, (rows,)))


def _gap(gap):
    """diag(1, 1 + 1/gap) over M_2: the cover separates it at depth log2(gap)."""
    return lambda: _diagonal(Fraction(1), 1 + Fraction(1, gap))


DOCUMENTS = {
    "gap512": _gap(512),
    "gap4096": _gap(4096),
    "gap8192": _gap(8192),
    # a normal element whose float eigenvalue candidates overflow
    "huge": lambda: _diagonal(Fraction(10 ** 400), Fraction(1)),
    # eigenvalues 10^-10 apart: both float candidates snap to 1
    "near": lambda: _diagonal(Fraction(1), 1 + Fraction(1, 10 ** 10)),
    # not normal: diagonalizable (its certificate holds) and nilpotent (it
    # fails)
    "triangular": _matrix(((1, 1), (0, 2))),
    "nilpotent": _matrix(((0, 1), (0, 0))),
}


def _agree(out):
    return json.loads(out)["agree"] is True


class Case(NamedTuple):
    argv: tuple
    code: int
    stdout: Optional[Callable[[str], bool]] = None
    timeout: float = 60
    error: Optional[str] = None  # a pattern the error line must match


CASES = {
    # diag(1, 1 + 1/512): the cover separates the pair at depth 9
    "cover refinement at gap 1/512": Case(
        ("gchern", "--element", "{gap512}", "--l", "0", "--path", "both"),
        0, _agree),
    # depth 12, the default bound, still answers; depth 13 does not
    "cover separation at the depth bound": Case(
        ("gchern", "--element", "{gap4096}", "--l", "0", "--path", "both"),
        0, _agree),
    "cover separation past the depth bound": Case(
        ("gchern", "--element", "{gap8192}", "--l", "0", "--path", "cover"),
        2),
    "th1 and th6 batteries": Case(
        ("verify", "--theorems", "th1,th6", "--seed", "7", "--count", "25"),
        0, timeout=30),
    "n0 class beyond float range": Case(
        ("n0", "class", "--element", "{huge}"), 2),
    "gchern beyond float range": Case(
        ("gchern", "--element", "{huge}"), 2),
    # the count is charged before the first instance
    "battery count over the default budget": Case(
        ("verify", "--theorems", "th1", "--count", "100000000000"), 2,
        timeout=10),
    "battery count over a lowered budget": Case(
        ("verify", "--theorems", "th7", "--count", "25", "--budget", "24"), 2),
    "battery count within a raised budget": Case(
        ("verify", "--theorems", "th7", "--count", "25", "--budget", "25"),
        0),
    # a budget refusal inside an instance is a refused construction, not a
    # failed theorem
    "battery instance over a lowered budget": Case(
        ("verify", "--theorems", "lem2", "--count", "3", "--budget", "200"),
        2),
    # an exact decomposition certifies each factor once, by
    # prod (b - mu) = 0 over its candidates: the functoriality battery
    # decomposes pushed elements, and a wrong candidate fails the certificate
    "spectral certificate batteries": Case(
        ("verify", "--theorems", "functoriality,lem2,th1", "--seed", "7",
         "--count", "25"), 0, timeout=30),
    "spectral certificate on candidates that snap together": Case(
        ("n0", "class", "--element", "{near}"), 2),
    # the certificate and e = e* are checked per idempotent, and normality
    # only where the certificate fails
    "normality of a diagonalizable element": Case(
        ("n0", "class", "--element", "{triangular}"), 1,
        error="^error: .*normal"),
    "normality of a nilpotent element": Case(
        ("n0", "class", "--element", "{nilpotent}"), 1,
        error="^error: .*normal"),
}


@pytest.mark.parametrize("case", CASES.values(), ids=CASES.keys())
def test_fresh_process(tmp_path, case):
    paths = {}
    for name, build in DOCUMENTS.items():
        if any("{" + name + "}" in arg for arg in case.argv):
            paths[name] = tmp_path / f"{name}.json"
            paths[name].write_text(sz.dumps(build()))
    argv = [arg.format(**paths) for arg in case.argv]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    proc = subprocess.run([sys.executable, "-m", "ncgdesk.cli", *argv],
                          env=env, capture_output=True, text=True,
                          timeout=case.timeout)
    assert proc.returncode == case.code, proc.stderr
    assert "Traceback" not in proc.stderr
    errors = [line for line in proc.stderr.splitlines()
              if line.startswith("error:")]
    if case.code:
        assert proc.stderr.splitlines() == errors and len(errors) == 1
        assert case.error is None or re.search(case.error, errors[0])
    else:
        assert errors == []
    if case.stdout is not None:
        assert case.stdout(proc.stdout)
