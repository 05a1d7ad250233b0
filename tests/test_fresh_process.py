"""CLI checks run as fresh processes, from one table of cases.

Each case runs ``python -m ncgdesk.cli`` (or, for a case with no module,
``python``) with its argv, in which a name in braces is the path of an
input document written by ``DOCUMENTS``: a JSON document, or a script when
its builder returns a string.  Every case must end with its exit code, no
traceback and at most one ``error:`` line; a nonzero exit prints exactly
that one line, and a case may also check stdout or match that line
against a pattern.  ``verify``
exits 0 only when every battery passes.
"""

import json
import pathlib
import re
import shlex
import subprocess
import sys
from fractions import Fraction
from typing import Callable, NamedTuple, Optional

import pytest

from ncgdesk import serialize as sz
from ncgdesk.algebra import AlgebraElement, MultiMatrixAlgebra, Projection, \
    SpectralForm
from ncgdesk.lefschetz import FiniteGroup, GAComplex
from ncgdesk.scalars import Cyclotomic

ROOT = pathlib.Path(__file__).resolve().parents[1]
C = MultiMatrixAlgebra((1,))
M2 = MultiMatrixAlgebra((2,))
C3 = MultiMatrixAlgebra((1, 1, 1))


def _diagonal(*values):
    return sz.element_to_json(AlgebraElement.diagonal(M2, [list(values)]))


def _matrix(rows):
    return lambda: sz.element_to_json(AlgebraElement(M2, 1, (rows,)))


def _gap(gap):
    """diag(1, 1 + 1/gap) over M_2: the cover separates it at depth log2(gap)."""
    return lambda: _diagonal(Fraction(1), 1 + Fraction(1, gap))


def _n0(blocks, *support):
    """An N0 document with (lambda, ranks) support entries as written."""
    return lambda: {"schema_version": 1, "algebra": {"blocks": list(blocks)},
                    "support": [{"lambda": v, "ranks": list(r)}
                                for v, r in support]}


def _z25(modules):
    """C with Z/25 acting by zeta_25 (one module), or the acyclic pair
    C -(1)-> C with that action on both (two modules)."""
    def build():
        q = Projection.identity(C)
        action = tuple((q.element.scale(Cyclotomic.root_of_unity(25, g)),)
                       * modules for g in range(25))
        return sz.complex_to_json(GAComplex(
            C, FiniteGroup.cyclic_group(25), (q,) * modules,
            (q.element.blocks,) * (modules - 1), action))
    return build


def _trivial(n):
    """C with Z/n acting trivially on one module."""
    def build():
        q = Projection.identity(C)
        return sz.complex_to_json(GAComplex(
            C, FiniteGroup.cyclic_group(n), (q,), (),
            tuple((q.element,) for _ in range(n))))
    return build


def _tensor(*indices):
    """A degree-0 tensor over C: one term of coefficient 1 per index."""
    return lambda: {"schema_version": 1, "algebra": {"blocks": [1]},
                    "degree": 0, "terms": [{"indices": [u], "coeff": "1"}
                                           for u in indices]}


def _terms(blocks, m, degree, *terms):
    """A tensor document with (indices, coeff) terms as written."""
    return lambda: {"schema_version": 1, "algebra": {"blocks": list(blocks)},
                    "m": m, "degree": degree,
                    "terms": [{"indices": u, "coeff": c} for u, c in terms]}


def _not_a_representation():
    """The Z/3 table with chi1 sending 2 where it sends 1."""
    one = [[["1", "0"]]]
    zeta = [[{"order": 3, "coeffs": ["0", "1"]}]]
    zeta2 = [[{"order": 3, "coeffs": ["-1", "-1"]}]]  # -1 - zeta
    return {"schema_version": 1,
            "group": {"table": [[0, 1, 2], [1, 2, 0], [2, 0, 1]]},
            "irreps": [{"name": name, "dim": 1, "matrices": matrices}
                       for name, matrices in (("chi0", [one, one, one]),
                                              ("chi1", [one, zeta, zeta]),
                                              ("chi2", [one, zeta2, zeta]))]}


def _readme_block(section, language):
    """The first ``language`` block of a README section, as shown."""
    fence = "`" * 3
    text = (ROOT / "README.md").read_text()
    return re.search(fence + language + "\n(.*?)" + fence,
                     text[text.index("## " + section):], re.S).group(1)


NEAR = 1 + 1.5e-9  # within 2 epsilon of 1.0 at the default epsilon
ZETA25 = {"order": 25, "coeffs": ["0", "1"] + ["0"] * 18}
ZETA3 = {"order": 3, "coeffs": ["0", "1"]}

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
    # eigenvalues 1 and 21/20, within 2 epsilon at epsilon 0.1
    "close": lambda: _diagonal(Fraction(1), Fraction(21, 20)),
    "z25": _z25(1),
    "z25pair": _z25(2),
    # float keys 1 and 1 + 1.5e-9 are one key, listed in either order;
    # three keys 1.5e-9 apart chain wider than 2 epsilon
    "near_ab": _n0((1,), ([1.0, 0.0], (1,)), ([NEAR, 0.0], (2,))),
    "near_ba": _n0((1,), ([NEAR, 0.0], (2,)), ([1.0, 0.0], (1,))),
    "chain": _n0((1,), ([1.0, 0.0], (1,)), ([NEAR, 0.0], (1,)),
                 ([1 + 3e-9, 0.0], (1,))),
    # exact keys beyond float range
    "huge_key": _n0((1, 1), (["1e400", "0"], (1, 0)), (["1/2", "0"], (0, 1))),
    "huge_z3_key": _n0((1,), ({"order": 3, "coeffs": ["0", "1e400"]}, (1,))),
    # 4,300 nines, the most digits int() parses: h doubles it to 4,301
    "nines": _n0((1, 2), (["9" * 4300, "0"], (0, 2))),
    "z3": lambda: _diagonal(Cyclotomic.root_of_unity(3, 1), Fraction(1)),
    # a float spectral form whose 0.1 and 0.3 share the unit cell, beside
    # 1e308, whose float cell keys overflow from depth 1
    "top_float": lambda: sz.spectral_to_json(SpectralForm.from_pairs(
        C3, 1, tuple((v, Projection.diagonal_unit(C3, i))
                     for i, v in enumerate((1e308, 0.1, 0.3))))),
    "c": lambda: {"blocks": [1]},
    "m2": lambda: {"blocks": [2]},
    "m3": lambda: {"blocks": [3]},
    "c3": lambda: {"blocks": [1, 1, 1]},
    "m2m2": lambda: {"blocks": [2, 2]},
    "cm2": lambda: {"blocks": [1, 2]},
    "trivial1": _trivial(1),
    "trivial3": _trivial(3),
    "trivial25": _trivial(25),
    "cyclic1e9": lambda: {"kind": "cyclic", "n": 10 ** 9},
    "not_a_rep": _not_a_representation,
    # exact and float scalars in one document: their sums are complex
    "mixed_cycle": _terms((2,), 1, 1, ([[0, 0, 1], [0, 1, 0]], ["1", "1"]),
                          ([[0, 1, 0], [0, 0, 1]], 0.5)),
    "mixed_m2": _terms((1,), 2, 0, ([[0, 0, 0]], ["1", "1"]), ([[0, 1, 1]], 0.5)),
    "mixed_factors": _terms((1, 1), 1, 0, ([[0, 0, 0]], ["1", "1"]),
                            ([[1, 0, 0]], 0.5)),
    "mixed_n0": _n0((1,), (["1", "1"], (1,)), ([0.5, 0.0], (1,))),
    "mixed_n0_factors": _n0((1, 1), (["1", "1"], (1, 0)), ([0.5, 0.0], (0, 1))),
    "mixed_form": lambda: {"schema_version": 1, "algebra": {"blocks": [1]},
                           "pairs": [{"lambda": ["1", "1"], "P": [[[1.0]]]}]},
    "pair": _tensor([0, 0]),
    "twice": _tensor([0, 0, 0], [0, 0, 0]),
    "readme": lambda: _readme_block("Library example", "python"),
}


def _agree(out):
    return json.loads(out)["agree"] is True


def _support(expected):
    """stdout is an N0 document with this support."""
    return lambda out: json.loads(out)["support"] == expected


def _field(key, value):
    """stdout is a JSON object with this value at key."""
    return lambda out: json.loads(out)[key] == value


def _equal(out):
    return json.loads(out) == {"equal": True}


def _dims(degree, k):
    """HC_n = C^k in even degree n and 0 in odd degree, n <= degree."""
    return lambda out: json.loads(out)["dims"] == [
        0 if n % 2 else k for n in range(degree + 1)]


def _exact_huge(key):
    """The 10^400 and 1/2 of the huge_key document, printed exactly."""
    return lambda out: json.loads(out)[key] == [[str(10 ** 400), "0"],
                                                ["1/2", "0"]]


# a + b and b + a: one key, the least of the merged floats, whichever
# document lists it first
_MERGED = _support([{"lambda": [1.0, 0.0], "ranks": [6]}])


class Case(NamedTuple):
    argv: tuple
    code: int
    stdout: Optional[Callable[[str], bool]] = None
    timeout: float = 60
    error: Optional[str] = None  # a pattern the error line must match
    module: Optional[str] = "ncgdesk.cli"  # None runs argv as a script


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
    # a random d x d unitary is charged d^3 operations, so M_300 is refused
    # before any matrix is built
    "generator over the default budget": Case(
        ("generate", "--kind", "normal-element", "--blocks", "300"), 2,
        timeout=10, error="random unitary products"),
    # a budget refusal inside an instance is a refused construction, not a
    # failed theorem: here a 5 x 5 unitary's 125 operations
    "battery instance over a lowered budget": Case(
        ("verify", "--theorems", "lem2", "--count", "3", "--budget", "100"),
        2, error="random unitary products: 125, budget is 100"),
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
    # exact answers ignore epsilon: both eigenvalues are kept at epsilon
    # 0.1; gl1 reads the order-25 action from the exact character table,
    # zeta_25 with rank 1 and not a float class, and the zero class on the
    # acyclic pair
    "exact eigenvalues within 2 epsilon": Case(
        ("n0", "class", "--epsilon", "0.1", "--element", "{close}"), 0,
        _support([{"lambda": ["1", "0"], "ranks": [1]},
                  {"lambda": ["21/20", "0"], "ranks": [1]}])),
    # diag(zeta_3, 1) fails its Gaussian candidates and is certified on
    # its root-of-unity ones
    "n0 class of roots of unity": Case(
        ("n0", "class", "--element", "{z3}"), 0,
        _support([{"lambda": ZETA3, "ranks": [1]},
                  {"lambda": ["1", "0"], "ranks": [1]}])),
    "cover keys near the top of float range": Case(
        ("gchern", "--element", "{top_float}", "--path", "cover"), 0),
    "gl1 of an order-25 action": Case(
        ("lefschetz", "gl1", "--g", "1", "--complex", "{z25}"), 0,
        _support([{"lambda": ZETA25, "ranks": [1]}])),
    "gl1 of an order-25 acyclic pair": Case(
        ("lefschetz", "gl1", "--g", "1", "--complex", "{z25pair}"), 0,
        _support([])),
    # N0 keys merge by one rule: eq and add answer alike in both orders
    "n0 eq on float keys, a then b": Case(
        ("n0", "eq", "--a", "{near_ab}", "--b", "{near_ba}"), 0, _equal),
    "n0 eq on float keys, b then a": Case(
        ("n0", "eq", "--a", "{near_ba}", "--b", "{near_ab}"), 0, _equal),
    "n0 add on float keys, a then b": Case(
        ("n0", "add", "--a", "{near_ab}", "--b", "{near_ba}"), 0, _MERGED),
    "n0 add on float keys, b then a": Case(
        ("n0", "add", "--a", "{near_ba}", "--b", "{near_ab}"), 0, _MERGED),
    "n0 h on keys chained wider than 2 epsilon": Case(
        ("n0", "h", "--n0", "{chain}"), 2),
    # exact keys are ordered exactly, even beyond float range; a
    # non-Gaussian one has no exact order yet, and its float parts overflow
    "n0 h on a key beyond float range": Case(
        ("n0", "h", "--n0", "{huge_key}"), 0, _exact_huge("coeffs")),
    "gchern on a key beyond float range": Case(
        ("gchern", "--n0", "{huge_key}"), 0, _exact_huge("coords")),
    "n0 h on a non-Gaussian key beyond float range": Case(
        ("n0", "h", "--n0", "{huge_z3_key}"), 2),
    "n0 h of a value too long to print": Case(
        ("n0", "h", "--n0", "{nines}"), 2, error="^error: cannot print"),
    # every CC_n over C is one orbit whose n + 1 faces are one word: each
    # boundary build canonicalizes it once, so 401 degrees answer well
    # inside 10 s
    "hc dims over C to degree 400": Case(
        ("hc", "dims", "--algebra", "{c}", "--max-degree", "400"), 0,
        _dims(400, 1), timeout=10),
    # HC is built from boundary ranks alone, on the closed walks of integer
    # letters, each rank taken from the rows of b: M_2 to degree 7 ranks
    # 34 orbits in CC_7 and keeps no combination (20 rows for the 34
    # columns of b_7); M_3 to degree 7 ranks 2,195 orbits in CC_8
    "hc dims over M_2 to degree 7": Case(
        ("hc", "dims", "--algebra", "{m2}", "--max-degree", "7"), 0,
        _dims(7, 1), timeout=20),
    "hc dims over M_3 to degree 7": Case(
        ("hc", "dims", "--algebra", "{m3}", "--max-degree", "7"), 0,
        _dims(7, 1), timeout=20),
    # several factors sum the spaces of their factors, one build per
    # distinct size, and build no complex of two factors: C^3 to degree 6
    # walks one orbit of C per degree
    "hc dims over C^3 to degree 6": Case(
        ("hc", "dims", "--algebra", "{c3}", "--max-degree", "6"), 0,
        _dims(6, 3), timeout=20),
    "hc dims over M_2 + M_2 to degree 5": Case(
        ("hc", "dims", "--algebra", "{m2m2}", "--max-degree", "5"), 0,
        _dims(5, 2), timeout=20),
    "hc dims over C + M_2 to degree 7": Case(
        ("hc", "dims", "--algebra", "{cm2}", "--max-degree", "7"), 0,
        _dims(7, 2), timeout=20),
    # the hc battery asks for witnesses of random boundaries, whose broken
    # words the break homotopy contracts; an empty battery list is one
    # error line and exit 1, not an empty report
    "boundary witness batteries": Case(
        ("verify", "--theorems", "hc,th2", "--seed", "7", "--count", "25"), 0,
        timeout=30),
    "verify with no battery": Case(("verify", "--theorems", ","), 1),
    # the README's library example runs as written and prints HC dims
    "README library example": Case(
        ("{readme}",), 0, lambda out: "[2, 0, 2]" in out, module=None),
    # an exact scalar meeting a float gives the complex result: sums of
    # coefficients, of trace values, of N0 keys times ranks, and exact
    # values times float traces
    "hc class of a mixed non-cycle": Case(
        ("hc", "class", "--tensor", "{mixed_cycle}"), 1,
        error="^error: tensor is not a cycle in CC coordinates$"),
    "hc trace of mixed coefficients": Case(
        ("hc", "trace", "--tensor", "{mixed_m2}"), 0,
        _field("terms", [{"indices": [[0, 0, 0]], "coeff": [1.5, 1.0]}])),
    "hc class of mixed coefficients": Case(
        ("hc", "class", "--tensor", "{mixed_m2}"), 0,
        _field("coords", [[1.5, 1.0]])),
    "hc class of mixed coefficients across factors": Case(
        ("hc", "class", "--tensor", "{mixed_factors}"), 0,
        _field("coords", [[1.0, 1.0], [0.5, 0.0]])),
    "n0 h of mixed keys": Case(
        ("n0", "h", "--n0", "{mixed_n0}"), 0, _field("coeffs", [[1.5, 1.0]])),
    "gchern of mixed keys": Case(
        ("gchern", "--n0", "{mixed_n0}"), 0, _field("coords", [[1.5, 1.0]])),
    "gchern of mixed keys across factors": Case(
        ("gchern", "--n0", "{mixed_n0_factors}"), 0,
        _field("coords", [[1.0, 1.0], [0.5, 0.0]])),
    **{f"gchern --path {path} of an exact value on a float projection": Case(
        ("gchern", "--element", "{mixed_form}", "--path", path), 0, check)
       for path, check in (("direct", _field("coords", [[1.0, 1.0]])),
                           ("cover", _field("coords", [[1.0, 1.0]])),
                           ("both", _agree))},
    # a two-entry unit index is one error line, not a traceback; a term
    # listed twice counts twice
    "hc class on a two-entry unit index": Case(
        ("hc", "class", "--tensor", "{pair}"), 1),
    "hc class on a term listed twice": Case(
        ("hc", "class", "--tensor", "{twice}"), 0,
        _field("coords", [["2", "0"]])),
    # a cyclic group of order 10^9 is charged its n^3 associativity checks
    # before its table is built
    "l1 with a cyclic group of order 10^9": Case(
        ("lefschetz", "l1", "--g", "0", "--complex", "{trivial1}",
         "--irreps", "{cyclic1e9}"), 2),
    # tables are checked on generators: the built-in Z/25 table answers l1
    # at once; a Z/3 table whose chi1 sends 2 where it sends 1 is not a
    # representation
    "l1 of a trivial Z/25 action": Case(
        ("lefschetz", "l1", "--g", "1", "--complex", "{trivial25}"), 0,
        _field("coeffs", [["1", "0"]])),
    "l1 with a non-representation irrep table": Case(
        ("lefschetz", "l1", "--g", "0", "--complex", "{trivial3}",
         "--irreps", "{not_a_rep}"), 1, error="^error: .*chi1"),
}


@pytest.mark.parametrize("case", CASES.values(), ids=CASES.keys())
def test_fresh_process(tmp_path, source_env, case):
    paths = {}
    for name, build in DOCUMENTS.items():
        if any("{" + name + "}" in arg for arg in case.argv):
            doc = build()
            script = isinstance(doc, str)
            paths[name] = tmp_path / f"{name}.{'py' if script else 'json'}"
            paths[name].write_text(doc if script else sz.dumps(doc))
    argv = [arg.format(**paths) for arg in case.argv]
    module = ("-m", case.module) if case.module else ()
    proc = subprocess.run([sys.executable, *module, *argv],
                          env=source_env, capture_output=True,
                          text=True, timeout=case.timeout)
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


def test_readme_command_line_runs_as_written(tmp_path, source_env):
    """Each line of the README's command-line block, in order in one
    directory, with ``ncgdesk`` run as ``python -m ncgdesk.cli``, exits 0
    and writes nothing to stderr."""
    cli = shlex.quote(sys.executable) + " -m ncgdesk.cli"
    lines = _readme_block("Command line", "sh").splitlines()
    assert any(line.startswith("ncgdesk ") for line in lines)
    for line in lines:
        command = cli + line[len("ncgdesk"):] \
            if line.startswith("ncgdesk ") else line
        proc = subprocess.run(command, shell=True, cwd=tmp_path,
                              env=source_env, capture_output=True,
                              text=True, timeout=60)
        assert (proc.returncode, proc.stderr) == (0, ""), line
