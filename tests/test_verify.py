import itertools
import json
import os
import pathlib
import shutil
import subprocess
import sys
import types
from fractions import Fraction

import pytest

from ncgdesk.algebra import AlgebraElement
from ncgdesk.cyclic import HCClass
from ncgdesk.ngroup import K0TensorC
from ncgdesk.verify import BATTERIES, VerificationReport, run_batteries


@pytest.mark.parametrize("name", sorted(BATTERIES))
def test_each_battery_passes_small_run(name):
    count = 5 if name in ("th4", "th5") else 10
    report = BATTERIES[name](31, count)
    assert report.ok, report.failures
    assert report.instances == count


def test_reports_are_seed_deterministic():
    a = BATTERIES["th6"](7, 8)
    b = BATTERIES["th6"](7, 8)
    assert a.to_json() == b.to_json()


def test_report_carries_its_wall_time_outside_equality():
    a = BATTERIES["th7"](7, 4)
    b = BATTERIES["th7"](7, 4)
    assert isinstance(a.elapsed_s, float) and a.elapsed_s >= 0
    assert a == b


def test_report_json_shape():
    report = VerificationReport("th1", 3, 2, [{"instance": 1}])
    doc = report.to_json()
    assert doc == {"theorem": "th1", "instances": 3, "passes": 2,
                   "failures": [{"instance": 1}]}
    assert not report.ok


def test_run_batteries_rejects_unknown():
    with pytest.raises(KeyError):
        run_batteries(["nope"], 0, 1)


def test_run_batteries_order_preserved():
    reports = run_batteries(["th8", "th7"], 5, 4)
    assert [r.theorem for r in reports] == ["th8", "th7"]


def test_an_internal_fault_is_a_failure_record(monkeypatch, capsys):
    from ncgdesk import verify
    from ncgdesk.cli import main

    def fault(*args, **kwargs):
        raise KeyError("fault")
    monkeypatch.setattr(verify, "random_projection", fault)
    assert main(["verify", "--theorems", "th7", "--count", "2"]) == 3
    out, err = capsys.readouterr()
    [report] = json.loads(out)["reports"]
    assert report["passes"] == 0
    assert report["failures"] == [{"error": "KeyError: 'fault'", "instance": i}
                                  for i in range(2)]
    assert "Traceback" not in err


def test_battery_count_is_charged_before_the_first_instance():
    from ncgdesk.budget import set_budget
    from ncgdesk.errors import ResourceError
    from ncgdesk.verify import _run

    ran = []

    def one(rng):
        ran.append(1)
        return True, None

    with pytest.raises(ResourceError, match="^battery instances: 100001, "
                       "budget is 100000$"):
        _run("th1", 0, 100_001, one)
    assert ran == []
    set_budget(100_001)
    try:
        assert _run("th1", 0, 100_001, one).ok
    finally:
        set_budget(100_000)
    assert len(ran) == 100_001


# One-line faults as (file under src/ncgdesk, old text, new text): each must
# make at least one battery fail at seed 7, count 25.
MUTANTS = {
    "b signs": ("cyclic.py", "yield face, (c if i % 2 == 0 else -c)",
                "yield face, c"),
    "+1 rotation sign": ("cyclic.py", "return best, -1 if n * k % 2 else 1",
                         "return best, 1"),
    "off-diagonal trace_values": ("cyclic.py", "if u and u[1] == u[2]:",
                                  "if u:"),
    "transposed functorial_map": ("ngroup.py", "for row in phi.multiplicities)",
                                  "for row in zip(*phi.multiplicities))"),
    "live odd orbit": ("cyclic.py", "return best, 0", "return best, 1"),
    "break homotopy sign flipped": ("cyclic.py",
                                    "out.get(word, 0) + (f if k % 2 else -f)",
                                    "out.get(word, 0) + (-f if k % 2 else f)"),
    # the hc battery adds a closed walk of the last factor to each boundary,
    # factor 1 over C + C at m = 2 and over C + M_2
    "witness maps every factor back to factor 0": (
        "cyclic.py",
        "out[tuple((f, a, b) for _, a, b in above.source.key(j))] = -c",
        "out[above.source.key(j)] = -c"),
    "conjugated Fourier root": ("lefschetz.py", "roots[-k * s % t]",
                                "roots[k * s % t]"),
    "Lefschetz module sign": ("lefschetz.py",
                              "cls if j % 2 == 0 else -cls", "cls"),
    "Lefschetz isotypic sign": ("lefschetz.py",
                                "total[i] += (-1) ** j * m",
                                "total[i] += m"),
    "Chern projection sign": ("chern.py", "[((-1) ** l, p)]", "[(1, p)]"),
    "generalized Chern sign": ("chern.py", "phi[i] += (-1) ** l * value * r",
                               "phi[i] += value * r"),
    "h drops lambda": ("ngroup.py", "coeffs[i] = coeffs[i] + v * r",
                       "coeffs[i] = coeffs[i] + r"),
    "h-generator sign dropped": ("ngroup.py", "h if sign > 0 else -h", "h"),
    "tag policy ignored": ("chern.py",
                           'pts[0] if policy == "smallest" else pts[-1]',
                           "pts[0]"),
    "cover points keep input order": ("chern.py",
                                      "sorted(spectrum, key=sort_key)",
                                      "spectrum"),
    "spectral certificate dropped": ("algebra.py",
                                     "if not la.is_zero_matrix(certificate):",
                                     "if False:"),
    "commute-with-d check dropped": ("lefschetz.py",
                                     "if not all(map(la.mat_equal, left, right)):",
                                     "if False:"),
    # the product route, which checks the endomorphisms that are no row of
    # the action table
    "table read skips the unitarity check": ("lefschetz.py",
                                             "if not (u.star() * u).equals(q.element)]",
                                             "if False]"),
    # the adjoint route of exact representations: th4's skew involution
    # equals its own inverse, and the valid Z/3 complexes have U_s* != U_s
    "adjoint dropped": ("lefschetz.py", "map(la.conj_transpose, u.blocks)",
                        "u.blocks"),
    "inverse read as s": ("lefschetz.py", "c.action[c.group.inverse(s)]",
                          "c.action[s]"),
    "multiplicativity check dropped": (
        "lefschetz.py", "if not (u * v).equals(c.action[group.mul(s, g)][j])]",
        "if False]"),
    "identity check dropped": ("lefschetz.py", "if not u.equals(q.element)]",
                               "if False]"),
    "generator acts on the right": ("lefschetz.py",
                                    "[c.group.mul(s, g) for g in",
                                    "[c.group.mul(g, s) for g in"),
    "self-adjoint idempotent test dropped": (
        "algebra.py",
        "if any(not la.mat_equal(e, la.conj_transpose(e)) for e in idem.values()):",
        "if False:"),
    "rotation leaves the other columns unscaled": (
        "generate.py", "cols = [[c * v for v in col] for col in cols]",
        "cols = list(cols)"),
    "d o d check dropped": ("lefschetz.py", "if not all(map(la.is_zero_matrix, "
                            "compose(c.diffs[i], c.diffs[i + 1]))):",
                            "if False:"),
    "scalar multiplication table transposed": (
        "linalg.py", "_fold(table, _at(a, big))", "_fold(table.T, _at(a, big))"),
    "root candidates never tried": (
        "algebra.py",
        "if math.lcm(*(q for rs in roots if all(rs) for _, q in rs)) <= _ROOT_ORDER:",
        "if False:"),
    "snap keeps the farther bound": ("algebra.py",
                                     "if 2 * d * (q0 + k * q1) <= den:",
                                     "if 2 * d * (q0 + k * q1) > den:"),
    # th1's separation check: moving an eigenvalue keeps the summed classes
    "exact N0 equality compares summed K0 classes": (
        "ngroup.py", "return dict(self.support) == dict(other.support)",
        "zero = K0Class((0,) * self.algebra.num_factors); "
        "return sum((c for _, c in self.support), zero) "
        "== sum((c for _, c in other.support), zero)"),
    # th1's sum lam p = x checks: a term left off the common denominator
    "combine leaves a term unscaled": (
        "linalg.py", "k = den // (d * m.den)  # onto the common denominator",
        "k = 1"),
    "ℚ(i) product adds a1·b1": ("scalars.py", "a[0] * b[0] - a1 * b1",
                                "a[0] * b[0] + a1 * b1"),
}

# prints the package it imported, then the first battery that fails; a
# battery that raises fails
_FIRST_FAILING_BATTERY = """
import ncgdesk
from ncgdesk.verify import BATTERIES, run_batteries
print(ncgdesk.__file__)
for name in BATTERIES:
    try:
        ok = run_batteries([name], 7, 25)[0].ok
    except Exception:
        ok = False
    if not ok:
        print(name)
        break
"""


@pytest.mark.parametrize("path, old, new", MUTANTS.values(), ids=MUTANTS.keys())
def test_batteries_kill_the_mutant(tmp_path, path, old, new):
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    copy = tmp_path / "src"
    shutil.copytree(src, copy, ignore=shutil.ignore_patterns("__pycache__"))
    target = copy / "ncgdesk" / path
    text = target.read_text()
    assert text.count(old) == 1
    target.write_text(text.replace(old, new))
    proc = subprocess.run(
        [sys.executable, "-c", _FIRST_FAILING_BATTERY], cwd=tmp_path,
        env=dict(os.environ, PYTHONPATH=str(copy)),
        capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    imported, *failed = proc.stdout.split()
    assert pathlib.Path(imported).is_relative_to(copy)
    assert failed, "every battery passes"


class _Wrong:
    """A decomposition whose element equals nothing."""

    def element(self):
        return self

    def equals(self, other):
        return False


def _every_second_call_wrong(real):
    calls = itertools.count(1)
    return lambda x: real(x) if next(calls) % 2 else _Wrong()


def _cell(points, tag):
    return types.SimpleNamespace(points=tuple(map(Fraction, points)),
                                 tag=Fraction(tag))


# Each failure record of a battery by its check: (battery, name in
# ncgdesk.verify, faulty replacement), the fault making that check fail in
# the same process.  _every_second_call_wrong is given the real function.
FAULTS = {
    "conjugation invariance": ("th1", "n_class", lambda a: object()),
    "separation": ("th1", "n_class", lambda a: 0),
    "surjectivity": ("th1", "N0Class", lambda algebra, support: None),
    "off-grid decomposition": ("th1", "spectral_decompose", lambda x: _Wrong()),
    # the call after the off-grid one decomposes the roots of unity
    "roots of unity of common order 24": (
        "th1", "spectral_decompose", _every_second_call_wrong),
    "non-normal element refused": (
        "th1", "_non_normal",
        lambda algebra, rng: AlgebraElement.identity(algebra)),
    "h(generator) = 0": ("kernel_h", "h_map", lambda x: K0TensorC((1,))),
    "h o t = id": ("kernel_h", "h_map", lambda x: K0TensorC(())),
    "g reduces to h": ("kernel_h", "generator_g", lambda n, lam, p: None),
    "boundary class": ("hc", "hc_class", lambda xi: HCClass(0, (1,))),
    "witness": ("hc", "is_boundary", lambda xi: None),
    "trace read": ("hc", "hc_space", lambda *a: types.SimpleNamespace(
        reduced_class=lambda xi: None)),
    "T_cover smallest": ("th6", "T_cover", lambda a, l, policy: None),
    "smallest cell order": ("th6", "dyadic_cover",
                            lambda points, level, policy: [_cell((2, 1), 2)]),
    "smallest tags": ("th6", "dyadic_cover",
                      lambda points, level, policy: [_cell((1,), 2)]),
    "face 0": ("norm_bounds", "check_face_bound", lambda rep, i: False),
    "trace": ("norm_bounds", "check_trace_bound", lambda rep: False),
}


@pytest.mark.parametrize("check", FAULTS, ids=FAULTS)
def test_each_failure_record_is_reached(monkeypatch, check):
    from ncgdesk import verify
    battery, name, fault = FAULTS[check]
    if fault is _every_second_call_wrong:
        fault = fault(getattr(verify, name))
    monkeypatch.setattr(verify, name, fault)
    report = BATTERIES[battery](3, 2)
    assert check in {f.get("check") for f in report.failures}, report.failures


def test_an_answer_or_a_wrong_error_fails_a_refusal_check(monkeypatch):
    from ncgdesk import verify

    def wrong_error(*args):
        raise ValueError("not a domain error")
    monkeypatch.setattr(verify, "lefschetz_first", lambda *args: 0)
    monkeypatch.setattr(verify, "generalized_lefschetz", wrong_error)
    failures = BATTERIES["th4"](3, 1).failures
    assert {"check": "L1 of a complex with d o d != 0 is rejected",
            "got": "an answer"} in failures
    assert {"check": "the refined number of a non-unitary representation "
            "is rejected", "got": "ValueError: not a domain error"} in failures


def test_a_refused_construction_in_a_refusal_check_ends_the_run(monkeypatch):
    from ncgdesk import verify
    from ncgdesk.errors import ResourceError

    def refused(*args):
        raise ResourceError("over budget")
    monkeypatch.setattr(verify, "lefschetz_first", refused)
    with pytest.raises(ResourceError, match="^over budget$"):
        BATTERIES["th4"](3, 1)
