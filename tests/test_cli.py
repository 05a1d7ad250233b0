import argparse
import cmath
import functools
import json
import os
import random
import subprocess
import sys
import time
from fractions import Fraction

import pytest

from ncgdesk import serialize as sz
from ncgdesk.algebra import AlgebraElement, MultiMatrixAlgebra, Projection
from ncgdesk.budget import set_budget
from ncgdesk.errors import ConsistencyError
from ncgdesk.cli import _to_float_doc, build_parser, main
from ncgdesk.generate import random_ga_complex
from ncgdesk.lefschetz import FiniteGroup, GAComplex, IrrepTable
from ncgdesk.scalars import Cyclotomic, _lazy_import


@pytest.fixture(autouse=True)
def _restore_budget():
    yield
    set_budget(100_000)


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out) if out.strip() else None


def write(tmp_path, name, doc):
    """``doc`` as JSON, or a string as written."""
    path = tmp_path / name
    path.write_text(doc if isinstance(doc, str) else sz.dumps(doc))
    return str(path)


def test_generate_is_deterministic(capsys):
    c1, doc1 = run_cli(capsys, "generate", "--kind", "normal-element",
                       "--seed", "3")
    c2, doc2 = run_cli(capsys, "generate", "--kind", "normal-element",
                       "--seed", "3")
    assert c1 == c2 == 0 and doc1 == doc2
    c3, doc3 = run_cli(capsys, "generate", "--kind", "normal-element",
                       "--seed", "4")
    assert c3 == 0 and doc3 != doc1


def test_n0_pipeline(tmp_path, capsys):
    code, elt = run_cli(capsys, "generate", "--kind", "normal-element",
                        "--seed", "1", "--blocks", "1,2")
    assert code == 0
    elt_path = write(tmp_path, "a.json", elt)
    code, cls = run_cli(capsys, "n0", "class", "--element", elt_path)
    assert code == 0 and cls["support"]
    cls_path = write(tmp_path, "x.json", cls)
    code, out = run_cli(capsys, "n0", "eq", "--a", cls_path, "--b", cls_path)
    assert code == 0 and out == {"equal": True}
    code, doubled = run_cli(capsys, "n0", "add", "--a", cls_path,
                            "--b", cls_path)
    assert code == 0
    code, h = run_cli(capsys, "n0", "h", "--n0", cls_path)
    assert code == 0 and len(h["coeffs"]) == 2
    alg_path = write(tmp_path, "alg.json", {"schema_version": 1,
                                            "blocks": [1, 2]})
    code, back = run_cli(capsys, "n0", "t", "--k0c",
                         write(tmp_path, "h.json", h), "--algebra", alg_path)
    assert code == 0
    # h o t = id: h of the section equals the original vector
    code, h2 = run_cli(capsys, "n0", "h", "--n0",
                       write(tmp_path, "t.json", back))
    assert code == 0 and h2 == h


def test_hc_dims_of_scalars(tmp_path, capsys):
    alg = write(tmp_path, "alg.json", {"schema_version": 1, "blocks": [1]})
    code, out = run_cli(capsys, "hc", "dims", "--algebra", alg,
                        "--max-degree", "4")
    assert code == 0 and out == {"dims": [1, 0, 1, 0, 1]}


def test_chern_and_gchern_agree(tmp_path, capsys):
    code, fam = run_cli(capsys, "generate", "--kind", "projection-family",
                        "--seed", "2", "--blocks", "1,1")
    assert code == 0
    proj = write(tmp_path, "p.json", fam["projections"][0])
    code, cls = run_cli(capsys, "chern", "--projection", proj, "--l", "0")
    assert code == 0 and cls["degree"] == 0

    code, elt = run_cli(capsys, "generate", "--kind", "normal-element",
                        "--seed", "2", "--blocks", "1,1")
    path = write(tmp_path, "a.json", elt)
    code, out = run_cli(capsys, "gchern", "--element", path, "--l", "0",
                        "--path", "both")
    assert code == 0 and out["agree"] is True
    assert out["direct"] == out["cover"]


def test_lefschetz_pipeline(tmp_path, capsys):
    code, cx = run_cli(capsys, "generate", "--kind", "ga-complex",
                       "--seed", "6", "--blocks", "1,1", "--group", "cyclic:2")
    assert code == 0
    path = write(tmp_path, "cx.json", cx)
    code, l1 = run_cli(capsys, "lefschetz", "l1", "--complex", path,
                       "--g", "1")
    assert code == 0 and len(l1["coeffs"]) == 2
    code, gl1 = run_cli(capsys, "lefschetz", "gl1", "--complex", path,
                        "--g", "1")
    assert code == 0
    code, l2 = run_cli(capsys, "lefschetz", "l2", "--complex", path,
                       "--g", "1", "--l", "0")
    assert code == 0 and l2["degree"] == 0


def test_verify_reports(capsys):
    code, out = run_cli(capsys, "verify", "--theorems", "th7,th8",
                        "--seed", "1", "--count", "5")
    assert code == 0
    assert [r["theorem"] for r in out["reports"]] == ["th7", "th8"]
    assert all(r["passes"] == r["instances"] for r in out["reports"])


@pytest.mark.parametrize("command", [["verify", "--theorems", "th7,th8"]],
                         ids=["verify"])
def test_verify_reports_carry_their_wall_time(capsys, command):
    code, out = run_cli(capsys, *command, "--seed", "1", "--count", "2")
    assert code == 0 and len(out["reports"]) == 2
    for report in out["reports"]:
        assert isinstance(report["elapsed_s"], float)
        assert report["elapsed_s"] >= 0


def test_verify_failure_exits_three(capsys, monkeypatch):
    import ncgdesk.cli as cli_mod
    from ncgdesk.verify import VerificationReport

    def failing(seed, count):
        return VerificationReport("th7", count, count - 1,
                                  [{"instance": 0}])

    monkeypatch.setitem(cli_mod.BATTERIES, "th7", failing)
    code, out = run_cli(capsys, "verify", "--theorems", "th7", "--count", "3")
    assert code == 3
    assert out["reports"][0]["failures"]


@pytest.mark.parametrize("command", [["verify"]], ids=["verify"])
def test_unknown_theorem_is_validation_error(capsys, command):
    assert main(command + ["--theorems", "th99"]) == 1


@pytest.mark.parametrize("command", [["verify"]], ids=["verify"])
@pytest.mark.parametrize("theorems", [",,", " , ", ""])
def test_empty_theorem_list_is_one_error_line(capsys, command, theorems):
    assert main(command + ["--theorems", theorems]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: no theorem named") \
        and captured.err.count("\n") == 1


def test_non_equivariant_complex_is_one_error_line(tmp_path, capsys):
    # C with Z/2 acting by i, whose square -1 is not the identity's action
    one = AlgebraElement.identity(MultiMatrixAlgebra((1,)))
    c = GAComplex(one.algebra, FiniteGroup.cyclic_group(2), (Projection(one),),
                  (), ((one,), (one.scale(Cyclotomic.gaussian(0, 1)),)))
    path = write(tmp_path, "cx.json", sz.complex_to_json(c))
    for action in ("l1", "l2", "gl1"):
        assert main(["lefschetz", action, "--complex", path, "--g", "1"]) == 1
        assert capsys.readouterr().err == (
            "error: invalid complex: action is not multiplicative at (1,1) "
            "on module 0\n")


def test_missing_file_is_validation_error(capsys):
    assert main(["n0", "h", "--n0", "/nonexistent.json"]) == 1


def test_unknown_command_usage(capsys):
    assert main(["frobnicate"]) == 1


def _commands(parser, words=()):
    """(words, parser) of every command: a parser with no actions."""
    subs = [a for a in parser._actions
            if isinstance(a, argparse._SubParsersAction)]
    if not subs:
        yield words, parser
    for sub in subs:
        for name, p in sub.choices.items():
            yield from _commands(p, words + (name,))


def test_every_command_binds_its_handler():
    commands = dict(_commands(build_parser()))
    assert len(commands) == 16
    for words, p in commands.items():
        assert callable(p.get_default("run")), words


# Each command's own options; every command also takes the global ones.
GLOBAL_OPTIONS = ["--budget", "--epsilon"]
OPTIONS = {
    "n0 class": ["--element"],
    "n0 eq": ["--a", "--b"],
    "n0 add": ["--a", "--b"],
    "n0 h": ["--n0"],
    "n0 t": ["--algebra", "--k0c"],
    "n0 push": ["--hom", "--n0"],
    "hc dims": ["--algebra", "--max-degree"],
    "hc class": ["--tensor"],
    "hc trace": ["--tensor"],
    "chern": ["--l", "--projection"],
    "gchern": ["--element", "--l", "--n0", "--path"],
    "lefschetz l1": ["--complex", "--g", "--irreps"],
    "lefschetz l2": ["--complex", "--g", "--irreps", "--l"],
    "lefschetz gl1": ["--complex", "--g"],
    "verify": ["--count", "--seed", "--theorems"],
    "generate": ["--backend", "--blocks", "--group", "--kind", "--seed"],
}


def test_each_command_accepts_its_options():
    accepted = {" ".join(words): sorted(
        o for a in p._actions for o in a.option_strings if o.startswith("--")
        and o != "--help") for words, p in _commands(build_parser())}
    assert accepted == {command: sorted(options + GLOBAL_OPTIONS)
                        for command, options in OPTIONS.items()}
    assert sum(map(len, accepted.values())) == 69


REFUSED_OPTIONS = [
    (["n0", "class", "--element", "a.json", "--backend", "float"],
     "unrecognized arguments: --backend float"),
    (["hc", "dims", "--algebra", "alg.json", "--max-degree", "2",
      "--seed", "3"], "unrecognized arguments: --seed 3"),
    # before the command, --seed is no option and 3 is read as the command
    (["--seed", "3", "generate", "--kind", "n0class"], "invalid choice: '3'"),
    (["gchern", "--n0", "x.json", "--path", "cover"],
     "--path reads an --element, not an --n0 class"),
    (["generate", "--kind", "n0class", "--group", "s3"],
     "--group is read by --kind ga-complex only"),
    (["lefschetz", "verify"], "invalid choice: 'verify'"),
]


@pytest.mark.parametrize("argv, error", REFUSED_OPTIONS,
                         ids=[" ".join(argv) for argv, _ in REFUSED_OPTIONS])
def test_option_no_handler_reads_is_one_error_line(capsys, argv, error):
    assert main(argv) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ") and err.count("\n") == 1
    assert error in err


@pytest.mark.parametrize("before", [True, False], ids=["before", "after"])
@pytest.mark.parametrize("flag, code", [(["--budget", "100"], 2),
                                        (["--epsilon", "nan"], 1)],
                         ids=["budget", "epsilon"])
def test_global_options_go_before_or_after_the_command(tmp_path, capsys,
                                                        before, flag, code):
    alg = write(tmp_path, "alg.json", {"schema_version": 1, "blocks": [3]})
    argv = ["hc", "dims", "--algebra", alg, "--max-degree", "3"]
    assert main(flag + argv if before else argv + flag) == code
    assert one_error_line(capsys)


@pytest.mark.parametrize("words", [
    words for words, p in _commands(build_parser())
    if any(a.required for a in p._actions)
    or any(g.required for g in p._mutually_exclusive_groups)], ids=" ".join)
def test_command_without_its_required_options_is_one_error_line(capsys,
                                                                 words):
    assert main(list(words)) == 1
    assert one_error_line(capsys)


def test_budget_exhaustion_exits_two(tmp_path, capsys):
    alg = write(tmp_path, "alg.json", {"schema_version": 1, "blocks": [3]})
    code = main(["hc", "dims", "--algebra", alg, "--max-degree", "3",
                 "--budget", "100"])
    assert code == 2


def test_float_backend_generates_float_scalars(capsys):
    code, doc = run_cli(capsys, "generate", "--kind", "normal-element",
                        "--seed", "1", "--backend", "float")
    assert code == 0
    lam = doc["pairs"][0]["lambda"]
    assert isinstance(lam[0], float) and isinstance(lam[1], float)


def test_env_budget_override():
    env = dict(os.environ, NCG_BUDGET="50")
    proc = subprocess.run(
        [sys.executable, "-c",
         "import json;"
         "from ncgdesk.cli import main;"
         "import tempfile, ncgdesk.serialize as sz;"
         "f = tempfile.NamedTemporaryFile('w', suffix='.json', delete=False);"
         "f.write(sz.dumps({'schema_version': 1, 'blocks': [2]}));"
         "f.close();"
         "raise SystemExit(main(['hc', 'dims', '--algebra', f.name,"
         " '--max-degree', '2']))"],
        env=env, capture_output=True, text=True)
    assert proc.returncode == 2


def test_bad_env_budget_is_one_error_line(tmp_path):
    alg = write(tmp_path, "alg.json", {"schema_version": 1, "blocks": [2]})
    proc = subprocess.run(
        [sys.executable, "-m", "ncgdesk.cli", "hc", "dims", "--algebra", alg,
         "--max-degree", "2"],
        env=dict(os.environ, NCG_BUDGET="abc"), capture_output=True, text=True)
    assert proc.returncode == 1
    assert proc.stderr == "error: NCG_BUDGET is not an integer: 'abc'\n"


def test_zero_env_budget_is_one_error_line(capsys, monkeypatch):
    from ncgdesk import budget
    monkeypatch.setenv("NCG_BUDGET", "0")
    monkeypatch.setattr(budget, "_BUDGET", None)  # read again on first use
    # a battery charges its count before its first instance
    assert main(["verify", "--theorems", "th7", "--count", "1"]) == 1
    assert capsys.readouterr().err == "error: NCG_BUDGET must be positive\n"


@pytest.mark.parametrize("value", [True, False, 0, -1, 1.0])
def test_set_budget_takes_only_a_positive_int(value):
    from ncgdesk.errors import ValidationError
    with pytest.raises(ValidationError,
                       match="^budget must be a positive integer$"):
        set_budget(value)


def test_closed_stdout_exits_quietly(tmp_path):
    alg = write(tmp_path, "alg.json", {"schema_version": 1, "blocks": [2]})
    proc = subprocess.Popen(
        [sys.executable, "-m", "ncgdesk.cli", "hc", "dims", "--algebra", alg,
         "--max-degree", "2"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    proc.stdout.close()  # before the interpreter has even started up
    stderr = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 0
    assert stderr == ""


def test_eq_json_roundtrip_through_files(tmp_path, capsys):
    code, x = run_cli(capsys, "generate", "--kind", "n0class", "--seed", "8")
    assert code == 0
    a = write(tmp_path, "a.json", x)
    b = write(tmp_path, "b.json", json.loads(json.dumps(x)))
    code, out = run_cli(capsys, "n0", "eq", "--a", a, "--b", b)
    assert code == 0 and out == {"equal": True}


# Imports, a CLI usage error and the cyclic layer on rational tensors, the
# letter tables and boundary ranks of C + M_2 amplified twice among them,
# then one matrix.  sys.modules holds numpy itself as an unexecuted lazy module
# from the import on, so only its submodules show that it ran; any attribute
# read of that module, __dict__ included, would run it.
LAZY_NUMPY = """
import contextlib, io, json, sys
from fractions import Fraction
import ncgdesk, ncgdesk.cli
from ncgdesk.algebra import AlgebraElement, MultiMatrixAlgebra
from ncgdesk.cyclic import TensorElement, hc_class, hc_dims, hc_space, trace_map

def loaded():
    return sorted(k for k in sys.modules if k.startswith(("numpy.", "scipy")))

def answers():
    with contextlib.redirect_stderr(io.StringIO()):
        try:
            ncgdesk.cli.main(["hc", "dims"])
        except SystemExit:
            pass
    ncgdesk.clear_caches()
    a = MultiMatrixAlgebra((1, 2))
    xi = TensorElement(a, 2, 2, {((1, 2, 2),) * 3: Fraction(3, 2)})
    return [hc_dims(a, 4), hc_space(a, 2, 2).dimension,
            [[list(map(list, k)), str(c)]
             for k, c in trace_map(xi).coeffs.items()],
            list(map(str, hc_class(xi).coords))]

before = answers()
cold = loaded()
AlgebraElement(MultiMatrixAlgebra((1,)), 1, (((1,),),))
print(json.dumps([cold, before, "numpy.linalg" in loaded(), answers()]))
"""


def test_import_does_not_load_scipy():
    """Nor numpy, until the first matrix."""
    proc = subprocess.run([sys.executable, "-c", LAZY_NUMPY],
                          capture_output=True, text=True, check=True)
    cold, before, numpy_ran, after = json.loads(proc.stdout)
    assert cold == []
    assert before == [[2, 0, 2, 0, 2], 2,
                      [[[[1, 0, 0]] * 3, "3/2"]], ["0", "3/2"]]
    assert numpy_ran and after == before


def test_import_without_numpy_names_it():
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys\n"
         "class NoNumpy:\n"
         "    def find_spec(self, name, path=None, target=None):\n"
         "        if name.split('.')[0] == 'numpy':\n"
         "            raise ModuleNotFoundError(f'No module named {name!r}',"
         " name=name)\n"
         "sys.meta_path.insert(0, NoNumpy())\n"
         "try:\n"
         "    import ncgdesk\n"
         "except ModuleNotFoundError as exc:\n"
         "    print(exc.name)\n"],
        capture_output=True, text=True, check=True)
    assert proc.stdout.strip() == "numpy"
    with pytest.raises(ModuleNotFoundError) as caught:
        _lazy_import("ncgdesk_no_such_module")
    assert caught.value.name == "ncgdesk_no_such_module"


def _n0_class(element):
    return {"x.json": element}, ["n0", "class", "--element", "x.json"]


def _t_map(coeffs):
    """``n0 t`` of the given coefficients over {"blocks": [1, 2]}."""
    return ({"alg.json": {"schema_version": 1, "blocks": [1, 2]},
             "v.json": {"schema_version": 1, "coeffs": coeffs}},
            ["n0", "t", "--k0c", "v.json", "--algebra", "alg.json"])


def _hc(action, indices):
    """``hc <action>`` of one degree-0 term with the given indices over C."""
    return ({"xi.json": {"schema_version": 1, "algebra": {"blocks": [1]},
                         "degree": 0,
                         "terms": [{"indices": indices, "coeff": "1"}]}},
            ["hc", action, "--tensor", "xi.json"])


def _hc_terms(*terms):
    """``hc class`` of a degree-0 tensor over M_2 with (indices, coeff)
    terms."""
    return ({"xi.json": {"schema_version": 1, "algebra": {"blocks": [2]},
                         "degree": 0, "terms": [{"indices": u, "coeff": c}
                                                for u, c in terms]}},
            ["hc", "class", "--tensor", "xi.json"])


# documents by file name, and the command that reads them
MALFORMED_INPUTS = {
    "non-integer block": _n0_class(
        {"schema_version": 1, "algebra": {"blocks": [1, "x"]}, "m": 1,
         "blocks": [[["1"]], [["1"]]]}),
    "missing blocks": _n0_class({"schema_version": 1, "algebra": {}, "m": 1,
                                 "blocks": [[["1"]]]}),
    "zero denominator": _n0_class(
        {"schema_version": 1, "algebra": {"blocks": [1]}, "m": 1,
         "blocks": [[["1/0"]]]}),
    "t of three coefficients over two factors": _t_map(["1", "2", "3"]),
    "t of one coefficient over two factors": _t_map(["1"]),
    # an exponent is held to the digits int() parses, as a digit string is
    "exponent of 10^8 digits": _t_map(["1e99999999", "1"]),
    "exponent of 5000 digits": _t_map(["1e5000", "1"]),
    "negative exponent of 5000 digits": _t_map(["1e-5000", "1"]),
    # as text: json.dumps would itself recurse
    "document nested 5000 arrays deep": (
        {"alg.json": {"schema_version": 1, "blocks": [1, 2]},
         "v.json": "[" * 5000 + "]" * 5000},
        ["n0", "t", "--k0c", "v.json", "--algebra", "alg.json"]),
    "hc class of a two-entry unit index": _hc("class", [[0, 0]]),
    "hc trace of a two-entry unit index": _hc("trace", [[0, 0]]),
    "boolean entry": _n0_class(
        {"schema_version": 1, "algebra": {"blocks": [1]}, "m": 1,
         "blocks": [[[True]]]}),
    "boolean imaginary part": _n0_class(
        {"schema_version": 1, "algebra": {"blocks": [1]}, "m": 1,
         "blocks": [[[["1", False]]]]}),
    "fractional cyclotomic order": _n0_class(
        {"schema_version": 1, "algebra": {"blocks": [1]}, "m": 1,
         "blocks": [[[{"order": 3.9, "coeffs": ["1", "0"]}]]]}),
    "string cyclotomic order": _n0_class(
        {"schema_version": 1, "algebra": {"blocks": [1]}, "m": 1,
         "blocks": [[[{"order": "3", "coeffs": ["1", "0"]}]]]}),
    # coefficients are a list: a string is not read as its characters, nor
    # an object as its keys
    "string cyclotomic coefficients": _n0_class(
        {"schema_version": 1, "algebra": {"blocks": [1]}, "m": 1,
         "blocks": [[[{"order": 4, "coeffs": "12"}]]]}),
    "object cyclotomic coefficients": _n0_class(
        {"schema_version": 1, "algebra": {"blocks": [1]}, "m": 1,
         "blocks": [[[{"order": 4, "coeffs": {"1": 0, "2": 0}}]]]}),
    # a missing command or action is a usage error, as a missing option is
    "no command": ({}, []),
    "n0 without an action": ({}, ["n0"]),
    "hc without an action": ({}, ["hc"]),
    "lefschetz without an action": ({}, ["lefschetz"]),
}


@pytest.mark.parametrize("files, argv", MALFORMED_INPUTS.values(),
                         ids=MALFORMED_INPUTS.keys())
def test_malformed_document_is_one_error_line(tmp_path, files, argv):
    paths = {name: write(tmp_path, name, doc) for name, doc in files.items()}
    proc = subprocess.run(
        [sys.executable, "-m", "ncgdesk.cli", *(paths.get(a, a) for a in argv)],
        capture_output=True, text=True, timeout=60)
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("coeff, length", [
    ("9" * 5001, 5003), (["x" * 3000, "1"], 3009)])
def test_long_bad_scalar_is_cut_in_its_error_line(tmp_path, capsys, coeff,
                                                  length):
    # a 5,001-digit coefficient is past int()'s digit limit, and Fraction's
    # message repeats a bad string: each is shown as a prefix and a length
    files, argv = _t_map([coeff, "1"])
    paths = {name: write(tmp_path, name, doc) for name, doc in files.items()}
    assert main([paths.get(a, a) for a in argv]) == 1
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and len(err) < 400
    assert err.startswith(f"error: bad scalar {coeff!r:.30}")
    assert f"... ({length} characters): " in err


# a Gaussian coefficient plus a float one is their complex sum, on two keys
# or on one key listed twice
MIXED_COEFFICIENTS = {
    "hc class mixing Gaussian and float coefficients": _hc_terms(
        ([[0, 0, 0]], ["1", "1"]), ([[0, 1, 1]], 0.5)),
    "hc class mixing them on a repeated key": _hc_terms(
        ([[0, 0, 0]], ["1", "1"]), ([[0, 0, 0]], 0.5)),
}


@pytest.mark.parametrize("files, argv", MIXED_COEFFICIENTS.values(),
                         ids=MIXED_COEFFICIENTS.keys())
def test_mixed_sums_are_complex(tmp_path, capsys, files, argv):
    paths = {name: write(tmp_path, name, doc) for name, doc in files.items()}
    code, doc = run_cli(capsys, *(paths.get(a, a) for a in argv))
    assert code == 0 and doc["coords"] == [[1.5, 1.0]]


@pytest.mark.parametrize("float_term", [([[0, 0, 1]], 0.5), ([[0, 1, 1]], 0.0)],
                         ids=["off-diagonal", "zero"])
def test_float_term_that_is_never_summed_keeps_the_exact_class(
        tmp_path, capsys, float_term):
    # the trace skips an off-diagonal unit and the tensor drops a zero, so
    # no Gaussian value is added to a float
    files, argv = _hc_terms(([[0, 0, 0]], ["1", "1"]), float_term)
    paths = {name: write(tmp_path, name, doc) for name, doc in files.items()}
    code, doc = run_cli(capsys, *(paths.get(a, a) for a in argv))
    assert code == 0
    assert doc["coords"] == [["1", "1"]]


def test_float_coefficient_of_a_record_is_read_as_a_float(tmp_path, capsys):
    # a float coefficient makes a cyclotomic record the complex value
    # sum c_k zeta_N^k, as a float part makes an [re, im] pair a float:
    # 0.1 zeta_4 prints as the pair ["0", 0.1] does, 0.1 zeta_3 as a pair
    def h(scalar):
        path = write(tmp_path, "n0.json", _n0_doc(C, (scalar, [1])))
        code, doc = run_cli(capsys, "n0", "h", "--n0", path)
        assert code == 0
        return doc["coeffs"]
    assert h({"order": 4, "coeffs": ["0", 0.1]}) == h(["0", 0.1]) \
        == [[0.0, 0.1]]
    [[re, im]] = h({"order": 3, "coeffs": ["0", 0.1]})
    assert complex(re, im) == pytest.approx(0.1 * cmath.exp(2j * cmath.pi / 3))


# The mixing sweep: every subcommand that reads scalars, on documents that
# mix exact and float scalars in one value, across keys and across factors,
# exits 0-3 with at most one error line.  An exact part beside a float one
# makes the value a float pair, in an [re, im] pair and in a cyclotomic
# record alike.
C, C2, M2 = {"blocks": [1]}, {"blocks": [1, 1]}, {"blocks": [2]}
EXACT, FLOAT = ["1", "1"], [0.5, 0.0]
IN_ONE_VALUE = (["1", 0.5], {"order": 3, "coeffs": ["1", 0.5]})


def _doc(**fields):
    return {"schema_version": 1, **fields}


def _n0_doc(algebra, *support):
    return _doc(algebra=algebra, support=[{"lambda": v, "ranks": r}
                                          for v, r in support])


def _tensor_doc(algebra, m, degree, *terms):
    return _doc(algebra=algebra, m=m, degree=degree,
                terms=[{"indices": u, "coeff": c} for u, c in terms])


def _units(*values):
    """One 1 x 1 block per value."""
    return [[[v]] for v in values]


def _float_imaginary(doc):
    """doc with every exact [re, im] pair's imaginary part a float."""
    if isinstance(doc, list):
        if len(doc) == 2 and all(isinstance(x, str) for x in doc):
            return [doc[0], float(Fraction(doc[1]))]
        return [_float_imaginary(v) for v in doc]
    if isinstance(doc, dict):
        return {k: _float_imaginary(v) for k, v in doc.items()}
    return doc


def _ga_complex():
    """An exact Z/2 complex over C + C."""
    return sz.complex_to_json(random_ga_complex(
        MultiMatrixAlgebra((1, 1)), IrrepTable.cyclic(2), random.Random(6)))


def _complex_doc(mix):
    """:func:`_ga_complex` with every imaginary part a float (in one value),
    its action floated (across keys) or its factor-1 blocks floated (across
    factors)."""
    doc = _ga_complex()
    if mix == "value":
        return _float_imaginary(doc)
    if mix == "keys":
        return {**doc, "action": _to_float_doc(doc["action"])}
    for blocks in ([q["q"] for q in doc["modules"]] + doc["diffs"]
                   + [u for row in doc["action"] for u in row]):
        blocks[1] = _to_float_doc(blocks[1])
    return doc


MIXED_DOCUMENTS = {
    "element in one value": lambda: _doc(
        algebra=C2, m=1, blocks=_units(*IN_ONE_VALUE)),
    "element across keys": lambda: _doc(algebra=M2, m=1, blocks=[
        [[["1", "0"], [0.0, 0.0]], [["0", "0"], FLOAT]]]),
    "element across factors": lambda: _doc(
        algebra=C2, m=1, blocks=_units(EXACT, FLOAT)),
    "form in one pair": lambda: _doc(algebra=C, m=1, pairs=[
        {"lambda": EXACT, "P": _units([1.0, 0.0])}]),
    "form across pairs": lambda: _doc(algebra=C2, m=1, pairs=[
        {"lambda": EXACT, "P": _units(["1", "0"], ["0", "0"])},
        {"lambda": FLOAT, "P": _units(["0", "0"], ["1", "0"])}]),
    "form across factors": lambda: _doc(algebra=C2, m=1, pairs=[
        {"lambda": EXACT, "P": _units(["1", "0"], [1.0, 0.0])}]),
    "n0 in one value": lambda: _n0_doc(
        C, *((v, [1]) for v in IN_ONE_VALUE)),
    "n0 across keys": lambda: _n0_doc(C, (EXACT, [1]), (FLOAT, [1])),
    "n0 across factors": lambda: _n0_doc(C2, (EXACT, [1, 0]), (FLOAT, [0, 1])),
    "n0 float": lambda: _n0_doc(C, (FLOAT, [2])),
    "n0 exact": lambda: _n0_doc(C, (EXACT, [1])),
    "k0c in one value": lambda: _doc(coeffs=list(IN_ONE_VALUE)),
    "k0c across factors": lambda: _doc(coeffs=[EXACT, FLOAT]),
    "c2": lambda: _doc(**C2),
    "hom across factors": lambda: _doc(
        source=C, target=C2, multiplicities=[[1], [1]],
        unitaries=_units(["1", "0"], [1.0, 0.0])),
    "tensor in one value": lambda: _tensor_doc(
        C, 2, 0, *zip(([[0, 0, 0]], [[0, 1, 1]]), IN_ONE_VALUE)),
    "tensor across keys": lambda: _tensor_doc(
        C, 2, 0, ([[0, 0, 0]], EXACT), ([[0, 1, 1]], 0.5)),
    "tensor on one key": lambda: _tensor_doc(
        C, 1, 0, ([[0, 0, 0]], EXACT), ([[0, 0, 0]], 0.5)),
    "tensor across factors": lambda: _tensor_doc(
        C2, 1, 0, ([[0, 0, 0]], EXACT), ([[1, 0, 0]], 0.5)),
    "tensor of degree 1": lambda: _tensor_doc(
        M2, 1, 1, ([[0, 0, 1], [0, 1, 0]], EXACT), ([[0, 1, 0], [0, 0, 1]], 0.5)),
    "projection across keys": lambda: _doc(algebra=M2, m=1, blocks=[
        [[["1", "0"], [0.0, 0.0]], [["0", "0"], [1.0, 0.0]]]]),
    "projection across factors": lambda: _doc(
        algebra=C2, m=1, blocks=_units(["1", "0"], [1.0, 0.0])),
    **{f"complex {how}": functools.partial(_complex_doc, mix) for how, mix in
       (("in one value", "value"), ("across keys", "keys"),
        ("across factors", "factors"))},
}


def _sweep():
    """(id, argv) for each subcommand and each document it reads."""
    def docs(kind):
        return [name for name in MIXED_DOCUMENTS if name.startswith(kind)]
    for name in docs("element") + docs("form"):
        yield f"n0 class, {name}", ("n0", "class", "--element", name)
        for path in ("direct", "cover", "both"):
            yield (f"gchern --path {path}, {name}",
                   ("gchern", "--element", name, "--path", path))
    for name in docs("n0"):
        yield f"n0 h, {name}", ("n0", "h", "--n0", name)
        yield f"gchern --n0, {name}", ("gchern", "--n0", name)
        for action in ("eq", "add"):
            yield f"n0 {action}, {name}", ("n0", action, "--a", name, "--b", name)
        if MIXED_DOCUMENTS[name]()["algebra"] == C:  # the hom's source
            yield (f"n0 push, {name}",
                   ("n0", "push", "--hom", "hom across factors", "--n0", name))
    for action in ("eq", "add"):
        yield (f"n0 {action}, n0 exact and n0 float",
               ("n0", action, "--a", "n0 exact", "--b", "n0 float"))
    for name in docs("k0c"):
        yield f"n0 t, {name}", ("n0", "t", "--k0c", name, "--algebra", "c2")
    for name in docs("tensor"):
        for action in ("class", "trace"):
            yield f"hc {action}, {name}", ("hc", action, "--tensor", name)
    for name in docs("projection"):
        yield f"chern, {name}", ("chern", "--projection", name)
    for name in docs("complex"):
        for action in ("l1", "l2", "gl1"):
            yield (f"lefschetz {action}, {name}",
                   ("lefschetz", action, "--complex", name, "--g", "1"))


SWEEP = dict(_sweep())


@pytest.mark.parametrize("argv", SWEEP.values(), ids=SWEEP.keys())
def test_mixed_scalars_answer_or_refuse_in_one_line(tmp_path, capsys, argv):
    paths = {name: write(tmp_path, f"{i}.json", MIXED_DOCUMENTS[name]())
             for i, name in enumerate(MIXED_DOCUMENTS) if name in argv}
    code = main([paths.get(a, a) for a in argv])  # a traceback fails here
    err = capsys.readouterr().err
    assert 0 <= code <= 3
    assert err.count("error:") <= 1 and "Traceback" not in err


@pytest.mark.parametrize("action, code", [("l1", 0), ("l2", 0), ("gl1", 1)])
def test_only_l1_and_l2_take_an_irrep_table(tmp_path, capsys, action, code):
    # gl1 reads no table, so --irreps there is a usage error
    paths = [write(tmp_path, "cx.json", _ga_complex()),
             write(tmp_path, "irreps.json", {"kind": "cyclic", "n": 2})]
    argv = ["lefschetz", action, "--complex", paths[0], "--g", "1",
            "--irreps", paths[1]]
    assert main(argv) == code
    err = capsys.readouterr().err
    assert err == ("error: unrecognized arguments: --irreps "
                   f"{paths[1]}\n" if code else "")


# JSON texts the standard parser reads as inf or nan, in float documents
# (and one exact one)
NON_FINITE_ELEMENTS = {
    "overflowing pair entry":
        '[[[[1e400, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]]',
    "nan entry": '[[[NaN, 0.0], [0.0, 1.0]]]',
    "negative infinity": '[[[-Infinity, 0.0], [0.0, 1.0]]]',
    "overflowing cyclotomic coefficient":
        '[[[{"order": 4, "coeffs": [1e400, 0]}, "0"], ["0", "1"]]]',
}


@pytest.mark.parametrize("blocks", NON_FINITE_ELEMENTS.values(),
                         ids=NON_FINITE_ELEMENTS.keys())
def test_non_finite_number_is_one_error_line(tmp_path, blocks):
    path = tmp_path / "x.json"
    path.write_text('{"schema_version": 1, "algebra": {"blocks": [2]}, '
                    '"m": 1, "blocks": ' + blocks + '}')
    proc = subprocess.run(
        [sys.executable, "-m", "ncgdesk.cli", "n0", "class", "--element",
         str(path)], capture_output=True, text=True)
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
    assert "Warning" not in proc.stderr and "Traceback" not in proc.stderr


def test_uncertified_candidates_are_one_error_line(tmp_path):
    # diag(1, 1 + 10^-10) over M_2: both eigenvalues snap to 1, and b - 1 != 0
    # fails the spectral certificate
    x = AlgebraElement.diagonal(MultiMatrixAlgebra((2,)),
                                [[Fraction(1), 1 + Fraction(1, 10 ** 10)]])
    path = write(tmp_path, "x.json", sz.element_to_json(x))
    proc = subprocess.run(
        [sys.executable, "-m", "ncgdesk.cli", "n0", "class", "--element", path],
        capture_output=True, text=True)
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: factor 0: prod (b - mu) ")
    assert proc.stderr.count("\n") == 1 and "Traceback" not in proc.stderr


def cyclotomic_element(tmp_path, order):
    coeffs = ["1"] + ["0"] * (order - 1)
    return write(tmp_path, "x.json", {
        "schema_version": 1, "algebra": {"blocks": [1]}, "m": 1,
        "blocks": [[[{"order": order, "coeffs": coeffs}]]]})


def test_cyclotomic_order_is_charged_to_the_budget(tmp_path, capsys):
    path = cyclotomic_element(tmp_path, 3000)
    start = time.perf_counter()
    assert main(["n0", "class", "--element", path]) == 2
    assert time.perf_counter() - start < 0.5
    assert "cyclotomic order 3000" in capsys.readouterr().err
    code, doc = run_cli(capsys, "n0", "class", "--element",
                        cyclotomic_element(tmp_path, 24))
    assert code == 0 and doc["support"][0]["ranks"] == [1]


def test_repeated_tensor_terms_are_summed(tmp_path, capsys):
    files, argv = _hc("class", [[0, 0, 0]])
    doc = files["xi.json"]
    doc["terms"] *= 2
    code, out = run_cli(capsys, *argv[:-1], write(tmp_path, "xi.json", doc))
    assert code == 0 and out["coords"] == [["2", "0"]]


def test_group_order_is_charged_to_the_budget(tmp_path, capsys):
    C = MultiMatrixAlgebra((1,))
    q = Projection.identity(C)
    c = GAComplex(C, FiniteGroup.cyclic_group(1), (q,), (), ((q.element,),))
    cx = write(tmp_path, "c.json", sz.complex_to_json(c))
    irreps = write(tmp_path, "irreps.json", {"kind": "cyclic", "n": 10 ** 9})
    start = time.perf_counter()
    assert main(["lefschetz", "l1", "--g", "0", "--complex", cx,
                 "--irreps", irreps]) == 2
    assert time.perf_counter() - start < 0.5
    err = capsys.readouterr().err
    assert err.startswith("error: group associativity checks: ")
    assert err.count("\n") == 1


def test_consistency_error_exits_three(monkeypatch, capsys):
    import ncgdesk.cli as cli_mod

    def broken(argv):
        raise ConsistencyError("cross-check failed")

    monkeypatch.setattr(cli_mod, "run", broken)
    assert main([]) == 3
    assert capsys.readouterr().err == "error: cross-check failed\n"


def one_error_line(capsys):
    err = capsys.readouterr().err
    return len(err.splitlines()) == 1 and err.startswith("error: ")


def test_high_degree_characters_exit_two(tmp_path, capsys):
    m2 = {"blocks": [2]}
    p = write(tmp_path, "p.json", sz.projection_to_json(
        Projection.diagonal_unit(MultiMatrixAlgebra((2,)), 0)))
    x = write(tmp_path, "x.json", {
        "schema_version": 1, "algebra": m2, "m": 1,
        "blocks": [[["2", "0"], ["0", "-1"]]]})
    for argv in (["chern", "--projection", p, "--l", "5000"],
                 ["gchern", "--element", x, "--l", "5000", "--path", "direct"]):
        assert main(argv) == 2
        assert one_error_line(capsys)


def test_walk_budget_reaches_hc14_of_m2(tmp_path, capsys):
    alg = write(tmp_path, "alg.json", {"schema_version": 1, "blocks": [2]})
    code, doc = run_cli(capsys, "hc", "dims", "--algebra", alg,
                        "--max-degree", "14")
    assert code == 0 and doc == {"dims": [1, 0] * 7 + [1]}
    assert main(["hc", "dims", "--algebra", alg, "--max-degree", "15"]) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith(
        "error: nodes walked so far for the CC_16 basis")


@pytest.mark.parametrize("argv", [
    ["--epsilon", "nan"], ["--epsilon", "inf"], ["--epsilon", "0"],
    ["--max-degree", "-1"]])
def test_bad_epsilon_or_degree_is_one_error_line(tmp_path, capsys, argv):
    alg = write(tmp_path, "alg.json", {"schema_version": 1, "blocks": [2]})
    assert main(["hc", "dims", "--algebra", alg, "--max-degree", "1"]
                + argv) == 1
    assert one_error_line(capsys)


@pytest.mark.parametrize("argv", [
    ["verify", "--theorems", "th1,th6", "--count", "-1"],
    ["verify", "--theorems", "th8", "--count", "0"]])
def test_battery_count_below_one_is_one_error_line(capsys, argv):
    assert main(argv) == 1
    assert one_error_line(capsys)


# Refusals of documents that pass the JSON loaders but not the domain
# constructors, and of complexes the CLI cannot answer, each by the command
# that reads the document.  The complex is C with Z/2 acting trivially; the
# others are over C unless named.
Z2 = [[0, 1], [1, 0]]
ONE = [[["1"]]]  # the blocks of the unit of C


def _complex(table=Z2, **fields):
    """The group acts trivially, by one action row per table row."""
    doc = _doc(algebra=C, group={"table": table}, modules=[{"n": 1, "q": ONE}],
               diffs=[], action=[[ONE]] * len(table))
    return {**doc, **fields}


def _l1_complex(doc, g="0"):
    return {"c.json": doc}, ["lefschetz", "l1", "--complex", "c.json",
                             "--g", g]


def _l1_irreps(*irreps):
    return ({"c.json": _complex(),
             "irreps.json": _doc(group={"table": Z2}, irreps=[
                 {"name": name, "dim": 1, "matrices": matrices}
                 for name, matrices in irreps])},
            ["lefschetz", "l1", "--complex", "c.json", "--g", "0",
             "--irreps", "irreps.json"])


def _l1_cyclic(n):
    files, argv = _l1_irreps()
    return {**files, "irreps.json": {"kind": "cyclic", "n": n}}, argv


def _push(source, target, multiplicities, **fields):
    hom = _doc(source=source, target=target, multiplicities=multiplicities,
               **fields)
    return ({"hom.json": hom, "x.json": _n0_doc(source)},
            ["n0", "push", "--hom", "hom.json", "--n0", "x.json"])


def _pairs(*pairs, m=1):
    return _n0_class(_doc(algebra=C, m=m, pairs=[
        {"lambda": v, "P": p} for v, p in pairs]))


REFUSALS = {
    "group table not square": (
        _l1_complex(_complex([[0, 1], [1]])), "must be square"),
    "group table entry out of range": (
        _l1_complex(_complex([[0, 2], [1, 0]])), "entries out of range"),
    "group with no identity": (
        _l1_complex(_complex([[0, 0], [0, 0]])), "no identity element"),
    "group element with no unique inverse": (
        _l1_complex(_complex([[0, 1], [1, 1]])), "no unique inverse"),
    "group not associative": (
        _l1_complex(_complex([[0, 1, 2], [1, 0, 2], [2, 2, 0]])),
        "not associative"),
    "action row longer than the modules": (
        _l1_complex(_complex(action=[[ONE, ONE], [ONE]])),
        "one action block per module"),
    "too few action rows": (
        _l1_complex(_complex(action=[[ONE]])), "action table has wrong shape"),
    "complex document a list": (_l1_complex([]), "expected a JSON object"),
    "modules not a list": (
        _l1_complex(_complex(modules={})), "modules must be a list"),
    "cyclic irrep table of order 0": (
        _l1_cyclic(0), "error: cyclic group order must be >= 1: 0"),
    "cyclic irrep table of negative order": (
        _l1_cyclic(-3), "error: cyclic group order must be >= 1: -3"),
    "squared irrep dimensions off the order": (
        _l1_irreps(("trivial", [ONE[0]] * 2)), "do not sum to the group order"),
    "irrep with too few matrices": (
        _l1_irreps(("trivial", [ONE[0]] * 2), ("sign", [ONE[0]])),
        "wrong number of matrices"),
    "float irrep matrices": (
        _l1_irreps(("trivial", [[[[1.0, 0.0]]]] * 2),
                   ("sign", [[[[1.0, 0.0]]], [[[-1.0, 0.0]]]])),
        "matrices must be exact"),
    "multiplicity matrix of the wrong shape": (
        _push(C, M2, [[2, 1]]), "multiplicity matrix has wrong shape"),
    "negative multiplicity": (
        _push(C2, C, [[-1, 2]]), "negative multiplicity"),
    "non-unital homomorphism": (
        _push(C, M2, [[1]]), "not unital"),
    "embedding unitary of the wrong size": (
        _push(C, M2, [[2]], unitaries=[ONE[0]]), "unitary has wrong size"),
    "non-unitary embedding": (
        _push(C, M2, [[2]], unitaries=[[["1", "1"], ["0", "1"]]]),
        "not unitary"),
    "spectral projections not orthogonal": (
        _pairs(("1", ONE), ("2", ONE)), "not orthogonal"),
    "repeated eigenvalue": (
        _pairs(("1", ONE), ("1", ONE)), "repeated eigenvalue"),
    "amplification 0": (
        _pairs(("1", ONE), m=0), "amplification must be >= 1"),
    "float element that is not normal": (
        _n0_class(_doc(algebra=M2, m=1, blocks=[
            [[[1.0, 0.0], [1.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]])),
        "requires a normal element"),
    "rank vector of the wrong length": (
        ({"x.json": _n0_doc(C2, ("1", [1]))}, ["n0", "h", "--n0", "x.json"]),
        "does not match algebra"),
    "negative tensor degree": (
        ({"xi.json": _tensor_doc(C, 1, -1)},
         ["hc", "class", "--tensor", "xi.json"]), "degree must be >= 0"),
    "tensor key of the wrong length": (
        ({"xi.json": _tensor_doc(C, 1, 1, ([[0, 0, 0]], "1"))},
         ["hc", "class", "--tensor", "xi.json"]), "does not match degree"),
    "unit index out of range": (
        ({"xi.json": _tensor_doc(C, 1, 0, ([[0, 1, 0]], "1"))},
         ["hc", "class", "--tensor", "xi.json"]), "out of range"),
    "block of size 0": (
        ({"alg.json": _doc(blocks=[0])},
         ["hc", "dims", "--algebra", "alg.json", "--max-degree", "1"]),
        "invalid block dims (0,)"),
    "group element beyond the order": (
        _l1_complex(_complex(), g="2"), "group element index 2 out of range"),
    "block list that is not integers": (
        ({}, ["generate", "--kind", "n0class", "--blocks", "1,x"]),
        "error: bad block list '1,x'"),
    "Z/2 x Z/2 without an irrep table": (
        _l1_complex(_complex([[0, 1, 2, 3], [1, 0, 3, 2], [2, 3, 0, 1],
                              [3, 2, 1, 0]])),
        "cannot infer an irreducible-representation table"),
    "budget of 0": (
        ({"alg.json": _doc(blocks=[1])},
         ["hc", "dims", "--algebra", "alg.json", "--max-degree", "1",
          "--budget", "0"]), "error: budget must be a positive integer"),
    "Chern character of negative degree": (
        ({"p.json": sz.projection_to_json(
            Projection.identity(MultiMatrixAlgebra((1,))))},
         ["chern", "--projection", "p.json", "--l", "-1"]),
        "error: degree parameter l must be >= 0"),
    "generalized Chern character of negative degree": (
        ({"x.json": _n0_doc(C, ("1", [1]))},
         ["gchern", "--n0", "x.json", "--l", "-1"]),
        "error: degree parameter l must be >= 0"),
    "scalar pair of three entries": (
        _n0_class(_doc(algebra=C, m=1, blocks=[[[["1", "2", "3"]]]])),
        "scalar pair must have two entries"),
    "cyclotomic order 0": (
        _n0_class(_doc(algebra=C, m=1,
                       blocks=[[[{"order": 0, "coeffs": ["1"]}]]])),
        "cyclotomic order must be positive: 0"),
    "class pushed from outside the homomorphism source": (
        ({"hom.json": _doc(source=C, target=M2, multiplicities=[[2]]),
          "x.json": _n0_doc(C2)},
         ["n0", "push", "--hom", "hom.json", "--n0", "x.json"]),
        "error: class is not over the homomorphism source"),
    "sum of classes over different algebras": (
        ({"a.json": _n0_doc(C), "b.json": _n0_doc(C2)},
         ["n0", "add", "--a", "a.json", "--b", "b.json"]),
        "error: N0 classes over different algebras"),
    "complex with no modules": (
        _l1_complex(_complex(modules=[], action=[[], []])),
        "error: complex needs at least one module"),
    "irrep matrices of the wrong size": (
        _l1_irreps(("trivial", [[["1", "0"], ["0", "1"]]] * 2),
                   ("sign", [ONE[0], [["-1"]]])),
        "error: irrep trivial: matrix size mismatch"),
}


@pytest.mark.parametrize("case, expected", REFUSALS.values(),
                         ids=REFUSALS.keys())
def test_domain_refusal_is_one_error_line(tmp_path, capsys, case, expected):
    files, argv = case
    paths = {name: write(tmp_path, name, doc) for name, doc in files.items()}
    assert main([paths.get(a, a) for a in argv]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert expected in err


def test_s3_table_is_inferred_from_the_group(tmp_path, capsys):
    code, doc = run_cli(capsys, "generate", "--kind", "ga-complex",
                        "--group", "s3")
    assert code == 0
    paths = [write(tmp_path, "cx.json", doc),
             write(tmp_path, "irreps.json", {"kind": "s3"})]
    for action in ("l1", "l2"):
        argv = ["lefschetz", action, "--complex", paths[0], "--g", "3"]
        code, inferred = run_cli(capsys, *argv)
        assert code == 0
        assert run_cli(capsys, *argv, "--irreps", paths[1]) == (0, inferred)


def test_float_complex_has_the_exact_characters(tmp_path, capsys):
    def generate(backend):
        code, doc = run_cli(capsys, "generate", "--kind", "ga-complex",
                            "--group", "cyclic:3", "--seed", "2",
                            "--backend", backend)
        assert code == 0
        return doc

    def records(doc):
        """The number of {"order", "coeffs"} records in doc."""
        if isinstance(doc, dict):
            return (set(doc) == {"order", "coeffs"}) + sum(map(
                records, doc.values()))
        return sum(map(records, doc)) if isinstance(doc, list) else 0

    exact, floated = generate("exact"), generate("float")
    assert records(exact) == 8 and records(floated) == 0
    paths = [write(tmp_path, "exact.json", exact),
             write(tmp_path, "float.json", floated)]
    for g in ("0", "1", "2"):
        answers = [run_cli(capsys, "lefschetz", "l1", "--complex", p, "--g", g)
                   for p in paths]
        assert answers[0][0] == 0 and answers[0] == answers[1]
