"""Command-line front end: JSON in, JSON out.

Exit codes: 0 success, 1 validation/usage error (including a missing,
unreadable or malformed input document), 2 numerical or resource error,
3 verification failure (some checked identity did not hold, or an internal
cross-check raised ConsistencyError).  Every error ends with a single
``error:`` line on stderr.
"""

from __future__ import annotations

import argparse
import os
import random
import sys

from . import serialize as sz
from .algebra import MultiMatrixAlgebra, spectral_decompose
from .budget import set_budget
from .chern import T_cover, T_direct, chern_projection, generalized_chern
from .cyclic import hc_class, hc_dims, trace_map
from .errors import (
    ConsistencyError,
    DomainError,
    NumericalError,
    ResourceError,
    ValidationError,
)
from .generate import (
    random_ga_complex,
    random_n0class,
    random_normal,
    random_orthogonal_family,
)
from .lefschetz import (
    FiniteGroup,
    IrrepTable,
    generalized_lefschetz,
    lefschetz_first,
    lefschetz_second,
)
from .ngroup import functorial_map, h_map, n_class, t_map
from .scalars import parse_scalar, set_epsilon, to_complex
from .verify import BATTERIES, run_batteries

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_NUMERICAL = 2
EXIT_VERIFICATION = 3


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        kwargs.setdefault("allow_abbrev", False)
        super().__init__(*args, **kwargs)

    def error(self, message):  # usage problems are validation errors
        raise ValidationError(message)


def _read(path, from_json):
    return from_json(sz.load_file(path))


def _load_spectral(path):
    doc = sz.load_file(path)
    if isinstance(doc, dict) and "pairs" in doc:
        return sz.spectral_from_json(doc)
    return spectral_decompose(sz.element_from_json(doc))


def _character_inputs(args):
    """(complex, g, irrep table) of ``lefschetz l1`` and ``l2``; without
    --irreps, a built-in table is recognized by the group's table."""
    c = _read(args.complex, sz.complex_from_json)
    n, table = c.group.order, c.group.table
    if args.irreps:
        irreps = _read(args.irreps, sz.irreps_from_json)
    elif table == FiniteGroup.cyclic_group(n).table:
        irreps = IrrepTable.cyclic(n)
    elif n == 6 and table == IrrepTable.symmetric_3().group.table:
        irreps = IrrepTable.symmetric_3()
    else:
        raise ValidationError(
            "cannot infer an irreducible-representation table for this group; "
            "pass --irreps")
    return c, args.g, irreps


def _parse_blocks(text: str):
    try:
        blocks = tuple(int(x) for x in text.split(","))
    except ValueError:
        raise ValidationError(f"bad block list {text!r}")
    return blocks


def _add_globals(parser, default):
    """Global flags, accepted both before and after the subcommand."""
    parser.add_argument("--epsilon", type=float,
                        default=None if default else argparse.SUPPRESS)
    parser.add_argument("--budget", type=int,
                        default=None if default else argparse.SUPPRESS)


def build_parser() -> _Parser:
    parser = _Parser(prog="ncgdesk")
    _add_globals(parser, default=True)
    common = _Parser(add_help=False)
    _add_globals(common, default=False)
    sub = parser.add_subparsers(dest="command", required=True)

    def add(group, name, run=None):
        p = group.add_parser(name, parents=[common])
        p.set_defaults(run=run)  # run(args): the document, or (it, exit code)
        return p

    def actions(command):
        return add(sub, command).add_subparsers(dest="action", required=True)

    n0 = actions("n0")
    p = add(n0, "class",
            lambda a: sz.n0_to_json(n_class(_load_spectral(a.element))))
    p.add_argument("--element", required=True)
    p = add(n0, "eq", lambda a: {"equal": _read(a.a, sz.n0_from_json)
                                 == _read(a.b, sz.n0_from_json)})
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p = add(n0, "add", lambda a: sz.n0_to_json(
        _read(a.a, sz.n0_from_json) + _read(a.b, sz.n0_from_json)))
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p = add(n0, "h",
            lambda a: sz.k0c_to_json(h_map(_read(a.n0, sz.n0_from_json))))
    p.add_argument("--n0", required=True)
    p = add(n0, "t", lambda a: sz.n0_to_json(t_map(
        _read(a.k0c, sz.k0c_from_json), _read(a.algebra, sz.algebra_from_json))))
    p.add_argument("--k0c", required=True)
    p.add_argument("--algebra", required=True)
    p = add(n0, "push", lambda a: sz.n0_to_json(functorial_map(
        _read(a.hom, sz.hom_from_json), _read(a.n0, sz.n0_from_json))))
    p.add_argument("--hom", required=True)
    p.add_argument("--n0", required=True)

    hc = actions("hc")
    p = add(hc, "dims", lambda a: {"dims": hc_dims(
        _read(a.algebra, sz.algebra_from_json), a.max_degree)})
    p.add_argument("--algebra", required=True)
    p.add_argument("--max-degree", type=int, required=True)
    p = add(hc, "class", lambda a: sz.hc_class_to_json(
        hc_class(_read(a.tensor, sz.tensor_from_json))))
    p.add_argument("--tensor", required=True)
    p = add(hc, "trace", lambda a: sz.tensor_to_json(
        trace_map(_read(a.tensor, sz.tensor_from_json))))
    p.add_argument("--tensor", required=True)

    p = add(sub, "chern", lambda a: sz.hc_class_to_json(chern_projection(
        _read(a.projection, sz.projection_from_json), a.l)))
    p.add_argument("--projection", required=True)
    p.add_argument("--l", type=int, default=0)

    p = add(sub, "gchern", _gchern)
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--n0")
    src.add_argument("--element")
    p.add_argument("--l", type=int, default=0)
    p.add_argument("--path", choices=("cover", "direct", "both"))

    lef = actions("lefschetz")
    for name, run in (
            ("l1", lambda a: sz.k0c_to_json(
                lefschetz_first(*_character_inputs(a)))),
            ("l2", lambda a: sz.hc_class_to_json(
                lefschetz_second(*_character_inputs(a), a.l))),
            ("gl1", _gl1)):
        p = add(lef, name, run)
        p.add_argument("--complex", required=True)
        p.add_argument("--g", type=int, required=True)
        if name != "gl1":  # gl1 reads no irrep table
            p.add_argument("--irreps")
        if name == "l2":
            p.add_argument("--l", type=int, default=0)

    p = add(sub, "verify", _run_batteries)
    p.add_argument("--theorems", required=True)
    p.add_argument("--count", type=int, default=25)
    p.add_argument("--seed", type=int, default=0)

    p = add(sub, "generate", _generate)
    p.add_argument("--kind", required=True, choices=(
        "normal-element", "n0class", "projection-family", "ga-complex"))
    p.add_argument("--blocks", default="1,2")
    p.add_argument("--group", choices=("cyclic:2", "cyclic:3", "s3"))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--backend", choices=("exact", "float"), default="exact")
    return parser


def _gchern(args):
    if args.n0:
        if args.path:
            raise ValidationError("--path reads an --element, not an --n0 class")
        x = _read(args.n0, sz.n0_from_json)
        return sz.hc_class_to_json(generalized_chern(x, args.l))
    a = _load_spectral(args.element)
    if args.path in (None, "direct"):
        return sz.hc_class_to_json(T_direct(a, args.l))
    if args.path == "cover":
        return sz.hc_class_to_json(T_cover(a, args.l))
    direct = T_direct(a, args.l)
    cover = T_cover(a, args.l)
    agree = direct == cover
    return ({"agree": agree, "direct": sz.hc_class_to_json(direct),
             "cover": sz.hc_class_to_json(cover)},
            EXIT_OK if agree else EXIT_VERIFICATION)


def _run_batteries(args):
    names = [s.strip() for s in args.theorems.split(",") if s.strip()]
    if not names:
        raise ValidationError(f"no theorem named in {args.theorems!r}; "
                              f"choose from {sorted(BATTERIES)}")
    for name in names:
        if name not in BATTERIES:
            raise ValidationError(f"unknown theorem {name!r}; "
                                  f"choose from {sorted(BATTERIES)}")
    reports = run_batteries(names, args.seed, args.count)
    return ({"reports": [{**r.to_json(), "elapsed_s": r.elapsed_s}
                         for r in reports]},
            EXIT_OK if all(r.ok for r in reports) else EXIT_VERIFICATION)


def _gl1(args):
    c = _read(args.complex, sz.complex_from_json)
    return sz.n0_to_json(generalized_lefschetz(c, c.unitary(args.g)).value)


def _group_table(name: str) -> IrrepTable:
    if name == "s3":
        return IrrepTable.symmetric_3()
    return IrrepTable.cyclic(int(name.split(":")[1]))


def _generate(args):
    if args.group and args.kind != "ga-complex":
        raise ValidationError("--group is read by --kind ga-complex only")
    rng = random.Random(args.seed)
    algebra = MultiMatrixAlgebra(_parse_blocks(args.blocks))
    if args.kind == "normal-element":
        doc = sz.spectral_to_json(random_normal(algebra, rng))
    elif args.kind == "n0class":
        doc = sz.n0_to_json(random_n0class(algebra, rng))
    elif args.kind == "projection-family":
        family = random_orthogonal_family(algebra, rng, rng.randint(2, 4))
        doc = {"schema_version": sz.SCHEMA_VERSION,
               "projections": [sz.projection_to_json(p) for p in family]}
    else:
        doc = sz.complex_to_json(
            random_ga_complex(algebra, _group_table(args.group or "cyclic:2"),
                              rng))
    return _to_float_doc(doc) if args.backend == "float" else doc


def _to_float_doc(doc):
    """Re-encode every exact scalar leaf as a float [re, im] pair."""
    if isinstance(doc, dict):
        if set(doc) == {"order", "coeffs"}:
            z = to_complex(parse_scalar(doc))
            return [z.real, z.imag]
        return {k: _to_float_doc(v) for k, v in doc.items()}
    if isinstance(doc, list):
        if len(doc) == 2 and all(isinstance(x, str) for x in doc):
            z = to_complex(parse_scalar(doc))
            return [z.real, z.imag]
        return [_to_float_doc(v) for v in doc]
    return doc


def run(argv) -> int:
    args = build_parser().parse_args(argv)
    if args.epsilon is not None:
        set_epsilon(args.epsilon)
    if args.budget is not None:
        set_budget(args.budget)
    out = args.run(args)
    doc, code = out if isinstance(out, tuple) else (out, EXIT_OK)
    # flushed here, so a closed pipe raises inside main
    print(sz.dumps(doc), flush=True)
    return code


def main(argv=None) -> int:
    try:
        return run(sys.argv[1:] if argv is None else argv)
    except (ValidationError, DomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (NumericalError, ResourceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except ConsistencyError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VERIFICATION
    except BrokenPipeError:
        # the reader closed stdout early: the interpreter's last flush goes
        # to the null device instead
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
