"""JSON decoding of every input document, and encoding of every answer.

Exact rationals travel as strings "p/q", complex values as [re, im]
pairs, and non-Gaussian exact scalars as {"order", "coeffs"} records.
Every document carries a schema_version field and emits its collections
in canonical order so round-trips are stable.  The loaders check each
field they read, and a loaded complex must pass ``validate_complex``: a
malformed document raises ValidationError.
"""

from __future__ import annotations

import json

from . import linalg as la
from .algebra import (
    AlgebraElement,
    MultiMatrixAlgebra,
    Projection,
    SpectralForm,
    StarHomomorphism,
)
from .cyclic import HCClass, TensorElement
from .errors import ValidationError
from .lefschetz import (
    FiniteGroup,
    GAComplex,
    Irrep,
    IrrepTable,
    validate_complex,
)
from .ngroup import K0Class, K0TensorC, N0Class
from .scalars import Cyclotomic, format_scalar, parse_scalar

SCHEMA_VERSION = 1


def _simplify(x):
    if isinstance(x, Cyclotomic) and x.is_rational():
        return x.rational_value()
    return x


# -- checked field access ---------------------------------------------------

def _field(doc, key, *default):
    """doc[key] of a JSON object, or ``default`` when given and key is absent."""
    if not isinstance(doc, dict):
        raise ValidationError(f"expected a JSON object, got {type(doc).__name__}")
    if key in doc:
        return doc[key]
    if default:
        return default[0]
    raise ValidationError(f"missing field {key!r}")


def _items(v, what):
    if not isinstance(v, list):
        raise ValidationError(f"{what} must be a list, got {type(v).__name__}")
    return v


def _int(v, what):
    if isinstance(v, bool) or not isinstance(v, int):
        raise ValidationError(f"{what} must be an integer, got {v!r}")
    return v


def _ints(v, what):
    return tuple(_int(x, what) for x in _items(v, what))


def _cut(text: str) -> str:
    """text, or its first 160 characters and its length."""
    return text if len(text) <= 160 else \
        f"{text[:160]}... ({len(text)} characters)"


def _scalar(v):
    try:
        return parse_scalar(v)
    except (ValueError, TypeError, ZeroDivisionError, KeyError) as exc:
        # the message repeats a rejected string: both are cut
        raise ValidationError(
            f"bad scalar {_cut(repr(v))}: {_cut(str(exc))}") from None


def _parse_entry(v):
    return _simplify(_scalar(v))


def _algebra(doc) -> MultiMatrixAlgebra:
    return MultiMatrixAlgebra(_ints(_field(doc, "blocks"), "block dimension"))


def _group(doc) -> FiniteGroup:
    return FiniteGroup(tuple(_ints(row, "group table row")
                             for row in _items(_field(doc, "table"), "group table")))


def matrix_to_json(m):
    return [[format_scalar(x) for x in row] for row in la.entries(m)]


def matrix_from_json(rows):
    return tuple(tuple(_parse_entry(x) for x in _items(row, "matrix row"))
                 for row in _items(rows, "matrix"))


def _matrices(v, what):
    return tuple(matrix_from_json(m) for m in _items(v, what))


def _check_version(doc):
    v = _field(doc, "schema_version", SCHEMA_VERSION)
    if v != SCHEMA_VERSION:
        raise ValidationError(f"unsupported schema version {v}")


# -- algebra ----------------------------------------------------------------

def algebra_from_json(doc: dict) -> MultiMatrixAlgebra:
    _check_version(doc)
    return _algebra(doc)


def element_to_json(x: AlgebraElement) -> dict:
    return {"schema_version": SCHEMA_VERSION,
            "algebra": {"blocks": list(x.algebra.block_dims)},
            "m": x.amplification,
            "blocks": [matrix_to_json(b) for b in x.blocks]}


def element_from_json(doc: dict) -> AlgebraElement:
    _check_version(doc)
    return AlgebraElement(_algebra(_field(doc, "algebra")),
                          _int(_field(doc, "m", 1), "m"),
                          _matrices(_field(doc, "blocks"), "blocks"))


def projection_to_json(p: Projection) -> dict:
    return element_to_json(p.element)


def projection_from_json(doc: dict) -> Projection:
    return Projection(element_from_json(doc))


def spectral_to_json(a: SpectralForm) -> dict:
    return {"schema_version": SCHEMA_VERSION,
            "algebra": {"blocks": list(a.algebra.block_dims)},
            "m": a.amplification,
            "pairs": [{"lambda": format_scalar(v),
                       "P": [matrix_to_json(b) for b in p.element.blocks]}
                      for v, p in a.pairs]}


def spectral_from_json(doc: dict) -> SpectralForm:
    _check_version(doc)
    algebra = _algebra(_field(doc, "algebra"))
    m = _int(_field(doc, "m", 1), "m")
    pairs = tuple(
        (_scalar(_field(item, "lambda")),
         Projection(AlgebraElement(algebra, m, _matrices(_field(item, "P"), "P"))))
        for item in _items(_field(doc, "pairs"), "pairs"))
    return SpectralForm.from_pairs(algebra, m, pairs)


# -- groups of classes ------------------------------------------------------

def n0_to_json(x: N0Class) -> dict:
    return {"schema_version": SCHEMA_VERSION,
            "algebra": {"blocks": list(x.algebra.block_dims)},
            "support": [{"lambda": format_scalar(v), "ranks": list(c.ranks)}
                        for v, c in x.support]}


def n0_from_json(doc: dict) -> N0Class:
    _check_version(doc)
    algebra = _algebra(_field(doc, "algebra"))
    support = tuple((_scalar(_field(item, "lambda")),
                     K0Class(_ints(_field(item, "ranks"), "rank")))
                    for item in _items(_field(doc, "support"), "support"))
    return N0Class(algebra, support)


def k0c_to_json(v: K0TensorC) -> dict:
    return {"schema_version": SCHEMA_VERSION,
            "coeffs": [format_scalar(c) for c in v.coeffs]}


def k0c_from_json(doc: dict) -> K0TensorC:
    _check_version(doc)
    coeffs = _items(_field(doc, "coeffs"), "coeffs")
    return K0TensorC(tuple(_parse_entry(c) for c in coeffs))


def hc_class_to_json(c: HCClass) -> dict:
    return {"schema_version": SCHEMA_VERSION, "degree": c.degree,
            "coords": [format_scalar(x) for x in c.coords]}


# -- tensors ----------------------------------------------------------------

def tensor_to_json(xi: TensorElement) -> dict:
    terms = [{"indices": [list(u) for u in key], "coeff": format_scalar(c)}
             for key, c in sorted(xi.coeffs.items())]
    return {"schema_version": SCHEMA_VERSION,
            "algebra": {"blocks": list(xi.algebra.block_dims)},
            "m": xi.amplification, "degree": xi.degree, "terms": terms}


def tensor_from_json(doc: dict) -> TensorElement:
    _check_version(doc)
    algebra = _algebra(_field(doc, "algebra"))
    coeffs = {}
    for term in _items(_field(doc, "terms"), "terms"):
        key = tuple(_ints(u, "tensor index")
                    for u in _items(_field(term, "indices"), "indices"))
        c = _parse_entry(_field(term, "coeff"))
        coeffs[key] = coeffs[key] + c if key in coeffs else c  # sum repeats
    return TensorElement(algebra, _int(_field(doc, "m", 1), "m"),
                         _int(_field(doc, "degree"), "degree"), coeffs)


# -- homomorphisms ----------------------------------------------------------

def hom_from_json(doc: dict) -> StarHomomorphism:
    _check_version(doc)
    unitaries = _field(doc, "unitaries", None)
    if unitaries is not None:
        unitaries = _matrices(unitaries, "unitaries")
    return StarHomomorphism(
        _algebra(_field(doc, "source")),
        _algebra(_field(doc, "target")),
        tuple(_ints(row, "multiplicity")
              for row in _items(_field(doc, "multiplicities"), "multiplicities")),
        unitaries)


# -- groups and complexes ---------------------------------------------------

def group_table_to_json(group: FiniteGroup) -> dict:
    return {"table": [list(row) for row in group.table]}


def irreps_from_json(doc: dict) -> IrrepTable:
    """Either a built-in reference {"kind": "cyclic"|"s3"} or a full table."""
    kind = _field(doc, "kind", None)
    if kind == "cyclic":
        return IrrepTable.cyclic(_int(_field(doc, "n"), "n"))
    if kind == "s3":
        return IrrepTable.symmetric_3()
    if kind is not None:
        raise ValidationError(f"unknown group kind {kind!r}")
    _check_version(doc)
    group = _group(_field(doc, "group"))
    irreps = tuple(Irrep(_field(p, "name"), _int(_field(p, "dim"), "dim"),
                         _matrices(_field(p, "matrices"), "matrices"))
                   for p in _items(_field(doc, "irreps"), "irreps"))
    return IrrepTable(group, irreps)


def complex_to_json(c: GAComplex) -> dict:
    return {"schema_version": SCHEMA_VERSION,
            "algebra": {"blocks": list(c.algebra.block_dims)},
            "group": group_table_to_json(c.group),
            "modules": [{"n": q.amplification,
                         "q": [matrix_to_json(b) for b in q.element.blocks]}
                        for q in c.modules],
            "diffs": [[matrix_to_json(b) for b in d] for d in c.diffs],
            "action": [[[matrix_to_json(b) for b in u.blocks]
                        for u in row] for row in c.action]}


def complex_from_json(doc: dict) -> GAComplex:
    _check_version(doc)
    algebra = _algebra(_field(doc, "algebra"))
    group = _group(_field(doc, "group"))
    modules = tuple(
        Projection(AlgebraElement(algebra, _int(_field(item, "n"), "n"),
                                  _matrices(_field(item, "q"), "q")))
        for item in _items(_field(doc, "modules"), "modules"))
    diffs = _items(_field(doc, "diffs"), "diffs")
    action = _items(_field(doc, "action"), "action")
    if len(diffs) != max(len(modules) - 1, 0) or any(
            len(_items(row, "action row")) != len(modules) for row in action):
        raise ValidationError("complex needs one differential between each pair of "
                              "adjacent modules and one action block per module")
    diffs = tuple(_matrices(blocks, "diff") for blocks in diffs)
    action = tuple(
        tuple(AlgebraElement(algebra, modules[j].amplification, _matrices(u, "action"))
              for j, u in enumerate(row))
        for row in action)
    c = GAComplex(algebra, group, modules, diffs, action)
    problems = validate_complex(c)
    if problems:
        raise ValidationError(f"invalid complex: {problems[0]}")
    return c


# -- files ------------------------------------------------------------------

def dumps(doc: dict) -> str:
    return json.dumps(doc, indent=2)


def load_file(path: str) -> dict:
    """Parse a JSON file; an unreadable file or bad JSON is a ValidationError."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError, RecursionError) as exc:
        # ValueError covers bad JSON and UTF-8, RecursionError deep nesting
        raise ValidationError(f"cannot load {path}: {exc}") from None
