"""JSON encoding of every domain value.

Exact rationals travel as strings "p/q", complex values as [re, im]
pairs, and non-Gaussian exact scalars as {"order", "coeffs"} records.
Every document carries a schema_version field and emits its collections
in canonical order so round-trips are stable.
"""

from __future__ import annotations

import json
from fractions import Fraction

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
    ModuleMap,
)
from .ngroup import K0Class, K0TensorC, N0Class
from .scalars import Cyclotomic, format_scalar, parse_scalar

SCHEMA_VERSION = 1


def _simplify(x):
    if isinstance(x, Cyclotomic) and x.is_rational():
        return x.rational_value()
    return x


def _parse_entry(v):
    return _simplify(parse_scalar(v))


def matrix_to_json(m):
    return [[format_scalar(x) for x in row] for row in la.entries(m)]


def matrix_from_json(rows):
    return tuple(tuple(_parse_entry(x) for x in row) for row in rows)


def _check_version(doc):
    v = doc.get("schema_version", SCHEMA_VERSION)
    if v != SCHEMA_VERSION:
        raise ValidationError(f"unsupported schema version {v}")


# -- algebra ----------------------------------------------------------------

def algebra_to_json(a: MultiMatrixAlgebra) -> dict:
    return {"schema_version": SCHEMA_VERSION, "blocks": list(a.block_dims)}


def algebra_from_json(doc: dict) -> MultiMatrixAlgebra:
    _check_version(doc)
    return MultiMatrixAlgebra(tuple(doc["blocks"]))


def element_to_json(x: AlgebraElement) -> dict:
    return {"schema_version": SCHEMA_VERSION,
            "algebra": {"blocks": list(x.algebra.block_dims)},
            "m": x.amplification,
            "blocks": [matrix_to_json(b) for b in x.blocks]}


def element_from_json(doc: dict) -> AlgebraElement:
    _check_version(doc)
    algebra = MultiMatrixAlgebra(tuple(doc["algebra"]["blocks"]))
    return AlgebraElement(algebra, int(doc.get("m", 1)),
                          tuple(matrix_from_json(b) for b in doc["blocks"]))


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
    algebra = MultiMatrixAlgebra(tuple(doc["algebra"]["blocks"]))
    m = int(doc.get("m", 1))
    pairs = tuple(
        (parse_scalar(item["lambda"]),
         Projection(AlgebraElement(algebra, m, tuple(
             matrix_from_json(b) for b in item["P"]))))
        for item in doc["pairs"])
    return SpectralForm.from_pairs(algebra, m, pairs)


# -- groups of classes ------------------------------------------------------

def n0_to_json(x: N0Class) -> dict:
    return {"schema_version": SCHEMA_VERSION,
            "algebra": {"blocks": list(x.algebra.block_dims)},
            "support": [{"lambda": format_scalar(v), "ranks": list(c.ranks)}
                        for v, c in x.support]}


def n0_from_json(doc: dict) -> N0Class:
    _check_version(doc)
    algebra = MultiMatrixAlgebra(tuple(doc["algebra"]["blocks"]))
    support = tuple((parse_scalar(item["lambda"]),
                     K0Class(tuple(item["ranks"])))
                    for item in doc["support"])
    return N0Class(algebra, support)


def k0c_to_json(v: K0TensorC) -> dict:
    return {"schema_version": SCHEMA_VERSION,
            "coeffs": [format_scalar(c) for c in v.coeffs]}


def k0c_from_json(doc: dict) -> K0TensorC:
    _check_version(doc)
    return K0TensorC(tuple(_parse_entry(c) for c in doc["coeffs"]))


def hc_class_to_json(c: HCClass) -> dict:
    return {"schema_version": SCHEMA_VERSION, "degree": c.degree,
            "coords": [format_scalar(x) for x in c.coords]}


def hc_class_from_json(doc: dict) -> HCClass:
    _check_version(doc)
    return HCClass(int(doc["degree"]),
                   tuple(_parse_entry(x) for x in doc["coords"]))


# -- tensors ----------------------------------------------------------------

def tensor_to_json(xi: TensorElement) -> dict:
    terms = [{"indices": [list(u) for u in key], "coeff": format_scalar(c)}
             for key, c in sorted(xi.coeffs.items())]
    return {"schema_version": SCHEMA_VERSION,
            "algebra": {"blocks": list(xi.algebra.block_dims)},
            "m": xi.amplification, "degree": xi.degree, "terms": terms}


def tensor_from_json(doc: dict) -> TensorElement:
    _check_version(doc)
    algebra = MultiMatrixAlgebra(tuple(doc["algebra"]["blocks"]))
    coeffs = {}
    for term in doc["terms"]:
        key = tuple(tuple(int(i) for i in u) for u in term["indices"])
        coeffs[key] = _parse_entry(term["coeff"])
    return TensorElement(algebra, int(doc.get("m", 1)),
                         int(doc["degree"]), coeffs)


# -- homomorphisms ----------------------------------------------------------

def hom_to_json(phi: StarHomomorphism) -> dict:
    doc = {"schema_version": SCHEMA_VERSION,
           "source": {"blocks": list(phi.source.block_dims)},
           "target": {"blocks": list(phi.target.block_dims)},
           "multiplicities": [list(row) for row in phi.multiplicities]}
    if phi.unitaries is not None:
        doc["unitaries"] = [matrix_to_json(u) for u in phi.unitaries]
    return doc


def hom_from_json(doc: dict) -> StarHomomorphism:
    _check_version(doc)
    unitaries = doc.get("unitaries")
    if unitaries is not None:
        unitaries = tuple(matrix_from_json(u) for u in unitaries)
    return StarHomomorphism(
        MultiMatrixAlgebra(tuple(doc["source"]["blocks"])),
        MultiMatrixAlgebra(tuple(doc["target"]["blocks"])),
        tuple(tuple(row) for row in doc["multiplicities"]),
        unitaries)


# -- groups and complexes ---------------------------------------------------

def group_table_to_json(group: FiniteGroup) -> dict:
    return {"table": [list(row) for row in group.table]}


def irreps_to_json(table: IrrepTable) -> dict:
    return {"schema_version": SCHEMA_VERSION,
            "group": group_table_to_json(table.group),
            "irreps": [{"name": p.name, "dim": p.dim,
                        "matrices": [matrix_to_json(m) for m in p.matrices]}
                       for p in table.irreps]}


def irreps_from_json(doc: dict) -> IrrepTable:
    """Either a built-in reference {"kind": "cyclic"|"s3"} or a full table."""
    kind = doc.get("kind")
    if kind == "cyclic":
        return IrrepTable.cyclic(int(doc["n"]))
    if kind == "s3":
        return IrrepTable.symmetric_3()
    if kind is not None:
        raise ValidationError(f"unknown group kind {kind!r}")
    _check_version(doc)
    group = FiniteGroup(tuple(tuple(r) for r in doc["group"]["table"]))
    irreps = tuple(Irrep(p["name"], int(p["dim"]),
                         tuple(matrix_from_json(m) for m in p["matrices"]))
                   for p in doc["irreps"])
    return IrrepTable(group, irreps)


def complex_to_json(c: GAComplex) -> dict:
    return {"schema_version": SCHEMA_VERSION,
            "algebra": {"blocks": list(c.algebra.block_dims)},
            "group": group_table_to_json(c.group),
            "modules": [{"n": q.amplification,
                         "q": [matrix_to_json(b) for b in q.element.blocks]}
                        for q in c.modules],
            "diffs": [[matrix_to_json(b) for b in d.blocks]
                      for d in c.diffs],
            "action": [[[matrix_to_json(b) for b in u.blocks]
                        for u in row] for row in c.action]}


def complex_from_json(doc: dict) -> GAComplex:
    _check_version(doc)
    algebra = MultiMatrixAlgebra(tuple(doc["algebra"]["blocks"]))
    group = FiniteGroup(tuple(tuple(r) for r in doc["group"]["table"]))
    modules = tuple(
        Projection(AlgebraElement(algebra, int(item["n"]), tuple(
            matrix_from_json(b) for b in item["q"])))
        for item in doc["modules"])
    diffs = tuple(
        ModuleMap(algebra, modules[i].amplification,
                  modules[i + 1].amplification,
                  tuple(matrix_from_json(b) for b in blocks))
        for i, blocks in enumerate(doc["diffs"]))
    action = tuple(
        tuple(AlgebraElement(algebra, modules[j].amplification, tuple(
            matrix_from_json(b) for b in u))
            for j, u in enumerate(row))
        for row in doc["action"])
    return GAComplex(algebra, group, modules, diffs, action)


# -- files ------------------------------------------------------------------

def dumps(doc: dict) -> str:
    return json.dumps(doc, indent=2)


def load_file(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)
