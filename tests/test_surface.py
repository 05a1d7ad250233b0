"""The public surface of the package.

Every public function, class and method (a name without a leading
underscore, at module level or in a class body) is read in ``src/``
outside its own body and ``__init__.py``, or is exported from ``ncgdesk``
with a row in README's "Public API" table, or is listed in ``UNCALLED``.
Calls resolve through the module's own names, ``from .m import f`` and
``alias.f`` for a module alias; a method is read by any attribute of its
name.
"""

import ast
import re
from pathlib import Path

import ncgdesk

PACKAGE = Path(ncgdesk.__file__).parent
README = PACKAGE.parents[1] / "README.md"

# public names no module of the package reads, with what does
UNCALLED = {
    "cli._Parser.error": "argparse calls it on a usage error",
    "cyclic.HomologySpace.cycle_basis": "perfbench's tracer reads it",
    "generate.acyclic_augmentation": "perfbench's lefschetz workload",
    "linalg.from_columns": "acceptance criterion 5",
    "linalg.rank": "acceptance criterion 5",
    "linalg.shape": "perfbench's tracer reads it in its mat_mul hook",
}

EXPORTED = [
    "AlgebraElement", "BorelSetModel", "ConsistencyError", "Cyclotomic",
    "DomainError", "FiniteGroup", "GAComplex", "HCClass", "IrrepTable",
    "K0Class", "K0TensorC", "MultiMatrixAlgebra", "N0Class", "NcgError",
    "NumericalError", "Projection", "ResourceError", "SpectralForm",
    "StarHomomorphism", "T_cover", "T_direct", "TensorElement",
    "ValidationError", "apply_hom", "chern_projection", "clear_caches",
    "cyclic_op", "dyadic_cover", "eta_cycle", "face_op", "functorial_map",
    "generalized_chern", "generalized_lefschetz", "get_budget",
    "get_epsilon", "h_map", "hc_class", "hc_dims", "hc_space", "is_boundary",
    "is_normal", "lefschetz_first", "lefschetz_second", "n_class",
    "read_class", "set_budget", "set_epsilon", "spectral_decompose",
    "spectral_projection", "t_map", "trace_map", "validate_complex",
    "verify_eta_vanishes", "zero_class",
]


def _prefix(path):
    return "" if path.stem == "__init__" else path.stem + "."


def _definitions(tree, prefix):
    """{qualified name: what reads it} of the public functions, classes
    and methods: a module-level name is read as itself, a method as any
    attribute of its name."""
    found = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            if not node.name.startswith("_"):
                found[prefix + node.name] = prefix + node.name
            for item in node.body if isinstance(node, ast.ClassDef) else ():
                if isinstance(item, ast.FunctionDef) \
                        and not item.name.startswith("_"):
                    found[f"{prefix}{node.name}.{item.name}"] = "." + item.name
    return found


def _reads(tree, prefix):
    """(read, names of the definitions around it) for each read in
    ``tree``: "m.f" for a module-level name, ".f" for an attribute."""
    modules, imported = {}, {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            for a in node.names:
                if node.module:
                    imported[a.asname or a.name] = f"{node.module}.{a.name}"
                else:
                    modules[a.asname or a.name] = a.name
    local = {node.name for node in tree.body
             if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    out = []

    def visit(node, around, depth):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and depth < 2:
            name = around[-1] + "." + node.name if depth else prefix + node.name
            around, depth = around + (name,), depth + 1
        elif isinstance(node, ast.Name):
            if node.id in local:
                out.append((prefix + node.id, around))
            elif node.id in imported:
                out.append((imported[node.id], around))
        elif isinstance(node, ast.Attribute):
            out.append(("." + node.attr, around))
            if isinstance(node.value, ast.Name) and node.value.id in modules:
                out.append((f"{modules[node.value.id]}.{node.attr}", around))
        for child in ast.iter_child_nodes(node):
            visit(child, around, depth)

    visit(tree, (), 0)
    return out


def _readme_api():
    """The names in the first column of README's "Public API" table."""
    section = README.read_text().split("\n## Public API\n")[1]
    return re.findall(r"^\| `(\w+)` \|", section.split("\n## ")[0], re.M)


def test_every_public_name_has_a_reader():
    defined, reads = {}, []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        defined |= _definitions(tree, _prefix(path))
        if path.stem != "__init__":
            reads += _reads(tree, _prefix(path))
    exported = {f"{obj.__module__}.{obj.__qualname__}".removeprefix("ncgdesk.")
                for obj in map(ncgdesk.__dict__.get, ncgdesk.__all__)}
    unread = sorted(name for name, key in defined.items()
                    if name not in exported and not any(
                        read == key and name not in around
                        for read, around in reads))
    assert unread == sorted(UNCALLED)


def test_exports_are_pinned_and_documented():
    assert sorted(ncgdesk.__all__) == EXPORTED
    assert sorted(_readme_api()) == EXPORTED
