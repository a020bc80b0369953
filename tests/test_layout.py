"""Layout of the library: ``src/halkron`` holds the program, and the tests
hold their oracles and helpers.  No module holds an object-dtype array,
and only ``numtheory`` converts between Python ints and words (its
``to_words`` and ``from_words`` are the only ``to_bytes`` and
``from_bytes`` calls), so only it names a big-endian dtype or
``np.void``: every other module works on native uint64 words.

Only ``cli.py`` imports ``csv``, ``io``, ``json`` or ``sys``: the other
modules compute, and the CLI reads arguments and writes every output.

``halkron/__init__.py`` sets the OpenBLAS thread default before it imports
any module of the package: the first of them loads numpy, and OpenBLAS
starts its threads as numpy loads.

Every name that ``halkron/__init__.py`` imports must be used by another
module of the package, outside the ``def`` or ``class`` that defines it.
The only exceptions are the paper's identities that acceptance criteria 8
(the 2-additive telescoping bound and the product identity of the perturbed
exponential sum) and 9 (the discrepancy lower bound) check: no command
needs them, and they are the library's statement of the paper, not test
helpers.
"""

import ast
import re
from pathlib import Path

import halkron

PACKAGE = Path(halkron.__file__).parent
PAPER_IDENTITIES = {"exp_sum_perturbed", "two_additive_bound_check", "product_lower_bound"}


def exported_names() -> set[str]:
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    return {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }


def used_names(node: ast.AST, enclosing: tuple[str, ...] = ()) -> set[str]:
    """Every ``ast.Name`` id and ``ast.Attribute`` attr under ``node``,
    except a use inside the def or class of the same name."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        enclosing += (node.name,)
    found = set()
    if isinstance(node, ast.Name):
        found.add(node.id)
    elif isinstance(node, ast.Attribute):
        found.add(node.attr)
    found -= set(enclosing)
    for child in ast.iter_child_nodes(node):
        found |= used_names(child, enclosing)
    return found


def test_every_export_runs_in_the_program():
    used = set()
    for path in PACKAGE.glob("*.py"):
        if path.name != "__init__.py":
            used |= used_names(ast.parse(path.read_text()))
    unused = exported_names() - used
    assert unused == PAPER_IDENTITIES, f"exported with no user in src/: {sorted(unused - PAPER_IDENTITIES)}"


def calls(path: Path):
    return [node for node in ast.walk(ast.parse(path.read_text())) if isinstance(node, ast.Call)]


def test_no_object_arrays():
    # the coordinates and orbits are uint64 word arrays, not arrays of Python ints
    found = [
        path.name
        for path in PACKAGE.glob("*.py")
        for call in calls(path)
        for kw in call.keywords
        if kw.arg == "dtype" and (
            (isinstance(kw.value, ast.Name) and kw.value.id == "object")
            or (isinstance(kw.value, ast.Constant) and kw.value.value in ("O", "object"))
        )
    ]
    assert found == []


def test_int_word_conversion_lives_in_numtheory():
    users = {
        path.name
        for path in PACKAGE.glob("*.py")
        for call in calls(path)
        if isinstance(call.func, ast.Attribute) and call.func.attr in ("to_bytes", "from_bytes")
    }
    assert users == {"numtheory.py"}


def test_byte_order_lives_in_numtheory():
    users = {
        path.name
        for path in PACKAGE.glob("*.py")
        for node in ast.walk(ast.parse(path.read_text()))
        if (isinstance(node, ast.Constant) and isinstance(node.value, str)
            and re.fullmatch(r">[a-zA-Z]\d*", node.value))
        or (isinstance(node, ast.Attribute) and node.attr == "void")
    }
    assert users == {"numtheory.py"}


def imported_modules(path: Path):
    """The absolute module names that the file at ``path`` imports."""
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module


def test_only_the_cli_does_io():
    users = {
        path.name
        for path in PACKAGE.glob("*.py")
        for name in imported_modules(path)
        if name.split(".")[0] in {"csv", "io", "json", "sys"}
    }
    assert users <= {"cli.py"}, f"modules other than cli.py import I/O: {sorted(users - {'cli.py'})}"


def test_blas_thread_default_precedes_every_import():
    body = ast.parse((PACKAGE / "__init__.py").read_text()).body
    statements = [ast.unparse(node) for node in body]
    at = statements.index("os.environ.setdefault('OPENBLAS_NUM_THREADS', '1')")
    imports_before = [ast.unparse(node) for node in body[:at]
                      if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert imports_before == ["import os"]
