"""Checks on the package source itself."""

import ast
import re
from pathlib import Path

import branchpolar

SOURCES = sorted(Path(branchpolar.__file__).parent.glob("*.py"))


def test_package_has_no_assert_statements():
    # invariants are typed BranchPolarErrors, which python -O does not strip
    found = [f"{path.name}:{node.lineno}"
             for path in SOURCES
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Assert)]
    assert SOURCES
    assert not found, f"assert statements in the package: {found}"


def _imported_names(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.partition(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def _exported_names(tree):
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(getattr(t, "id", None) == "__all__" for t in node.targets)):
            return set(ast.literal_eval(node.value))
    return set()


def test_package_has_no_unused_imports():
    # what a module imports it uses or re-exports through __all__
    found = []
    for path in SOURCES:
        tree = ast.parse(path.read_text(), str(path))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        used |= _exported_names(tree)
        found += [f"{path.name}:{line} {name}"
                  for name, line in _imported_names(tree) if name not in used]
    assert not found, f"unused imports in the package: {found}"


README = Path(__file__).resolve().parents[1] / "README.md"
# argparse calls this override itself, so nothing in the package names it
CALLED_BY_THE_STANDARD_LIBRARY = {"_Parser.error"}


def _references(tree):
    """Names a tree reads (variables and imports) and attributes it reads."""
    names, attrs = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            attrs.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names, attrs


def _definitions(tree):
    """Every function and class defined in a tree, with the class a method
    is defined in (None for anything else)."""
    stack = [(tree, None)]
    while stack:
        node, owner = stack.pop()
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                yield child, owner
            if isinstance(child, ast.ClassDef):
                stack.append((child, child))
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                stack.append((child, None))
            else:
                stack.append((child, owner))


def _dataclass_fields(tree):
    """Every field of a dataclass defined in a tree, with its class."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef) and any(
                getattr(d.func if isinstance(d, ast.Call) else d, "id", None) == "dataclass"
                for d in node.decorator_list):
            for child in node.body:
                if isinstance(child, ast.AnnAssign) and isinstance(child.target, ast.Name):
                    yield child, node


def test_package_defines_nothing_only_the_tests_use():
    # every function, class, method and dataclass field is used by the
    # package itself or by a README python block; what only tests use belongs
    # in tests/oracles.py.  A method or a field is only reached as an
    # attribute, so a variable of the same name does not count for it.
    # __init__.py imports a name to re-export it, which is no use: the name
    # must be read by another module or a block
    trees = {path: ast.parse(path.read_text(), str(path)) for path in SOURCES}
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.M | re.S)
    readers = [tree for path, tree in trees.items() if path.name != "__init__.py"]
    names, attrs = set(), set()
    for tree in [*readers, *map(ast.parse, blocks)]:
        tree_names, tree_attrs = _references(tree)
        names |= tree_names
        attrs |= tree_attrs
    found = []
    for path, tree in trees.items():
        for node, owner in _definitions(tree):
            name = f"{owner.name}.{node.name}" if owner else node.name
            dunder = node.name.startswith("__") and node.name.endswith("__")
            used = node.name in attrs or (owner is None and node.name in names)
            if not (used or dunder or name in CALLED_BY_THE_STANDARD_LIBRARY):
                found.append(f"{path.name}:{node.lineno} {name}")
        found += [f"{path.name}:{field.lineno} {owner.name}.{field.target.id}"
                  for field, owner in _dataclass_fields(tree) if field.target.id not in attrs]
    assert blocks
    assert not found, f"defined in the package but used by nothing in it: {found}"


def test_package_has_one_indent_2_json_writer():
    # every indented document goes through jsontext.dumps; json.dumps with
    # indent set runs the standard library's pure-Python encoder
    found = [f"{path.name}:{node.lineno}"
             for path in SOURCES
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Call)
             and isinstance(node.func, ast.Attribute)
             and node.func.attr in ("dump", "dumps")
             and getattr(node.func.value, "id", None) == "json"
             and any(kw.arg == "indent" for kw in node.keywords)]
    assert SOURCES
    assert not found, f"json.dump(s) with indent in the package: {found}"


def test_package_makes_no_float():
    # everything is exact: no float(...) call and no float or complex constant,
    # so every number the package computes is an int or a Fraction
    found = [f"{path.name}:{node.lineno}"
             for path in SOURCES
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if (isinstance(node, ast.Call) and getattr(node.func, "id", None) == "float")
             or (isinstance(node, ast.Constant) and type(node.value) in (float, complex))]
    assert SOURCES
    assert not found, f"floats in the package: {found}"


def test_verify_names_neither_symbolic_derivative_nor_trunc():
    # verify reads its expected polar diagram by rows off the hat's diagram;
    # read through the truncation predict uses, a fault there would pass as
    # a degenerate witness
    text = (Path(branchpolar.__file__).parent / "verify.py").read_text()
    assert not re.findall(r"\b(?:symbolic_derivative|trunc)\b", text)


def test_verify_stores_no_summary_beside_its_evidence():
    # a level's status is read off its reasons, its prediction match and
    # aggregate check off its evidence and its expectation, a run's status
    # off its failures and levels, and the verdict, passing seed and
    # degenerate count off the runs: no field holds them, and no assignment
    # or keyword sets them
    path = Path(branchpolar.__file__).parent / "verify.py"
    derived = {"status", "verdict", "passing_seed", "degenerate_count",
               "prediction_match", "aggregate_ok"}
    found = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, (ast.Attribute, ast.Name)) and isinstance(node.ctx, ast.Store):
            name = node.attr if isinstance(node, ast.Attribute) else node.id
        elif isinstance(node, ast.keyword):
            name = node.arg
        else:
            continue
        if name in derived:
            found.append(f"{path.name}:{node.lineno} {name}")
    assert not found, f"verify.py stores what it derives: {found}"
