"""Dead-code guards for the package, read from the syntax tree (stdlib only).

Every top-level function and class, and every method that is not a dunder,
must be referenced somewhere outside its own definition: in the package, the
tests, tools/ or perfbench/.  A top-level class must also be used by the
package, tools/ or perfbench/, not only named by the tests or re-exported by
the package __init__.  String constants count as references, because
the benchmark tracer names the functions it wraps as "Class.method" strings.
A private definition, one whose name starts with an underscore, must be
used by the package, tools/ or perfbench/, not only by the tests.
No module may import a name it never uses; the package __init__ re-exports
by importing, so it is exempt.  Every import of the package sits at module
level, so the import graph can be read off the top of each file.  Every
true division in the package has an explicit ``Fraction(...)`` call as its
left operand: over Q an ``int / int`` quotient would be a float.  Every
factorization site is named: each call by bare name to ``smith_normal_form``,
``SmithSolver``, ``kernel_with_relations``, ``kernel`` or ``inverse`` in the
package, with its module and enclosing function, is in ``FACTORIZATION_SITES``,
and every entry there is such a call, so a new site fails until it is listed
on purpose.  A method of a decomposition, such as
``snf.kernel_with_relations()``, reads a factorization already made and is
not a site.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "twistcap"
TESTS = ROOT / "tests"
SCANNED = (PACKAGE, TESTS, ROOT / "tools", ROOT / "perfbench")


def _trees():
    for folder in SCANNED:
        for path in sorted(folder.rglob("*.py")):
            yield path, ast.parse(path.read_text(encoding="utf-8"))


def _references(tree):
    """(name, line) for every identifier the tree mentions."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, ast.alias):
            yield node.name.split(".")[-1], node.lineno
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            for part in node.value.split("."):
                yield part, node.lineno


def _definitions(tree):
    """(name, first line, last line) of top-level defs and their methods."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node.lineno, node.end_lineno
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) \
                        and not (item.name.startswith("__")
                                 and item.name.endswith("__")):
                    yield item.name, item.lineno, item.end_lineno


def _reference_index(trees):
    """name -> [(path, line)] of every reference in the scanned trees."""
    refs = {}
    for path, tree in trees:
        for name, line in _references(tree):
            refs.setdefault(name, []).append((path, line))
    return refs


def test_every_definition_has_a_reference():
    trees = list(_trees())
    refs = _reference_index(trees)
    unreferenced = []
    for path, tree in trees:
        if PACKAGE not in path.parents:
            continue
        for name, first, last in _definitions(tree):
            outside = [(p, line) for p, line in refs.get(name, ())
                       if p != path or not first <= line <= last]
            if not outside:
                unreferenced.append(f"{path.relative_to(ROOT)}:{first} {name}")
    assert not unreferenced, "no reference outside the definition: " \
        + ", ".join(unreferenced)


def test_every_class_is_used_outside_the_tests():
    trees = list(_trees())
    refs = _reference_index(trees)
    test_only = []
    for path, tree in trees:
        if PACKAGE not in path.parents:
            continue
        for node in tree.body:
            if not isinstance(node, ast.ClassDef):
                continue
            users = [(p, line) for p, line in refs.get(node.name, ())
                     if p.name != "__init__.py" and TESTS not in p.parents
                     and (p != path or not node.lineno <= line <= node.end_lineno)]
            if not users:
                test_only.append(f"{path.relative_to(ROOT)}:{node.lineno} "
                                 f"{node.name}")
    assert not test_only, "classes only the tests use: " + ", ".join(test_only)


def test_private_names_are_used_outside_the_tests():
    # a private definition (leading underscore) that only the tests reach
    # is test scaffolding kept in the library
    trees = list(_trees())
    refs = _reference_index(trees)
    test_only = []
    for path, tree in trees:
        if PACKAGE not in path.parents:
            continue
        for name, first, last in _definitions(tree):
            if not name.startswith("_"):
                continue
            users = [(p, line) for p, line in refs.get(name, ())
                     if TESTS not in p.parents
                     and (p != path or not first <= line <= last)]
            if not users:
                test_only.append(f"{path.relative_to(ROOT)}:{first} {name}")
    assert not test_only, "private names only the tests use: " \
        + ", ".join(test_only)


def test_no_unused_imports():
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                if getattr(node, "module", None) == "__future__":
                    continue
                for alias in node.names:
                    bound = alias.asname or alias.name.split(".")[0]
                    imported[bound] = node.lineno
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{path.name}:{line} {name}"
                   for name, line in imported.items() if name not in used]
    assert not unused, "unused imports: " + ", ".join(unused)


def test_imports_are_at_module_level():
    nested = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        top = {id(node) for node in tree.body}
        nested += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                   if isinstance(node, (ast.Import, ast.ImportFrom))
                   and id(node) not in top]
    assert not nested, "imports inside a function or class: " + ", ".join(nested)


def _is_fraction_call(node):
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "Fraction")


def test_every_true_division_starts_from_a_fraction():
    floats = []
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.AugAssign) and isinstance(node.op, ast.Div):
                floats.append(f"{path.name}:{node.lineno}")
            elif (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Div)
                  and not _is_fraction_call(node.left)):
                floats.append(f"{path.name}:{node.lineno}")
    assert not floats, "true division without a Fraction on the left: " \
        + ", ".join(floats)


FACTORING = {"smith_normal_form", "SmithSolver", "kernel_with_relations",
             "kernel", "inverse"}

# (module, enclosing function, callee) of every call that factors a matrix
FACTORIZATION_SITES = {
    ("acceptance", "check_smith_kernel", "smith_normal_form"),
    ("covers", "_short_exact", "SmithSolver"),
    ("covers", "check_split_exactness", "SmithSolver"),
    ("fpmodules", "FPModule.__init__", "SmithSolver"),
    ("fpmodules", "ModuleMap.image", "SmithSolver"),
    ("fpmodules", "homology_presentation", "smith_normal_form"),
    ("localsystems", "LocalSystem.__init__", "inverse"),
    ("localsystems", "gauge_transform", "inverse"),
    ("localsystems", "random_sign_cocycle", "kernel"),
    ("matrices", "SmithSolver.__init__", "smith_normal_form"),
    ("matrices", "inverse", "SmithSolver"),
    ("matrices", "kernel", "kernel_with_relations"),
    ("matrices", "kernel_with_relations", "smith_normal_form"),
}


def _factorization_calls(node, scope, module):
    """(module, enclosing function, callee) of each factoring call below
    `node`; `scope` names the enclosing classes and functions."""
    for child in ast.iter_child_nodes(node):
        inner = scope
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                              ast.ClassDef)):
            inner = scope + (child.name,)
        elif (isinstance(child, ast.Call) and isinstance(child.func, ast.Name)
              and child.func.id in FACTORING):
            yield module, ".".join(scope) or "<module>", child.func.id
        yield from _factorization_calls(child, inner, module)


def test_every_factorization_site_is_listed():
    found = set()
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        found.update(_factorization_calls(tree, (), path.stem))
    unlisted = sorted(found - FACTORIZATION_SITES)
    gone = sorted(FACTORIZATION_SITES - found)
    assert not unlisted, f"unlisted factorization sites: {unlisted}"
    assert not gone, f"listed factorization sites that are gone: {gone}"
