"""Dead-code guards for the package, read from the syntax tree (stdlib only).

Every top-level function and class, and every method that is not a dunder,
must be referenced somewhere outside its own definition: in the package, the
tests, tools/ or perfbench/.  A top-level class, and a top-level public
function, must also be used by the package, tools/ or perfbench/, not only
named by the tests or re-exported by the package __init__; the functions
that only the tests call are listed, each with its reason, in
``TEST_ONLY_FUNCTIONS``.  A public method or property of a package class
must be read as ``.name`` by the package outside its own definition, by
tools/ or by perfbench/.  String constants count as references, because
the benchmark tracer names the functions it wraps as "Class.method" strings.
Every defaulted parameter of a package function or method is passed, by
position or keyword, by some call of that name in the package outside the
function's own definition, in tools/ or in perfbench/ (a class's __init__
is called by the class name); the ones only the tests pass are listed, each
with its reason, in ``TEST_ONLY_PARAMETERS``.
A private definition, one whose name starts with an underscore, must be
used by the package, tools/ or perfbench/, not only by the tests.
No module may import a name it never uses; the package __init__ re-exports
by importing, so it is exempt.  Every import of the package sits at module
level, so the import graph can be read off the top of each file, and none
imports ``dataclasses``, whose own imports (``inspect``, ``ast``, ``dis``,
``tokenize``) would make every cold start slower and larger.  No module
collects, freezes, disables or retunes the cycle collector (``gc.collect``,
``gc.freeze``, ``gc.disable``, ``gc.set_threshold``): memory is freed by
design, each memo referring to its owner weakly, not by tuning the
collector.  Every
true division in the package has an explicit ``Fraction(...)`` call as its
left operand: over Q an ``int / int`` quotient would be a float.  Every
factorization site is named: each call by bare name to ``smith_normal_form``,
``SmithSolver``, ``kernel_with_relations``, ``kernel`` or ``inverse`` in the
package, with its module and enclosing function, is in ``FACTORIZATION_SITES``,
and every entry there is such a call, so a new site fails until it is listed
on purpose.  A method of a decomposition, such as
``snf.kernel_with_relations()``, reads a factorization already made and is
not a site.  Every read of a whole transform, the attribute ``.U`` or ``.V``
of a decomposition, is in ``WHOLE_TRANSFORM_READS`` (only
``SmithDecomposition.verify``), so the solve and presentation paths keep
reading transforms off their logs, on the vectors they need.  Every memo is in
``MEMO_SITES``: each call of ``complexes.memo``, the one function that
stores into a ``_cache`` (``CACHE_STORES``), and the memos that do not go
through it: an item store into a module-level name, a function decorated
with ``cache``, ``lru_cache`` or ``cached_property``.  A new memo fails until it is listed on purpose, so
each one is seen to hang on what it is derived from and to grow with
distinct inputs, not with the checks a process runs.  The shared empty
row of kept matrices, ``_EMPTY_ROW``, is named only in ``matrices.py``, and
every call of ``.shared(table)``, the one way a matrix takes its rows from
its owner's table of shared rows (``matrices.row_table``), is in
``SHARED_ROW_SITES``, so each matrix that shares rows is one a memo keeps.
A ``<name>.__new__(...)`` call, such as ``object.__new__(cls)`` or
``Subcomplex.__new__(Subcomplex)``, which builds an object without its
``__init__``, is made only in
``TRUSTED_CONSTRUCTORS`` (``ExactMatrix._from_rows``), so every other
object is built by its one constructor, and a new trusted constructor fails
until it is listed.  Only ``cli.py`` holds the report format: no other
module has a string constant with a tab in it, so every check hands the
CLI rows of cells, not text.  Only the CLI's renderer, ``cli.render``,
has an ``except`` clause that names ``CheckFailed`` or a subclass of it, so
a check that raises becomes a FAIL row of its own report and nowhere else.
Only ``chains`` reads a pair complex's coordinates, by a call of a method
named ``index``, by enumerating a ``.space(...)`` call (the iterable of
a loop or a comprehension, an argument of ``enumerate`` or ``zip``), or by
subscripting a ``.space(...)`` call or a name bound to one, tuple unpacking
included: every other module builds its chain maps and chains through
``PairComplex.cell_map``, ``chain`` and ``coefficients``, and names the
cell of a coordinate by ``PairComplex.cell``.  The one listed
exception, in ``COORDINATE_READS``, is ``cap.cap_matrix``, whose tensor
fibers are laid out in the Kronecker order of ``localsystems.tensor``.
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


# (module, name) of the public functions that only the tests call, each with
# its reason
TEST_ONLY_FUNCTIONS = {
    # perfbench/test_perfbench.py pins cap's module-level
    # homology_presentation, which only relative_cap calls, until the
    # benchmark reads the library's own counters
    ("cap", "relative_cap"),
}


def test_every_public_function_is_used_outside_the_tests():
    trees = list(_trees())
    refs = _reference_index(trees)
    test_only = set()
    for path, tree in trees:
        if PACKAGE not in path.parents:
            continue
        for node in tree.body:
            if not isinstance(node, ast.FunctionDef) \
                    or node.name.startswith("_"):
                continue
            users = [(p, line) for p, line in refs.get(node.name, ())
                     if p.name != "__init__.py" and TESTS not in p.parents
                     and (p != path or not node.lineno <= line <= node.end_lineno)]
            if not users:
                test_only.add((path.stem, node.name))
    assert_listed(test_only, TEST_ONLY_FUNCTIONS,
                  "public functions only the tests use")


def test_every_public_method_is_used_outside_the_tests():
    trees = list(_trees())
    reads = {}
    for path, tree in trees:
        if TESTS in path.parents:
            continue
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute):
                reads.setdefault(node.attr, []).append((path, node.lineno))
    test_only = []
    for path, tree in trees:
        if PACKAGE not in path.parents:
            continue
        for cls in tree.body:
            if not isinstance(cls, ast.ClassDef):
                continue
            for item in cls.body:
                if not isinstance(item, ast.FunctionDef) \
                        or item.name.startswith("_"):
                    continue
                users = [(p, line) for p, line in reads.get(item.name, ())
                         if p != path
                         or not item.lineno <= line <= item.end_lineno]
                if not users:
                    test_only.append(f"{path.relative_to(ROOT)}:{item.lineno}"
                                     f" {cls.name}.{item.name}")
    assert not test_only, "public methods only the tests use: " \
        + ", ".join(test_only)


# (module, function, parameter) of the defaulted parameters that only the
# tests pass, each with its reason
TEST_ONLY_PARAMETERS = {
    # relative homology H_k(M|K), which the tests read off the pair
    # complexes the verdicts build
    ("chains", "homology", "K"),
    # a system that is not the orientation system, whose boundary defect
    # is the witness of a failed fundamental class
    ("chains", "fundamental_class_direct", "system"),
}


def _defaulted(fn, method):
    """(name, position) of each defaulted parameter of the def `fn`: its
    position among the positional arguments of a call, or None when it is
    keyword-only.  A call passes a method's first parameter by its object,
    and a class's __init__ or __new__ that of the instance or the class."""
    skip = 1 if method and not any(getattr(d, "id", None) == "staticmethod"
                                   for d in fn.decorator_list) else 0
    positional = fn.args.posonlyargs + fn.args.args
    first = len(positional) - len(fn.args.defaults)
    for i, arg in enumerate(positional[first:], first):
        yield arg.arg, i - skip
    for arg, default in zip(fn.args.kwonlyargs, fn.args.kw_defaults):
        if default is not None:
            yield arg.arg, None


def _passes(call, name, position):
    """True when `call` passes the parameter `name` at `position`, or may,
    through a starred argument or a ** mapping."""
    if position is not None and (len(call.args) > position or any(
            isinstance(a, ast.Starred) for a in call.args)):
        return True
    return any(k.arg in (name, None) for k in call.keywords)


def test_every_optional_parameter_is_passed_outside_the_tests():
    # a default that only the tests override is a parameter kept for them
    trees = list(_trees())
    calls = {}
    for path, tree in trees:
        if TESTS in path.parents:
            continue
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                callee = getattr(node.func, "id", getattr(node.func, "attr",
                                                          None))
                calls.setdefault(callee, []).append((path, node))
    test_only = set()
    for path, tree in trees:
        if PACKAGE not in path.parents:
            continue
        defs = [(node.name, node, False) for node in tree.body
                if isinstance(node, ast.FunctionDef)]
        defs += [(cls.name if item.name in ("__init__", "__new__")
                  else item.name, item, True)
                 for cls in tree.body if isinstance(cls, ast.ClassDef)
                 for item in cls.body if isinstance(item, ast.FunctionDef)]
        for callee, fn, method in defs:
            outside = [call for p, call in calls.get(callee, ())
                       if p != path
                       or not fn.lineno <= call.lineno <= fn.end_lineno]
            for name, position in _defaulted(fn, method):
                if not any(_passes(call, name, position) for call in outside):
                    test_only.add((path.stem, fn.name, name))
    assert_listed(test_only, TEST_ONLY_PARAMETERS,
                  "defaulted parameters only the tests pass")


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


def test_no_module_imports_dataclasses():
    importing = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module]
            else:
                continue
            if "dataclasses" in names:
                importing.append(f"{path.name}:{node.lineno}")
    assert not importing, "imports of dataclasses: " + ", ".join(importing)


COLLECTOR_TUNING = {"collect", "freeze", "disable", "set_threshold"}


def test_no_module_tunes_the_collector():
    tuning = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        gc_names = {alias.asname or alias.name for node in ast.walk(tree)
                    if isinstance(node, ast.Import)
                    for alias in node.names if alias.name == "gc"}
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) \
                    and isinstance(node.value, ast.Name) \
                    and node.value.id in gc_names \
                    and node.attr in COLLECTOR_TUNING:
                tuning.append(f"{path.name}:{node.lineno} gc.{node.attr}")
            elif isinstance(node, ast.ImportFrom) and node.module == "gc":
                tuning += [f"{path.name}:{node.lineno} {alias.name}"
                           for alias in node.names
                           if alias.name in COLLECTOR_TUNING | {"*"}]
    assert not tuning, "collector tuning: " + ", ".join(tuning)


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
    ("fpmodules", "FPModule.__init__", "SmithSolver"),
    ("fpmodules", "ModuleMap.image", "SmithSolver"),
    ("fpmodules", "_smith_form", "smith_normal_form"),
    ("localsystems", "LocalSystem.__init__", "inverse"),
    ("localsystems", "random_sign_cocycle", "kernel_with_relations"),
    ("matrices", "SmithSolver.__init__", "smith_normal_form"),
    ("matrices", "inverse", "SmithSolver"),
    ("matrices", "kernel_with_relations", "smith_normal_form"),
}


def _scoped(node, scope=()):
    """(enclosing function, node) for each node below `node`; `scope` names
    the enclosing classes and functions."""
    for child in ast.iter_child_nodes(node):
        yield ".".join(scope) or "<module>", child
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                              ast.ClassDef)):
            yield from _scoped(child, scope + (child.name,))
        else:
            yield from _scoped(child, scope)


def _package_nodes():
    """(module, enclosing function, node) for every node of the package."""
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for where, node in _scoped(tree):
            yield path.stem, where, node


def assert_listed(found, listed, what):
    unlisted = sorted(found - listed)
    gone = sorted(listed - found)
    assert not unlisted, f"unlisted {what}: {unlisted}"
    assert not gone, f"listed {what} that are gone: {gone}"


def test_every_factorization_site_is_listed():
    found = {(module, where, node.func.id)
             for module, where, node in _package_nodes()
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
             and node.func.id in FACTORING}
    assert_listed(found, FACTORIZATION_SITES, "factorization sites")


# (module, enclosing function, attribute) of every read of a whole transform
WHOLE_TRANSFORM_READS = {
    ("matrices", "SmithDecomposition.verify", "U"),
    ("matrices", "SmithDecomposition.verify", "V"),
}


def test_only_verify_reads_a_whole_transform():
    found = {(module, where, node.attr)
             for module, where, node in _package_nodes()
             if isinstance(node, ast.Attribute) and node.attr in ("U", "V")}
    assert_listed(found, WHOLE_TRANSFORM_READS, "whole-transform reads")


MEMO_DECORATORS = {"cache", "lru_cache", "cached_property"}

# (module, enclosing function) of every memo.  Each call of `complexes.memo`
# hangs what it builds on the complex, system, cover, splitting, pair
# complex or spaces it is derived from, keyed by its other inputs; the rest
# do not go through it: the cached image of a map and kernel positions of a
# decomposition, the presentation memoized on its d_out matrix, and the
# two per-process ones, `named_complex` and `build_parser`.
MEMO_SITES = {
    ("cap", "verify_duality"),
    ("chains", "PairComplex.__init__"),
    ("chains", "PairComplex._cells"),
    ("chains", "PairComplex._ladder"),
    ("chains", "PairComplex.boundary"),
    ("chains", "PairComplex.coboundary"),
    ("chains", "pair_complex"),
    ("cli", "_complex_digest"),
    ("cli", "build_parser"),
    ("complexes", "SimplicialComplex.facet_adjacency"),
    ("complexes", "SimplicialComplex.ridge_to_facets"),
    ("complexes", "SimplicialComplex.vertex_stars"),
    ("complexes", "named_complex"),
    ("complexes", "star_signs"),
    ("complexes", "validate"),
    ("covers", "build_double_cover"),
    ("covers", "check_split_exactness"),
    ("covers", "cover_sign_system"),
    ("covers", "orient_cover"),
    ("covers", "split_maps"),
    ("fpmodules", "ModuleMap.image"),
    ("localsystems", "LocalSystem.is_unit"),
    ("localsystems", "LocalSystem.path_transport"),
    ("localsystems", "constant_system"),
    ("localsystems", "load_local_system"),
    ("localsystems", "orientation_system"),
    ("localsystems", "random_flat_system"),
    ("localsystems", "random_sign_cocycle"),
    ("localsystems", "tensor"),
    ("matrices", "row_table"),
    ("matrices", "SmithDecomposition.kernel_positions"),
    ("mv", "_MVSpaces.difference"),
    ("mv", "_MVSpaces.glue"),
    ("mv", "_MVSpaces.row_maps"),
    ("mv", "_MVSpaces.split"),
    ("mv", "_MVSpaces.transfer"),
    ("mv", "_MVSpaces.zigzag"),
    ("mv", "_diagram6_covers"),
    ("mv", "_mv_spaces"),
    ("mv", "_sequence_maps"),
    ("mv", "named_cover"),
    ("mv", "named_diagram6"),
}

# (module, enclosing function) of every item store into an attribute named
# `_cache` or ending in `_cache`: `memo` itself
CACHE_STORES = {("complexes", "memo")}


def _targets(node):
    """The targets the statement `node` assigns to."""
    if isinstance(node, ast.Assign):
        return node.targets
    if isinstance(node, (ast.AugAssign, ast.AnnAssign)):
        return [node.target]
    return []


def _item_stores(node):
    """The objects the statement or call `node` stores an item into: the
    subscripted object of an item assignment, the owner of a setdefault."""
    stores = [t.value for t in _targets(node) if isinstance(t, ast.Subscript)]
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) \
            and node.func.attr == "setdefault":
        stores.append(node.func.value)
    return stores


def test_only_memo_stores_into_a_cache():
    found = {(module, where) for module, where, node in _package_nodes()
             for owner in _item_stores(node)
             if isinstance(owner, ast.Attribute)
             and owner.attr.endswith("_cache")}
    assert_listed(found, CACHE_STORES, "stores into a cache")


def _memoizes(node, module_names):
    """True when `node` is a call of `memo`, an item store into a name the
    module binds at its top level, or a function with a memoizing
    decorator."""
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
            and node.func.id == "memo":
        return True
    if any(isinstance(owner, ast.Name) and owner.id in module_names
           for owner in _item_stores(node)):
        return True
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        for deco in node.decorator_list:
            deco = deco.func if isinstance(deco, ast.Call) else deco
            if getattr(deco, "attr", getattr(deco, "id", None)) \
                    in MEMO_DECORATORS:
                return True
    return False


def test_every_memo_site_is_listed():
    found = set()
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        module_names = {t.id for node in tree.body
                        for t in _targets(node) if isinstance(t, ast.Name)}
        for where, node in _scoped(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                where = f"{where}.{node.name}".removeprefix("<module>.")
            if where != "<module>" and _memoizes(node, module_names):
                found.add((path.stem, where))
    assert_listed(found, MEMO_SITES, "memo sites")


SHARED_ROWS = {"_EMPTY_ROW"}

# (module, enclosing function) of every call of `ExactMatrix.shared`, which
# gives a matrix that a memo keeps the equal rows of its owner's table
SHARED_ROW_SITES = {
    ("chains", "PairComplex._assemble"),
    ("covers", "_build_split_maps"),
    ("fpmodules", "homology_presentation"),
    ("localsystems", "LocalSystem.path_transport.build"),
    ("localsystems", "_conjugated"),
    ("localsystems", "tensor.build.kron"),
    ("mv", "_MVSpaces.difference"),
    ("mv", "_MVSpaces.glue.build"),
    ("mv", "_MVSpaces.row_maps.build"),
    ("mv", "_MVSpaces.split.build"),
    ("mv", "_MVSpaces.transfer"),
    ("mv", "_MVSpaces.zigzag.build"),
}


def test_only_matrices_names_the_shared_rows():
    naming = sorted({path.name for path in PACKAGE.glob("*.py")
                     for name, _ in _references(
                         ast.parse(path.read_text(encoding="utf-8")))
                     if name in SHARED_ROWS})
    assert naming == ["matrices.py"]


def test_every_shared_row_site_is_listed():
    found = {(module, where) for module, where, node in _package_nodes()
             if isinstance(node, ast.Call)
             and isinstance(node.func, ast.Attribute)
             and node.func.attr == "shared"}
    assert_listed(found, SHARED_ROW_SITES, "shared-row sites")


# (module, enclosing function) of every call of <name>.__new__: a trusted
# constructor, which builds an object without its __init__
TRUSTED_CONSTRUCTORS = {("matrices", "ExactMatrix._from_rows")}


def test_only_the_listed_trusted_constructors_skip_init():
    found = {(module, where) for module, where, node in _package_nodes()
             if isinstance(node, ast.Call)
             and isinstance(node.func, ast.Attribute)
             and node.func.attr == "__new__"
             and isinstance(node.func.value, ast.Name)}
    assert_listed(found, TRUSTED_CONSTRUCTORS, "trusted constructors")


def test_only_the_cli_writes_tabs():
    tabbed = [f"{path.name}:{node.lineno}"
              for path in sorted(PACKAGE.glob("*.py")) if path.name != "cli.py"
              for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
              if isinstance(node, ast.Constant) and isinstance(node.value, str)
              and "\t" in node.value]
    assert not tabbed, "string constants with a tab outside cli.py: " \
        + ", ".join(tabbed)


# (module, enclosing function) of every except clause that names CheckFailed
# or a subclass: the renderer, which makes the failure a FAIL row
CHECK_FAILED_HANDLERS = {("cli", "render")}


def _check_failures():
    """CheckFailed and the names of the package's classes derived from it."""
    classes = [node for path in sorted(PACKAGE.glob("*.py"))
               for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
               if isinstance(node, ast.ClassDef)]
    names = {"CheckFailed"}
    while True:
        derived = {node.name for node in classes
                   if any(getattr(base, "id", getattr(base, "attr", None))
                          in names for base in node.bases)}
        if derived <= names:
            return names
        names |= derived


def test_only_the_renderer_catches_a_failed_check():
    names = _check_failures()
    found = {(module, where) for module, where, node in _package_nodes()
             if isinstance(node, ast.ExceptHandler) and node.type is not None
             and names & {name for name, _ in _references(node.type)}}
    assert_listed(found, CHECK_FAILED_HANDLERS,
                  "except clauses of a failed check")


# (module, enclosing function) outside chains of every read of a pair
# complex's coordinates: the cap product's tensor fibers
COORDINATE_READS = {("cap", "cap_matrix")}


def _iterated(node):
    """The expressions `node` iterates over: the iterable of a loop or a
    comprehension, the arguments of enumerate and zip."""
    if isinstance(node, (ast.For, ast.comprehension)):
        return [node.iter]
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
            and node.func.id in ("enumerate", "zip"):
        return node.args
    return []


def _method_call(node, name):
    return isinstance(node, ast.Call) \
        and isinstance(node.func, ast.Attribute) and node.func.attr == name


def _space_bindings(target, value):
    """The names `target = value` binds to a `.space(...)` call, tuple
    unpacking included."""
    if isinstance(target, ast.Name):
        return {target.id} if _method_call(value, "space") else set()
    if isinstance(target, (ast.Tuple, ast.List)) \
            and isinstance(value, (ast.Tuple, ast.List)) \
            and len(target.elts) == len(value.elts):
        return set().union(*map(_space_bindings, target.elts, value.elts))
    return set()


def test_only_chains_reads_the_coordinates():
    nodes = [entry for entry in _package_nodes() if entry[0] != "chains"]
    # (module, enclosing function) -> names bound there to a .space(...)
    bound = {}
    for module, where, node in nodes:
        if isinstance(node, ast.Assign):
            for target in node.targets:
                bound.setdefault((module, where), set()).update(
                    _space_bindings(target, node.value))
    found = {(module, where) for module, where, node in nodes
             if _method_call(node, "index")
             or any(_method_call(e, "space") for e in _iterated(node))
             or isinstance(node, ast.Subscript)
             and (_method_call(node.value, "space")
                  or isinstance(node.value, ast.Name)
                  and node.value.id in bound.get((module, where), ()))}
    assert_listed(found, COORDINATE_READS, "coordinate reads outside chains")
