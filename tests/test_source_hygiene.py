"""Static checks on the package source, read with ``ast`` (stdlib only).

Every import in ``src/cola_forge/*.py`` is used (``__init__.py`` is exempt:
its imports are the package's re-exports), and every name in a module's
``__all__`` is bound at the top level of that module. The benchmark
tracer wraps the functions a module lists in ``__all__``, so a stale entry
would break it. JSON is parsed in one place, the reader every input file
goes through, so no file escapes its key checks, a bool is told from a
number only by ``linalg``'s value-rule owners, so no entry point states its
own rule, and only ``linalg`` raises ShapeError, so no entry point states its
own shape rule.
"""

import ast
import pathlib

import pytest

PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "cola_forge"
MODULES = sorted(PACKAGE.glob("*.py"))


def parse(path):
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def import_bindings(node):
    """Names an import statement binds (none for ``__future__``)."""
    if isinstance(node, ast.Import):
        return [alias.asname or alias.name.split(".")[0] for alias in node.names]
    if isinstance(node, ast.ImportFrom) and node.module != "__future__":
        return [alias.asname or alias.name for alias in node.names]
    return []


def declared_all(tree):
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return [ast.literal_eval(elt) for elt in node.value.elts]
    return []


def top_level_bindings(tree):
    bound = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bound.add(node.name)
        elif isinstance(node, ast.Assign):
            bound.update(t.id for t in node.targets if isinstance(t, ast.Name))
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            bound.add(node.target.id)
        bound.update(import_bindings(node))
    return bound


def calls_by_statement(matches):
    """(file, top-level statement name) of each call in the package for which
    ``matches(call)`` holds."""
    return [(path.name, getattr(statement, "name", "<module>"))
            for path in MODULES for statement in parse(path).body
            for node in ast.walk(statement)
            if isinstance(node, ast.Call) and matches(node)]


def test_modules_found():
    assert {p.name for p in MODULES} >= {"adapter.py", "cli.py", "harness.py"}


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "__init__.py"],
                         ids=lambda p: p.name)
def test_no_unused_imports(path):
    tree = parse(path)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    used.update(declared_all(tree))  # re-exports count as uses
    unused = {(name, node.lineno) for node in ast.walk(tree)
              for name in import_bindings(node) if name not in used}
    assert not unused, f"{path.name}: unused imports {unused}"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_all_names_resolve(path):
    tree = parse(path)
    missing = set(declared_all(tree)) - top_level_bindings(tree)
    assert not missing, f"{path.name}: __all__ names not bound in the module {missing}"


def test_json_is_parsed_only_by_the_reader():
    """``json.load``/``json.loads`` is called once in the package, in
    ``harness._read_object``, and no module imports names from ``json``."""
    for path in MODULES:
        assert not any(isinstance(node, ast.ImportFrom) and node.module == "json"
                       for node in ast.walk(parse(path))), path.name
    assert calls_by_statement(
        lambda call: isinstance(call.func, ast.Attribute)
        and isinstance(call.func.value, ast.Name) and call.func.value.id == "json"
        and call.func.attr in ("load", "loads")) == [("harness.py", "_read_object")]


def test_only_the_value_rule_owners_tell_a_bool_from_a_number():
    """``isinstance(..., bool)`` is called only in ``linalg._is_integer`` and
    ``_is_real``, so an integer or real rule stated inline fails here: it
    calls its owner, ``_check_count``, ``_check_positive`` or ``_check_range``
    (or, as ``harness``'s JSON casts do, ``_is_real``), instead."""
    def tests_for_bool(call):
        return (isinstance(call.func, ast.Name) and call.func.id == "isinstance"
                and len(call.args) == 2 and any(isinstance(node, ast.Name) and node.id == "bool"
                                                for node in ast.walk(call.args[1])))

    assert sorted(calls_by_statement(tests_for_bool)) == [
        ("linalg.py", "_is_integer"), ("linalg.py", "_is_real")]


def test_only_linalg_raises_a_shape_error():
    """``raise ShapeError(...)`` appears only in ``linalg``: every other
    module states a shape rule by calling its owner, ``_check_shape``,
    ``_as_real``, ``_as_batch`` or ``as_matrix``."""
    raisers = {path.name for path in MODULES for node in ast.walk(parse(path))
               if isinstance(node, ast.Raise) and node.exc is not None
               and any(isinstance(name, ast.Name) and name.id == "ShapeError"
                       for name in ast.walk(node.exc))}
    assert raisers == {"linalg.py"}


def test_no_two_raises_state_one_message():
    """Each message template is raised from one place, so a rule stated
    twice cannot drift: the first argument of every ``raise X(...)`` in the
    package is compared as ``ast.unparse`` writes it."""
    seen = {}
    for path in MODULES:
        for node in ast.walk(parse(path)):
            if (isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call)
                    and node.exc.args):
                template = ast.unparse(node.exc.args[0])
                assert template not in seen, (f"{path.name}:{node.lineno} repeats the "
                                              f"message of {seen[template]}: {template}")
                seen[template] = f"{path.name}:{node.lineno}"
