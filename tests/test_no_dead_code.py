"""Every top-level definition in src/smoothtail/ is reachable from a command.

The package's entry points are cli.main (which dispatches the six
commands) and the names __init__ exports.  A definition counts as reached
when some reached definition, or a module-level statement that is not a
definition, names it: as a bare name, as an attribute (``spectral.k_grid``)
or in ``__all__``.  Names are matched without their module, so a reference
to ``verdict`` anywhere reaches every definition called ``verdict``; the
check can miss dead code, but it cannot flag live code.

A reference oracle that no command runs belongs in tests/, beside the tests
that check the package against it (see tests/reference_oracles.py).
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "smoothtail"

# (module, name) -> why the definition stays although no command reaches it
ALLOWED = {
    ("cli", "main"): "the console entry point",
}


def _defined_names(node: ast.stmt) -> list[str]:
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        return [node.name]
    if isinstance(node, ast.Assign):
        return [t.id for t in node.targets if isinstance(t, ast.Name)]
    if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
        return [node.target.id]
    return []


def _named(node: ast.AST) -> set[str]:
    """Every identifier the node names: bare names, attributes, and the
    string entries of an __all__ list."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str) \
                and sub.value.isidentifier():
            out.add(sub.value)
    return out


def unreached_definitions(src: Path = SRC) -> list[str]:
    """module.name of every top-level definition no entry point reaches."""
    defs = {}                      # (module, name) -> names its body uses
    roots = set()
    for path in sorted(src.glob("*.py")):
        module = path.stem
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in tree.body:
            names = _defined_names(node)
            if module == "__init__" or not names:
                # imports, __all__ and the __main__ guard name the roots
                if not isinstance(node, (ast.Import, ast.ImportFrom)):
                    roots |= _named(node)
                elif module == "__init__":
                    roots |= {a.asname or a.name for a in node.names}
                continue
            body = _named(node) - set(names)
            for name in names:
                defs[(module, name)] = body
    by_name = {}
    for key in defs:
        by_name.setdefault(key[1], []).append(key)
    reached = set()
    todo = [key for key in defs if key in ALLOWED or key[1] in roots]
    while todo:
        key = todo.pop()
        if key in reached:
            continue
        reached.add(key)
        for name in defs[key]:
            todo.extend(by_name.get(name, ()))
    return sorted(f"{m}.{n}" for m, n in defs if (m, n) not in reached)


def test_every_definition_is_reached_from_a_command():
    dead = unreached_definitions()
    assert not dead, ("reached by no command (move an oracle to tests/, "
                      "delete dead code): " + ", ".join(dead))


def test_allowlist_names_existing_definitions():
    for module, name in ALLOWED:
        tree = ast.parse((SRC / f"{module}.py").read_text())
        assert any(name in _defined_names(node) for node in tree.body), \
            f"{module}.{name} is allowed but not defined"
