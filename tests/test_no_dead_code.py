"""Every top-level definition in src/smoothtail/ is reachable from a command,
and every dataclass field there is read.

The package's entry points are cli.main (which dispatches the six
commands) and the names __init__ exports.  A definition counts as reached
when some reached definition, or a module-level statement that is not a
definition, names it: as a bare name, as an attribute (``spectral.k_grid``)
or in ``__all__``.  Names are matched without their module, so a reference
to ``verdict`` anywhere reaches every definition called ``verdict``; the
check can miss dead code, but it cannot flag live code.

A reference oracle that no command runs belongs in tests/, beside the tests
that check the package against it (see tests/reference_oracles.py).

A module-level import counts as used when its module names the bound name
outside its imports; __init__ re-exports its imports through __all__.

A dataclass field counts as read when src/ reads an attribute of its name,
or when its dataclass is written whole by ``asdict(self)``, or is named in
the annotation of a field of one that is (asdict recurses into it).  Names
are matched as above, so a field that shares its name with a read one
(``TailReport.beta`` and ``FlatnessSummary.beta``) passes unread.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "smoothtail"

# (module, name) -> why the definition stays although no command reaches it
ALLOWED = {
    ("cli", "main"): "the console entry point",
}

# (module, name) -> why the module imports a name it never uses
TRACER_LOOKUP = ("the benchmark tracer looks it up here; ROADMAP item 6")
ALLOWED_IMPORTS = {
    ("spectral", "run_walks"): TRACER_LOOKUP,
    ("cli", "parallel_map"): TRACER_LOOKUP,
}

# (class, field) -> why the field stays although src/ never reads it
ALLOWED_FIELDS = {
    ("LognormalScalarMatrix", "family"):
        "perfbench/tests/test_perfbench.py passes it; it goes with the next "
        "benchmark change",
    ("FixedPointPool", "replicate_bounds"):
        "the replicate error bars write it into pool format v2 (ROADMAP "
        "item 7)",
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


def _is_dataclass(node: ast.ClassDef) -> bool:
    for dec in node.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        if getattr(target, "id", getattr(target, "attr", None)) == "dataclass":
            return True
    return False


def _dataclass_fields(src: Path = SRC) -> dict[str, dict[str, set[str]]]:
    """class -> field -> the names its annotation uses, per dataclass."""
    out = {}
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.ClassDef) and _is_dataclass(node):
                out[node.name] = {
                    st.target.id: _named(st.annotation) for st in node.body
                    if isinstance(st, ast.AnnAssign)
                    and isinstance(st.target, ast.Name)}
    return out


def unread_fields(src: Path = SRC, allowed=ALLOWED_FIELDS) -> list[str]:
    """class.field of every dataclass field that src/ never reads, less
    the allowed ones."""
    classes = _dataclass_fields(src)
    read, whole = set(), []
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx,
                                                              ast.Load):
                read.add(node.attr)
            elif isinstance(node, ast.ClassDef) and node.name in classes \
                    and any(isinstance(c, ast.Call)
                            and getattr(c.func, "id", None) == "asdict"
                            for c in ast.walk(node)):
                whole.append(node.name)
    written = set()
    while whole:
        name = whole.pop()
        if name not in written:
            written.add(name)
            for used in classes[name].values():
                whole.extend(used & classes.keys())
    return sorted(f"{cls}.{f}" for cls, fields in classes.items()
                  for f in fields
                  if cls not in written and f not in read
                  and (cls, f) not in allowed)


def test_every_dataclass_field_is_read():
    unread = unread_fields()
    assert not unread, ("dataclass fields src/ never reads (delete them, or "
                        "allow them with a reason): " + ", ".join(unread))


def test_field_allowlist_names_existing_unread_fields():
    classes = _dataclass_fields()
    for cls, name in ALLOWED_FIELDS:
        assert name in classes.get(cls, {}), \
            f"{cls}.{name} is allowed but not a dataclass field"
    flagged = unread_fields(allowed={})
    stale = [f"{c}.{n}" for c, n in ALLOWED_FIELDS
             if f"{c}.{n}" not in flagged]
    assert not stale, "allowed but read, drop from ALLOWED_FIELDS: " + \
        ", ".join(stale)


def unused_imports(src: Path = SRC, allowed=ALLOWED_IMPORTS) -> list[str]:
    """module.name of every module-level import binding its module never
    names, less the allowed ones."""
    out = []
    for path in sorted(src.glob("*.py")):
        module = path.stem
        tree = ast.parse(path.read_text(), filename=str(path))
        imports = [node for node in tree.body
                   if isinstance(node, (ast.Import, ast.ImportFrom))
                   and getattr(node, "module", None) != "__future__"]
        named = set()
        for node in tree.body:
            if node not in imports:
                named |= _named(node)
        for node in imports:
            for alias in node.names:
                name = (alias.asname or alias.name).split(".")[0]
                if name not in named and (module, name) not in allowed:
                    out.append(f"{module}.{name}")
    return out


def test_every_import_is_used():
    unused = unused_imports()
    assert not unused, ("imported but never named (delete the import, or "
                        "allow it with a reason): " + ", ".join(unused))


def test_import_allowlist_names_existing_unused_imports():
    flagged = unused_imports(allowed={})
    stale = [f"{m}.{n}" for m, n in ALLOWED_IMPORTS
             if f"{m}.{n}" not in flagged]
    assert not stale, "allowed but used, drop from ALLOWED_IMPORTS: " + \
        ", ".join(stale)
