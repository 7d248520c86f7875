"""Guard: every public name in ``src/fetalbiometry`` has a reader that is not a unit test.

A public module-level function or class, and each public method or property
of such a class, must be referenced outside its own definition in ``src/`` or
``perfbench/``, or be read by ``tests/test_acceptance.py``, or be in the
package's ``__all__``, or be on ``ALLOWED`` with the reason it stays.

References are found statically:
- a name or dotted path that resolves, through the file's imports and its
  module's own definitions, to a definition (``from .raster import x``,
  ``el.fit_ams``, ``PhantomScene.from_dict``);
- a string constant equal to the name of exactly one definition, which is
  how ``perfbench/tracing.py`` looks functions up with ``getattr``;
- ``obj.member`` on an object of unknown class: it counts for the one class
  that defines ``member``.  Where several classes define it, it counts for
  those whose class the enclosing function names, takes as an annotated
  parameter or gets from a call annotated to return it.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PKG = ROOT / "src" / "fetalbiometry"
READERS = sorted(PKG.glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py")) + [ROOT / "tests" / "test_acceptance.py"]

ALLOWED = {
    "phantom.PhantomScene.from_dict": "reads back the scene in the JSON sidecar that `fetalbiometry phantom` writes",
}


def _public(name):
    return not name.startswith("_")


def _annotation_name(node):
    """The class name an annotation spells: ``C``, ``"C"`` or ``mod.C``."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    return None


def definitions():
    """{key: (path, first line, last line, returned class name)} for each public
    function and class, keyed ``module.name``, and each public method or
    property, keyed ``module.Class.name``."""
    defs = {}
    for path in sorted(PKG.glob("*.py")):
        mod = path.stem
        for node in ast.parse(path.read_text()).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or not _public(node.name):
                continue
            returns = getattr(node, "returns", None)
            defs[f"{mod}.{node.name}"] = (path, node.lineno, node.end_lineno, _annotation_name(returns))
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and _public(item.name):
                        key = f"{mod}.{node.name}.{item.name}"
                        defs[key] = (path, item.lineno, item.end_lineno, _annotation_name(item.returns))
    return defs


DEFS = definitions()
CLASSES = {key.rsplit(".", 1)[1]: key for key in DEFS if key.count(".") == 1 and key.split(".")[1][0].isupper()}
MEMBERS = {}
for _key in DEFS:
    if _key.count(".") == 2:
        MEMBERS.setdefault(_key.rsplit(".", 1)[1], []).append(_key)
BY_NAME = {}
for _key in DEFS:
    BY_NAME.setdefault(_key.rsplit(".", 1)[1], []).append(_key)


def _scope(tree, path):
    """Local name -> package module (``edges``) or definition key (``refine.RefineParams``)."""
    scope = {}
    if path.parent == PKG:
        mod = path.stem
        scope.update({key.split(".")[1]: key for key in DEFS if key.startswith(f"{mod}.") and key.count(".") == 1})
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            source = node.module or ""
            package = (node.level == 1 and path.parent == PKG) or source.startswith("fetalbiometry")
            if not package:
                continue
            source = source.removeprefix("fetalbiometry").lstrip(".")
            for alias in node.names:
                scope[alias.asname or alias.name] = f"{source}.{alias.name}" if source else alias.name
    return scope


def _resolve(node, scope):
    if isinstance(node, ast.Name):
        return scope.get(node.id)
    if isinstance(node, ast.Attribute):
        base = _resolve(node.value, scope)
        return f"{base}.{node.attr}" if base else None
    return None


def _classes_in_play(func, scope):
    """Class keys a function names, takes as annotated parameters or gets from annotated calls."""
    found = set()
    for arg in func.args.args + func.args.kwonlyargs:
        found.add(CLASSES.get(_annotation_name(arg.annotation)))
    for node in ast.walk(func):
        key = _resolve(node, scope) if isinstance(node, (ast.Name, ast.Attribute)) else None
        if key in DEFS:
            found.add(key if key.split(".")[-1] in CLASSES else CLASSES.get(DEFS[key][3]))
    found.discard(None)
    return found


def _outside(key, path, line):
    def_path, first, last, _ = DEFS[key]
    return not (path == def_path and first <= line <= last)


def references():
    """Definition keys referenced by the readers, each outside its own definition."""
    seen = set()
    for path in READERS:
        tree = ast.parse(path.read_text())
        scope = _scope(tree, path)
        funcs = [n for n in ast.walk(tree) if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))]

        def enclosing(line):
            inside = [f for f in funcs if f.lineno <= line <= f.end_lineno]
            return max(inside, key=lambda f: f.lineno) if inside else None

        for node in ast.walk(tree):
            line = getattr(node, "lineno", None)
            if isinstance(node, ast.ImportFrom):
                keys = [_resolve(ast.Name(alias.asname or alias.name), scope) for alias in node.names]
            elif isinstance(node, (ast.Name, ast.Attribute)):
                keys = [_resolve(node, scope)]
                if keys == [None] and isinstance(node, ast.Attribute):
                    keys = MEMBERS.get(node.attr, [])
                    if len(keys) > 1:
                        func = enclosing(line)
                        play = _classes_in_play(func, scope) if func else set()
                        keys = [k for k in keys if k.rsplit(".", 1)[0] in play]
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                keys = BY_NAME.get(node.value, [])
                keys = keys if len(keys) == 1 else []
            else:
                continue
            seen.update(k for k in keys if k in DEFS and _outside(k, path, line))
    return seen


def exported():
    tree = ast.parse((PKG / "__init__.py").read_text())
    scope = _scope(tree, PKG / "__init__.py")
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            return {scope[elt.value] for elt in node.value.elts}
    return set()


def test_allow_list_names_exist():
    assert not set(ALLOWED) - set(DEFS)


def test_every_public_name_has_a_reader():
    unread = sorted(set(DEFS) - references() - exported() - set(ALLOWED))
    assert unread == [], f"public names read only by unit tests: {unread}"



# module-level underscore names that another package module may read, and why
CROSS_MODULE_PRIVATE = {}


def _private(name):
    return name.startswith("_") and not name.endswith("__")


def cross_module_private_reads():
    """(reader module, ``module.name``, line) for each read of another package
    module's underscore name, as an attribute or an import."""
    modules = {path.stem for path in PKG.glob("*.py")}
    found = []
    for path in sorted(PKG.glob("*.py")):
        tree = ast.parse(path.read_text())
        scope = _scope(tree, path)
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and _private(node.attr):
                base = _resolve(node.value, scope)
                keys = [f"{base}.{node.attr}"] if base in modules else []
            elif isinstance(node, ast.ImportFrom):
                keys = [scope[alias.asname or alias.name] for alias in node.names if _private(alias.name)]
            else:
                continue
            found += [(path.stem, key, node.lineno) for key in keys if key.split(".")[0] != path.stem]
    return found


def test_cross_module_private_names_exist():
    for key in CROSS_MODULE_PRIVATE:
        mod, name = key.split(".")
        assert any(
            isinstance(n, (ast.FunctionDef, ast.ClassDef)) and n.name == name
            for n in ast.parse((PKG / f"{mod}.py").read_text()).body
        ), key


def test_no_module_reads_another_modules_private_names():
    reads = [r for r in cross_module_private_reads() if r[1] not in CROSS_MODULE_PRIVATE]
    assert reads == [], f"underscore names read across modules: {reads}"
