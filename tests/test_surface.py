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
    """Local name -> package module (``edges``) or definition key (``refine.RefinedShape``)."""
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


# defaulted parameters that no reader sets, and why each stays
ALLOWED_DEFAULTS = {}


def _own_names(tree, path):
    """Each module-level function and class of a package module, underscore names included."""
    if path.parent != PKG:
        return {}
    return {n.name: f"{path.stem}.{n.name}" for n in tree.body if isinstance(n, (ast.FunctionDef, ast.ClassDef))}


def defaulted_parameters():
    """{key: (path, node, defaulted names, is a method)} for each function in
    ``src/fetalbiometry`` with a defaulted parameter, keyed ``module.name``,
    ``module.Class.name`` or ``module.outer.name``, underscore names included."""
    found = {}
    for path in sorted(PKG.glob("*.py")):

        def visit(body, prefix, in_class):
            for node in body:
                if isinstance(node, ast.ClassDef):
                    visit(node.body, f"{prefix}.{node.name}", True)
                elif isinstance(node, ast.FunctionDef):
                    a = node.args
                    positional = a.posonlyargs + a.args
                    names = [p.arg for p in positional[len(positional) - len(a.defaults) :]]
                    names += [p.arg for p, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None]
                    if names:
                        found[f"{prefix}.{node.name}"] = (path, node, names, in_class)
                    visit(node.body, f"{prefix}.{node.name}", False)

        visit(ast.parse(path.read_text()).body, path.stem, False)
    return found


def _parameters_set(call, func, bound):
    """The parameter names of ``func`` that ``call`` passes: all of them for a
    ``*`` or ``**`` splat, else those its positional and keyword arguments
    fill; ``bound`` skips the ``self`` or ``cls`` the call binds implicitly."""
    a = func.args
    if any(isinstance(arg, ast.Starred) for arg in call.args) or any(k.arg is None for k in call.keywords):
        return {p.arg for p in a.posonlyargs + a.args + a.kwonlyargs}
    positional = (a.posonlyargs + a.args)[1 if bound else 0 :]
    return {p.arg for p in positional[: len(call.args)]} | {k.arg for k in call.keywords}


def defaults_set():
    """{key: names} of the defaulted parameters that some reader's call sets,
    each call outside the function's own definition.

    A call resolves as ``references`` resolves a name: through the file's
    imports and its module's own definitions.  A call of a class counts for
    its ``__init__``; ``obj.name(...)`` on an object of unknown class counts
    for every method so named.
    """
    defaulted = defaulted_parameters()
    methods = {}
    for key, (_, _, _, is_method) in defaulted.items():
        if is_method:
            methods.setdefault(key.rsplit(".", 1)[1], []).append(key)
    seen = {}
    for path in READERS:
        tree = ast.parse(path.read_text())
        scope = {**_own_names(tree, path), **_scope(tree, path)}
        for call in ast.walk(tree):
            if not isinstance(call, ast.Call):
                continue
            key = _resolve(call.func, scope)
            if key is not None and f"{key}.__init__" in defaulted:
                targets = [f"{key}.__init__"]
            elif key is not None:
                targets = [key]
            else:
                attr = call.func.attr if isinstance(call.func, ast.Attribute) else None
                targets = methods.get(attr, [])
            for target in targets:
                if target not in defaulted:
                    continue
                def_path, func, names, is_method = defaulted[target]
                if path == def_path and func.lineno <= call.lineno <= func.end_lineno:
                    continue
                seen.setdefault(target, set()).update(_parameters_set(call, func, is_method) & set(names))
    return seen


def test_allowed_defaults_exist():
    defaulted = defaulted_parameters()
    assert not [k for k in ALLOWED_DEFAULTS if k.rsplit(".", 1)[0] not in defaulted]


def test_every_default_is_set_by_a_reader():
    """A defaulted parameter is a setting: some call in ``src/``, ``perfbench/``
    or ``tests/test_acceptance.py`` must set it, or it is a constant in disguise."""
    seen = defaults_set()
    unset = sorted(
        f"{key}.{name}"
        for key, (_, _, names, _) in defaulted_parameters().items()
        for name in names
        if name not in seen.get(key, set()) and f"{key}.{name}" not in ALLOWED_DEFAULTS
    )
    assert unset == [], f"defaulted parameters that no reader sets: {unset}"
