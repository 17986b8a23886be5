"""Source hygiene: no module of the package imports a name it does not use,
reaches into another object's private attributes, defines a top-level
function or class that nothing reads, takes a parameter that it never
reads, or keeps state at module level between calls.  The tests' shared
helpers and the scripts are held to the first and fourth rules too."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "newcart"
TESTS = ROOT / "tests"
SCRIPTS = sorted((ROOT / "scripts").glob("*.py"))


def unused_imports(source):
    """(line, name) of every imported name that `source` never reads."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported += [(node.lineno, alias.asname or alias.name.split(".")[0])
                         for alias in node.names]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [(line, name) for line, name in imported if name not in read]


def test_unused_imports_are_found():
    assert unused_imports("import os\nfrom . import geometry\nimport numpy as np\nnp.x\n") == [
        (1, "os"), (2, "geometry")]


# __init__.py imports in order to re-export
@pytest.mark.parametrize("path", sorted(set(PACKAGE.glob("*.py")) - {PACKAGE / "__init__.py"}),
                         ids=lambda path: path.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


@pytest.mark.parametrize("path", sorted(TESTS.glob("*.py")) + SCRIPTS,
                         ids=lambda path: f"{path.parent.name}/{path.name}")
def test_tests_and_scripts_import_no_unused_name(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def private_reaches(source):
    """(line, text) of every single-underscore attribute taken from
    anything but self or cls; dunders are exempt."""
    return sorted((node.lineno, ast.unparse(node)) for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.Attribute) and node.attr.startswith("_")
                  and not (node.attr.startswith("__") and node.attr.endswith("__"))
                  and not (isinstance(node.value, ast.Name) and node.value.id in ("self", "cls")))


def test_private_reaches_are_found():
    source = "self._a\ncls._b.c\nobject.__setattr__\nconnection._kit.program\nx = y()._z\n"
    assert private_reaches(source) == [(4, "connection._kit"), (5, "y()._z")]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda path: path.name)
def test_no_private_reach_through(path):
    assert private_reaches(path.read_text(encoding="utf-8")) == []


def _reads(tree, skip=None):
    """Names and attribute names loaded anywhere in `tree` outside `skip`."""
    skipped = set() if skip is None else {id(node) for node in ast.walk(skip)}
    return {node.id if isinstance(node, ast.Name) else node.attr for node in ast.walk(tree)
            if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)
            and id(node) not in skipped}


def unread_definitions(sources):
    """(module, name) of every top-level def or class in `sources`
    ({module: text}) that no module reads outside its own body and that
    the "__init__" module does not re-export."""
    trees = {module: ast.parse(text) for module, text in sources.items()}
    exported = {alias.asname or alias.name for node in ast.walk(trees["__init__"])
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    unread = []
    for module, tree in trees.items():
        elsewhere = set().union(*(_reads(t) for m, t in trees.items() if m != module))
        for node in tree.body:
            if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                    and node.name not in exported | elsewhere | _reads(tree, skip=node)):
                unread.append((module, node.name))
    return unread


def test_unread_definitions_are_found():
    sources = {"__init__": "from .a import api\n",
               "a": "def api():\n    return helper()\n\ndef helper():\n    pass\n\n"
                    "def recursive():\n    return recursive()\n\nclass Used:\n    pass\n",
               "b": "from . import a\n\ndef orphan():\n    return a.Used\n"}
    assert unread_definitions(sources) == [("a", "recursive"), ("b", "orphan")]


def test_every_definition_is_read():
    assert unread_definitions({path.stem: path.read_text(encoding="utf-8")
                               for path in PACKAGE.glob("*.py")}) == []


def unread_parameters(source, exempt=()):
    """(line, function, parameter) of every parameter of a def or lambda in
    `source` that its body never reads.  Parameters named with a leading
    underscore and the functions named in `exempt` are skipped."""
    unread = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        name = getattr(node, "name", "<lambda>")
        if name in exempt:
            continue
        a = node.args
        params = [p.arg for p in (*a.posonlyargs, *a.args, a.vararg, *a.kwonlyargs, a.kwarg)
                  if p is not None and not p.arg.startswith("_")]
        body = [n for stmt in (node.body if isinstance(node.body, list) else [node.body])
                for n in ast.walk(stmt)]
        # x += 1 reads x through a Store target
        read = ({n.id for n in body if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
                | {n.target.id for n in body
                   if isinstance(n, ast.AugAssign) and isinstance(n.target, ast.Name)})
        unread += [(node.lineno, name, p) for p in params if p not in read]
    return unread


def command_handlers(cli_source):
    """Names of the functions that the COMMANDS dict of `cli_source` maps to."""
    for node in ast.parse(cli_source).body:
        if (isinstance(node, ast.Assign) and isinstance(node.value, ast.Dict)
                and any(isinstance(t, ast.Name) and t.id == "COMMANDS" for t in node.targets)):
            return {v.id for v in node.value.values if isinstance(v, ast.Name)}
    return set()


def test_unread_parameters_are_found():
    source = ("def f(a, b, _c, *args, d, **kw):\n    return a + kw['x']\n\n"
              "def g(x, y):\n    x += 1\n    def inner():\n        return y\n    return inner\n\n"
              "def handler(scn, parser):\n    return scn\n\n"
              "h = lambda u, v: u\n\nCOMMANDS = {'run': handler}\n")
    assert command_handlers(source) == {"handler"}
    assert unread_parameters(source, exempt=command_handlers(source)) == [
        (1, "f", "b"), (1, "f", "args"), (1, "f", "d"), (13, "<lambda>", "v")]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda path: path.name)
def test_every_parameter_is_read(path):
    handlers = command_handlers((PACKAGE / "cli.py").read_text(encoding="utf-8"))
    assert unread_parameters(path.read_text(encoding="utf-8"), exempt=handlers) == []


# the test modules are exempt: pytest fixtures and monkeypatched fakes take
# parameters that they do not read on purpose
@pytest.mark.parametrize("path", [TESTS / "conftest.py", TESTS / "reference.py"] + SCRIPTS,
                         ids=lambda path: f"{path.parent.name}/{path.name}")
def test_shared_helpers_and_scripts_read_every_parameter(path):
    assert unread_parameters(path.read_text(encoding="utf-8")) == []


CACHE_DECORATORS = {"cache", "lru_cache"}
MUTATING_METHODS = {"append", "extend", "insert", "update", "setdefault", "pop", "popitem",
                    "clear", "remove", "add", "discard"}


def _root_name(node):
    """The name at the bottom of a chain of subscripts and attributes, or None."""
    while isinstance(node, (ast.Subscript, ast.Attribute)):
        node = node.value
    return node.id if isinstance(node, ast.Name) else None


def module_state(source):
    """(line, text) of every global or nonlocal statement, functools cache
    decorator, and write from a function body into a module-level name by
    subscript assignment or deletion or by a mutating method call.  A name
    that the function binds itself is its own."""
    tree = ast.parse(source)
    module_names = {n.id for stmt in tree.body if isinstance(stmt, (ast.Assign, ast.AnnAssign))
                    for n in ast.walk(stmt)
                    if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)}
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Global, ast.Nonlocal)):
            found.add(node)
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for decorator in node.decorator_list:
            called = decorator.func if isinstance(decorator, ast.Call) else decorator
            if getattr(called, "id", getattr(called, "attr", None)) in CACHE_DECORATORS:
                found.add(decorator)
        body = list(ast.walk(node))
        own = ({n.id for n in body if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)}
               | {n.arg for n in body if isinstance(n, ast.arg)})
        shared = module_names - own
        found |= {n for n in body if isinstance(n, ast.Subscript)
                  and isinstance(n.ctx, (ast.Store, ast.Del)) and _root_name(n) in shared}
        found |= {n for n in body if isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute)
                  and n.func.attr in MUTATING_METHODS and _root_name(n.func.value) in shared}
    return sorted((node.lineno, ast.unparse(node)) for node in found)


def test_module_state_is_found():
    source = ("import functools\nfrom functools import lru_cache\nTABLE = {}\nSEEN: list = []\n"
              "def a():\n    global TABLE\n"
              "@functools.cache\ndef b(x):\n    return x\n"
              "@lru_cache(maxsize=8)\ndef c(x):\n    TABLE['k'][x] = 1\n    SEEN.append(x)\n"
              "def d(TABLE):\n    TABLE[0] = 1\n    own = []\n    own.append(SEEN[0])\n"
              "    del TABLE[0]\n    return functools.cached_property\n"
              "def e():\n    g = 0\n    def f():\n        nonlocal g\n        TABLE.update(g=g)\n")
    assert module_state(source) == [
        (6, "global TABLE"), (7, "functools.cache"), (10, "lru_cache(maxsize=8)"),
        (12, "TABLE['k'][x]"), (13, "SEEN.append(x)"), (23, "nonlocal g"),
        (24, "TABLE.update(g=g)")]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda path: path.name)
def test_no_module_state(path):
    assert module_state(path.read_text(encoding="utf-8")) == []


LAYERS = ("errors", "expr", "report", "geometry", "connection", "dynamics", "scenario",
          "verify", "cli")


def imported_modules(source):
    """Names of the package modules that `source` imports, relatively
    (from . import x, from .x import y) or as newcart.x."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level == 1 and not module:
                names |= {alias.name for alias in node.names}
            elif node.level == 1 or module.startswith("newcart."):
                names.add(module.removeprefix("newcart.").split(".")[0])
        elif isinstance(node, ast.Import):
            names |= {alias.name.split(".")[1] for alias in node.names
                      if alias.name.startswith("newcart.")}
    return names


def test_imported_modules_are_found():
    source = ("from . import dynamics, verify\nfrom .expr import to_string\n"
              "import newcart.report\nfrom newcart.geometry import x\nimport numpy as np\n")
    assert imported_modules(source) == {"dynamics", "verify", "expr", "report", "geometry"}


@pytest.mark.parametrize("module", LAYERS)
def test_modules_import_only_lower_layers(module):
    # __init__.py re-exports from every layer, so it sits above them all
    assert set(LAYERS) >= {path.stem for path in PACKAGE.glob("*.py")} - {"__init__"}
    lower = set(LAYERS[:LAYERS.index(module)])
    assert imported_modules((PACKAGE / f"{module}.py").read_text(encoding="utf-8")) <= lower
