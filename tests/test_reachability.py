"""Every ``src/repro`` module, function, class and method is reachable
from a real entry point, and no module imports a name it never uses.

The walks are static (``ast``): they never import the modules they visit.

Modules:

* Roots: ``repro.__main__``, ``repro.cli``, ``repro.api``, every module
  in ``repro.registry.BUILTIN_MODULES`` and the ``repro`` imports of
  ``examples/*.py`` (a user surface that ``tests/test_examples.py``
  runs).
* Every ``import`` / ``from ... import`` statement of a reached module
  is followed, including those inside function bodies, because the CLI
  imports lazily.
* A package ``__init__`` is only a name map: one of its re-exports
  counts as a use only when a reached module imports that name through
  the package.

Module-level functions and classes of ``src/repro``, and module-level
aliases of them (``name = other_callable``, where ``other_callable`` is
a function or class the module defines or imports):

* One is reached when code under ``src/``, ``examples/``,
  ``benchmarks/`` or ``perfbench/`` reads its name from outside its
  own body: a loaded name or attribute, a ``from ... import``, or an
  identifier-valued string (``getattr``-style lookups).  Names match by
  identifier, not by binding, so a read of any same-named attribute
  counts.
* An alias is a definition of its own: its right-hand side counts as a
  read only once the alias is reached, so an unused back-compat alias
  is flagged and does not keep its target alive.
* A decorated one is reached (decorators register), and so is every
  public name of a root module (``repro.api``, ``repro.cli``,
  ``repro.__main__``): that is the API users call.
* A package ``__init__`` re-export or ``__all__`` entry is not a use,
  and a module ``__getattr__`` gets no exemption.
* Reads count only from module-level code or from reached
  definitions, iterated to a fixed point: a helper that only unreached
  code calls is itself unreached.

Methods (every ``def`` in a class body, properties, static and class
methods included) are definitions too, walked in the same fixed point:

* One is reached when reached code reads its name as an attribute
  (``x.name``, ``super().name``) or as an identifier-valued string.  A
  bare name does not count, so a local variable that shares a method's
  name does not keep the method alive.  Dispatch is not resolved: a
  read of ``x.name`` reaches every method called ``name``.
* A dunder is reached, and so is a method with a decorator other than
  ``property``, ``staticmethod``, ``classmethod`` or ``abstractmethod``
  (such a decorator registers or wraps).
* A method is reached only once its class is, and its body's reads
  count only once it is reached.  A class's own reads are its bases,
  decorators and the non-method statements of its body.

Tests do not count as a use: code that only its own tests reach is
either wired into a real path or deleted.  The one exception is a
method in ``ALLOWED_TEST_SEAMS``, each with its reason.
"""

import ast
from pathlib import Path

from repro.registry import BUILTIN_MODULES

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

ENTRY_POINTS = ("repro.__main__", "repro.cli", "repro.api")

#: Unreached on purpose.  ``ablations`` sweeps the paper's own design
#: constants (the 3 dB adaptation threshold, the handover margin T and
#: the receive codebook) through ``run_campaign``; the
#: ``benchmarks/test_ablation_*`` files and the README's ablation
#: sweeps consume it.
ALLOWED_UNREACHED = frozenset({"repro.experiments.ablations"})

#: Methods only tests call, kept because deleting one would push the
#: tests onto private state or break a documented user surface.  At
#: most eight, each with its reason.
ALLOWED_TEST_SEAMS = frozenset({
    # Undoes a plugin registration: without it a test or plugin that
    # registers a toy entry would tear down by popping ``_entries``.
    "repro.registry.Registry.unregister",
    # The stream-state equivalence tests compare every stream a run
    # created; without it they would read ``RngRegistry._streams``.
    "repro.sim.rng.RngRegistry.stream_names",
})

#: Trees besides ``src/`` whose code counts as a use of a ``src/repro``
#: definition.
CONSUMER_DIRS = ("examples", "benchmarks", "perfbench")

#: Method decorators that register nothing: a method they wrap is
#: reached only through a read of its name.
PLAIN_DECORATORS = frozenset(
    {"property", "staticmethod", "classmethod", "abstractmethod"}
)


def _index_sources(src=SRC):
    """Map dotted module name -> (path, is_package) for ``src/repro``."""
    modules = {}
    for path in (src / "repro").rglob("*.py"):
        parts = path.relative_to(src).with_suffix("").parts
        is_package = parts[-1] == "__init__"
        if is_package:
            parts = parts[:-1]
        modules[".".join(parts)] = (path, is_package)
    return modules


def _statements(body):
    """Every statement of ``body``, nested blocks included.

    Imports are statements, so this finds the same ones as
    ``ast.walk`` without visiting every expression node.
    """
    for node in body:
        yield node
        for field in ("body", "orelse", "finalbody", "handlers", "cases"):
            yield from _statements(getattr(node, field, ()))


def _imports(tree, module, is_package):
    """Yield ``(target, names)`` per import in ``tree``.

    ``names`` is ``None`` for a plain ``import target``.
    """
    for node in _statements(tree.body):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name, None
        elif isinstance(node, ast.ImportFrom):
            target = node.module or ""
            if node.level:
                base = module.split(".")
                if not is_package:
                    base = base[:-1]
                base = base[: len(base) - (node.level - 1)]
                target = ".".join(base + ([target] if target else []))
            yield target, [alias.name for alias in node.names]


class _Walk:
    def __init__(self):
        self.modules = _index_sources()
        self.trees = {}
        self.exports = {}
        self.reached = set()
        self.pending = []

    def _tree(self, module):
        if module not in self.trees:
            path, _ = self.modules[module]
            self.trees[module] = ast.parse(path.read_text(encoding="utf-8"))
        return self.trees[module]

    def _reexports(self, package):
        """Top-level ``from X import name`` map of a package ``__init__``."""
        if package not in self.exports:
            body = [
                node for node in self._tree(package).body
                if isinstance(node, ast.ImportFrom)
            ]
            self.exports[package] = {
                name: target
                for target, names in _imports(
                    ast.Module(body=body, type_ignores=[]), package, True
                )
                for name in names
            }
        return self.exports[package]

    def _use(self, target, names=None):
        """Mark what ``from target import names`` (or ``import target``) uses."""
        if target not in self.modules:
            return  # stdlib / third party
        _, is_package = self.modules[target]
        if not is_package:
            self._reach(target)
            return
        for name in names or ():
            submodule = f"{target}.{name}"
            if submodule in self.modules:
                self._use(submodule, ())
                continue
            source = self._reexports(target).get(name)
            if source is not None:
                self._use(source, [name])

    def _reach(self, module):
        if module not in self.reached:
            self.reached.add(module)
            self.pending.append(module)

    def run(self, roots, extra_trees=()):
        for root in roots:
            self._reach(root)
        for tree in extra_trees:
            for target, names in _imports(tree, "", False):
                self._use(target, names)
        while self.pending:
            module = self.pending.pop()
            _, is_package = self.modules[module]
            for target, names in _imports(self._tree(module), module, is_package):
                self._use(target, names)
        return self

    def unreached(self):
        return {
            name
            for name, (_, is_package) in self.modules.items()
            if not is_package and name not in self.reached
        }


def _example_trees():
    return [
        ast.parse(path.read_text(encoding="utf-8"))
        for path in sorted((ROOT / "examples").glob("*.py"))
    ]


def test_every_src_module_is_reached_from_an_entry_point():
    walk = _Walk().run(ENTRY_POINTS + tuple(BUILTIN_MODULES), _example_trees())
    assert walk.unreached() == ALLOWED_UNREACHED


def _reads(nodes):
    """``(names, attributes)`` that ``nodes`` read (see the module docstring).

    ``attributes`` holds only loaded attributes and identifier-valued
    strings: the reads that can reach a method.  ``names`` holds the
    loaded bare names and ``from ... import`` names.
    """
    names, attributes = set(), set()
    for node in nodes:
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
                names.add(sub.id)
            elif isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load):
                attributes.add(sub.attr)
            elif isinstance(sub, ast.ImportFrom):
                names.update(alias.name for alias in sub.names)
            elif (
                isinstance(sub, ast.Constant)
                and isinstance(sub.value, str)
                and sub.value.isidentifier()
            ):
                attributes.add(sub.value)
    return names, attributes


def _is_all(node):
    targets = node.targets if isinstance(node, ast.Assign) else [
        getattr(node, "target", None)
    ]
    return any(isinstance(t, ast.Name) and t.id == "__all__" for t in targets)


def _bound_callables(body):
    """Names ``body`` binds by ``def``, ``class`` or ``import``."""
    bound = set()
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bound.add(node.name)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            bound.update(
                alias.asname or alias.name.split(".")[0] for alias in node.names
            )
    return bound


def _alias_name(node, callables):
    """The name ``node`` binds when it is ``name = other_callable``."""
    if (
        isinstance(node, ast.Assign)
        and len(node.targets) == 1
        and isinstance(node.targets[0], ast.Name)
        and isinstance(node.value, ast.Name)
        and node.value.id in callables
    ):
        return node.targets[0].id
    return None


def _is_plain(decorator):
    """True when ``decorator`` only changes how a method is looked up."""
    target = decorator.func if isinstance(decorator, ast.Call) else decorator
    if isinstance(target, ast.Attribute):
        return target.attr in PLAIN_DECORATORS
    return isinstance(target, ast.Name) and target.id in PLAIN_DECORATORS


def _methods(node):
    """``(method node, rooted)`` for each method in class ``node``'s body."""
    for child in node.body:
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            dunder = child.name.startswith("__") and child.name.endswith("__")
            yield child, dunder or not all(map(_is_plain, child.decorator_list))


def _class_own_nodes(node):
    """The parts of class ``node`` that are not method bodies."""
    return [*node.decorator_list, *node.bases, *node.keywords] + [
        child for child in node.body
        if not isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
    ]


def _unreached_definitions(root):
    """Qualified names of the unreached definitions under ``root/src``.

    Module-level functions, classes and aliases are ``module.name``;
    methods are ``module.Class.name``.
    """
    definitions = {}  # qualified name -> (name, nodes, rooted)
    owner = {}  # method qualified name -> its class's qualified name
    module_nodes = []  # module-level code, a read from the start
    for module, (path, is_package) in _index_sources(root / "src").items():
        body = ast.parse(path.read_text(encoding="utf-8")).body
        callables = _bound_callables(body)
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name, decorated = node.name, bool(node.decorator_list)
            else:
                name, decorated = _alias_name(node, callables), False
            if name is None:
                if not _is_all(node) and not (
                    is_package and isinstance(node, ast.ImportFrom)
                ):
                    module_nodes.append(node)
                continue
            rooted = decorated or (
                module in ENTRY_POINTS and not name.startswith("_")
            )
            qualified = f"{module}.{name}"
            nodes = [node]
            if isinstance(node, ast.ClassDef):
                nodes = _class_own_nodes(node)
                for method, method_rooted in _methods(node):
                    method_name = f"{qualified}.{method.name}"
                    definitions[method_name] = (method.name, [method], method_rooted)
                    owner[method_name] = qualified
            definitions[qualified] = (name, nodes, rooted)
    for directory in CONSUMER_DIRS:
        for path in sorted((root / directory).rglob("*.py")):
            module_nodes.append(ast.parse(path.read_text(encoding="utf-8")))
    names, attributes = _reads(module_nodes)
    reached = set()
    grown = True
    while grown:
        grown = False
        for qualified, (name, nodes, rooted) in definitions.items():
            cls = owner.get(qualified)
            if qualified in reached or (cls is not None and cls not in reached):
                continue
            if rooted or name in attributes or (cls is None and name in names):
                reached.add(qualified)
                more_names, more_attributes = _reads(nodes)
                names |= more_names
                attributes |= more_attributes
                grown = True
    return set(definitions) - reached


def test_every_src_definition_is_reached():
    assert len(ALLOWED_TEST_SEAMS) <= 8
    assert _unreached_definitions(ROOT) == ALLOWED_TEST_SEAMS


def _plant(root, files):
    for name, text in files.items():
        path = root / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text, encoding="utf-8")


def test_definition_walk_finds_dead_code(tmp_path):
    files = {
        "src/repro/__init__.py": "",
        "src/repro/api.py": (
            "from repro.lib import live, used\n"
            "def run():\n    return used(), live()\n"
        ),
        "src/repro/lib.py": (
            "def register(fn):\n    return fn\n"
            "@register\ndef registered():\n    pass\n"
            "def used():\n    pass\n"
            "def dead():\n    return dead_helper()\n"
            "def dead_helper():\n    return dead()\n"
            "def reexported():\n    pass\n"
            "def by_example():\n    pass\n"
            "def renamed():\n    pass\n"
            "old_name = renamed\n"
            "used_alias = used\n"
            "def aliased():\n    pass\n"
            "live = aliased\n"
        ),
        "src/repro/pkg/__init__.py": (
            "from repro.lib import reexported\n"
            "__all__ = ['reexported', 'dead']\n"
            "def __getattr__(name):\n    return dead\n"
        ),
        "examples/demo.py": "import repro.lib as lib\nlib.by_example()\n",
    }
    _plant(tmp_path, files)
    assert _unreached_definitions(tmp_path) == {
        "repro.lib.dead",
        "repro.lib.dead_helper",
        "repro.lib.old_name",
        "repro.lib.reexported",
        "repro.lib.renamed",
        "repro.lib.used_alias",
        "repro.pkg.__getattr__",
    }


def test_method_walk_finds_dead_methods(tmp_path):
    _plant(tmp_path, {
        "src/repro/__init__.py": "",
        "src/repro/api.py": (
            "from repro.shapes import Child\n"
            "def run():\n"
            "    child = Child()\n"
            "    rotated = child.area\n"
            "    return rotated, getattr(child, 'perimeter')()\n"
        ),
        "src/repro/shapes.py": (
            "def register(fn):\n    return fn\n"
            "class Base:\n"
            "    def __init__(self):\n        self.size = 1\n"
            "    def describe(self):\n        return 'base'\n"
            "    def rotated(self):\n        return self\n"
            "    @property\n    def dead_property(self):\n        return 0\n"
            "    def dead_method(self):\n        return self.dead_helper()\n"
            "    def dead_helper(self):\n        return 0\n"
            "class Child(Base):\n"
            "    @property\n"
            "    def area(self):\n        return super().describe()\n"
            "    def perimeter(self):\n        return 4\n"
            "    @register\n    def hook(self):\n        pass\n"
            "class Orphan:\n"
            "    def __init__(self):\n        pass\n"
        ),
    })
    assert _unreached_definitions(tmp_path) == {
        "repro.shapes.Base.dead_helper",
        "repro.shapes.Base.dead_method",
        "repro.shapes.Base.dead_property",
        "repro.shapes.Base.rotated",
        "repro.shapes.Orphan",
        "repro.shapes.Orphan.__init__",
    }


def _annotation_names(text):
    """Names in a string that parses as an expression (a string annotation)."""
    try:
        expression = ast.parse(text, mode="eval")
    except (SyntaxError, ValueError):
        return ()
    return [node.id for node in ast.walk(expression) if isinstance(node, ast.Name)]


def test_no_module_imports_a_name_it_never_uses():
    unused = []
    for module, (path, is_package) in sorted(_index_sources().items()):
        if is_package:
            continue  # a package __init__ imports to re-export
        tree = ast.parse(path.read_text(encoding="utf-8"))
        used = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                used.update(_annotation_names(node.value))
        for node in _statements(tree.body):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                if getattr(node, "module", None) == "__future__":
                    continue
                for alias in node.names:
                    bound = alias.asname or alias.name.split(".")[0]
                    if bound not in used:
                        unused.append(f"{module}:{node.lineno} {bound}")
    assert unused == []
