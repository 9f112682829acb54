"""Every ``src/repro`` module, function, class, method and keyword option
is reachable from a real entry point, and no module imports a name it
never uses.

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

Parameters with a default (keyword options) of every reached
module-level function and method:

* One is reached when reached code calls a function of its name and
  passes it by keyword, by position (past ``self``/``cls`` for a
  method) or through a ``*``/``**`` splat.  A class name calls the
  class's ``__init__``, inherited ones included.  A local bound to a
  function name (``runner = a if quick else b``) calls that function.
* Every option of a public signature of ``repro.api`` or ``repro.cli``,
  of the ``register_*`` decorators of ``repro.registry`` and of a
  definition with a ``register*`` decorator is reached: users and
  registry lookups call them, not the tree.
* ``DEPLOYMENT_SETTINGS`` (where and how wide a run executes) may stay
  at their defaults everywhere.
* Dataclass and ``NamedTuple`` fields are not parameters here: they
  are the model's configuration surface.

Tests do not count as a use: code that only its own tests reach is
either wired into a real path or deleted.  The exceptions are a method
in ``ALLOWED_TEST_SEAMS`` and an option in ``ALLOWED_TEST_OPTIONS``,
each with its reason.
"""

import ast
from pathlib import Path

from repro.registry import BUILTIN_MODULES

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

ENTRY_POINTS = ("repro.__main__", "repro.cli", "repro.api")

#: Unreached on purpose.  ``ablations`` builds the campaign grids that
#: sweep the paper's own design constants (the 3 dB adaptation
#: threshold, the handover margin T and the receive codebook); the
#: ``benchmarks/test_ablation_*`` files run them.
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

#: Keyword options only tests set, kept because each lets a test
#: substitute a fake for a real resource.  At most eight, each with its
#: reason; entries are ``module.function(parameter)``.
ALLOWED_TEST_OPTIONS = frozenset({
    # The heartbeat and stall tests drive time by hand; without a clock
    # they would sleep through real heartbeat and stall intervals.
    "repro.obs.monitor.HeartbeatEmitter.__init__(clock)",
    "repro.obs.monitor.StallDetector.__init__(clock)",
    # A canned resource sample keeps the heartbeat payload test
    # independent of the host's RSS and CPU readings.
    "repro.obs.monitor.HeartbeatEmitter.__init__(sampler)",
    # The logging tests capture records in a buffer instead of stderr.
    "repro.obs.log.configure_logging(stream)",
    # The rotation tests shrink the 4096-line bound to a few lines; at
    # the default they would append thousands of locked lines each.
    "repro.obs.ledger.RunLedger.__init__(max_entries)",
    # The phase the burst-grid and watchdog-grid equivalence tests pin
    # ``BurstScheduler`` against: a one-task-per-arm reference needs an
    # offset first tick.
    "repro.sim.engine.PeriodicTask.__init__(start_delay)",
})

#: Parameters that choose where or how wide a run executes, not what it
#: computes: every caller may leave them at their defaults.
DEPLOYMENT_SETTINGS = frozenset({"workers", "mp_context", "out_dir", "out_path"})

#: The module whose ``register_*`` decorators are the plugin surface.
REGISTRY_MODULE = "repro.registry"

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


def _definitions(root):
    """Every definition under ``root/src`` and the code that reads them.

    Returns ``(definitions, owner, classes, module_nodes)``:
    ``definitions`` maps a qualified name to ``(name, nodes, rooted)``
    (module-level functions, classes and aliases are ``module.name``;
    methods are ``module.Class.name``), ``owner`` maps a method to its
    class's qualified name, ``classes`` maps a class's qualified name to
    its ``ClassDef``, and ``module_nodes`` is the module-level code of
    ``src/`` and the consumer trees, which is read from the start.
    """
    definitions = {}
    owner = {}
    classes = {}
    module_nodes = []
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
                classes[qualified] = node
                nodes = _class_own_nodes(node)
                for method, method_rooted in _methods(node):
                    method_name = f"{qualified}.{method.name}"
                    definitions[method_name] = (method.name, [method], method_rooted)
                    owner[method_name] = qualified
            definitions[qualified] = (name, nodes, rooted)
    for directory in CONSUMER_DIRS:
        for path in sorted((root / directory).rglob("*.py")):
            module_nodes.append(ast.parse(path.read_text(encoding="utf-8")))
    return definitions, owner, classes, module_nodes


def _reached(definitions, owner, module_nodes):
    """Qualified names of the reached definitions, to a fixed point."""
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
    return reached


def _unreached_definitions(root):
    """Qualified names of the unreached definitions under ``root/src``."""
    definitions, owner, _, module_nodes = _definitions(root)
    return set(definitions) - _reached(definitions, owner, module_nodes)


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


def _defaulted(function):
    """Names of the parameters of ``function`` that have a default."""
    args = function.args
    positional = [*args.posonlyargs, *args.args]
    names = [arg.arg for arg in positional[len(positional) - len(args.defaults):]]
    return names + [
        arg.arg
        for arg, default in zip(args.kwonlyargs, args.kw_defaults)
        if default is not None
    ]


def _is_registering(decorator):
    """True when ``decorator`` is a ``register*`` call or name."""
    target = decorator.func if isinstance(decorator, ast.Call) else decorator
    name = getattr(target, "attr", None) or getattr(target, "id", "")
    return name.startswith("register")


def _options_rooted(qualified, function, cls_node):
    """True when every caller of ``function`` is outside the tree.

    Public signatures of the root modules, the ``register_*`` decorators
    of ``repro.registry`` and definitions a registering decorator hands
    to a registry are called by users or through a registry lookup.
    """
    module = qualified.rsplit(".", 2 if cls_node is not None else 1)[0]
    if any(map(_is_registering, function.decorator_list)):
        return True
    if module == REGISTRY_MODULE and function.name.startswith("register_"):
        return True
    if module not in ENTRY_POINTS:
        return False
    public = not function.name.startswith("_") or function.name == "__init__"
    return public and (cls_node is None or not cls_node.name.startswith("_"))


def _local_aliases(node):
    """``{local: names}`` for ``local = name`` or ``local = a if c else b``."""
    aliases = {}
    for sub in ast.walk(node):
        if (
            isinstance(sub, ast.Assign)
            and len(sub.targets) == 1
            and isinstance(sub.targets[0], ast.Name)
        ):
            value = sub.value
            choices = (
                [value.body, value.orelse] if isinstance(value, ast.IfExp) else [value]
            )
            names = [c.id for c in choices if isinstance(c, ast.Name)]
            if names:
                aliases.setdefault(sub.targets[0].id, []).extend(names)
    return aliases


def _unset_options(root):
    """``function(parameter)`` per defaulted parameter no reached call sets.

    Parameters are those of every reached module-level function and
    method under ``root/src``.  A call sets a parameter of every
    function of the called name (a bare name calls module-level
    functions and classes; an attribute also calls methods): by
    keyword, by position (past ``self``/``cls`` for a method), or
    through a ``*``/``**`` splat.  A class name calls its ``__init__``,
    inherited ones included, and so do ``cls(...)`` and
    ``type(self)(...)`` inside its body; ``super().__init__(...)`` calls
    the ``__init__`` of the enclosing class's bases.
    """
    definitions, owner, classes, module_nodes = _definitions(root)
    reached = _reached(definitions, owner, module_nodes)
    classes_by_name = {}
    for qualified, node in classes.items():
        classes_by_name.setdefault(node.name, []).append(qualified)

    def inits(qualified, seen=()):
        """The ``__init__`` that class ``qualified`` resolves to."""
        if f"{qualified}.__init__" in definitions:
            return [f"{qualified}.__init__"]
        found = []
        for base in classes[qualified].bases:
            name = getattr(base, "id", None) or getattr(base, "attr", None)
            for candidate in classes_by_name.get(name, ()):
                if candidate not in seen:
                    found += inits(candidate, (*seen, qualified))
        return found

    functions = {}  # name -> [(qualified, function node, offset, is_method)]
    options = {}  # qualified -> names of its defaulted parameters
    for qualified, (name, nodes, _) in definitions.items():
        if qualified in classes or qualified not in reached:
            continue
        node = nodes[0]
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue  # an alias
        cls = owner.get(qualified)
        static = any(
            getattr(d, "id", None) == "staticmethod" for d in node.decorator_list
        )
        offset = 1 if cls is not None and not static else 0
        functions.setdefault(name, []).append(
            (qualified, node, offset, cls is not None)
        )
        cls_node = classes[cls] if cls is not None else None
        if not _options_rooted(qualified, node, cls_node):
            options[qualified] = _defaulted(node)
    by_qualified = {
        qualified: (node, offset)
        for entries in functions.values()
        for qualified, node, offset, _ in entries
    }

    def class_targets(class_names):
        return [
            (init, *by_qualified[init])
            for name in class_names
            for cls in classes_by_name.get(name, ())
            for init in inits(cls)
            if init in by_qualified
        ]

    def targets(func, context):
        """``(qualified, node, offset)`` per function a call of ``func`` runs."""
        if context is not None and (
            (isinstance(func, ast.Name) and func.id == "cls")
            or (
                isinstance(func, ast.Call)
                and getattr(func.func, "id", None) == "type"
            )
        ):
            return class_targets([classes[context].name])
        if isinstance(func, ast.Name):
            return [
                (qualified, node, offset)
                for qualified, node, offset, is_method in functions.get(func.id, ())
                if not is_method
            ] + class_targets([func.id])
        if not isinstance(func, ast.Attribute):
            return []
        if func.attr == "__init__" and context is not None:
            return class_targets([
                getattr(base, "id", None) or getattr(base, "attr", None)
                for base in classes[context].bases
            ])
        return [
            (qualified, node, offset)
            for qualified, node, offset, _ in functions.get(func.attr, ())
        ] + class_targets([func.attr])

    set_params = set()

    def visit(nodes, context):
        for top in nodes:
            aliases = _local_aliases(top)
            for call in ast.walk(top):
                if not isinstance(call, ast.Call):
                    continue
                found = targets(call.func, context)
                for name in aliases.get(getattr(call.func, "id", None), ()):
                    found += targets(ast.Name(id=name), context)
                for qualified, node, offset in found:
                    positional = [*node.args.posonlyargs, *node.args.args]
                    for index, arg in enumerate(call.args, offset):
                        if isinstance(arg, ast.Starred):
                            set_params.update(
                                (qualified, p.arg) for p in positional[index:]
                            )
                        elif index < len(positional):
                            set_params.add((qualified, positional[index].arg))
                    for keyword in call.keywords:
                        if keyword.arg is None:
                            set_params.update(
                                (qualified, name) for name in _defaulted(node)
                            )
                        else:
                            set_params.add((qualified, keyword.arg))

    visit(module_nodes, None)
    for qualified in reached:
        name, nodes, _ = definitions[qualified]
        context = owner.get(qualified) or (
            qualified if qualified in classes else None
        )
        visit(nodes, context)
    return {
        f"{qualified}({name})"
        for qualified, names in options.items()
        for name in names
        if (qualified, name) not in set_params
        and name not in DEPLOYMENT_SETTINGS
    }


def test_every_src_option_is_set_by_reached_code():
    assert len(ALLOWED_TEST_OPTIONS) <= 8
    assert _unset_options(ROOT) == ALLOWED_TEST_OPTIONS


def test_option_walk_finds_test_only_options(tmp_path):
    _plant(tmp_path, {
        "src/repro/__init__.py": "",
        "src/repro/registry.py": (
            "def register_protocol(name, *, override=False):\n"
            "    return lambda build: build\n"
        ),
        "src/repro/lib.py": (
            "from repro.registry import register_protocol\n"
            "def by_test(x, scale=1.0):\n    return x * scale\n"
            "def by_keyword(x, scale=1.0):\n    return x * scale\n"
            "def by_position(x, scale=1.0):\n    return x * scale\n"
            "def by_splat(x, scale=1.0):\n    return x * scale\n"
            "def fan_out(x, workers=1):\n    return x\n"
            "class Widget:\n"
            "    def __init__(self, size=1, color='red'):\n"
            "        self.size = size\n"
            "    def resize(self, size=1, dead=False):\n"
            "        return type(self)(size)\n"
            "class Gadget(Widget):\n    pass\n"
            "@register_protocol('p')\n"
            "def _build(x, scale=1.0):\n    return x * scale\n"
        ),
        "src/repro/api.py": (
            "from repro.lib import Gadget, Widget, by_keyword, by_position\n"
            "from repro.lib import by_splat, by_test, fan_out\n"
            "def run(options, mode='fast'):\n"
            "    by_test(1)\n"
            "    by_keyword(1, scale=2.0)\n"
            "    by_position(1, 2.0)\n"
            "    by_splat(1, **options)\n"
            "    fan_out(1)\n"
            "    Widget().resize(3)\n"
            "    return Gadget(color='blue')\n"
        ),
        "tests/test_lib.py": (
            "from repro.lib import Widget, by_test\n"
            "by_test(1, scale=3.0)\n"
            "Widget().resize(dead=True)\n"
        ),
    })
    assert _unset_options(tmp_path) == {
        "repro.lib.by_test(scale)",
        "repro.lib.Widget.resize(dead)",
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
