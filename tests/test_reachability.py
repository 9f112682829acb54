"""Every ``src/repro`` module is reachable from a real entry point.

The walk is static (``ast``): it never imports the modules it visits.

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
"""

import ast
from pathlib import Path

from repro.registry import BUILTIN_MODULES

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

ENTRY_POINTS = ("repro.__main__", "repro.cli", "repro.api")

#: Unreached on purpose.  ``ablations`` sweeps the paper's own design
#: constants (the 3 dB adaptation threshold, the 10 dB loss threshold
#: and the handover margin T) through ``run_campaign``; the
#: ``benchmarks/test_ablation_*`` files and the README's ablation
#: sweeps consume it.
ALLOWED_UNREACHED = frozenset({"repro.experiments.ablations"})


def _index_sources():
    """Map dotted module name -> (path, is_package) for ``src/repro``."""
    modules = {}
    for path in (SRC / "repro").rglob("*.py"):
        parts = path.relative_to(SRC).with_suffix("").parts
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

