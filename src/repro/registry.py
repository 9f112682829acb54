"""Typed plugin registries: protocols, scenarios, codebooks, experiments.

The paper's evaluation is a grid of protocol arms x mobility scenarios x
receive codebooks.  Those axes are *extension points*: new arms are
registered here, by name, rather than wired into each experiment module
with ad-hoc string dispatch.  Everything downstream — the
:class:`~repro.api.Session` facade, the campaign grid validation, the
``repro list`` CLI — resolves names exclusively through these
registries, so a third-party protocol registered once is immediately
usable everywhere a built-in one is.

Four global registries, each with decorator registration:

=======================  =============================================
registry                 entry
=======================  =============================================
:data:`PROTOCOLS`        factory ``(deployment, mobile, serving_cell,
                         config=None) -> protocol`` returning an object
                         with ``start()``/``stop()`` and (for the
                         comparison experiments) a ``handover_log``
:data:`SCENARIOS`        :class:`ScenarioDef` — trajectory builder plus
                         per-scenario defaults (duration, start x)
:data:`CODEBOOKS`        factory ``() -> Codebook`` for the mobile's
                         receive codebook
:data:`EXPERIMENTS`      :class:`ExperimentDef` — how to run one
                         campaign cell of the kind, decode its
                         artifact payload and summarize an arm
=======================  =============================================

Registering a custom arm::

    from repro.registry import register_protocol, register_scenario

    @register_protocol("my-tracker")
    def build_my_tracker(deployment, mobile, serving_cell, config=None):
        return MyTracker(deployment, mobile, serving_cell)

    @register_scenario("loiter", duration_s=6.0, default_start_x=10.0)
    def build_loiter(rng, start_x):
        return HumanWalk(Vec3(start_x, 0.0), Vec3(0.2, 0.0), rng=rng)

Unknown names fail with an error that lists the valid choices
(``unknown protocol 'oracel'; known: oracle, reactive,
silent-tracker``); duplicate registrations are refused unless
``override=True`` is passed explicitly.

Built-in arms live in the modules that implement them
(:mod:`repro.experiments.scenarios`, :mod:`repro.core.baselines`, the
``repro.experiments`` figure modules) and are imported lazily on the
first registry query, so importing :mod:`repro.registry` itself stays
cheap and free of circular imports.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass
from typing import Callable, Dict, Generic, Iterator, Optional, Tuple, TypeVar

T = TypeVar("T")

#: Modules that register the built-in arms on import.  Loaded lazily by
#: the first query against any registry (see :func:`load_builtins`).
BUILTIN_MODULES = (
    "repro.experiments.scenarios",      # scenarios + mobile codebooks
    "repro.core.baselines",             # protocol arms
    "repro.experiments.fig2a",          # "search" experiment kind
    "repro.experiments.fig2c",          # "tracking"
    "repro.experiments.comparison",     # "comparison"
    "repro.experiments.workloads",      # "workload"
    "repro.experiments.hierarchical",   # "hierarchical"
    "repro.experiments.pingpong",       # "pingpong"
    "repro.fleet.experiment",           # "fleet" (population-scale runs)
)


class RegistryError(ValueError):
    """Base class for registry misuse (a :class:`ValueError`)."""


class UnknownNameError(RegistryError):
    """An unregistered name was looked up.

    The message lists every valid choice, sorted, so a typo is a
    one-glance fix: ``unknown protocol 'oracel'; known: oracle,
    reactive, silent-tracker``.
    """

    def __init__(self, kind: str, name: object, known: Tuple[str, ...]) -> None:
        self.kind = kind
        self.name = name
        self.known = tuple(known)
        known_text = ", ".join(sorted(self.known)) if self.known else "(none)"
        super().__init__(f"unknown {kind} {name!r}; known: {known_text}")


class DuplicateNameError(RegistryError):
    """A name was registered twice without ``override=True``."""

    def __init__(self, kind: str, name: str) -> None:
        self.kind = kind
        self.name = name
        super().__init__(
            f"{kind} {name!r} is already registered; "
            f"pass override=True to replace it"
        )


_loaded = False
_loading = False


def load_builtins() -> None:
    """Import every module in :data:`BUILTIN_MODULES` exactly once.

    Idempotent and re-entrant: registrations performed *during* the load
    (the built-in modules querying each other's registries) do not
    recurse.
    """
    global _loaded, _loading
    if _loaded or _loading:
        return
    _loading = True
    try:
        for module in BUILTIN_MODULES:
            importlib.import_module(module)
        _loaded = True
    finally:
        _loading = False


class Registry(Generic[T]):
    """An ordered name -> entry mapping with decorator registration.

    ``kind`` names what the registry holds ("protocol", "scenario", ...)
    and prefixes every error message.  Entries keep registration order
    (:meth:`names`), which for the built-ins matches the paper's
    presentation order; error messages sort the names for scanability.
    """

    def __init__(self, kind: str) -> None:
        self.kind = kind
        self._entries: Dict[str, T] = {}

    # --------------------------------------------------------------- writing
    def register(
        self,
        name: str,
        entry: Optional[T] = None,
        *,
        override: bool = False,
    ):
        """Register ``entry`` under ``name``; decorator form when omitted.

        ``override=True`` replaces an existing entry (deliberate
        shadowing, e.g. a test stub); without it a duplicate name raises
        :class:`DuplicateNameError` so two plugins cannot silently
        swallow each other.
        """
        if not isinstance(name, str) or not name:
            raise RegistryError(
                f"{self.kind} name must be a non-empty string, got {name!r}"
            )
        if entry is None:
            def decorator(obj: T) -> T:
                self.register(name, obj, override=override)
                return obj

            return decorator
        # Load the builtins before writing (a no-op while they are
        # being loaded): a plugin claiming a builtin name must collide
        # *here*, at its own registration, not later inside a builtin
        # module import triggered by the first lookup.
        load_builtins()
        if name in self._entries and not override:
            raise DuplicateNameError(self.kind, name)
        self._entries[name] = entry
        return entry

    def unregister(self, name: str) -> T:
        """Remove and return an entry (tests and plugin teardown)."""
        load_builtins()
        try:
            return self._entries.pop(name)
        except KeyError:
            raise UnknownNameError(self.kind, name, self.names()) from None

    # --------------------------------------------------------------- reading
    def get(self, name: str) -> T:
        """The entry for ``name``; :class:`UnknownNameError` otherwise."""
        load_builtins()
        try:
            return self._entries[name]
        except KeyError:
            raise UnknownNameError(self.kind, name, self.names()) from None

    def __getitem__(self, name: str) -> T:
        return self.get(name)

    def names(self) -> Tuple[str, ...]:
        """Registered names, in registration order."""
        load_builtins()
        return tuple(self._entries)

    def items(self) -> Tuple[Tuple[str, T], ...]:
        load_builtins()
        return tuple(self._entries.items())

    def __contains__(self, name: object) -> bool:
        load_builtins()
        return name in self._entries

    def __iter__(self) -> Iterator[str]:
        return iter(self.names())

    def __len__(self) -> int:
        load_builtins()
        return len(self._entries)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Registry({self.kind!r}, {list(self._entries)!r})"


# ------------------------------------------------------------------ entries
@dataclass(frozen=True)
class ScenarioDef:
    """One mobility scenario: trajectory builder + testbed defaults.

    ``build(rng, start_x)`` returns a fresh
    :class:`~repro.mobility.base.Trajectory`; ``default_start_x`` places
    the mobile so one full handover episode plays out within
    ``duration_s`` (the default trial length for the scenario).
    """

    name: str
    duration_s: float
    default_start_x: float
    build: Callable
    description: str = ""

    def make_trajectory(self, rng=None, start_x: Optional[float] = None):
        """A fresh trajectory, at the scenario's default start unless given."""
        x0 = self.default_start_x if start_x is None else start_x
        return self.build(rng, x0)


@dataclass(frozen=True)
class ExperimentDef:
    """One campaign experiment kind.

    ``run(cell)`` executes one :class:`~repro.campaign.spec.CampaignCell`
    and returns its JSON-safe artifact payload; ``decode(payload)``
    rebuilds the trial dataclass from that payload.
    ``headline(trials)`` is the kind's one definition of its per-arm
    statistics: given one arm's decoded trials it returns a dict of named
    rates and counts plus named sample vectors (tuples), which ``repro
    campaign summarize``, the figure commands and ``repro report`` only
    format.  ``columns`` picks what ``campaign summarize`` prints, as
    ``(header, headline name or callable(headline))`` pairs (every rate
    and count under its own name when empty).  The ``protocols``
    axis of a campaign grid is interpreted per kind: ``axis`` says which
    registry the values come from (``"codebook"``, ``"protocol"``, or
    ``"custom"`` for kind-private arms), ``protocol_axis`` is the
    human-readable meaning, and ``protocol_names()`` returns the
    currently-valid values (a live view, so in-process plugin
    registrations extend it immediately).

    ``duration_param`` names the cell-params key the kind reads its
    trial length from (``None`` for kinds without one), and
    ``accepts_config`` says whether ``run`` honors the cell's config
    overrides — :func:`repro.api.run_trial` uses both to map
    ``TrialSpec`` fields onto the cell, and to *reject* spec fields
    the kind would otherwise silently drop.
    """

    name: str
    run: Callable
    decode: Callable
    headline: Callable
    axis: str
    protocol_axis: str
    protocol_names: Callable[[], Tuple[str, ...]]
    default_protocols: Tuple[str, ...]
    description: str = ""
    duration_param: Optional[str] = "duration_s"
    accepts_config: bool = False
    columns: Tuple[Tuple[str, object], ...] = ()


# ---------------------------------------------------------------- registries
PROTOCOLS: Registry = Registry("protocol")
SCENARIOS: "Registry[ScenarioDef]" = Registry("scenario")
CODEBOOKS: Registry = Registry("codebook")
EXPERIMENTS: "Registry[ExperimentDef]" = Registry("experiment")


# ---------------------------------------------------------------- decorators
def register_protocol(name: str, *, override: bool = False):
    """Register a protocol factory: ``@register_protocol("my-arm")``.

    The factory signature is ``(deployment, mobile, serving_cell,
    config=None)``; it must return an object with ``start()`` and
    ``stop()`` (and, for the comparison experiments, a ``handover_log``).
    """
    return PROTOCOLS.register(name, override=override)


def register_scenario(
    name: str,
    *,
    duration_s: float,
    default_start_x: float,
    description: str = "",
    override: bool = False,
):
    """Register a trajectory builder as a scenario.

    Decorates ``build(rng, start_x) -> Trajectory`` and wraps it in a
    :class:`ScenarioDef` carrying the scenario's default trial duration
    and starting x position.
    """
    if duration_s <= 0.0:
        raise RegistryError(
            f"scenario {name!r}: duration_s must be positive, got {duration_s!r}"
        )

    def decorator(build: Callable) -> Callable:
        SCENARIOS.register(
            name,
            ScenarioDef(
                name=name,
                duration_s=duration_s,
                default_start_x=default_start_x,
                build=build,
                description=description or _first_doc_line(build),
            ),
            override=override,
        )
        return build

    return decorator


def register_codebook(name: str, *, override: bool = False):
    """Register a mobile receive-codebook factory ``() -> Codebook``."""
    return CODEBOOKS.register(name, override=override)


def register_experiment(
    name: str,
    *,
    decode: Callable,
    headline: Callable,
    axis: str,
    protocol_axis: str,
    protocol_names: Callable[[], Tuple[str, ...]],
    default_protocols: Tuple[str, ...],
    description: str = "",
    duration_param: Optional[str] = "duration_s",
    accepts_config: bool = False,
    columns: Tuple[Tuple[str, object], ...] = (),
    override: bool = False,
):
    """Register a campaign experiment kind; decorates its cell runner.

    ``decode`` and ``headline`` are required (see :class:`ExperimentDef`);
    a kind whose trials look like another kind's may reuse its
    ``headline`` and ``columns``.
    """
    if axis not in ("codebook", "protocol", "custom"):
        raise RegistryError(
            f"experiment {name!r}: axis must be 'codebook', 'protocol' or "
            f"'custom', got {axis!r}"
        )

    def decorator(run: Callable) -> Callable:
        EXPERIMENTS.register(
            name,
            ExperimentDef(
                name=name,
                run=run,
                decode=decode,
                headline=headline,
                axis=axis,
                protocol_axis=protocol_axis,
                protocol_names=protocol_names,
                default_protocols=tuple(default_protocols),
                description=description or _first_doc_line(run),
                duration_param=duration_param,
                accepts_config=accepts_config,
                columns=tuple(columns),
            ),
            override=override,
        )
        return run

    return decorator


# --------------------------------------------------------------- convenience
def make_protocol(name: str, deployment, mobile, serving_cell: str, config=None):
    """Build a registered protocol arm against a live deployment."""
    return PROTOCOLS.get(name)(deployment, mobile, serving_cell, config)


def make_codebook(name: str):
    """Build a registered mobile receive codebook."""
    return CODEBOOKS.get(name)()


def entry_description(entry) -> str:
    """Best-effort one-line description of a registry entry."""
    description = getattr(entry, "description", "")
    if description:
        return description
    return _first_doc_line(entry)


def _first_doc_line(obj) -> str:
    doc = getattr(obj, "__doc__", None) or ""
    for line in doc.splitlines():
        line = line.strip()
        if line:
            return line
    return ""
