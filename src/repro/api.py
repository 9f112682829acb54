"""Typed session API: one trial from spec to structured result.

Every figure trial used to repeat the same boilerplate — build the
cell-edge deployment, construct a protocol by name, ``start()`` it, run
the simulator, remember to ``stop()``.  :class:`Session` owns that
lifecycle behind a context manager (protocols are *always* stopped, even
when the trial body raises), and resolves every axis — scenario,
codebook, protocol — through :mod:`repro.registry`, so a plugin arm
registered once runs through the same path as the built-ins.

Typical use::

    from repro.api import Session, TrialSpec

    spec = TrialSpec(scenario="vehicular", protocol="silent-tracker",
                     seed=7)
    with Session(spec) as session:
        protocol = session.attach_protocol()
        session.run()                      # scenario-default duration
    print(protocol.handover_log.records)

:func:`run_trial` goes one level higher: it executes any registered
experiment kind for one grid point and returns a :class:`TrialResult`
envelope — the common structure (axes + decoded per-experiment payload)
shared by every kind.  That includes the population-scale ``fleet``
kind::

    result = run_trial("fleet", scenario="walk", seed=2, arm="uniform",
                       params={"n_users": 64})
    result.payload.aggregates["summary"]["search_latency_s"]

(:class:`Session` itself stays single-UE by design; multi-UE lifecycles
are owned by :func:`repro.fleet.run_fleet_trial`.)

Construction order inside :class:`Session` is identical to the code it
replaced (deployment, then protocol, then ``protocol.start()``, then the
event loop), so RNG streams — and therefore campaign artifacts — are
byte-for-byte unchanged.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Mapping, Optional

from repro.registry import (
    CODEBOOKS,
    EXPERIMENTS,
    PROTOCOLS,
    SCENARIOS,
    RegistryError,
    UnknownNameError,
    make_protocol,
)

#: Sentinel distinguishing "not passed" from an explicit ``None`` config.
_UNSET = object()


class SessionError(RuntimeError):
    """Raised for session lifecycle misuse (attach twice, run closed...)."""


@dataclass(frozen=True)
class TrialSpec:
    """Declarative description of one trial on the cell-edge testbed.

    Attributes
    ----------
    scenario:
        Registered mobility scenario name.
    codebook:
        Registered mobile receive-codebook name.
    protocol:
        Registered protocol arm to attach, or ``None`` for protocol-less
        trials (pure search probes, workload traces).
    seed:
        Master seed of the deployment's RNG registry.
    duration_s:
        Trial length; ``None`` uses the scenario's default duration.
    serving_cell:
        Cell the protocol starts attached to.
    start_x:
        Mobile start position override (scenario default when ``None``).
    n_cells:
        Base stations to deploy (2..3 on the standard street grid).
    bs_beamwidth_deg:
        Base-station codebook beamwidth override (paper default when
        ``None``); the bench suites use this for SSB-dense variants.
    config:
        :class:`~repro.core.config.SilentTrackerConfig` handed to the
        protocol factory (``None`` = paper defaults).
    deployment_config:
        :class:`~repro.net.deployment.DeploymentConfig` template for
        channel/frame/RACH overrides.

    Axis names are validated against the registries at construction
    time, so a typo fails here — with the valid choices listed — rather
    than deep inside a trial.
    """

    scenario: str = "walk"
    codebook: str = "narrow"
    protocol: Optional[str] = None
    seed: int = 1
    duration_s: Optional[float] = None
    serving_cell: str = "cellA"
    start_x: Optional[float] = None
    n_cells: int = 3
    bs_beamwidth_deg: Optional[float] = None
    config: Optional[object] = None
    deployment_config: Optional[object] = None

    def __post_init__(self) -> None:
        SCENARIOS.get(self.scenario)
        CODEBOOKS.get(self.codebook)
        if self.protocol is not None:
            PROTOCOLS.get(self.protocol)
        if self.duration_s is not None and not (
            math.isfinite(self.duration_s) and self.duration_s >= 0.0
        ):
            raise ValueError(
                f"duration_s must be finite and non-negative, "
                f"got {self.duration_s!r}"
            )

    @property
    def resolved_duration_s(self) -> float:
        """``duration_s``, falling back to the scenario default."""
        if self.duration_s is not None:
            return self.duration_s
        return SCENARIOS.get(self.scenario).duration_s


@dataclass(frozen=True)
class TrialResult:
    """Common envelope around one trial's per-experiment payload.

    ``payload`` is the experiment's own trial dataclass (e.g.
    :class:`~repro.experiments.fig2a.SearchTrialResult`); the envelope
    carries the grid coordinates that produced it, so downstream code
    can aggregate results of different kinds uniformly.
    """

    experiment: str
    scenario: str
    protocol: Optional[str]
    codebook: str
    seed: int
    duration_s: Optional[float]
    payload: object

    def to_dict(self) -> dict:
        """JSON-friendly dict (payload dataclasses flattened)."""
        payload = self.payload
        if dataclasses.is_dataclass(payload) and not isinstance(payload, type):
            payload = dataclasses.asdict(payload)
        return {
            "experiment": self.experiment,
            "scenario": self.scenario,
            "protocol": self.protocol,
            "codebook": self.codebook,
            "seed": self.seed,
            "duration_s": self.duration_s,
            "payload": payload,
        }


class Session:
    """Context-managed lifecycle of one deployment + protocol trial.

    Building the session builds the deployment (stations, mobile,
    trajectory) from the spec.  :meth:`attach_protocol` constructs a
    registered protocol arm against it; :meth:`run` starts the protocol
    (once) and advances simulated time; leaving the ``with`` block stops
    the protocol and the burst tasks **unconditionally** — a trial body
    that raises can no longer leak a running watchdog into the caller.
    """

    def __init__(self, spec: Optional[TrialSpec] = None, **spec_kwargs) -> None:
        from repro.experiments.scenarios import build_cell_edge_deployment

        if spec is None:
            spec = TrialSpec(**spec_kwargs)
        elif spec_kwargs:
            raise TypeError("pass either a TrialSpec or keyword fields, not both")
        self.spec = spec
        self.deployment, self.mobile = build_cell_edge_deployment(
            spec.seed,
            mobile_codebook=spec.codebook,
            scenario=spec.scenario,
            config=spec.deployment_config,
            n_cells=spec.n_cells,
            start_x=spec.start_x,
            bs_beamwidth_deg=spec.bs_beamwidth_deg,
        )
        self.protocol = None
        self.protocol_name: Optional[str] = None
        self._protocol_started = False
        self._closed = False
        self._ran_s = 0.0

    # ----------------------------------------------------------------- wiring
    def attach_protocol(self, name: Optional[str] = None, config=_UNSET):
        """Construct the protocol arm ``name`` (default: the spec's).

        Returns the protocol instance; it is started lazily by the first
        :meth:`run` so construction order matches the pre-Session trial
        code exactly.
        """
        self._check_open()
        if self.protocol is not None:
            raise SessionError(
                f"protocol {self.protocol_name!r} already attached"
            )
        name = self.spec.protocol if name is None else name
        if name is None:
            raise SessionError(
                "no protocol to attach: set TrialSpec.protocol or pass name="
            )
        effective = self.spec.config if config is _UNSET else config
        self.protocol = make_protocol(
            name, self.deployment, self.mobile, self.spec.serving_cell, effective
        )
        self.protocol_name = name
        return self.protocol

    def attach_listener(self, listener):
        """Attach a raw :class:`~repro.net.mobile.BurstListener`."""
        self._check_open()
        self.mobile.attach_listener(listener)
        return listener

    # ---------------------------------------------------------------- running
    def run(self, duration_s: Optional[float] = None) -> float:
        """Advance simulated time; returns the duration actually run.

        Starts the attached protocol on the first call.  ``None`` runs
        for the spec duration (scenario default unless overridden).
        """
        self._check_open()
        if self.protocol is not None and not self._protocol_started:
            self.protocol.start()
            self._protocol_started = True
        duration = (
            self.spec.resolved_duration_s if duration_s is None else duration_s
        )
        self.deployment.run(duration)
        self._ran_s += duration
        return duration

    @property
    def elapsed_s(self) -> float:
        """Total simulated time advanced through this session."""
        return self._ran_s

    def close(self) -> None:
        """Stop the attached protocol and all burst tasks.

        Idempotent; called automatically on ``with`` exit.  The
        protocol's ``stop()`` runs even when no :meth:`run` started it,
        so an attached arm never outlives its session, and it runs even
        when the deployment teardown would fail, and vice versa.
        """
        if self._closed:
            return
        self._closed = True
        try:
            if self.protocol is not None:
                self.protocol.stop()
        finally:
            self.deployment.stop()

    def _check_open(self) -> None:
        if self._closed:
            raise SessionError("session is closed")

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # ---------------------------------------------------------------- results
    def result(self, experiment: str, payload) -> TrialResult:
        """Wrap a per-experiment payload in the common envelope."""
        return TrialResult(
            experiment=experiment,
            scenario=self.spec.scenario,
            protocol=self.protocol_name or self.spec.protocol,
            codebook=self.spec.codebook,
            seed=self.spec.seed,
            duration_s=self._ran_s if self._ran_s else None,
            payload=payload,
        )


def run_trial(
    experiment: str,
    spec: Optional[TrialSpec] = None,
    *,
    arm: Optional[str] = None,
    params: Optional[Mapping] = None,
    **spec_kwargs,
) -> TrialResult:
    """Execute one grid point of a registered experiment kind.

    ``arm`` is the value of the kind's protocol axis; when omitted it is
    taken from the spec field the kind declares (``codebook`` or
    ``protocol``).  ``params`` are the kind-specific knobs a campaign
    cell would carry (``deadline_s``, ``duration_s``, ...).  Returns the
    decoded trial payload inside a :class:`TrialResult` envelope.

    Every spec field is either mapped onto the cell (``duration_s``
    through the kind's declared ``duration_param``, ``config`` through
    the overrides for kinds that honor them, ``codebook`` through the
    axis or the ``codebook`` param) or — when the kind cannot honor it —
    rejected, so the returned envelope never misreports the coordinates
    that produced the payload.  For full deployment control (serving
    cell, start position, cell count, PHY overrides) drive a
    :class:`Session` directly.
    """
    kind = EXPERIMENTS.get(experiment)
    if spec is None:
        spec = TrialSpec(**spec_kwargs)
    elif spec_kwargs:
        raise TypeError("pass either a TrialSpec or keyword fields, not both")
    if arm is None:
        if kind.axis == "codebook":
            arm = spec.codebook
        elif kind.axis == "protocol":
            arm = spec.protocol
        if arm is None:
            raise RegistryError(
                f"experiment {experiment!r} needs an explicit arm= "
                f"({kind.protocol_axis}; known: "
                f"{', '.join(sorted(kind.protocol_names()))})"
            )
    valid = kind.protocol_names()
    if valid is not None and arm not in valid:
        raise UnknownNameError(kind.protocol_axis, arm, tuple(valid))

    unsupported = []
    if spec.serving_cell != "cellA":
        unsupported.append("serving_cell")
    if spec.start_x is not None:
        unsupported.append("start_x")
    if spec.n_cells != 3:
        unsupported.append("n_cells")
    if spec.bs_beamwidth_deg is not None:
        unsupported.append("bs_beamwidth_deg")
    if spec.deployment_config is not None:
        unsupported.append("deployment_config")
    if spec.config is not None and not kind.accepts_config:
        unsupported.append("config")
    if spec.duration_s is not None and kind.duration_param is None:
        unsupported.append("duration_s")
    if kind.axis == "custom" and spec.codebook != "narrow":
        unsupported.append("codebook")
    if unsupported:
        raise RegistryError(
            f"experiment {experiment!r} cannot honor TrialSpec field(s) "
            f"{', '.join(unsupported)}; drive a Session directly for full "
            f"deployment control"
        )

    from repro.campaign.spec import CampaignCell, config_to_overrides

    cell_params = dict(params or {})
    if spec.duration_s is not None:
        cell_params.setdefault(kind.duration_param, spec.duration_s)
    if kind.axis == "protocol":
        cell_params.setdefault("codebook", spec.codebook)
    cell = CampaignCell(
        experiment=experiment,
        scenario=spec.scenario,
        protocol=arm,
        override_label="default",
        overrides=config_to_overrides(spec.config),
        seed_index=0,
        seed=spec.seed,
        params=cell_params,
    )
    payload = kind.run(cell)
    return TrialResult(
        experiment=experiment,
        scenario=spec.scenario,
        protocol=spec.protocol if kind.axis != "protocol" else arm,
        codebook=spec.codebook if kind.axis != "codebook" else arm,
        seed=spec.seed,
        duration_s=spec.duration_s,
        payload=kind.decode(payload),
    )
