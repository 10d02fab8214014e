"""Declarative scenario registry for design-space exploration.

A :class:`Scenario` is one point of the design space — the cross product
of three axis groups:

- **architecture** (:class:`ArchitectureSpec`) — crossbar pool kind
  (homogeneous / Table-II heterogeneous), crossbar dimension, pool size,
  NoC mesh dims;
- **workload** (:class:`WorkloadSpec`) — which Table-I twin at which
  scale, and which spike-profile family drives the packet/energy
  objectives (``uniform`` weights, or simulated
  :mod:`repro.profile.workloads` stroke / hotspot / noise frames);
- **formulation** (:class:`FormulationSpec`) — the mapping-pipeline stage
  prefix (area, +SNU, +PGO), :class:`FormulationOptions` toggles, and
  optional bit-precision (:class:`~repro.mapping.precision.PrecisionSpec`).

Every spec is a frozen plain-data dataclass, so scenarios are picklable,
hashable, and fingerprint deterministically: :meth:`Scenario.fingerprint`
reuses :mod:`repro.mapping.fingerprint` over the *constructed* network
and pool plus the remaining axis payloads — two scenarios that build the
same instance share a fingerprint no matter how they were spelled.

A :class:`DesignSpace` holds the axis value lists and enumerates the
cross product; :class:`ScenarioRegistry` memoizes the expensive
constructions (twin networks and simulated spike profiles) across the
scenarios that share them.
"""

from __future__ import annotations

import itertools
from dataclasses import asdict, dataclass, field
from typing import TYPE_CHECKING

from ..mapping.fingerprint import (
    architecture_fingerprint,
    combine,
    digest,
    network_fingerprint,
    options_fingerprint,
)
from ..mapping.options import STAGES, FormulationOptions, PrecisionSpec

if TYPE_CHECKING:
    from ..batch.engine import BatchJob
    from ..mca.architecture import Architecture
    from ..mca.noc import MeshNoC
    from ..snn.network import Network

ARCHITECTURE_KINDS = ("homogeneous", "heterogeneous")
PROFILE_FAMILIES = ("uniform", "stroke", "hotspot", "noise")


@dataclass(frozen=True)
class ArchitectureSpec:
    """One hardware configuration axis point."""

    kind: str = "heterogeneous"
    dimension: int = 16  # homogeneous crossbar size (ignored for het pools)
    pool_slots_per_type: int = 8  # het pool cap per Table-II type
    slack: float = 1.5  # homogeneous pool output-capacity headroom
    mesh_width: int | None = None  # NoC mesh columns (None = near-square)

    def __post_init__(self) -> None:
        if self.kind not in ARCHITECTURE_KINDS:
            raise ValueError(
                f"unknown architecture kind {self.kind!r}; "
                f"choose from {ARCHITECTURE_KINDS}"
            )
        if self.dimension < 1:
            raise ValueError("dimension must be positive")
        if self.pool_slots_per_type < 1:
            raise ValueError("pool_slots_per_type must be positive")
        if self.mesh_width is not None and self.mesh_width < 1:
            raise ValueError("mesh_width must be positive")

    @property
    def label(self) -> str:
        if self.kind == "homogeneous":
            return f"homo{self.dimension}"
        return f"het{self.pool_slots_per_type}"

    def build(self, network: Network, slices: int = 1) -> Architecture:
        """The crossbar pool for one network (bit-slice aware).

        ``slices`` > 1 multiplies output-capacity demand (each neuron
        occupies that many physical columns), so the pool is headroomed
        accordingly — precision scenarios stay feasible without the
        solver's choices being constrained by pool composition.
        """
        from ..mca.architecture import (
            heterogeneous_architecture,
            homogeneous_architecture,
        )

        if self.kind == "homogeneous":
            return homogeneous_architecture(
                network.num_neurons,
                dimension=self.dimension,
                slack=self.slack * slices,
            )
        return heterogeneous_architecture(
            network.num_neurons,
            max_slots_per_type=self.pool_slots_per_type * slices,
        )

    def noc(self, architecture: Architecture) -> MeshNoC:
        """The mesh this pool's tiles sit on (the latency/hop substrate)."""
        from ..mca.noc import MeshNoC

        return MeshNoC(architecture.num_slots, width=self.mesh_width)


@dataclass(frozen=True)
class WorkloadSpec:
    """One workload axis point: a Table-I twin plus a profile family."""

    network: str = "C"  # Table-I name (A-E)
    scale: float = 1.0  # twin scaling factor
    profile: str = "uniform"
    num_samples: int = 12  # frames simulated for non-uniform profiles
    window: int = 16  # timesteps per simulated frame
    seed: int = 0

    def __post_init__(self) -> None:
        if self.profile not in PROFILE_FAMILIES:
            raise ValueError(
                f"unknown profile family {self.profile!r}; "
                f"choose from {PROFILE_FAMILIES}"
            )
        if self.scale <= 0:
            raise ValueError("scale must be positive")
        if self.num_samples < 1 or self.window < 1:
            raise ValueError("num_samples and window must be positive")

    @property
    def label(self) -> str:
        return f"{self.network}x{self.scale:g}-{self.profile}"


@dataclass(frozen=True)
class FormulationSpec:
    """One formulation axis point: stage prefix + ILP variant knobs."""

    stages: tuple[str, ...] = ("area",)
    options: FormulationOptions = field(default_factory=FormulationOptions)
    precision: PrecisionSpec | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "stages", tuple(self.stages))
        unknown = [s for s in self.stages if s not in STAGES]
        if unknown:
            raise ValueError(f"unknown stages {unknown}; valid: {STAGES}")
        if not self.stages:
            raise ValueError("need at least one pipeline stage")

    @property
    def label(self) -> str:
        tag = "+".join(self.stages)
        if self.precision is not None:
            tag += f"-w{self.precision.weight_bits}c{self.precision.cell_bits}"
        return tag


@dataclass(frozen=True)
class Scenario:
    """One fully specified (architecture, workload, formulation) point."""

    architecture: ArchitectureSpec
    workload: WorkloadSpec
    formulation: FormulationSpec

    @property
    def name(self) -> str:
        return "/".join(
            (self.workload.label, self.architecture.label, self.formulation.label)
        )

    @property
    def slices(self) -> int:
        spec = self.formulation.precision
        return spec.slices if spec is not None else 1

    def payload(self) -> dict:
        """Canonical plain-data view of the full axis choice."""
        return {
            "kind": "scenario",
            "architecture": asdict(self.architecture),
            "workload": asdict(self.workload),
            "formulation": {
                "stages": list(self.formulation.stages),
                "options": asdict(self.formulation.options),
                "precision": (
                    asdict(self.formulation.precision)
                    if self.formulation.precision is not None
                    else None
                ),
            },
        }

    @classmethod
    def from_payload(cls, payload: dict) -> "Scenario":
        """Inverse of :meth:`payload` (see :func:`scenario_from_payload`)."""
        return scenario_from_payload(payload)


class ScenarioRegistry:
    """Builds scenarios into concrete instances, memoizing shared parts.

    Networks are keyed by (name, scale, seed) and spike profiles by
    (workload spec, network) — a grid whose scenarios share a workload
    constructs each twin and simulates each profile exactly once.
    """

    def __init__(self) -> None:
        # A registry exists to build instances and batch jobs, so the
        # solver stack loads when one is made, not inside its first
        # build; the spec dataclasses above stay stdlib-only for clients.
        from ..batch.engine import BatchJob

        self._batch_job = BatchJob
        self._networks: dict[tuple, Network] = {}
        self._profiles: dict[WorkloadSpec, dict[int, int]] = {}
        self._fingerprints: dict[Scenario, str] = {}

    # ------------------------------------------------------------------
    def network(self, workload: WorkloadSpec) -> Network:
        from ..experiments.networks import paper_network

        key = (workload.network, workload.scale)
        if key not in self._networks:
            net = paper_network(workload.network, scale=workload.scale)
            self._networks[key] = net.compact()[0]
        return self._networks[key]

    def profile(self, workload: WorkloadSpec) -> dict[int, int]:
        """Per-neuron spike counts for the workload's profile family.

        ``uniform`` weights every neuron equally (a structural packet
        proxy that needs no simulation); the frame families simulate
        ``num_samples`` generated frames through the profiler.
        """
        if workload not in self._profiles:
            self._profiles[workload] = self._build_profile(workload)
        return self._profiles[workload]

    def _build_profile(self, workload: WorkloadSpec) -> dict[int, int]:
        network = self.network(workload)
        if workload.profile == "uniform":
            return {nid: 1 for nid in network.neuron_ids()}
        from ..profile.profiler import collect_profile
        from ..profile.workloads import hotspot_frames, noise_frames, stroke_frames

        generator = {
            "stroke": stroke_frames,
            "hotspot": hotspot_frames,
            "noise": noise_frames,
        }[workload.profile]
        side = max(1, int(len(network.input_ids()) ** 0.5))
        samples = generator(
            rows=side,
            cols=side,
            num_samples=workload.num_samples,
            seed=workload.seed,
        )
        profile = collect_profile(network, samples, window=workload.window)
        return dict(profile.counts)

    def pool(self, scenario: Scenario) -> Architecture:
        return scenario.architecture.build(
            self.network(scenario.workload), slices=scenario.slices
        )

    # ------------------------------------------------------------------
    def fingerprint(self, scenario: Scenario) -> str:
        """Deterministic content fingerprint of one scenario.

        Built from the *constructed* network and pool (via
        :mod:`repro.mapping.fingerprint`) plus the profile family, stage
        prefix and formulation payloads — spelling-invariant and stable
        across processes, so it keys the persistent run store.
        """
        if scenario not in self._fingerprints:
            parts = [
                network_fingerprint(self.network(scenario.workload)),
                architecture_fingerprint(self.pool(scenario)),
                options_fingerprint(scenario.formulation.options),
                digest(list(scenario.formulation.stages)),
                # The uniform family ignores the simulation knobs, so
                # they stay out of its digest — resuming a store written
                # at a different --num-samples still hits those entries.
                digest(
                    {"profile": "uniform"}
                    if scenario.workload.profile == "uniform"
                    else {
                        "profile": scenario.workload.profile,
                        "num_samples": scenario.workload.num_samples,
                        "window": scenario.workload.window,
                        "seed": scenario.workload.seed,
                    }
                ),
                digest({"mesh_width": scenario.architecture.mesh_width}),
            ]
            if scenario.formulation.precision is not None:
                parts.append(options_fingerprint(scenario.formulation.precision))
            self._fingerprints[scenario] = combine(*parts)
        return self._fingerprints[scenario]

    def to_job(
        self, scenario: Scenario, time_limit: float | None = 10.0
    ) -> BatchJob:
        """The batch job that solves this scenario's mapping pipeline."""
        return self._batch_job(
            name=scenario.name,
            network=self.network(scenario.workload),
            architecture=self.pool(scenario),
            stages=scenario.formulation.stages,
            profile=self.profile(scenario.workload),
            formulation=scenario.formulation.options,
            area_time_limit=time_limit,
            route_time_limit=time_limit,
            precision=scenario.formulation.precision,
        )


@dataclass(frozen=True)
class DesignSpace:
    """Axis value lists whose cross product is the scenario grid."""

    architectures: tuple[ArchitectureSpec, ...]
    workloads: tuple[WorkloadSpec, ...]
    formulations: tuple[FormulationSpec, ...]

    def __post_init__(self) -> None:
        for label, axis in (
            ("architectures", self.architectures),
            ("workloads", self.workloads),
            ("formulations", self.formulations),
        ):
            object.__setattr__(self, label, tuple(axis))
            if not getattr(self, label):
                raise ValueError(f"design space needs at least one {label[:-1]}")

    def __len__(self) -> int:
        return (
            len(self.architectures) * len(self.workloads) * len(self.formulations)
        )

    def scenarios(self) -> list[Scenario]:
        """The full grid, workload-major.

        The order is stable, so the adaptive driver's ties (broken in
        this order) resolve the same way on every run.
        """
        return [
            Scenario(architecture=arch, workload=wl, formulation=form)
            for wl, arch, form in itertools.product(
                self.workloads, self.architectures, self.formulations
            )
        ]


def _spec_from_payload(cls, payload, label: str):
    """Rehydrate one frozen spec dataclass from its ``asdict`` payload.

    The payload is the wire format (``Scenario.payload()`` round-trips
    through JSON), so every failure mode — wrong container type, unknown
    key, invalid value — must surface as a :class:`ValueError` naming the
    offending axis, not a bare ``TypeError`` from the constructor.
    """
    if payload is None:
        payload = {}
    if not isinstance(payload, dict):
        raise ValueError(f"{label} payload must be an object, got {payload!r}")
    try:
        return cls(**payload)
    except TypeError as exc:  # unknown/duplicate keys
        raise ValueError(f"invalid {label} payload: {exc}") from None
    except ValueError as exc:  # the spec's own validation
        raise ValueError(f"invalid {label} payload: {exc}") from None


def formulation_from_payload(payload: dict | None) -> FormulationSpec:
    """Rehydrate a :class:`FormulationSpec` from its payload dict."""
    if payload is None:
        payload = {}
    if not isinstance(payload, dict):
        raise ValueError(f"formulation payload must be an object, got {payload!r}")
    unknown = set(payload) - {"stages", "options", "precision"}
    if unknown:
        raise ValueError(f"invalid formulation payload: unknown keys {sorted(unknown)}")
    # Only an *absent* stages key defaults; an explicit empty list is a
    # malformed request and falls through to FormulationSpec's own check.
    stages = payload.get("stages")
    if stages is None:
        stages = ("area",)
    if isinstance(stages, str) or not isinstance(stages, (list, tuple)):
        raise ValueError(f"formulation stages must be a list, got {stages!r}")
    options = _spec_from_payload(
        FormulationOptions, payload.get("options"), "formulation options"
    )
    precision = payload.get("precision")
    if precision is not None:
        precision = _spec_from_payload(PrecisionSpec, precision, "precision")
    try:
        return FormulationSpec(
            stages=tuple(stages), options=options, precision=precision
        )
    except ValueError as exc:
        raise ValueError(f"invalid formulation payload: {exc}") from None


def scenario_from_payload(payload: dict) -> Scenario:
    """Rehydrate a :class:`Scenario` from its :meth:`Scenario.payload` dict.

    This is the service wire format: a JSON object with ``architecture``,
    ``workload`` and ``formulation`` sections (each optional — missing
    sections take the spec defaults), exactly what :meth:`Scenario.payload`
    emits and what the run store records per entry.  Raises
    :class:`ValueError` with a section-qualified message on any malformed
    input, so HTTP handlers can map it straight to a 400.
    """
    if not isinstance(payload, dict):
        raise ValueError(f"scenario payload must be an object, got {payload!r}")
    kind = payload.get("kind", "scenario")
    if kind != "scenario":
        raise ValueError(f"unknown payload kind {kind!r} (expected 'scenario')")
    unknown = set(payload) - {"kind", "architecture", "workload", "formulation"}
    if unknown:
        raise ValueError(f"invalid scenario payload: unknown keys {sorted(unknown)}")
    return Scenario(
        architecture=_spec_from_payload(
            ArchitectureSpec, payload.get("architecture"), "architecture"
        ),
        workload=_spec_from_payload(WorkloadSpec, payload.get("workload"), "workload"),
        formulation=formulation_from_payload(payload.get("formulation")),
    )


def default_space(
    networks: tuple[str, ...] = ("C", "E"),
    scale: float = 0.12,
    profiles: tuple[str, ...] = ("uniform", "hotspot"),
    dimensions: tuple[int, ...] = (12, 16),
    include_heterogeneous: bool = True,
    include_snu: bool = True,
    include_pgo: bool = False,
    include_precision: bool = False,
    num_samples: int = 12,
) -> DesignSpace:
    """The stock exploration grid: >= 24 scenarios at laptop budgets.

    Defaults: 3 architectures (12x12 / 16x16 homogeneous pools + the
    Table-II heterogeneous pool) x 4 workloads (two Table-I twins x two
    profile families) x 2 formulations (area, area+snu) = 24 scenarios.
    """
    architectures = [
        ArchitectureSpec(kind="homogeneous", dimension=dim) for dim in dimensions
    ]
    if include_heterogeneous:
        architectures.append(ArchitectureSpec(kind="heterogeneous"))
    workloads = [
        WorkloadSpec(network=name, scale=scale, profile=prof, num_samples=num_samples)
        for name in networks
        for prof in profiles
    ]
    formulations = [FormulationSpec(stages=("area",))]
    if include_snu:
        formulations.append(FormulationSpec(stages=("area", "snu")))
    if include_pgo:
        formulations.append(FormulationSpec(stages=("area", "snu", "pgo")))
    if include_precision:
        formulations.append(
            FormulationSpec(
                stages=("area",), precision=PrecisionSpec(weight_bits=4, cell_bits=2)
            )
        )
    return DesignSpace(
        architectures=tuple(architectures),
        workloads=tuple(workloads),
        formulations=tuple(formulations),
    )
