"""A site: N SimReaders over one tag field, sharded across the pool.

A site hosts one :class:`~repro.reader.SimReader` per
:class:`~repro.site.topology.ReaderPlacement`.  Every reader gets its own
:class:`~repro.world.scene.Scene` view of the *same* tag population (same
EPCs, same positions, same modulation phase offsets — all derived from the
site seed alone), its own antenna, its own rotated channel plan from the
coordinator, and its own independent RNG streams.  Cross-reader coupling —
co-channel and adjacent-channel interference — is folded in as a static
per-reader read-loss penalty computed by the
:class:`~repro.site.channels.ChannelCoordinator` before any reader runs,
so each reader's simulation is a pure function of ``(config, reader_id)``.

That purity is what makes sharding trivial *and* provable:
:func:`simulate_site` hands one task per reader to
:func:`repro.experiments.parallel.parallel_map` (one worker per reader
group), folds every reader's report rows through the
:class:`~repro.site.fusion.FusionLayer` (a commutative, idempotent fold)
in one batch, and absorbs worker traces in reader order — so
``workers=N`` is byte-identical to ``workers=1`` for every N.  The
differential tests in ``tests/site/test_differential.py`` pin exactly
that, over several topologies and hypothesis-drawn seeds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

import numpy as np

from repro.experiments.parallel import parallel_map
from repro.faults.site import SiteFaultPlan
from repro.gen2.epc import EPC, random_epc_population
from repro.gen2.inventory import InventoryLog
from repro.obs.tracer import get_tracer
from repro.reader.reader import SimReader
from repro.runtime.oracle import reference_enabled
from repro.site.channels import ChannelCoordinator
from repro.site.fusion import FusionLayer, TagReport, render_rows
from repro.site.topology import SiteTopology
from repro.util.jsontext import (
    document_bytes,
    dumps_at,
    render_array,
    render_object,
)
from repro.util.rng import RngStream
from repro.world.motion import CircularPath, Stationary
from repro.world.scene import Antenna, Scene, TagInstance

__all__ = [
    "SiteConfig",
    "SiteRun",
    "simulate_site",
    "site_epcs",
    "site_tags",
    "mobile_tag_indices",
    "reachable_tag_indices",
    "build_reader",
    "run_faulted_interval",
    "CULL_MARGIN_REL",
]

#: Relative width of the visibility-culling guard band.  A tag is culled
#: from a reader's shard only when its whole-trajectory distance lower
#: bound exceeds the antenna range by more than ``CULL_MARGIN_REL *
#: (range_m + 1)`` — three orders of magnitude wider than the 1e-9 band
#: :meth:`repro.world.scene.Scene._range_entries` folds with, so the
#: culled shard retains a strict superset of every tag the scene could
#: ever place in range and the simulation output is provably unchanged
#: (the differential tests pin it byte-for-byte).
CULL_MARGIN_REL = 1e-6


@dataclass(frozen=True)
class SiteConfig:
    """Everything a worker needs to rebuild one reader of the site.

    The config is pure data (picklable, ``to_dict``/``from_dict``
    round-trippable), and every random draw any reader performs is keyed on
    ``seed`` plus a stable component name — rule 1 of the deterministic
    fan-out contract in :mod:`repro.experiments.parallel`.
    """

    topology: SiteTopology
    seed: int = 0
    duration_s: float = 1.0
    #: Per-read CRC-loss probability every reader suffers even alone
    #: (cable loss, ambient noise) — the redundancy experiments' miss knob.
    base_read_loss: float = 0.0
    coordinator: ChannelCoordinator = field(default_factory=ChannelCoordinator)
    #: Fleet-scale failure scenario (reader outages, degradations, jams);
    #: the empty plan is a strict no-op — see :mod:`repro.faults.site`.
    faults: SiteFaultPlan = field(default_factory=SiteFaultPlan)
    #: How many tags orbit the field centre instead of sitting on the grid
    #: (evenly sampled from the population; they cross reader zones).
    n_mobile: int = 0
    #: Tangential speed of the mobile tags.
    mobile_speed_mps: float = 0.5

    def __post_init__(self) -> None:
        if self.duration_s <= 0:
            raise ValueError("site duration must be positive")
        if not 0.0 <= self.base_read_loss < 1.0:
            raise ValueError("base read loss must be a probability")
        if not 0 <= self.n_mobile <= self.topology.n_tags:
            raise ValueError(
                "mobile tag count must lie within the population"
            )
        if self.mobile_speed_mps <= 0:
            raise ValueError("mobile tag speed must be positive")

    def to_dict(self) -> Dict[str, object]:
        """Primitive dict form — what crosses the process boundary.

        The resilience fields (``faults``, ``n_mobile``,
        ``mobile_speed_mps``) are *omitted at their defaults* so the
        serialised form — and every canonical site payload embedding it —
        is byte-identical to the pre-resilience format for fault-free,
        all-stationary configs (the golden files depend on this).
        """
        data: Dict[str, object] = {
            "topology": self.topology.to_dict(),
            "seed": self.seed,
            "duration_s": round(self.duration_s, 9),
            "base_read_loss": round(self.base_read_loss, 9),
            "coordinator": self.coordinator.to_dict(),
        }
        if not self.faults.is_noop:
            data["faults"] = self.faults.to_dict()
        if self.n_mobile:
            data["n_mobile"] = self.n_mobile
            data["mobile_speed_mps"] = round(self.mobile_speed_mps, 9)
        return data

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "SiteConfig":
        faults = data.get("faults")
        return cls(
            topology=SiteTopology.from_dict(data["topology"]),
            seed=int(data["seed"]),
            duration_s=float(data["duration_s"]),
            base_read_loss=float(data["base_read_loss"]),
            coordinator=ChannelCoordinator.from_dict(data["coordinator"]),
            faults=(
                SiteFaultPlan.from_dict(faults)
                if faults
                else SiteFaultPlan.none()
            ),
            n_mobile=int(data.get("n_mobile", 0)),
            mobile_speed_mps=float(data.get("mobile_speed_mps", 0.5)),
        )


# ----------------------------------------------------------------------
# Deterministic construction (shared by every worker)
# ----------------------------------------------------------------------
#: Per-process memo of ``(seed, n_tags) -> EPC population``.  EPCs are
#: frozen, so sharing one population across every reader shard built in
#: the same worker process is safe — and at 10k+ tags the draw loop is
#: the dominant per-shard construction cost without it.
_EPC_MEMO: Dict[Tuple[int, int], List[EPC]] = {}
_EPC_MEMO_LIMIT = 8


def site_epcs(config: SiteConfig) -> List[EPC]:
    """The site's tag identities — a pure function of the site seed."""
    key = (config.seed, config.topology.n_tags)
    epcs = _EPC_MEMO.get(key)
    if epcs is None:
        epcs = random_epc_population(
            config.topology.n_tags,
            rng=RngStream(config.seed).child("site-epcs"),
        )
        if len(_EPC_MEMO) >= _EPC_MEMO_LIMIT:
            _EPC_MEMO.clear()
        _EPC_MEMO[key] = epcs
    return epcs


def reachable_tag_indices(
    config: SiteConfig, reader_id: int, *, range_scale: float = 1.0
) -> Optional[List[int]]:
    """Indices of every tag reader ``reader_id`` could conceivably power.

    The visibility cull behind the site-scale fast path: a tag is dropped
    from the reader's shard only when the *lower bound* of its distance to
    the antenna — over the tag's whole trajectory — exceeds the effective
    antenna range by more than the conservative :data:`CULL_MARGIN_REL`
    band.  The scene applies the same trajectory bounds with a far tighter
    (1e-9) guard when it folds its per-round range checks, so every tag
    the scene would ever report in range survives the cull; removing the
    rest only renumbers tag indices, which no output surface observes
    (observations carry EPCs, and every RNG stream draws by participant
    count, never by absolute index).

    Returns ascending indices, or ``None`` when every tag is reachable
    (the caller can then skip subsetting entirely — the ring layouts).
    """
    placement = config.topology.reader(reader_id)
    apos = np.asarray(placement.position, dtype=float)
    range_m = placement.range_m * range_scale
    limit = range_m + CULL_MARGIN_REL * (range_m + 1.0)
    positions = config.topology.tag_positions()
    grid = np.asarray(positions, dtype=float)
    dist = np.sqrt(((grid - apos) ** 2).sum(axis=1))
    mobile = mobile_tag_indices(config)
    for index in mobile:
        bounds = _mobile_trajectory(
            config, positions[index]
        ).distance_bounds(apos)
        # Unbounded trajectories can come arbitrarily close: never cull.
        dist[index] = bounds[0] if bounds is not None else 0.0
    keep = dist <= limit
    if bool(keep.all()):
        return None
    return [int(i) for i in np.nonzero(keep)[0]]


def mobile_tag_indices(config: SiteConfig) -> FrozenSet[int]:
    """Which tag indices orbit the field (evenly sampled, no randomness)."""
    if config.n_mobile <= 0:
        return frozenset()
    n = config.topology.n_tags
    return frozenset(
        (i * n) // config.n_mobile for i in range(config.n_mobile)
    )


def _mobile_trajectory(
    config: SiteConfig, position: Tuple[float, float, float]
) -> CircularPath:
    """The orbit a mobile tag follows, derived from its grid slot alone.

    The tag circles the field centre through its own grid position (radius
    clamped up to one grid pitch so centre tags still move), so the orbit
    sweeps across reader zones without ever leaving the site.  Pure
    geometry — no RNG — which keeps the placement stream's draw order
    identical to the all-stationary layout.
    """
    cx, cy, cz = config.topology.field_center
    dx = position[0] - cx
    dy = position[1] - cy
    radius = max(math.hypot(dx, dy), config.topology.spacing_m)
    return CircularPath(
        (cx, cy, cz),
        radius=radius,
        speed=config.mobile_speed_mps,
        phase0=math.atan2(dy, dx),
        z=position[2],
    )


def site_tags(
    config: SiteConfig, indices: Optional[Sequence[int]] = None
) -> List[TagInstance]:
    """The shared tag field every reader's scene views.

    EPCs, grid positions and modulation phase offsets depend only on the
    site seed and topology, so all workers rebuild bit-identical tags.
    Mobile tags (``config.n_mobile``) ride deterministic orbits derived
    from their grid slot; the placement RNG draws exactly one phase offset
    per tag either way, so mobility never perturbs the stationary tags.

    ``indices`` restricts the returned instances to a subset of the
    population (ascending tag indices — the visibility cull's output).
    The full population's randomness is always drawn first — one batched
    ``uniform`` call, bit-identical to the historical per-tag scalar
    draws — so the subset's tags are the *same* tags, field for field,
    that the full build would produce at those indices.
    """
    epcs = site_epcs(config)
    placement_rng = RngStream(config.seed).child("site-placement")
    mobile = mobile_tag_indices(config)
    positions = config.topology.tag_positions()
    offsets = placement_rng.uniform(
        0.0, 2.0 * np.pi, size=config.topology.n_tags
    )
    tags = []
    for index in range(len(epcs)) if indices is None else indices:
        position = positions[index]
        if index in mobile:
            trajectory = _mobile_trajectory(config, position)
        else:
            trajectory = Stationary(np.asarray(position, dtype=float))
        tags.append(
            TagInstance(
                epc=epcs[index],
                trajectory=trajectory,
                phase_offset_rad=float(offsets[index]),
            )
        )
    return tags


def build_reader(
    config: SiteConfig,
    reader_id: int,
    *,
    channel_offset: Optional[int] = None,
    interference: Optional[float] = None,
    range_scale: float = 1.0,
    seed_salt: str = "",
    cull: Optional[bool] = None,
) -> SimReader:
    """One reader's fully seeded view of the site.

    Pure against ``(config, reader_id)`` plus the explicit overrides:
    seeds are derived per reader by name, the channel offset and
    interference penalty default to the coordinator's static full-fleet
    plan, and the shared tag field is rebuilt from the site seed.  Two
    calls — in any two processes — return readers that will produce
    byte-identical observation streams.

    The keyword overrides exist for the :class:`SiteSupervisor`: after a
    re-plan over the surviving topology it hands each reader its new
    ``channel_offset``/``interference`` pair, boosts coverage by scaling
    the antenna range (``range_scale``) and salts the per-epoch seeds
    (``seed_salt``) so epochs draw independent randomness.  All defaults
    reproduce the static-plan reader exactly.

    ``cull`` controls the visibility fast path (default: on, off under
    ``REPRO_REFERENCE=1``): when on, the scene is built
    from :func:`reachable_tag_indices` only — behaviour-neutral by the
    margin argument documented there, but linear in the reader's *zone*
    rather than the whole site.  Culling uses the boosted range, so a
    supervisor coverage boost widens the shard accordingly.
    """
    placement = config.topology.reader(reader_id)
    streams = RngStream(config.seed)
    coordinator = config.coordinator
    if channel_offset is None:
        channel_offset = coordinator.assign(config.topology)[reader_id]
    if interference is None:
        interference = coordinator.interference_loss(config.topology)[
            reader_id
        ]
    if cull is None:
        cull = not reference_enabled()
    indices = (
        reachable_tag_indices(config, reader_id, range_scale=range_scale)
        if cull
        else None
    )
    scene = Scene(
        antennas=[
            Antenna(
                np.asarray(placement.position, dtype=float),
                range_m=placement.range_m * range_scale,
                name=f"reader-{reader_id}",
            )
        ],
        tags=site_tags(config, indices),
        channel_plan=coordinator.reader_plan(channel_offset),
        seed=streams.child_seed(f"site-scene-{reader_id}{seed_salt}"),
    )
    loss = min(config.base_read_loss + interference, 0.95)
    return SimReader(
        scene,
        seed=streams.child_seed(f"site-reader-{reader_id}{seed_salt}"),
        read_loss_probability=loss,
    )


# ----------------------------------------------------------------------
# The sharded run
# ----------------------------------------------------------------------
def run_faulted_interval(
    reader: SimReader,
    config: SiteConfig,
    reader_id: int,
    duration_s: float,
    fault_salt: str = "",
) -> Tuple[list, InventoryLog, Dict[str, object]]:
    """Run one reader for ``duration_s`` under the site fault plan.

    Splits the interval into the reader's up-segments (outage windows are
    skipped by free-running the clock — the box is simply gone), merges
    the segment logs, then strips jammed/degraded observations.  Returns
    ``(observations, merged_log, fault_stats)``.  Shared by the one-shot
    site worker and the supervisor's epoch worker (which salts the
    degradation stream per epoch via ``fault_salt``).
    """
    faults = config.faults
    t_start = reader.time_s
    t_end = t_start + duration_s
    outages = faults.outages_for(reader_id)
    observations: list = []
    n_truncated = 0
    log: Optional[InventoryLog] = None
    for seg_start, seg_end in faults.up_segments(reader_id, t_start, t_end):
        if reader.time_s < seg_start:
            reader.advance_clock(seg_start - reader.time_s)
        seg_duration = seg_end - reader.time_s
        if seg_duration <= 0:
            continue
        seg_obs, seg_log = reader.run_duration(seg_duration)
        for obs in seg_obs:
            # The engine settles whole rounds, so a round capped at the
            # segment deadline can read marginally past it — but a reader
            # that dies at t cannot have read at t: truncate at the
            # outage instant.
            if any(o.covers(obs.time_s) for o in outages):
                n_truncated += 1
            else:
                observations.append(obs)
        if log is None:
            log = seg_log
        else:
            log.merge(seg_log)
    if log is None:
        log = InventoryLog(start_time_s=t_start, end_time_s=t_start)
    if reader.time_s < t_end:
        reader.advance_clock(t_end - reader.time_s)
    kept, n_jammed, n_degraded = faults.filter_observations(
        observations, reader_id, config.seed, salt=fault_salt
    )
    stats = {
        "down_s": round(faults.down_time_s(reader_id, t_start, t_end), 9),
        "n_outages": sum(
            1 for o in outages if o.at_s < t_end and o.up_at_s > t_start
        ),
        "n_jammed": n_jammed,
        "n_degraded": n_degraded,
        "n_truncated": n_truncated,
    }
    return kept, log, stats


def _simulate_reader(
    config_dict: Dict[str, object], reader_id: int, cull: bool = True
) -> dict:
    """Worker task: run one reader for the site duration.

    Module-level and pure against its (picklable) arguments, per the
    :func:`parallel_map` contract.  Returns primitives only.  Readers the
    fault plan never touches take the exact pre-resilience path, so a
    fault-free site run stays byte-identical to the pre-PR output.  The
    cull decision rides in the task tuple (not the environment) so every
    worker — however spawned — shards identically.
    """
    config = SiteConfig.from_dict(config_dict)
    reader = build_reader(config, reader_id, cull=cull)
    tracer = get_tracer()
    span = None
    if tracer.enabled:
        span = tracer.begin(
            "site_reader",
            t=reader.time_s,
            category="site",
            reader=reader_id,
            read_loss=round(reader.engine.read_loss_probability, 9),
            n_tags=len(reader.scene.tags),
        )
    fault_stats: Optional[Dict[str, object]] = None
    if config.faults.reader_noop(reader_id):
        observations, log = reader.run_duration(config.duration_s)
    else:
        observations, log, fault_stats = run_faulted_interval(
            reader, config, reader_id, config.duration_s
        )
    if span is not None:
        tracer.end(
            span,
            t=reader.time_s,
            n_reports=len(observations),
            n_rounds=log.n_rounds,
        )
    summary = {
        "reader_id": reader_id,
        "reports": [
            TagReport.from_observation(obs, reader_id).to_row()
            for obs in observations
        ],
        "n_rounds": log.n_rounds,
        "n_slots": log.n_slots,
        "n_lost": log.n_lost,
        "duration_s": round(log.duration_s, 9),
        "read_loss_probability": round(
            reader.engine.read_loss_probability, 9
        ),
    }
    if fault_stats is not None:
        summary["faults"] = fault_stats
    return summary


@dataclass
class SiteRun:
    """One simulated site interval: per-reader summaries plus the fusion."""

    config: SiteConfig
    reader_summaries: List[dict]
    fusion: FusionLayer
    truth_epc_values: List[int]

    # ------------------------------------------------------------------
    @property
    def n_readers(self) -> int:
        return len(self.reader_summaries)

    def missed_epc_values(self) -> List[int]:
        """Tags no reader reported during the interval, ascending."""
        seen = set(self.fusion.epc_values())
        return [value for value in self.truth_epc_values if value not in seen]

    @property
    def missed_rate(self) -> float:
        """Fraction of the true population never reported by any reader."""
        return len(self.missed_epc_values()) / len(self.truth_epc_values)

    @property
    def aggregate_reports(self) -> int:
        """Distinct reads fused across every reader."""
        return self.fusion.n_reports

    def reports_per_reader(self) -> Dict[int, int]:
        """Distinct reads each reader contributed (0 for silent readers)."""
        counts = self.fusion.reports_by_reader()
        return {
            summary["reader_id"]: counts.get(summary["reader_id"], 0)
            for summary in self.reader_summaries
        }

    @property
    def mean_reader_reports(self) -> float:
        """Mean distinct reads per reader — the per-reader throughput."""
        per_reader = self.reports_per_reader()
        return sum(per_reader.values()) / len(per_reader)

    def health_report(self) -> Dict[str, object]:
        """Site-level health verdict for this interval.

        Convenience wrapper around
        :class:`repro.obs.health.SiteHealthMonitor` (imported lazily —
        the health layer sits above the site layer) scoring just this
        run; for rolling multi-interval SLOs hold a monitor yourself and
        feed it every run.
        """
        from repro.obs.health.monitor import SiteHealthMonitor

        monitor = SiteHealthMonitor()
        monitor.observe_run(self)
        return monitor.report(run=self)

    # ------------------------------------------------------------------
    def canonical(self) -> Dict[str, object]:
        """Canonical JSON payload: the byte-equality surface.

        Two runs of the same config — at any worker counts — must
        serialise this identically; the differential tests compare the
        rendered bytes.
        """
        return {
            "config": self.config.to_dict(),
            "readers": self.reader_summaries,
            "fusion": self.fusion.snapshot(),
            "missed": self._missed_hex(),
        }

    def _missed_hex(self) -> List[str]:
        return [format(v, "x") for v in self.missed_epc_values()]

    def canonical_bytes(self) -> bytes:
        """:meth:`canonical` rendered to the exact comparison bytes.

        Byte for byte ``json.dumps(self.canonical(), indent=2,
        sort_keys=True) + "\\n"``, rendered straight from the reader rows
        and the fusion state (:func:`render_rows`,
        :meth:`FusionLayer.render_snapshot`) instead of through the
        pure-Python indenting encoder.  The stdlib rendering of
        :meth:`canonical` stays the oracle.
        """
        reader_pad = "    "
        field_pad = reader_pad + "  "
        readers = [
            render_object(
                {
                    key: (
                        render_rows(value, field_pad)
                        if key == "reports"
                        else dumps_at(value, field_pad)
                    )
                    for key, value in summary.items()
                },
                reader_pad,
            )
            for summary in self.reader_summaries
        ]
        return document_bytes(
            {
                "config": dumps_at(self.config.to_dict(), "  "),
                "readers": render_array(readers, "  "),
                "fusion": self.fusion.render_snapshot("  "),
                "missed": dumps_at(self._missed_hex(), "  "),
            }
        )


def simulate_site(
    config: SiteConfig, workers: Optional[int] = None
) -> SiteRun:
    """Simulate every reader of the site; fuse reports in reader order.

    ``workers`` has the :func:`parallel_map` semantics (``None``/``0``/``1``
    sequential — the behavioural reference; ``-1`` one per core).  One task
    per reader fans out, which both saturates the pool for big sites and
    keeps each worker's RNG state private to one reader.

    Visibility-culled shards and columnar fusion are on unless
    ``REPRO_REFERENCE=1`` turns them (and the C kernel) to their oracles;
    either way :meth:`SiteRun.canonical_bytes` is byte-identical at every
    worker count (:func:`repro.runtime.oracle.differential`).
    """
    cull = not reference_enabled()
    config_dict = config.to_dict()
    tasks: List[Tuple[Dict[str, object], int, bool]] = [
        (config_dict, placement.reader_id, cull)
        for placement in config.topology.readers
    ]
    summaries = parallel_map(_simulate_reader, tasks, workers=workers)
    fusion = FusionLayer()
    # The fold is commutative: one batch of every reader's rows fuses to
    # the same state as one batch per reader, in a single pass.
    fusion.ingest_rows(
        [row for summary in summaries for row in summary["reports"]]
    )
    return SiteRun(
        config=config,
        reader_summaries=summaries,
        fusion=fusion,
        truth_epc_values=sorted(epc.value for epc in site_epcs(config)),
    )
