"""Which public functions make up each layer, and the per-layer metrics.

Each layer is a set of public callables of the simulator; a traced run
wraps them all (see :mod:`perfbench.spans`).  Module-level functions are
wrapped in the module whose globals the caller resolves them from (for
example ``parallel_map`` as ``repro.site.site`` sees it), and methods on
the class that defines them, so every call the workloads make lands in a
span.
"""

from __future__ import annotations

import statistics
from typing import Dict, List

from perfbench.spans import LayerTimes, Probe


def round_counts(args, kwargs, log) -> Dict[str, float]:
    return {"gen2.slots": log.n_slots, "gen2.single": log.n_single}


def _observe_batch(args, kwargs, observations) -> Dict[str, float]:
    return {"world.observations": len(observations)}


def _observe_one(args, kwargs, observation) -> Dict[str, float]:
    return {"world.observations": 1}


def _motion_obs(args, kwargs, result) -> Dict[str, float]:
    # ``observe_all`` takes any iterable; every caller passes a list.
    observations = args[1] if len(args) > 1 else kwargs["observations"]
    return {"core.motion.observations": len(observations)}


def _plan(args, kwargs, plan) -> Dict[str, float]:
    selection = plan.selection
    return {
        "core.scheduler.bitmasks": len(selection.bitmasks),
        "core.scheduler.targets": selection.n_targets,
        "core.scheduler.collateral": selection.n_collateral,
    }


def _apply_round(args, kwargs, out) -> Dict[str, float]:
    return {"faults.reports_in": len(args[1]), "faults.reports_out": len(out)}


def _save(args, kwargs, n_bytes) -> Dict[str, float]:
    return {"runtime.checkpoint.bytes": n_bytes}


def _shard(args, kwargs, reader) -> Dict[str, float]:
    config = args[0]
    return {
        "site.shard_tags": len(reader.scene.tags),
        "site.field_tags": config.topology.n_tags,
    }


def _ingest(args, kwargs, n_new) -> Dict[str, float]:
    return {"site.fusion.rows": len(args[1]), "site.fusion.new": n_new}


def probes() -> List[Probe]:
    """Every wrapped public callable, grouped by layer."""
    from repro.core.motion import MotionAssessor
    from repro.core.scheduler import TargetScheduler
    from repro.core.tagwatch import Tagwatch
    from repro.faults.injector import FaultInjector
    from repro.faults.reader import FaultyReader
    from repro.gen2.inventory import InventoryEngine
    from repro.reader.reader import SimReader
    from repro.runtime.checkpoint import CheckpointStore
    from repro.runtime.supervisor import Supervisor
    from repro.site import site
    from repro.site.fusion import FusionLayer
    from repro.world.scene import Scene

    return [
        Probe(InventoryEngine, "run_round", "gen2", round_counts),
        Probe(Scene, "observe_batch", "world", _observe_batch),
        Probe(Scene, "observe", "world", _observe_one),
        Probe(SimReader, "inventory_round", "reader"),
        Probe(FaultyReader, "inventory_round", "reader"),
        Probe(SimReader, "run_duration", "reader"),
        Probe(SimReader, "execute_rospec", "reader"),
        Probe(MotionAssessor, "observe_all", "core.motion", _motion_obs),
        Probe(MotionAssessor, "assess", "core.motion"),
        Probe(TargetScheduler, "plan", "core.scheduler", _plan),
        Probe(Tagwatch, "run_cycle", "core.tagwatch"),
        Probe(Tagwatch, "warm_up", "core.tagwatch"),
        Probe(FaultInjector, "apply_round", "faults", _apply_round),
        Probe(Supervisor, "run_cycle", "runtime.supervisor"),
        Probe(Supervisor, "start", "runtime.supervisor"),
        Probe(Supervisor, "force_restart", "runtime.supervisor"),
        Probe(CheckpointStore, "save", "runtime.checkpoint.write", _save),
        Probe(CheckpointStore, "load_latest", "runtime.checkpoint.load"),
        Probe(site, "simulate_site", "site"),
        Probe(site, "build_reader", "site.setup", _shard),
        Probe(site, "reachable_tag_indices", "site.cull"),
        Probe(site, "site_tags", "site.tags"),
        Probe(site, "site_epcs", "site.tags"),
        Probe(site.SiteRun, "canonical_bytes", "site.canonical"),
        Probe(FusionLayer, "ingest_rows", "site.fusion", _ingest),
        Probe(site, "parallel_map", "experiments.parallel"),
    ]


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(
    times: Dict[str, LayerTimes], counters: Dict[str, float], runs: int
) -> Dict[str, float]:
    """Per-layer metrics, each per traced workload run."""

    def self_s(layer: str) -> float:
        entry = times.get(layer)
        return entry.self_s / runs if entry else 0.0

    def calls(layer: str) -> float:
        entry = times.get(layer)
        return entry.calls / runs if entry else 0.0

    def count(name: str) -> float:
        return counters.get(name, 0.0) / runs

    plan = times.get("core.scheduler")
    plan_ms = (
        statistics.median(plan.durations) * 1e3 if plan and plan.calls else 0.0
    )
    return {
        "gen2.calls": calls("gen2"),
        "gen2.self_s": self_s("gen2"),
        "gen2.slots": count("gen2.slots"),
        "gen2.us_per_slot": _ratio(self_s("gen2") * 1e6, count("gen2.slots")),
        "gen2.read_ratio": _ratio(count("gen2.single"), count("gen2.slots")),
        "world.calls": calls("world"),
        "world.self_s": self_s("world"),
        "world.observations": count("world.observations"),
        "world.us_per_obs": _ratio(
            self_s("world") * 1e6, count("world.observations")
        ),
        "reader.calls": calls("reader"),
        "reader.self_s": self_s("reader"),
        "core.motion.self_s": self_s("core.motion"),
        "core.motion.observations": count("core.motion.observations"),
        "core.motion.us_per_obs": _ratio(
            self_s("core.motion") * 1e6, count("core.motion.observations")
        ),
        "core.scheduler.calls": calls("core.scheduler"),
        "core.scheduler.self_s": self_s("core.scheduler"),
        "core.scheduler.ms_p50": plan_ms,
        "core.scheduler.bitmasks": count("core.scheduler.bitmasks"),
        "core.scheduler.collateral_ratio": _ratio(
            count("core.scheduler.collateral"),
            count("core.scheduler.targets")
            + count("core.scheduler.collateral"),
        ),
        "core.tagwatch.self_s": self_s("core.tagwatch"),
        "faults.calls": calls("faults"),
        "faults.self_s": self_s("faults"),
        "faults.drop_ratio": _ratio(
            count("faults.reports_in") - count("faults.reports_out"),
            count("faults.reports_in"),
        ),
        "runtime.supervisor.self_s": self_s("runtime.supervisor"),
        "runtime.checkpoint.writes": calls("runtime.checkpoint.write"),
        "runtime.checkpoint.write_s": self_s("runtime.checkpoint.write"),
        "runtime.checkpoint.bytes": count("runtime.checkpoint.bytes"),
        "runtime.checkpoint.loads": calls("runtime.checkpoint.load"),
        "runtime.checkpoint.load_s": self_s("runtime.checkpoint.load"),
        "site.setup_s": self_s("site.setup"),
        "site.cull_s": self_s("site.cull"),
        "site.tags_s": self_s("site.tags"),
        "site.canonical_s": self_s("site.canonical"),
        "site.self_s": self_s("site"),
        "site.shard_keep_ratio": _ratio(
            count("site.shard_tags"),
            count("site.field_tags"),
        ),
        "site.fusion.rows": count("site.fusion.rows"),
        "site.fusion.self_s": self_s("site.fusion"),
        "site.fusion.absorb_ratio": _ratio(
            count("site.fusion.new"), count("site.fusion.rows")
        ),
        "experiments.parallel.self_s": self_s("experiments.parallel"),
    }

