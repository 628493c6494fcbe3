"""The three benchmark workloads, each built from the benchmark seed.

Every workload is a closed loop in one process: the next call starts when
the previous one returned.  ``build`` makes the inputs (untimed),
``run`` drives the simulator through its public functions and returns an
:class:`Outcome`, and ``discard`` frees what ``build`` made.

- ``lab-turntable`` is the paper's Fig 18 deployment: the whole Tagwatch
  loop (read-all, GMM assessment, set-cover Select planning, targeted
  read) plus the same-length read-all baseline that defines the gain.
- ``site-aisle`` is the warehouse tier: 24 readers over 10k tags, sharded
  over a process pool and fused; no GMM and no set cover.
- ``soak-chaos`` runs the Tagwatch layers on a tiny population under
  crashes, kills, checkpoint corruption, jamming and blackouts: many
  short rounds, fault injection, checkpoint writes and restores.

The seed is the only input; every workload derives its deployments from
it, so the same seed always builds the same inputs.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import statistics
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Tuple

from perfbench.spans import Probe, patched


@dataclass
class Outcome:
    """What one workload run produced and how its outputs checked out."""

    digest: str
    #: Host seconds of each closed-loop cycle, in order.
    cycle_s: List[float]
    #: Modelled (simulated) results; deterministic for a given seed.
    model: Dict[str, float]
    checks: List[Tuple[str, bool]] = field(default_factory=list)


def _digest(payload) -> str:
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class LabTurntable:
    """Fig 18 at 5% mobile: 200 tags in 4 antenna clusters, 10 on turntables."""

    name = "lab-turntable"
    #: Fewest cycles per measurement: ten samples beyond the p90.
    min_cycles = 100
    pooled = False
    n_tags = 200
    n_mobile = 10
    n_cycles = 40
    #: Cycles excluded from the IRR window, as in ``fig18_gain``.
    skip_cycles = 2
    phase2_s = 2.0
    #: Read-all warm-up long enough for every immobility model to mature
    #: (``fig18_gain`` uses ``max(15, 0.3 n)``).
    warmup_s = 60.0

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def build(self):
        from repro.core import TagwatchConfig
        from repro.experiments.harness import build_lab

        def lab():
            return build_lab(
                n_tags=self.n_tags, n_mobile=self.n_mobile, seed=self.seed,
                partition=True,
            )

        setup, baseline = lab(), lab()
        # Fallback off, as in Fig 18: the gain is the scheme's own.
        tagwatch = setup.tagwatch(TagwatchConfig(
            phase2_duration_s=self.phase2_s,
            selection_method="greedy",
            fallback_fraction=1.0,
        ))
        return setup, baseline, tagwatch

    def run(self, inputs, workers: int) -> Outcome:
        from repro.experiments.harness import read_all_irr

        setup, baseline, tagwatch = inputs
        tagwatch.warm_up(self.warmup_s)
        cycle_s: List[float] = []
        results = []
        for _ in range(self.n_cycles):
            start = time.perf_counter()
            results.append(tagwatch.run_cycle())
            cycle_s.append(time.perf_counter() - start)
        measured = results[self.skip_cycles:]
        t0, t1 = measured[0].phase1_start_s, measured[-1].phase2_end_s
        mobile = sorted(setup.mobile_epc_values)
        adaptive = {v: tagwatch.history.irr(v, t0, t1).irr_hz for v in mobile}
        base, _ = read_all_irr(baseline, duration_s=t1 - t0)
        gains = [adaptive[v] / base[v] for v in mobile if base.get(v, 0.0) > 0]
        gain = statistics.median(gains) if gains else 0.0

        truth = set(mobile)
        tp = fp = fn = 0
        for result in measured:
            moving = {v for v, a in result.assessments.items() if a.moving}
            tp += len(moving & truth)
            fp += len(moving - truth)
            fn += len(truth - moving)
        f1 = 2 * tp / (2 * tp + fp + fn) if tp else 0.0

        degraded = sum(1 for result in results if result.degraded)
        digest = _digest({
            "cycles": [
                [
                    sorted(format(v, "x") for v in r.target_epc_values),
                    r.fallback,
                    len(r.phase1_observations),
                    len(r.phase2_observations),
                    repr(r.phase2_end_s),
                ]
                for r in results
            ],
            "gains": [repr(g) for g in gains],
        })
        return Outcome(
            digest=digest,
            cycle_s=cycle_s,
            model={"target_irr_gain": gain, "motion_f1": f1},
            checks=[
                ("lab: no degraded cycles", degraded == 0),
                ("lab: target_irr_gain > 1", gain > 1.0),
            ],
        )

    def discard(self, inputs) -> None:
        pass


class SiteAisle:
    """One 24-reader aisle over 10k tags, fused into canonical bytes."""

    name = "site-aisle"
    #: One cycle is one whole site interval; a run has one per repeat.
    min_cycles = 0
    #: Shards fan out over ``parallel_map``'s process pool.
    pooled = True
    n_readers = 24
    n_tags = 10_000
    duration_s = 2.0
    base_read_loss = 0.2
    n_channels = 16

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def build(self):
        from repro.site.channels import ChannelCoordinator
        from repro.site.site import SiteConfig
        from repro.site.topology import line_site

        return SiteConfig(
            topology=line_site(self.n_readers, self.n_tags),
            seed=self.seed,
            duration_s=self.duration_s,
            base_read_loss=self.base_read_loss,
            coordinator=ChannelCoordinator(n_channels=self.n_channels),
        )

    def run(self, config, workers: int) -> Outcome:
        # Resolved at call time so a traced run's wrapper is the one called.
        from repro.site import site

        start = time.perf_counter()
        result = site.simulate_site(config, workers=workers)
        data = result.canonical_bytes()
        elapsed = time.perf_counter() - start
        return Outcome(
            digest=hashlib.sha256(data).hexdigest(),
            cycle_s=[elapsed],
            model={"missed_rate": result.missed_rate},
        )

    def discard(self, inputs) -> None:
        pass


class SoakChaos:
    """Three 100-cycle soaks of 12 tags (2 mobile) under dense faults.

    Fault schedules differ from seed to seed in how much work they cause
    (restarts, forced full inventories), so one run covers three
    independently seeded soaks rather than one soak of 300 cycles.
    """

    name = "soak-chaos"
    min_cycles = 100
    pooled = False
    n_soaks = 3
    n_cycles = 100

    def __init__(self, seed: int, scratch: Path) -> None:
        self.seed = seed
        #: Checkpoints go to benchmark-owned directories inside the
        #: checkout, removed after every run; the soak's own default
        #: (``checkpoint_dir=None``) leaves one temp directory per run.
        self.scratch = scratch

    def build(self):
        from repro.experiments.parallel import spawn_seeds
        from repro.experiments.soak import SoakConfig

        self.scratch.mkdir(parents=True, exist_ok=True)
        return [
            SoakConfig(
                n_cycles=self.n_cycles,
                seed=seed,
                n_tags=12,
                n_mobile=2,
                crash_every=30,
                kill_every=60,
                corrupt_every=50,
                jam_every=40,
                blackout_every=40,
                checkpoint_dir=tempfile.mkdtemp(prefix="soak-", dir=self.scratch),
            )
            for seed in spawn_seeds(self.seed, self.n_soaks)
        ]

    def run(self, configs, workers: int) -> Outcome:
        from repro.experiments import soak
        from repro.runtime.supervisor import Supervisor

        cycle_s: List[float] = []

        def timed(probe, run_cycle):
            def run_cycle_timed(*args, **kwargs):
                start = time.perf_counter()
                try:
                    return run_cycle(*args, **kwargs)
                finally:
                    cycle_s.append(time.perf_counter() - start)
            return run_cycle_timed

        with patched([Probe(Supervisor, "run_cycle", "cycle")], timed):
            reports = [soak.run(config) for config in configs]
        payloads = []
        for report in reports:
            payload = report.to_dict()
            payload.pop("wall_s")
            payloads.append(payload)
        unhealthy = sum(report.n_unhealthy for report in reports)
        cycles = sum(report.n_cycles for report in reports)
        return Outcome(
            digest=_digest(payloads),
            cycle_s=cycle_s,
            model={"unhealthy_cycle_rate": unhealthy / cycles},
            checks=[
                ("soak: zero invariant violations",
                 not any(report.violations for report in reports)),
            ],
        )

    def discard(self, configs) -> None:
        for config in configs:
            shutil.rmtree(config.checkpoint_dir, ignore_errors=True)


NAMES = (LabTurntable.name, SiteAisle.name, SoakChaos.name)


def make(name: str, seed: int, scratch: Path):
    """The workload called ``name``, with inputs derived from ``seed``."""
    if name == LabTurntable.name:
        return LabTurntable(seed)
    if name == SiteAisle.name:
        return SiteAisle(seed)
    if name == SoakChaos.name:
        return SoakChaos(seed, scratch)
    raise ValueError(f"unknown workload {name!r}; choose from {NAMES}")
