"""The one oracle switch and the differential harness over it.

``REPRO_REFERENCE=1`` must turn every fast path — the C inventory kernel,
visibility-culled shards, columnar fusion — to its oracle at once, in the
parent and in pool workers, and :func:`differential` must catch a single
altered byte.  Spies count which path each leg actually took, so a mode
that silently did nothing could not pass on byte equality alone.
"""

import os
from collections import Counter

import pytest

from repro.experiments import site_soak
from repro.experiments.parallel import parallel_map
from repro.gen2.aloha import QAdaptive
from repro.gen2.inventory import InventoryEngine
from repro.gen2.timing import R420_PROFILE
from repro.obs.tracer import Tracer, use_tracer
from repro.runtime.oracle import (
    REFERENCE_ENV,
    Mismatch,
    differential,
    reference_enabled,
    reference_mode,
)
from repro.site import site
from repro.site.channels import ChannelCoordinator
from repro.site.fusion import FusionLayer
from repro.site.topology import line_site

#: A short-range aisle whose end readers cannot see the far end, so the
#: cull genuinely shrinks shards.
CONFIG = site.SiteConfig(
    topology=line_site(4, 120, pitch_m=3.0, range_m=5.0),
    seed=3,
    duration_s=0.06,
    base_read_loss=0.2,
    coordinator=ChannelCoordinator(n_channels=4),
)


@pytest.fixture(autouse=True)
def _default_mode(monkeypatch):
    """Every test starts from the default (fast) mode."""
    monkeypatch.delenv(REFERENCE_ENV, raising=False)


def _defaults():
    """The engines and shard size every default picks right now."""
    engine = InventoryEngine(R420_PROFILE, lambda: QAdaptive(initial_q=4))
    reader = site.build_reader(CONFIG, 0)
    return engine.engine, FusionLayer().engine, len(reader.scene.tags)


def _worker_defaults(_):
    """Pool task: ``_defaults`` as a worker process sees them."""
    return _defaults()


def test_reference_flips_all_three_layers(monkeypatch):
    n_tags = CONFIG.topology.n_tags
    inventory, fusion, shard = _defaults()
    assert (inventory, fusion) == ("calendar", "columnar")
    assert shard < n_tags
    monkeypatch.setenv(REFERENCE_ENV, "1")
    assert _defaults() == ("reference", "reference", n_tags)
    # The per-object overrides still win over the mode.
    assert len(site.build_reader(CONFIG, 0, cull=True).scene.tags) == shard
    assert FusionLayer(engine="columnar").engine == "columnar"


@pytest.mark.parametrize("previous", [None, "0", "1"])
def test_reference_mode_restores_the_variable(monkeypatch, previous):
    if previous is not None:
        monkeypatch.setenv(REFERENCE_ENV, previous)
    with pytest.raises(RuntimeError):
        with reference_mode():
            assert reference_enabled()
            assert os.environ[REFERENCE_ENV] == "1"
            raise RuntimeError("the variable is restored on the way out")
    assert os.environ.get(REFERENCE_ENV) == previous
    assert reference_enabled() == (previous == "1")


@pytest.fixture
def paths(monkeypatch):
    """Count, per mode, kernel rounds, cull calls and fusion engines."""
    seen = Counter()
    kernel = InventoryEngine._run_round_calendar
    reachable = site.reachable_tag_indices
    fusion_init = FusionLayer.__init__

    def kernel_round(self, *args, **kwargs):
        seen[reference_enabled(), "kernel"] += 1
        return kernel(self, *args, **kwargs)

    def cull(*args, **kwargs):
        seen[reference_enabled(), "cull"] += 1
        return reachable(*args, **kwargs)

    def fusion(self, engine=None):
        fusion_init(self, engine)
        seen[reference_enabled(), self.engine] += 1

    monkeypatch.setattr(InventoryEngine, "_run_round_calendar", kernel_round)
    monkeypatch.setattr(site, "reachable_tag_indices", cull)
    monkeypatch.setattr(FusionLayer, "__init__", fusion)
    return seen


def _assert_legs_crossed(seen):
    assert seen[False, "kernel"] and seen[False, "cull"]
    assert seen[False, "columnar"] and not seen[False, "reference"]
    assert not seen[True, "kernel"] and not seen[True, "cull"]
    assert seen[True, "reference"] and not seen[True, "columnar"]


def test_site_differential_crosses_every_switch(paths):
    assert differential(
        lambda workers: site.simulate_site(CONFIG, workers=workers), 1
    ) is None
    _assert_legs_crossed(paths)


def test_chaos_differential_crosses_every_switch(paths, tmp_path):
    config = site_soak.SiteSoakConfig(
        n_readers=3, n_tags=24, n_epochs=6, n_outages=1, n_mobile=1, seed=11
    )

    def run(workers):
        leg = "reference" if reference_enabled() else "fast"
        path = str(tmp_path / f"{leg}.ckpt")
        return site_soak.run(config, workers=workers, checkpoint_path=path)

    assert differential(run, 1) is None
    _assert_legs_crossed(paths)


def _traced_site(workers):
    """``simulate_site`` plus each reader's shard size, from worker traces."""
    tracer = Tracer()
    with use_tracer(tracer):
        run = site.simulate_site(CONFIG, workers=workers)
    sizes = [
        r.args["n_tags"] for r in tracer.records if r.name == "site_reader"
    ]
    return run.canonical_bytes(), sizes


def test_reference_mode_reaches_pool_workers():
    n_tags = CONFIG.topology.n_tags
    default, default_sizes = _traced_site(workers=2)
    with reference_mode():
        reference, reference_sizes = _traced_site(workers=2)
        workers_see = parallel_map(_worker_defaults, [(0,), (1,)], workers=2)
    assert reference == default
    assert min(default_sizes) < n_tags
    assert reference_sizes == [n_tags] * CONFIG.topology.n_readers
    assert workers_see == [("reference", "reference", n_tags)] * 2


def test_differential_reports_one_altered_byte():
    offset = 100

    class Altered:
        def __init__(self, run):
            self.run = run

        def canonical(self):
            return self.run.canonical()

        def canonical_bytes(self):
            data = bytearray(self.run.canonical_bytes())
            data[offset] ^= 1
            return bytes(data)

    def run(workers):
        result = site.simulate_site(CONFIG, workers=workers)
        return result if reference_enabled() else Altered(result)

    mismatch = differential(run)
    assert isinstance(mismatch, Mismatch)
    assert mismatch.offset == offset
    assert mismatch.fast_size == mismatch.reference_size
    assert f"byte {offset}" in str(mismatch)
