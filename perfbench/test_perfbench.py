"""Tests of the benchmark itself.

Run from the root of a checkout::

    python3 -m pytest perfbench
"""

import json
import os
import re
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from perfbench import layers, workloads  # noqa: E402
from perfbench.spans import (  # noqa: E402
    Probe, SpanRecorder, patched, restored, summarize, traced,
)

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def declared():
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def work(self, seconds: float) -> None:
        self.now += seconds


def call_tree(clock):
    """outer(1) -> [inner(2) -> leaf(4)] + leaf(8), with 16 s outside."""
    module = types.ModuleType("fake_program")

    def leaf(seconds):
        clock.work(seconds)

    def inner():
        clock.work(2)
        module.leaf(4)

    def outer():
        clock.work(1)
        module.inner()
        module.leaf(8)

    module.leaf, module.inner, module.outer = leaf, inner, outer
    probes = [
        Probe(module, "outer", "a"),
        Probe(module, "inner", "b"),
        Probe(module, "leaf", "c", lambda args, kwargs, result: {"n": 1}),
    ]
    return module, probes


def test_self_times_and_unattributed_sum_to_wall():
    clock = FakeClock()
    module, probes = call_tree(clock)
    recorder = SpanRecorder(clock=clock)
    with traced(probes, recorder):
        clock.work(16)
        module.outer()
    times, unattributed = summarize(recorder.spans, wall_s=clock.now)
    assert {layer: t.self_s for layer, t in times.items()} == {
        "a": 1, "b": 2, "c": 12,
    }
    assert times["c"].calls == 2 and times["c"].durations == (4, 8)
    assert unattributed == 16
    assert sum(t.self_s for t in times.values()) + unattributed == clock.now
    assert recorder.counters["n"] == 2


def test_wrappers_restored_even_when_the_body_raises():
    clock = FakeClock()
    module, probes = call_tree(clock)
    before = dict(vars(module))
    with pytest.raises(ZeroDivisionError):
        with traced(probes, SpanRecorder(clock=clock)) as originals:
            assert module.outer is not before["outer"]
            1 / 0
    assert restored(originals)
    assert dict(vars(module)) == before


def test_program_probes_restored_and_tracer_stays_off():
    from repro.obs.tracer import get_tracer

    probes = layers.probes()
    owners = {(id(p.owner), p.attr) for p in probes}
    assert len(owners) == len(probes), "a callable is probed twice"
    before = [vars(p.owner)[p.attr] for p in probes]
    recorder = SpanRecorder(guard=lambda: not get_tracer().enabled)
    with traced(probes, recorder) as originals:
        assert all(vars(p.owner)[p.attr] is not fn
                   for p, fn in zip(probes, before))
    assert restored(originals)
    assert [vars(p.owner)[p.attr] for p in probes] == before
    assert not get_tracer().enabled


def test_inherited_attribute_is_refused():
    base = type("Base", (), {"f": lambda self: 1})
    child = type("Child", (base,), {})
    with pytest.raises(AttributeError):
        with patched([Probe(child, "f", "x")], lambda probe, fn: fn):
            pass
    assert "f" not in vars(child)


def test_declared_names_are_valid_and_unique():
    spec = declared()
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    names = [w["name"] for w in spec["workloads"]]
    names += [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    assert tuple(w["name"] for w in spec["workloads"]) == workloads.NAMES
    assert all(m["bound"] <= 0.25 for m in spec["end_to_end"])
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["bound"] == max(
        m["bound"] for m in spec["end_to_end"]
    )


def benchmark(cwd, *args, env=None):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170, env=env,
    )


@pytest.mark.parametrize("trace,section", [("0", "end_to_end"),
                                           ("1", "per_layer")])
def test_run_prints_every_declared_metric(trace, section):
    done = benchmark(ROOT, "--workload", "lab-turntable", "--seed", "3",
                     "--seconds", "0", "--trace", trace)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    units = {m["name"]: m["unit"] for m in declared()[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units


def test_refuses_engine_switches():
    env = dict(os.environ, REPRO_INVENTORY_ENGINE="reference")
    done = benchmark(ROOT, "--workload", "lab-turntable", "--seconds", "0",
                     env=env)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = benchmark(tmp_path, "--workload", "lab-turntable", "--seconds",
                     "1")
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def test_seed_changes_the_inputs(tmp_path):
    lab = [workloads.make("lab-turntable", seed, tmp_path).build()
           for seed in (1, 2)]
    assert lab[0][0].epcs != lab[1][0].epcs

    from repro.site.site import site_epcs

    site = [workloads.make("site-aisle", seed, tmp_path).build()
            for seed in (1, 2)]
    assert site_epcs(site[0]) != site_epcs(site[1])

    soak = workloads.make("soak-chaos", 1, tmp_path)
    configs = [workloads.make("soak-chaos", seed, tmp_path).build()
               for seed in (1, 2)]
    seeds = {config.seed for batch in configs for config in batch}
    assert len(seeds) == 2 * soak.n_soaks
    for batch in configs:
        soak.discard(batch)
    assert not any(tmp_path.iterdir())
