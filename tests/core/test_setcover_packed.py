"""Differential tests: packed lazy-greedy set cover vs the dense reference.

``greedy_cover`` (packed bitsets + lazy max-heap) must be bit-for-bit the
same search as ``greedy_cover_reference`` (bool arrays, rescan everything):
same picks in the same order, same tie-break draws (hence the same RNG
stream position), same trace events, same cost and collateral.  Hypothesis
drives both over random populations and target sets and compares all of it.
The packed representation itself is checked via pack/unpack round-trips,
and the packed ``exact_cover`` against a bool-mask reimplementation.
"""

import itertools

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.core.bitmask import (
    IndexedBitmaskTable,
    indicator_bitmap,
    pack_bitmap,
    pack_indices,
    unpack_bitmap,
)
from repro.core.cost import CostModel
from repro.core.setcover import (
    exact_cover,
    greedy_cover,
    greedy_cover_reference,
)
from repro.gen2.epc import EPC
from repro.obs.tracer import Tracer, use_tracer

MODEL = CostModel(tau0_s=0.019, tau_bar_s=0.00018)


@st.composite
def cover_instances(draw, min_size=2, max_size=24):
    """A unique-EPC population plus a non-empty target subset."""
    values = draw(
        st.lists(
            st.integers(min_value=0, max_value=2**24 - 1),
            min_size=min_size,
            max_size=max_size,
            unique=True,
        )
    )
    population = [EPC(v, 24) for v in values]
    n_targets = draw(st.integers(min_value=1, max_value=len(population)))
    return population, list(range(n_targets))


def _run_traced(solver, candidates, targets, n, seed):
    tracer = Tracer()
    with use_tracer(tracer):
        selection = solver(candidates, targets, n, MODEL, rng=seed)
    events = [
        (e.name, tuple(sorted(e.args.items())))
        for e in tracer.events("setcover.iteration")
    ]
    return selection, events


@settings(max_examples=50, deadline=None)
@given(instance=cover_instances(), seed=st.integers(0, 2**31 - 1))
def test_lazy_greedy_matches_reference(instance, seed):
    population, targets = instance
    table = IndexedBitmaskTable(population, max_mask_length=12)
    candidates = table.candidate_rows(targets)
    n = len(population)

    lazy, lazy_events = _run_traced(
        greedy_cover, candidates, targets, n, seed
    )
    dense, dense_events = _run_traced(
        greedy_cover_reference, candidates, targets, n, seed
    )

    assert [
        (b.mask, b.pointer, b.length) for b in lazy.bitmasks
    ] == [(b.mask, b.pointer, b.length) for b in dense.bitmasks]
    assert lazy.covered_counts == dense.covered_counts
    assert lazy.total_cost_s == dense.total_cost_s
    assert lazy.n_targets == dense.n_targets
    assert lazy.n_collateral == dense.n_collateral
    assert lazy_events == dense_events

    # Same number of tie-break draws consumed: both generators must sit at
    # the same stream position afterwards.
    gen_a = np.random.default_rng(seed)
    gen_b = np.random.default_rng(seed)
    with use_tracer(Tracer()):
        greedy_cover(candidates, targets, n, MODEL, rng=gen_a)
        greedy_cover_reference(candidates, targets, n, MODEL, rng=gen_b)
    assert gen_a.integers(0, 2**32, size=4).tolist() == gen_b.integers(
        0, 2**32, size=4
    ).tolist()


@settings(max_examples=100, deadline=None)
@given(
    bits=st.lists(st.booleans(), min_size=0, max_size=200),
)
def test_pack_unpack_roundtrip(bits):
    mask = np.array(bits, dtype=bool)
    packed = pack_bitmap(mask)
    assert packed.bit_count() == int(mask.sum())
    assert np.array_equal(unpack_bitmap(packed, mask.size), mask)


@settings(max_examples=100, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=150),
    data=st.data(),
)
def test_pack_indices_matches_indicator(n, data):
    indices = data.draw(
        st.lists(st.integers(0, n - 1), min_size=0, max_size=n, unique=True)
    )
    packed = pack_indices(n, indices)
    assert packed == pack_bitmap(indicator_bitmap(n, indices))


def _exact_cover_bool(candidates, target_indices, population_size, model):
    """Reimplementation of exact_cover over bool masks (test oracle)."""
    v = indicator_bitmap(population_size, target_indices)
    best = None
    for size in range(0 if not v.any() else 1, len(candidates) + 1):
        for combo in itertools.combinations(range(len(candidates)), size):
            union = np.zeros(population_size, dtype=bool)
            for i in combo:
                union |= candidates[i].coverage
            if not (v & ~union).any():
                counts = [candidates[i].covered_count for i in combo]
                cost = model.sweep_cost(counts)
                if best is None or cost < best[0]:
                    best = (cost, combo, int((union & ~v).sum()))
    return best


@settings(max_examples=25, deadline=None)
@given(instance=cover_instances(min_size=2, max_size=8))
def test_exact_cover_packed_matches_bool(instance):
    population, targets = instance
    table = IndexedBitmaskTable(population, max_mask_length=8)
    candidates = table.candidate_rows(targets)[:10]
    # Targets outside the truncated candidate set make the instance
    # infeasible; full-EPC rows come first, so keep targets they cover.
    covered = np.zeros(len(population), dtype=bool)
    for row in candidates:
        covered |= row.coverage
    targets = [t for t in targets if covered[t]]
    if not targets:
        return
    packed = exact_cover(candidates, targets, len(population), MODEL)
    oracle = _exact_cover_bool(candidates, targets, len(population), MODEL)
    assert oracle is not None
    cost, combo, collateral = oracle
    assert packed.total_cost_s == cost
    assert packed.n_collateral == collateral
    assert len(packed.bitmasks) == len(combo)
