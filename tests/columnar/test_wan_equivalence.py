"""Columnar WAN fill against the engine campaign.

Builds two identical worlds, fills the matrices through the engine
(``WanAnalysis._engine_measure``, the reference) on one and through
the production batched fill on the other, and requires exact equality
of the matrices, the shared stream states, and downstream figures.
"""

import math

import numpy  # noqa: F401  (a hard dependency: fail, never skip)
import pytest

from repro.analysis.wan import WanAnalysis, WanConfig
from repro.world import World, WorldConfig


def _small_world(seed):
    return World(WorldConfig(
        seed=seed,
        num_domains=60,
        num_dns_vantages=3,
        num_probe_vantages=6,
    ))


def _matrices(seed, engine, config=None):
    world = _small_world(seed)
    analysis = WanAnalysis(world, config or WanConfig(rounds=4))
    if engine:
        analysis._engine_measure()
    else:
        analysis._measure()
    jitter_state = world.latency._jitter_rng.getstate()
    noise_state = world.throughput._noise_rng.getstate()
    return (
        analysis,
        analysis._latency,
        analysis._throughput,
        jitter_state,
        noise_state,
    )


def _assert_tables_equal(a, b):
    assert list(a) == list(b)  # same keys, same insertion order
    for key in a:
        sa, sb = a[key], b[key]
        assert len(sa) == len(sb)
        for va, vb in zip(sa, sb):
            if math.isnan(va):
                assert math.isnan(vb)
            else:
                assert va == vb, (key, va, vb)


@pytest.mark.parametrize("seed", [7, 21, 1999])
def test_wan_matrices_bit_identical(seed):
    _, lat_s, thr_s, js, ns = _matrices(seed, engine=True)
    _, lat_c, thr_c, jc, nc = _matrices(seed, engine=False)
    _assert_tables_equal(lat_s, lat_c)
    _assert_tables_equal(thr_s, thr_c)
    assert js == jc  # jitter stream left in the sequential position
    assert ns == nc  # noise stream likewise


def test_wan_matrices_match_engine_workers():
    _, lat_c, thr_c, _, _ = _matrices(7, engine=False)
    analysis, *_ = _matrices(
        7, engine=True, config=WanConfig(rounds=4, workers=2)
    )
    _assert_tables_equal(analysis._latency, lat_c)
    _assert_tables_equal(analysis._throughput, thr_c)


def test_wan_downstream_figures_identical():
    scalar, *_ = _matrices(7, engine=True)
    columnar, *_ = _matrices(7, engine=False)
    regions = scalar.regions[:3]
    assert scalar.per_client_region_averages(
        regions=regions, max_clients=4
    ) == columnar.per_client_region_averages(
        regions=regions, max_clients=4
    )
    client = scalar.clients[0].name
    assert scalar.best_region_flips(
        client, regions=regions
    ) == columnar.best_region_flips(client, regions=regions)


def test_wan_scenario_falls_back_to_engine():
    from repro.faults.scenarios import OutageScenario

    analysis = WanAnalysis(
        _small_world(7),
        WanConfig(rounds=2),
        scenario=OutageScenario(
            name="drill",
            regions=frozenset({("ec2", "us-east-1")}),
        ),
    )
    assert not analysis._columnar_measure()
