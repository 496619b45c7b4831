"""Tests for the §5 WAN analysis."""

from itertools import combinations

import pytest

from repro.analysis.wan import WanAnalysis, WanConfig
from repro.faults import resolve_scenario
from repro.world import World, WorldConfig


class TestWanAnalysis:
    def test_instances_cover_every_zone(self, wan, world):
        fleet = wan.instances()
        for region_name, instances in fleet.items():
            zones = {i.zone_index for i in instances}
            assert zones == set(
                range(world.ec2.region(region_name).num_zones)
            )

    def test_latency_series_length(self, wan):
        client = wan.clients[0]
        series = wan.latency_series(client.name, "us-east-1")
        assert len(series) == wan.config.rounds

    def test_seattle_prefers_west(self, wan):
        seattle = next(c for c in wan.clients if "seattle" in c.name)
        east = wan.latency_series(seattle.name, "us-east-1")
        west = wan.latency_series(seattle.name, "us-west-2")
        assert sum(west) < sum(east)

    def test_optimal_k_monotone(self, wan):
        frontier = wan.optimal_k_regions("latency")
        scores = [row["score"] for row in frontier]
        assert all(a >= b - 1e-9 for a, b in zip(scores, scores[1:]))

    def test_optimal_k_subset_sizes(self, wan):
        frontier = wan.optimal_k_regions("latency")
        for row in frontier:
            assert len(row["regions"]) == row["k"]

    def test_throughput_frontier_monotone_up(self, wan):
        frontier = wan.optimal_k_regions("throughput")
        scores = [row["score"] for row in frontier]
        assert all(b >= a - 1e-9 for a, b in zip(scores, scores[1:]))

    def test_improvement_at_k_positive(self, wan):
        frontier = wan.optimal_k_regions("latency")
        assert wan.improvement_at_k(frontier, 3) > 0

    def test_isp_diversity_shape(self, wan):
        diversity = wan.isp_diversity()
        assert diversity["us-east-1"]["region_total"] > (
            diversity["sa-east-1"]["region_total"]
        )
        for region, data in diversity.items():
            for zone_count in data["per_zone"].values():
                assert zone_count <= data["region_total"]

    def test_best_region_flips_counts(self, wan):
        client = wan.clients[0]
        result = wan.best_region_flips(client.name)
        assert len(result["best_by_round"]) == wan.config.rounds
        assert result["distinct_best"] >= 1


def scalar_optimal_k_regions(wan, metric):
    """The frontier as a plain loop over subsets, clients and rounds:
    the oracle for the vectorised :meth:`WanAnalysis.optimal_k_regions`."""
    wan._measure()
    table = wan._latency if metric == "latency" else wan._throughput
    better = min if metric == "latency" else max
    frontier = []
    for k in range(1, len(wan.regions) + 1):
        best_score = None
        best_subset = None
        for subset in combinations(wan.regions, k):
            total = 0.0
            count = 0
            for client in wan.clients:
                for round_index in range(wan.config.rounds):
                    values = [
                        table[(client.name, region)][round_index]
                        for region in subset
                    ]
                    values = [v for v in values if v == v]
                    if not values:
                        continue
                    total += better(values)
                    count += 1
            if count == 0:
                continue
            score = total / count
            if best_score is None or (
                score < best_score
                if metric == "latency"
                else score > best_score
            ):
                best_score = score
                best_subset = subset
        frontier.append({"k": k, "score": best_score, "regions": best_subset})
    return frontier


@pytest.fixture(scope="module")
def drilled_wan():
    """A WAN campaign under a region outage (us-east-1 is all NaN),
    with one client's first round knocked out everywhere so some rows
    hold no valid value in any subset."""
    world = World(WorldConfig(seed=21, num_domains=200))
    wan = WanAnalysis(
        world, WanConfig(rounds=4),
        scenario=resolve_scenario("ec2.us-east-1-outage"),
    )
    wan._measure()
    for region in wan.regions:
        wan._latency[(wan.clients[0].name, region)][0] = float("nan")
    return wan


class TestOptimalKRegions:
    @pytest.mark.parametrize("metric", ["latency", "throughput"])
    def test_matches_scalar_oracle(self, wan, metric):
        assert wan.optimal_k_regions(metric) == (
            scalar_optimal_k_regions(wan, metric)
        )

    @pytest.mark.parametrize("metric", ["latency", "throughput"])
    def test_matches_scalar_oracle_on_drilled_matrix(
        self, drilled_wan, metric
    ):
        table = (
            drilled_wan._latency if metric == "latency"
            else drilled_wan._throughput
        )
        if metric == "latency":
            assert all(
                v != v
                for client in drilled_wan.clients
                for v in table[(client.name, "us-east-1")]
            )
        assert drilled_wan.optimal_k_regions(metric) == (
            scalar_optimal_k_regions(drilled_wan, metric)
        )

    def test_callers_get_copies(self, wan):
        first = wan.optimal_k_regions("latency")
        first[0]["score"] = -1.0
        first.append({})
        second = wan.optimal_k_regions("latency")
        assert second == scalar_optimal_k_regions(wan, "latency")
