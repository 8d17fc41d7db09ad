"""The A19 storm study: static collapse, flowlet recovery, determinism.

The mini system runs the study in the scarce-row-bandwidth regime (torus
links at 0.5 GB/s — the same ``--link-bw`` dial the CLI exposes), which
is what makes a clustered all-to-one read burst a *network* problem: the
probe's delivered rate is then bounded by its share of saturated row
links, not by its private OST.
"""

from dataclasses import replace

import pytest

from tests.conftest import mini_spec
from repro.core.spider import SpiderSystem
from repro.network.storm import (
    StormStudyResult,
    _make_clients,
    _probe_coord,
    _watched_components,
    run_storm_study,
)
from repro.network.torus import AXIS_ORDERS, Torus3D
from repro.units import GB


def storm_factory(seed=7):
    base = mini_spec()
    spec = replace(base, torus=replace(base.torus, link_bw=0.5 * GB))
    return lambda: SpiderSystem(spec, seed=seed)


def quick_study(**kw):
    defaults = dict(seed=11, duration=3600.0, storm_start=600.0,
                    storm_end=3000.0)
    defaults.update(kw)
    return run_storm_study(storm_factory(), **defaults)


class TestProbePlacement:
    def test_probe_never_sits_on_a_router_node(self, mini_system):
        coord = _probe_coord(mini_system)
        assert coord not in {r.coord for r in mini_system.routers}

    def test_probe_rides_the_storm_row(self, mini_system):
        dims = mini_system.torus.dims
        _x, y, z = _probe_coord(mini_system)
        assert (y, z) == (dims[1] // 2, dims[2] // 2)


def _brute_force_watched(system, clients):
    """The watched set walked per (client, router, axis order), with no
    sharing across equal coordinates."""
    comps = set()
    for router in system.routers:
        comps.add(f"router:{router.name}")
        for client in clients:
            for order in AXIS_ORDERS:
                for link in system.torus.route_links_ordered(
                        client.coord, router.coord, order):
                    comps.add(Torus3D.link_component(link))
    return sorted(comps)


class TestWatchedComponents:
    def test_equals_per_client_walk_on_spider2(self, spider2_session):
        # More storm clients than row nodes, so client coordinates
        # repeat, as they do on every shipped storm run.
        n_storm = spider2_session.torus.dims[0] + 3
        probe, storm = _make_clients(spider2_session, n_storm)
        clients = [probe] + storm
        assert len({c.coord for c in clients}) < len(clients)
        assert (_watched_components(spider2_session, clients)
                == _brute_force_watched(spider2_session, clients))

    def test_routes_each_distinct_coordinate_triple_once(
            self, mini_system, monkeypatch):
        probe, storm = _make_clients(mini_system, 24)
        clients = [probe] + storm
        calls = []
        route = Torus3D.route_links_ordered

        def counting(self, src, dst, order):
            calls.append((src, dst, order))
            return route(self, src, dst, order)

        monkeypatch.setattr(Torus3D, "route_links_ordered", counting)
        _watched_components(mini_system, clients)
        n_client_coords = len({c.coord for c in clients})
        n_router_coords = len({r.coord for r in mini_system.routers})
        assert len(calls) == len(set(calls)) == (
            n_client_coords * n_router_coords * len(AXIS_ORDERS))
        # The census must be smaller than the per-router walk it replaces.
        assert len(calls) < (len(clients) * len(mini_system.routers)
                             * len(AXIS_ORDERS))


class TestStormHeadline:
    @pytest.fixture(scope="class")
    def study(self):
        return run_storm_study(storm_factory(), seed=11)

    def test_static_arm_collapses(self, study):
        # The probe's tail latency under static routing is an order of
        # magnitude past its median: the row links saturated and max-min
        # sharing squeezed the probe to a sliver.
        assert study.static.latency_p99 > 10 * study.static.latency_p50
        assert study.static.peak_victim_util == pytest.approx(1.0)

    def test_flowlet_recovers_at_least_10x(self, study):
        assert study.recovery_factor >= 10.0

    def test_adaptive_machinery_actually_ran(self, study):
        assert study.flowlet.rehashes > 0
        assert study.flowlet.backpressure_engagements >= 1
        assert study.static.rehashes == 0
        assert study.static.backpressure_engagements == 0

    def test_flowlet_pays_rebuilds_static_does_not(self, study):
        # Each committed re-hash batch is one rebuild; static resolves
        # on the fast path all storm long.
        assert study.static.full_solves <= 3
        assert study.flowlet.full_solves > study.static.full_solves

    def test_rows_are_renderable(self, study):
        rows = {label: cells for label, *cells in study.rows()}
        assert rows["probe latency p99"] == [
            f"{arm.latency_p99:,.2f} s" for arm in (study.static,
                                                     study.flowlet)]


class TestDeterminism:
    def test_result_is_a_plain_value(self):
        study = quick_study()
        assert isinstance(study, StormStudyResult)
        assert study.flowlet.samples[0].time >= 0.0


class TestValidation:
    def test_bad_storm_window_rejected(self):
        with pytest.raises(ValueError):
            quick_study(storm_start=3000.0, storm_end=600.0)
        with pytest.raises(ValueError):
            quick_study(storm_end=4000.0)  # past the duration

    def test_bad_knobs_rejected(self):
        with pytest.raises(ValueError):
            quick_study(sample_interval=0.0)
        with pytest.raises(ValueError):
            quick_study(request_bytes=0.0)
        with pytest.raises(ValueError):
            quick_study(shed_fraction=0.0)
