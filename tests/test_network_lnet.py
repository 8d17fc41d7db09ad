"""LNET routing policy tests: FGR vs round robin."""

import math

import numpy as np
import pytest

from repro.network.infiniband import FabricSpec, InfinibandFabric
from repro.network.lnet import (
    FineGrainedRouting,
    LnetConfig,
    RouterInfo,
    RoundRobinRouting,
)
from repro.network.routing import FlowletRouting
from repro.network.torus import Torus3D, TorusSpec


@pytest.fixture
def config():
    torus = Torus3D(TorusSpec(dims=(8, 8, 8)))
    fabric = InfinibandFabric(FabricSpec(n_leaf_switches=2))
    routers = [
        RouterInfo("r0", (0, 0, 0), leaf=0),
        RouterInfo("r1", (4, 4, 4), leaf=0),
        RouterInfo("r2", (0, 4, 0), leaf=1),
        RouterInfo("r3", (4, 0, 4), leaf=1),
    ]
    for r in routers:
        fabric.attach_host(r.name, r.leaf)
    return LnetConfig(torus, fabric, routers)


class TestLnetConfig:
    def test_routers_for_leaf(self, config):
        assert [r.name for r in config.routers_for_leaf(0)] == ["r0", "r1"]
        assert [r.name for r in config.routers_for_leaf(1)] == ["r2", "r3"]

    def test_empty_routers_rejected(self, config):
        with pytest.raises(ValueError):
            LnetConfig(config.torus, config.fabric, [])


class TestFgr:
    def test_leaf_affinity(self, config):
        fgr = FineGrainedRouting(config, slack=0)
        router = fgr.select_router((0, 0, 1), dst_leaf=1)
        assert router.leaf == 1

    def test_picks_nearest_with_zero_slack(self, config):
        fgr = FineGrainedRouting(config, slack=0)
        assert fgr.select_router((0, 0, 1), dst_leaf=0).name == "r0"
        assert fgr.select_router((4, 4, 3), dst_leaf=0).name == "r1"

    def test_load_spreading_within_slack(self, config):
        # Every router of leaf 0 is within slack of a central client, so
        # repeated selections alternate rather than piling on one.
        fgr = FineGrainedRouting(config, slack=12)
        picks = [fgr.select_router((2, 2, 2), dst_leaf=0).name for _ in range(10)]
        assert picks.count("r0") == 5
        assert picks.count("r1") == 5

    def test_unknown_leaf_raises(self, config):
        fgr = FineGrainedRouting(config)
        with pytest.raises(LookupError):
            fgr.select_router((0, 0, 0), dst_leaf=9)

    def test_negative_slack_rejected(self, config):
        with pytest.raises(ValueError):
            FineGrainedRouting(config, slack=-1)


class TestRoundRobin:
    def test_cycles_all_routers_ignoring_leaf(self, config):
        rr = RoundRobinRouting(config)
        picks = [rr.select_router((0, 0, 0), dst_leaf=0).name for _ in range(8)]
        assert picks == ["r0", "r1", "r2", "r3"] * 2
        # Half the picks land on the wrong leaf — the FGR-vs-naive cost.
        rr2 = RoundRobinRouting(config)
        wrong = sum(rr2.select_router((0, 0, 0), dst_leaf=0).leaf != 0
                    for _ in range(8))
        assert wrong == 4


class TestPolicyComparison:
    def test_fgr_shorter_torus_paths_than_rr(self, config):
        """FGR's selections are never farther than round robin's on
        average — the locality half of Lesson 14."""
        rng = np.random.default_rng(3)
        clients = [tuple(rng.integers(0, 8, size=3)) for _ in range(60)]
        fgr = FineGrainedRouting(config)
        rr = RoundRobinRouting(config)
        d_fgr = np.mean([
            config.torus.distance(c, fgr.select_router(c, 0).coord)
            for c in clients
        ])
        d_rr = np.mean([
            config.torus.distance(c, rr.select_router(c, 0).coord)
            for c in clients
        ])
        assert d_fgr <= d_rr

    def test_fgr_always_intra_leaf_rr_often_not(self, config):
        fgr = FineGrainedRouting(config)
        rr = RoundRobinRouting(config)
        fgr_crossings = [
            config.fabric.crossings(fgr.select_router((1, 1, 1), 1).name, "r2")
            for _ in range(8)
        ]
        assert all(c == 1 for c in fgr_crossings)  # r2/r3 share leaf 1


class TestTieBreakOrderInvariance:
    """FGR ties break by explicit (load, distance, name) key, so selection
    is invariant under the insertion order of the router inventory —
    list-position tie-breaking would silently re-route whole client
    populations whenever enumeration order changed."""

    def make_config(self, order):
        torus = Torus3D(TorusSpec(dims=(8, 8, 8)))
        fabric = InfinibandFabric(FabricSpec(n_leaf_switches=2))
        # Two exact ties on leaf 0: equidistant from the client below and
        # always equally loaded when selections alternate.
        routers = {
            "ra": RouterInfo("ra", (2, 0, 0), leaf=0),
            "rb": RouterInfo("rb", (0, 2, 0), leaf=0),
            "rc": RouterInfo("rc", (4, 4, 4), leaf=1),
        }
        ordered = [routers[name] for name in order]
        for r in ordered:
            fabric.attach_host(r.name, r.leaf)
        return LnetConfig(torus, fabric, ordered)

    @pytest.mark.parametrize("order", [
        ("ra", "rb", "rc"),
        ("rb", "ra", "rc"),
        ("rc", "rb", "ra"),
    ])
    def test_selection_sequence_is_order_invariant(self, order):
        fgr = FineGrainedRouting(self.make_config(order), slack=4)
        picks = [fgr.select_router((0, 0, 0), dst_leaf=0).name
                 for _ in range(6)]
        # Pure tie at every step: the name key alternates a-b-a-b...,
        # never whichever happened to be inserted first.
        assert picks == ["ra", "rb"] * 3


# -- the route table against the per-call numpy zone ------------------------------

def numpy_zone(config, client, dst_leaf, slack):
    """The zone as FGR computed it on every call before the route table:
    live leaf routers by list position, numpy hop counts, a distance
    cutoff, sorted by (distance, name).  The oracle for
    :meth:`LnetConfig.zone`."""
    candidates = [i for i, r in enumerate(config.routers)
                  if r.leaf == dst_leaf and config.router_online(r.name)]
    if not candidates:
        raise LookupError(f"no router serves leaf {dst_leaf}")
    dists = config.torus.distances_from(
        client, config.router_coords()[candidates])
    near_mask = dists <= dists.min() + slack
    return sorted((int(dists[i]), config.routers[candidates[i]].name,
                   candidates[i]) for i in np.flatnonzero(near_mask))


class NumpyFgr:
    """FGR's former numpy ``select_router``, kept as the test oracle."""

    def __init__(self, config, slack=4):
        self.config = config
        self.slack = slack
        self._load = np.zeros(len(config.routers), dtype=np.int64)

    def select_router(self, client, dst_leaf):
        zone = numpy_zone(self.config, client, dst_leaf, self.slack)
        _load, _dist, _name, pick = min(
            (int(self._load[i]), d, name, i) for d, name, i in zone)
        self._load[pick] += 1
        return self.config.routers[pick]


def fresh_config(config, routers=None):
    """A new LnetConfig over the same topology (all routers online), so a
    test can flip liveness without touching a shared system."""
    return LnetConfig(config.torus, config.fabric,
                      list(config.routers if routers is None else routers))


def random_mask(config, rng, p_down=0.3):
    for r in config.routers:
        config.set_router_online(r.name, bool(rng.random() >= p_down))


def random_queries(config, rng, n):
    dims = config.torus.dims
    leaves = sorted({r.leaf for r in config.routers})
    return [(tuple(int(rng.integers(0, d)) for d in dims),
             int(rng.choice(leaves))) for _ in range(n)]


def selection_trace(policy, queries):
    """Router names picked for ``queries`` in order; ``None`` where no
    live router serves the leaf."""
    picks = []
    for client, leaf in queries:
        try:
            picks.append(policy.select_router(client, leaf).name)
        except LookupError:
            picks.append(None)
    return picks


@pytest.fixture(params=["mini", "spider2"])
def system_lnet(request, mini_system, spider2_session):
    """A private LnetConfig over the mini system or Spider II."""
    system = mini_system if request.param == "mini" else spider2_session
    return fresh_config(system.lnet)


class TestRouteTable:
    """:meth:`LnetConfig.zone` and the table-backed FGR against the
    per-call numpy computation they replaced."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_fgr_matches_numpy_oracle_under_random_masks(self, system_lnet,
                                                         seed):
        rng = np.random.default_rng(seed)
        fgr = FineGrainedRouting(system_lnet)
        oracle = NumpyFgr(system_lnet)
        # Loads evolve across masks: neither policy is reset between
        # rounds, so every pick depends on the whole history.
        for _round in range(4):
            random_mask(system_lnet, rng)
            queries = random_queries(system_lnet, rng, 150)
            # Repeat the queries so zones are read from the table, not
            # just filled.
            queries = queries + queries
            assert selection_trace(fgr, queries) == \
                selection_trace(oracle, queries)

    @pytest.mark.parametrize("slack", [0, 4, math.inf])
    def test_zone_matches_numpy_oracle(self, system_lnet, slack):
        rng = np.random.default_rng(11)
        random_mask(system_lnet, rng)
        for client, leaf in random_queries(system_lnet, rng, 200):
            try:
                want = numpy_zone(system_lnet, client, leaf, slack)
            except LookupError:
                with pytest.raises(LookupError):
                    system_lnet.zone(client, leaf, slack)
                continue
            assert list(system_lnet.zone(client, leaf, slack)) == want

    def test_permuted_router_list(self, system_lnet):
        rng = np.random.default_rng(5)
        queries = random_queries(system_lnet, rng, 300)
        want = selection_trace(FineGrainedRouting(system_lnet), queries)
        order = rng.permutation(len(system_lnet.routers))
        permuted = fresh_config(
            system_lnet, [system_lnet.routers[i] for i in order])
        assert selection_trace(NumpyFgr(permuted), queries) == want
        assert selection_trace(FineGrainedRouting(permuted), queries) == want

    def test_flowlet_zone_reads_the_shared_table(self, system_lnet):
        policy = FlowletRouting(system_lnet)
        rng = np.random.default_rng(3)
        random_mask(system_lnet, rng, p_down=0.2)
        for client, leaf in random_queries(system_lnet, rng, 100):
            for slack in (policy.spec.slack, math.inf):
                try:
                    want = numpy_zone(system_lnet, client, leaf, slack)
                except LookupError:
                    continue
                kwargs = {} if slack == policy.spec.slack else {"slack": slack}
                assert policy._zone(client, leaf, **kwargs) == \
                    [i for _d, _n, i in want]
                assert policy._zone(client, leaf, **kwargs) == \
                    [i for _d, _n, i in system_lnet.zone(client, leaf, slack)]

    def test_router_flip_invalidates_only_on_change(self, config):
        client, leaf = (1, 1, 1), 0
        zone = config.zone(client, leaf, math.inf)
        assert [name for _d, name, _i in zone] == ["r0", "r1"]
        config.set_router_online("r0", True)  # already up: no flip
        config.set_router_online("r2", False)  # another leaf's router
        assert config.zone(client, leaf, math.inf) is zone
        config.set_router_online("r0", False)
        assert [name for _d, name, _i in
                config.zone(client, leaf, math.inf)] == ["r1"]
        config.set_router_online("r0", True)
        config.set_router_online("r2", True)
        restored = config.zone(client, leaf, math.inf)
        assert restored == zone
        assert restored == fresh_config(config).zone(client, leaf, math.inf)

    def test_router_down_and_up_matches_fresh_config(self, system_lnet):
        rng = np.random.default_rng(9)
        queries = random_queries(system_lnet, rng, 200)
        before = [system_lnet.zone(c, leaf, 4) for c, leaf in queries]
        victim = before[0][0][1]  # the nearest router of the first zone
        system_lnet.set_router_online(victim, False)
        for c, leaf in queries:
            now = system_lnet.zone(c, leaf, 4)
            assert victim not in [name for _d, name, _i in now]
            assert list(now) == numpy_zone(system_lnet, c, leaf, 4)
        system_lnet.set_router_online(victim, True)
        fresh = fresh_config(system_lnet)
        for (c, leaf), zone in zip(queries, before):
            assert system_lnet.zone(c, leaf, 4) == zone
            assert system_lnet.zone(c, leaf, 4) == fresh.zone(c, leaf, 4)
