"""Tests for the Pre-parser cache (§3.3 / Fig. 6(d))."""

from repro.hw.presets import emmc_ue48h6200
from repro.initsys import preparser
from repro.initsys.preparser import (PARSE_BASE_NS, PARSE_PER_BYTE_NS,
                                     RESOLVE_PER_EDGE_NS, PreParsedCache,
                                     build_cache, dependency_edge_count,
                                     registry_fingerprint,
                                     registry_text_stats)
from repro.initsys.registry import UnitRegistry
from repro.initsys.units import Unit
from repro.sim import Simulator


def make_registry(units=40, edges_per_unit=3):
    registry = UnitRegistry()
    registry.add(Unit(name="u0.service"))
    for n in range(1, units):
        deps = [f"u{(n - k - 1)}.service" for k in range(min(edges_per_unit, n))]
        registry.add(Unit(name=f"u{n}.service", requires=deps[:1],
                          after=deps[1:2], wants=deps[2:3]))
    return registry


def test_edge_count_counts_all_reference_kinds():
    registry = UnitRegistry([
        Unit(name="a.service", requires=["b.service"], wants=["c.service"],
             before=["d.service"], after=["e.service"], conflicts=["f.service"]),
    ])
    assert dependency_edge_count(registry) == 5


def test_cache_is_smaller_than_text():
    registry = make_registry()
    cache = build_cache(registry)
    assert cache.unit_count == len(registry)
    assert cache.blob_bytes < registry_text_stats(registry).total_text_bytes
    assert cache.edge_count == dependency_edge_count(registry)
    assert cache.fingerprint == registry_fingerprint(registry)


def load_time(registry, cached):
    sim = Simulator(cores=1, switch_cost_ns=0)
    storage = emmc_ue48h6200().attach(sim)

    def loader():
        if cached:
            cache = build_cache(registry)
            yield from preparser.load_from_cache(sim, cache, storage)
        else:
            yield from preparser.load_from_text(sim, registry, storage)

    sim.spawn(loader(), name="loader")
    sim.run()
    return sim


def test_cache_load_is_much_faster_than_text_load():
    registry = make_registry()
    text_time = load_time(registry, cached=False).now
    cache_time = load_time(registry, cached=True).now
    assert cache_time < text_time / 5


def test_text_load_records_the_two_fig6d_phases():
    sim = load_time(make_registry(), cached=False)
    load_span = sim.tracer.find("init.load-units")
    parse_span = sim.tracer.find("init.parse-deps")
    assert load_span.duration_ns > 0
    assert parse_span.duration_ns > 0


def test_costs_scale_with_unit_count():
    small = registry_text_stats(make_registry(units=20))
    large = registry_text_stats(make_registry(units=80))
    assert (preparser.text_loading_cpu_ns(large)
            > 3 * preparser.text_loading_cpu_ns(small))
    assert (preparser.text_parsing_cpu_ns(large)
            > 3 * preparser.text_parsing_cpu_ns(small))


def test_text_stats_charge_each_unit_its_parse_cost():
    registry = make_registry(units=5)
    stats = registry_text_stats(registry)
    sizes = [len(registry.dump_unit_text(name).encode())
             for name in registry.names]
    assert stats.unit_count == 5
    assert stats.total_text_bytes == sum(sizes)
    assert stats.parse_text_ns == sum(
        PARSE_BASE_NS + round(PARSE_PER_BYTE_NS * n) for n in sizes)
    assert preparser.text_parsing_cpu_ns(stats) == (
        stats.parse_text_ns
        + RESOLVE_PER_EDGE_NS * dependency_edge_count(registry))


def test_cache_dataclass_holds_figures():
    cache = PreParsedCache(unit_count=10, edge_count=20, blob_bytes=1000)
    assert cache.unit_count == 10


class TestCacheInvalidation:
    """§2.5 dynamicity: a cache built before a service update is stale."""

    def test_fresh_cache_matches(self):
        registry = make_registry()
        cache = build_cache(registry)
        assert cache.is_fresh(registry)

    def test_updated_service_invalidates(self):
        registry = make_registry()
        cache = build_cache(registry)
        updated = registry.get("u1.service")
        from repro.initsys.units import replace_unit

        clone = replace_unit(updated)
        clone.description = "changed after the cache was built"
        registry.replace(clone)
        assert not cache.is_fresh(registry)

    def test_added_service_invalidates(self):
        registry = make_registry()
        cache = build_cache(registry)
        registry.add(Unit(name="new.service"))
        assert not cache.is_fresh(registry)

    def test_fingerprintless_cache_is_never_fresh(self):
        cache = PreParsedCache(unit_count=1, edge_count=0, blob_bytes=10)
        assert not cache.is_fresh(make_registry())

    def test_manager_falls_back_to_text_parse_on_stale_cache(self):
        from repro.initsys.manager import ManagerConfig
        from tests.fixtures import COMPLETION_UNITS, boot_mini_tv, mini_tv_registry

        # Cache built against a DIFFERENT registry: stale by construction.
        stale_cache = build_cache(make_registry())
        config = ManagerConfig(completion_units=COMPLETION_UNITS,
                               use_preparser=True)
        sim, manager = boot_mini_tv(config, cache=stale_cache)
        assert any(i.name == "preparser.cache-stale"
                   for i in sim.tracer.instants)
        # The text-parse path ran (its load span carries no cached attr).
        load_span = sim.tracer.find("init.load-units")
        assert "cached" not in load_span.attrs

    def test_manager_uses_fresh_cache(self):
        from repro.initsys.manager import ManagerConfig
        from tests.fixtures import COMPLETION_UNITS, boot_mini_tv

        config = ManagerConfig(completion_units=COMPLETION_UNITS,
                               use_preparser=True)
        sim, manager = boot_mini_tv(config)
        load_span = sim.tracer.find("init.load-units")
        assert load_span.attrs.get("cached") is True
