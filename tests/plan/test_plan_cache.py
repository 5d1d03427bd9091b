"""The compiled-plan cache: hits, versioned invalidation, LRU bounds."""

import pytest

from repro.core.database import NepalDB
from repro.plan.cache import LruCache, PlanCache
from repro.plan.planner import Planner, PlannerOptions
from repro.rpe.parser import parse_rpe
from repro.schema.builtin import build_network_schema
from repro.stats.cardinality import CardinalityEstimator
from repro.storage.memgraph.store import MemGraphStore
from repro.temporal.clock import TransactionClock
from tests.conftest import T0, SmallInventory

QUERY = "Retrieve P From PATHS P Where P MATCHES VM()->OnServer()->Host()"


@pytest.fixture
def db():
    database = NepalDB(clock=TransactionClock(start=T0))
    SmallInventory(database.store)
    return database


# ---------------------------------------------------------------------------
# LruCache
# ---------------------------------------------------------------------------


def test_lru_eviction_bounds_memory():
    cache = LruCache(max_size=3)
    for index in range(10):
        cache.put(index, f"value-{index}")
    assert len(cache) == 3
    assert cache.counters.evictions == 7
    # The three most recent keys survive.
    assert cache.keys() == [7, 8, 9]


def test_lru_recency_refresh_on_get():
    cache = LruCache(max_size=2)
    cache.put("a", 1)
    cache.put("b", 2)
    assert cache.get("a") == 1  # refreshes "a"
    cache.put("c", 3)           # evicts "b", the oldest
    assert "a" in cache and "c" in cache and "b" not in cache


def test_lru_counters():
    cache = LruCache(max_size=2)
    assert cache.get("missing") is None
    cache.put("x", 1)
    assert cache.get("x") == 1
    assert cache.counters.misses == 1
    assert cache.counters.hits == 1
    assert cache.clear() == 1
    assert cache.counters.invalidations == 1


def test_lru_rejects_nonpositive_size():
    with pytest.raises(ValueError):
        LruCache(0)


# ---------------------------------------------------------------------------
# PlanCache keying & invalidation
# ---------------------------------------------------------------------------


def _store(name="s"):
    return MemGraphStore(
        build_network_schema(), clock=TransactionClock(start=T0), name=name
    )


def test_plan_cache_hit_on_repeat():
    store = _store()
    estimator = CardinalityEstimator(store)
    options = PlannerOptions()
    cache = PlanCache()
    factory_calls = []

    def compile_program():
        factory_calls.append(1)
        return Planner(store.schema, estimator, options).compile("Host()")

    for _ in range(3):
        key = PlanCache.key_for("Host()", "default", store, estimator, options)
        cache.get_or_compile(key, compile_program)
    assert len(factory_calls) == 1
    assert cache.stats()["hits"] == 2


def test_distinct_stores_never_share_entries():
    """Federated variables on different stores get distinct cache entries,
    even when the stores share a display name and a schema shape."""
    left, right = _store("twin"), _store("twin")
    options = PlannerOptions()
    cache = PlanCache()
    left_key = PlanCache.key_for(
        "Host()", "twin", left, CardinalityEstimator(left), options
    )
    right_key = PlanCache.key_for(
        "Host()", "twin", right, CardinalityEstimator(right), options
    )
    assert left_key != right_key
    cache.store(left_key, "left-program")
    cache.store(right_key, "right-program")
    assert cache.lookup(left_key) == "left-program"
    assert cache.lookup(right_key) == "right-program"
    assert len(cache) == 2


def test_schema_version_changes_key():
    store = _store()
    estimator = CardinalityEstimator(store)
    options = PlannerOptions()
    before = PlanCache.key_for("Host()", "default", store, estimator, options)
    store.schema.define_node("BrandNewClass", parent="NetworkElement")
    after = PlanCache.key_for("Host()", "default", store, estimator, options)
    assert before != after


def test_stats_epoch_changes_key_and_purges_stale_entry():
    store = _store()
    estimator = CardinalityEstimator(store)
    options = PlannerOptions()
    cache = PlanCache()
    before = PlanCache.key_for("Host()", "default", store, estimator, options)
    # Compiling the plan costs its anchors, which samples the Host count.
    estimator.estimate(parse_rpe("Host()").bind(store.schema))
    cache.store(before, "old-plan")
    store.insert_node("Host", {"name": "h"})  # moves a sampled count → epoch
    after = PlanCache.key_for("Host()", "default", store, estimator, options)
    assert before != after
    cache.store(after, "new-plan")
    # The stale entry was purged (counted as an invalidation), not leaked.
    assert len(cache) == 1
    assert cache.lookup(before) is None
    assert cache.stats()["invalidations"] == 1


def test_invalidate_by_store_name():
    store = _store()
    estimator = CardinalityEstimator(store)
    options = PlannerOptions()
    cache = PlanCache()
    for name in ("alpha", "beta"):
        cache.store(
            PlanCache.key_for("Host()", name, store, estimator, options), name
        )
    assert cache.invalidate("alpha") == 1
    assert len(cache) == 1
    assert cache.invalidate() == 1
    assert len(cache) == 0


def test_plan_cache_key_template_excludes_versions():
    store = _store()
    estimator = CardinalityEstimator(store)
    options = PlannerOptions()
    before = PlanCache.key_for("Host()", "default", store, estimator, options)
    store.insert_node("Host", {"name": "h"})
    after = PlanCache.key_for("Host()", "default", store, estimator, options)
    assert before.template() == after.template()


# ---------------------------------------------------------------------------
# NepalDB integration
# ---------------------------------------------------------------------------


def test_write_then_requery_returns_fresh_results(db):
    baseline = len(db.query(QUERY).rows)
    assert len(db.query(QUERY).rows) == baseline  # warm hit, same answer
    host = db.insert_node("Host", {"name": "host-new"})
    vm = db.insert_node("VMWare", {"name": "vm-new"})
    db.insert_edge("OnServer", vm, host)
    assert len(db.query(QUERY).rows) == baseline + 1


def test_status_churn_keeps_cached_plans_but_count_changes_retire_them():
    """Field updates move no class count, so the statistics epoch — and with
    it every cached plan — survives them; inserts and deletes do not."""
    db = NepalDB(clock=TransactionClock(start=T0))
    inv = SmallInventory(db.store)
    estimator = db.executor().estimator_for(db.store)
    baseline = len(db.query(QUERY).rows)
    epoch = estimator.stats_epoch

    def plan_counters():
        stats = db.cache_stats()["plan"]
        return stats["hits"], stats["misses"]

    hits, misses = plan_counters()
    for status in ("Red", "Amber", "Green"):
        db.store.clock.advance(1)
        db.update(inv.vm1, {"status": status})
        assert len(db.query(QUERY).rows) == baseline
    assert estimator.stats_epoch == epoch
    assert plan_counters() == (hits + 3, misses)

    host = db.insert_node("Host", {"name": "host-new"})
    assert estimator.stats_epoch > epoch
    epoch = estimator.stats_epoch
    db.query(QUERY)
    assert plan_counters() == (hits + 3, misses + 1)  # replanned once
    db.delete(host)
    assert estimator.stats_epoch > epoch


def test_delete_then_requery_returns_fresh_results(db):
    rows = db.query(QUERY).rows
    victim = rows[0].bindings["P"].source.uid
    db.delete(victim)
    assert len(db.query(QUERY).rows) == len(rows) - 1


def test_schema_change_drops_cached_plans(db):
    db.query(QUERY)
    stats = db.cache_stats()["plan"]
    assert stats["entries"] == 1
    db.schema.define_node("Appliance", parent="NetworkElement")
    db.query(QUERY)
    # The old entry was replaced, not reused: one more miss, no new hit.
    stats = db.cache_stats()["plan"]
    assert stats["misses"] == 2
    assert stats["invalidations"] == 1
    assert stats["entries"] == 1


def test_find_paths_uses_plan_cache(db):
    first = db.find_paths("VM()->OnServer()->Host()")
    second = db.find_paths("VM()->OnServer()->Host()")
    assert [p.key() for p in first] == [p.key() for p in second]
    stats = db.cache_stats()["plan"]
    assert stats["hits"] == 1


def test_federated_stores_isolated_in_cache(db):
    """``PATHS@other`` variables never reuse the default store's plans."""
    other = _store("other")
    other_inv = SmallInventory(other)
    db.attach_store("other", other)
    assert len(db.query(QUERY).rows) == 2
    other.delete_element(other_inv.vm2)
    on_other = (
        "Retrieve P From PATHS@other P Where P MATCHES VM()->OnServer()->Host()"
    )
    assert len(db.query(on_other).rows) == 1
    stats = db.cache_stats()["plan"]
    assert stats["entries"] == 2  # one per store, same RPE text
    # Re-running both still hits the right entries.
    assert len(db.query(QUERY).rows) == 2
    assert len(db.query(on_other).rows) == 1


def test_per_variable_timestamps_stay_correct_across_cache(db):
    """Cached plans are scope-free: `@` timestamps still slice correctly."""
    early = db.clock.now()
    db.clock.advance(100)
    host = db.insert_node("Host", {"name": "late-host"})
    vm = db.insert_node("VMWare", {"name": "late-vm"})
    db.insert_edge("OnServer", vm, host)
    late = db.clock.now()
    current = len(db.query(QUERY).rows)
    past = (
        f"Retrieve P From PATHS P(@{early:.0f}) "
        "Where P MATCHES VM()->OnServer()->Host()"
    )
    present = (
        f"Retrieve P From PATHS P(@{late:.0f}) "
        "Where P MATCHES VM()->OnServer()->Host()"
    )
    assert len(db.query(past).rows) == current - 1
    assert len(db.query(present).rows) == current
    # And again, warm — identical answers from cached plans.
    assert len(db.query(past).rows) == current - 1
    assert len(db.query(present).rows) == current


def test_view_redefinition_invalidates_typecheck(db):
    db.define_view("PLACEMENTS", "VM()->OnServer()->Host()")
    query = "Retrieve P From PLACEMENTS P"
    assert len(db.query(query).rows) == 2
    db.define_view("PLACEMENTS", "ProxyVFC()->OnVM()->VM()")
    assert len(db.query(query).rows) == 1


def test_clear_plan_cache(db):
    db.query(QUERY)
    assert db.clear_plan_cache() == 1
    assert db.cache_stats()["plan"]["entries"] == 0
    assert len(db.query(QUERY).rows) == 2


def test_cache_stats_shape(db):
    db.query(QUERY)
    stats = db.cache_stats()
    for section in ("plan", "parse", "typecheck", "nfa", "timings"):
        assert section in stats
    assert stats["plan"]["max_size"] > 0
    assert "execute" in stats["timings"]
    assert "plan" in stats["timings"]
