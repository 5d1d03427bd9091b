"""Cardinality estimation for anchor costing."""

from repro.rpe.parser import parse_rpe
from repro.stats.cardinality import CardinalityEstimator


def atom(store, text):
    return parse_rpe(text).bind(store.schema)


def test_live_counts_preferred(mem_store):
    for index in range(7):
        mem_store.insert_node("VM", {"name": f"v{index}"})
    estimator = CardinalityEstimator(mem_store)
    assert estimator.estimate(atom(mem_store, "VM()")) == 7.0


def test_schema_hints_fallback(network_schema):
    estimator = CardinalityEstimator()  # no store
    from repro.rpe.parser import parse_rpe as parse

    vm_atom = parse("VM()").bind(network_schema)
    hinted = estimator.estimate(vm_atom)
    # Sum of the expected_count hints over the VM subtree.
    assert hinted == 800 + 500 + 300


def test_empty_store_falls_back_to_hints(mem_store):
    estimator = CardinalityEstimator(mem_store)
    assert estimator.estimate(atom(mem_store, "VM()")) > 100


def test_id_equality_pins_to_one(mem_store):
    for index in range(20):
        mem_store.insert_node("VM", {"name": f"v{index}"})
    estimator = CardinalityEstimator(mem_store)
    assert estimator.estimate(atom(mem_store, "VM(id=3)")) == 1.0


def test_name_equality_near_unique(mem_store):
    for index in range(20):
        mem_store.insert_node("VM", {"name": f"v{index}"})
    estimator = CardinalityEstimator(mem_store)
    assert estimator.estimate(atom(mem_store, "VM(name='v3')")) <= 1.0


def test_predicates_reduce_estimate(mem_store):
    for index in range(30):
        mem_store.insert_node("VM", {"name": f"v{index}", "status": "Green"})
    estimator = CardinalityEstimator(mem_store)
    plain = estimator.estimate(atom(mem_store, "VM()"))
    filtered = estimator.estimate(atom(mem_store, "VM(status='Green')"))
    ranged = estimator.estimate(atom(mem_store, "VM(vcpus>2)"))
    assert filtered < plain
    assert ranged < plain
    assert estimator.estimate(atom(mem_store, "VM(status!='x')")) < plain


def test_estimates_never_zero(mem_store):
    estimator = CardinalityEstimator(mem_store)
    value = estimator.estimate(
        atom(mem_store, "VM(status='a', flavor='b', vcpus=9)")
    )
    assert value >= 0.5


def test_cache_and_invalidate(mem_store):
    estimator = CardinalityEstimator(mem_store)
    epoch = estimator.stats_epoch
    before = estimator.estimate(atom(mem_store, "Host()"))
    # Counts stay cached while the store is unchanged, epoch holds steady.
    assert estimator.estimate(atom(mem_store, "Host()")) == before
    assert estimator.stats_epoch == epoch
    for index in range(50):
        mem_store.insert_node("Host", {"name": f"h{index}"})
    # Store writes bump data_version; the estimator notices on its own and
    # advances the statistics epoch (retiring cached plans keyed on it).
    assert estimator.estimate(atom(mem_store, "Host()")) == 50.0
    assert estimator.stats_epoch > epoch
    # Explicit invalidation still forces a refresh.
    epoch = estimator.stats_epoch
    estimator.invalidate()
    assert estimator.stats_epoch > epoch
    assert estimator.estimate(atom(mem_store, "Host()")) == 50.0


def test_epoch_follows_class_counts_not_data_version(mem_store):
    """A version move alone retires nothing: only a change in a class count
    the cached estimates were built from advances the epoch."""
    estimator = CardinalityEstimator(mem_store)
    host = mem_store.insert_node("Host", {"name": "h0", "status": "Green"})
    vm = mem_store.insert_node("VMWare", {"name": "v0"})
    assert estimator.estimate(atom(mem_store, "Host()")) == 1.0
    epoch = estimator.stats_epoch

    version = mem_store.data_version
    mem_store.clock.advance(1)
    mem_store.update_element(host, {"status": "Red"})
    assert mem_store.data_version > version
    assert estimator.stats_epoch == epoch  # no count moved

    # VM counts were never sampled, so no cached estimate depends on them.
    mem_store.delete_element(vm)
    assert estimator.stats_epoch == epoch

    mem_store.insert_node("Host", {"name": "h1"})
    assert estimator.stats_epoch == epoch + 1
    assert estimator.estimate(atom(mem_store, "Host()")) == 2.0
    mem_store.clock.advance(1)
    mem_store.delete_element(host)
    assert estimator.stats_epoch == epoch + 2
    assert estimator.estimate(atom(mem_store, "Host()")) == 1.0
