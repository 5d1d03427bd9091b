"""Batch-vs-row executor ablation: the vectorized read hot path.

The batch engine freezes the store into a sealed CSR base, keeps what
writers change since in a delta overlay, and serves anchors, temporal
filters, frontier expansion and point reads from flat columns
(``repro/plan/batch.py``).  This bench builds the same ~10k-element
churned inventory the time-travel ablation uses, then times each operator
family with ``batch_enabled`` flipped on and off:

* **anchor scan** — current-scope ``scan_atom`` over every VM;
* **temporal filter** — the same scan AT the churn midpoint (bisects over
  sorted interval columns vs an ``Interval`` call per version);
* **2-hop expansion** — ``in_edges_many`` over every host (each fans in
  ~20 ``OnServer`` edges, live and dead) followed by ``get_many`` of
  every edge source (wave-at-a-time CSR walk vs per-element
  adjacency-dict chasing);
* **pathway match** — end-to-end ``find_paths`` of VM()->OnServer()->Host()
  through the planner/executor, where shared NFA stepping dilutes the
  operator-level gains;
* **churn read** — ``CHURN_WRITES`` writes (status flips, now and then a
  VM migration) then one current-scope 2-hop read, ``CHURN_ROUNDS`` times
  over: the read-after-write case, where the batch engine answers from
  base + overlay instead of rebuilding and must still beat the row path.

Every timed pair is digest-checked, so the ablation doubles as a
differential test at benchmark scale.  Results land in
``BENCH_executor.json`` (CI artifact + regression-gated baseline).

``NEPAL_EXEC_ELEMENTS`` / ``NEPAL_EXEC_DAYS`` scale the inventory (CI's
bench smoke shrinks both); ``NEPAL_EXEC_REPEAT`` is the best-of count.
At full scale the bench asserts the >= 3x speedup the batch engine was
built for on the temporal-filter and 2-hop cells; at reduced scale it
only asserts the batch path never collapses.  At every scale the churn
cell must not lose to the row path (``churn_read_speedup >= 1``).
"""

from __future__ import annotations

import json
import os
import random
import time
from contextlib import contextmanager

from repro.core.database import NepalDB
from repro.rpe.parser import parse_rpe
from repro.schema.builtin import build_network_schema
from repro.storage.base import TimeScope
from repro.storage.memgraph.csr import build_csr
from repro.storage.memgraph.store import MemGraphStore
from repro.temporal.clock import TransactionClock
from repro.util.text import format_table

T0 = 1_600_000_000.0
DAY = 86_400.0

ELEMENTS = int(os.environ.get("NEPAL_EXEC_ELEMENTS", "10000"))
DAYS = int(os.environ.get("NEPAL_EXEC_DAYS", "12"))
REPEAT = int(os.environ.get("NEPAL_EXEC_REPEAT", "3"))
JSON_PATH = os.environ.get("NEPAL_EXEC_JSON", "BENCH_executor.json")

#: The >= 3x acceptance targets only bind at the 10k-element scale the
#: ISSUE names; the reduced CI smoke just guards against collapse.
FULL_SCALE = ELEMENTS >= 10_000

CHURN_FRACTION = 0.25
SEED = 20180613
#: The churn-read cell: writes between consecutive reads, and how many
#: write-then-read rounds are timed.
CHURN_WRITES = 4
CHURN_ROUNDS = 200


def build_churned_store() -> tuple[MemGraphStore, dict[int, int]]:
    """~ELEMENTS initial elements, then DAYS days of VM turnover.

    Returns the store and the live VMs' ``{vm uid: OnServer edge uid}``.
    """
    rng = random.Random(SEED)
    store = MemGraphStore(
        build_network_schema(),
        clock=TransactionClock(start=T0),
        indexed_fields=("name",),
    )
    n_hosts = max(ELEMENTS // 20, 4)
    n_vms = max((ELEMENTS - n_hosts) // 2, 8)

    hosts: list[int] = []
    with store.bulk():
        for i in range(n_hosts):
            hosts.append(
                store.insert_node("Host", {"name": f"h{i}", "status": "Green"})
            )

    serial = 0
    vm_edge: dict[int, int] = {}

    def spawn_vm() -> None:
        nonlocal serial
        status = rng.choice(("Green", "Amber", "Red"))
        uid = store.insert_node("VM", {"name": f"v{serial}", "status": status})
        vm_edge[uid] = store.insert_edge("OnServer", uid, hosts[serial % n_hosts])
        serial += 1

    with store.bulk():
        for _ in range(n_vms):
            spawn_vm()

    for _ in range(DAYS):
        store.clock.advance(DAY)
        doomed = rng.sample(sorted(vm_edge), int(len(vm_edge) * CHURN_FRACTION))
        with store.bulk():
            for uid in doomed:
                store.delete_element(vm_edge.pop(uid))
                store.delete_element(uid)
            for _ in doomed:
                spawn_vm()
    store.clock.advance(DAY)
    return store, vm_edge


@contextmanager
def row_engine(store):
    """Run the body on the row-at-a-time oracle path."""
    store.batch_enabled = False
    try:
        yield
    finally:
        store.batch_enabled = True


def timed(fn):
    """(best-of-REPEAT seconds, last result)."""
    best = None
    result = None
    for _ in range(REPEAT):
        started = time.perf_counter()
        result = fn()
        elapsed = time.perf_counter() - started
        best = elapsed if best is None else min(best, elapsed)
    return best, result


def scan_digest(records) -> list[tuple]:
    return [(r.uid, r.period.start) for r in records]


def hop_digest(result) -> tuple:
    edges, targets = result
    return (
        {uid: [e.uid for e in lst] for uid, lst in edges.items()},
        {uid: r.period.start for uid, r in targets.items()},
    )


def path_digest(pathways) -> set[tuple]:
    return {p.key() for p in pathways}


def churn_read_cell(store, vm_edge, host_uids, read, digest):
    """``CHURN_ROUNDS`` x (``CHURN_WRITES`` writes, then *read* timed on
    both engines over the identical state).  Returns (batch s, row s)."""
    rng = random.Random(SEED + 1)
    vms = sorted(vm_edge)
    batch_s = row_s = 0.0
    for _ in range(CHURN_ROUNDS):
        for _ in range(CHURN_WRITES):
            store.clock.advance(1.0)
            vm = rng.choice(vms)
            if rng.random() < 0.1:  # a migration: the placement edge is replaced
                store.delete_element(vm_edge[vm])
                vm_edge[vm] = store.insert_edge("OnServer", vm, rng.choice(host_uids))
            else:
                store.update_element(vm, {"status": rng.choice(("Green", "Amber", "Red"))})
        started = time.perf_counter()
        batch_result = read()
        batch_s += time.perf_counter() - started
        with row_engine(store):
            started = time.perf_counter()
            row_result = read()
            row_s += time.perf_counter() - started
        assert digest(batch_result) == digest(row_result), "churn read"
    return batch_s, row_s


def test_executor_ablation_table(capsys):
    store, vm_edge = build_churned_store()
    end = store.clock.now()
    mid = (T0 + end) / 2
    current = TimeScope.current()
    at_mid = TimeScope.at(mid)

    vm_atom = parse_rpe("VM()").bind(store.schema)
    vm_uids = sorted(r.uid for r in store.scan_atom(vm_atom, current))
    host_atom = parse_rpe("Host()").bind(store.schema)
    host_uids = sorted(r.uid for r in store.scan_atom(host_atom, current))

    def two_hop(scope):
        edges = store.in_edges_many(host_uids, scope)
        sources = store.get_many(
            [e.source_uid for lst in edges.values() for e in lst], scope
        )
        return edges, sources

    db = NepalDB(schema=store.schema, clock=store.clock)
    db.attach_store("bench", store)
    path_rpe = "VM()->[OnServer()]->Host()"

    cases = [
        (
            "anchor scan VM() current",
            lambda: store.scan_atom(vm_atom, current),
            scan_digest,
        ),
        (
            "temporal filter VM() AT t_mid",
            lambda: store.scan_atom(vm_atom, at_mid),
            scan_digest,
        ),
        (
            "2-hop expand Host <- edges <- VM",
            lambda: two_hop(current),
            hop_digest,
        ),
        (
            "2-hop expand AT t_mid",
            lambda: two_hop(at_mid),
            hop_digest,
        ),
        (
            "pathway match VM->OnServer->Host",
            lambda: db.find_paths(path_rpe, store="bench"),
            path_digest,
        ),
    ]

    # Time one full build (what a merge costs) directly, then let the first
    # batch read seal the store's own base outside the timings: steady
    # state — what the cells measure — reuses it.
    store.batch_enabled = True
    build_s, _ = timed(lambda: build_csr(store))
    store._csr_snapshot()

    rows = []
    table_rows = []
    speedups: dict[str, float] = {}
    for label, fn, digest in cases:
        batch_s, batch_result = timed(fn)
        with row_engine(store):
            row_s, row_result = timed(fn)

        # Zero result diffs: the ablation is also a correctness oracle.
        assert digest(batch_result) == digest(row_result), label

        speedup = row_s / batch_s if batch_s > 0 else float("inf")
        speedups[label] = speedup
        rows.append({
            "label": label,
            "batch_ms": batch_s * 1000,
            "row_ms": row_s * 1000,
            "speedup": speedup,
        })
        table_rows.append(
            [label, f"{batch_s * 1000:.2f}", f"{row_s * 1000:.2f}", f"{speedup:.1f}x"]
        )

    # Last, because it writes: the static cells above ran on an empty overlay.
    sealed_before = store._csr_snapshot().data_version
    churn_batch_s, churn_row_s = churn_read_cell(
        store, vm_edge, host_uids, lambda: two_hop(current), hop_digest
    )
    churn_speedup = churn_row_s / churn_batch_s if churn_batch_s > 0 else float("inf")
    churn_label = f"churn: {CHURN_WRITES} writes + 2-hop read x{CHURN_ROUNDS}"
    rows.append({
        "label": churn_label,
        "batch_ms": churn_batch_s * 1000,
        "row_ms": churn_row_s * 1000,
        "speedup": churn_speedup,
    })
    table_rows.append([
        churn_label, f"{churn_batch_s * 1000:.2f}", f"{churn_row_s * 1000:.2f}",
        f"{churn_speedup:.1f}x",
    ])

    filter_speedup = speedups["temporal filter VM() AT t_mid"]
    hop_speedup = min(
        speedups["2-hop expand Host <- edges <- VM"],
        speedups["2-hop expand AT t_mid"],
    )
    min_speedup = min(speedups.values())

    payload = {
        "bench": "executor",
        "elements": ELEMENTS,
        "days": DAYS,
        "repeat": REPEAT,
        "full_scale": FULL_SCALE,
        "churn_fraction": CHURN_FRACTION,
        "uids_ever": len(store.known_uids()),
        "live_vms": len(vm_uids),
        "hosts": len(host_uids),
        "csr_build_ms": build_s * 1000,
        "csr": store._csr_snapshot().describe(),
        "rows": rows,
        "temporal_filter_speedup": filter_speedup,
        "two_hop_speedup": hop_speedup,
        "min_speedup": min_speedup,
        "churn_writes": CHURN_WRITES,
        "churn_rounds": CHURN_ROUNDS,
        "churn_read_speedup": churn_speedup,
        "churn_base_resealed": store._csr_snapshot().data_version != sealed_before,
        # Machine-independent ratios, compared against the committed
        # baseline by benchmarks/check_regression.py in CI.
        "gate": {
            "higher_is_better": {
                "temporal_filter_speedup": filter_speedup,
                "two_hop_speedup": hop_speedup,
                "min_speedup": min_speedup,
                "churn_read_speedup": churn_speedup,
            },
            "lower_is_better": {},
        },
    }
    with open(JSON_PATH, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")

    with capsys.disabled():
        print()
        print(
            f"== batch vs row executor ({ELEMENTS} elements, {DAYS} churn days, "
            f"{payload['uids_ever']} uids ever, {len(vm_uids)} live VMs, "
            f"CSR build {build_s * 1000:.1f} ms) =="
        )
        print(format_table(["cell", "batch ms", "row ms", "speedup"], table_rows))
        print(f"(written to {JSON_PATH})")

    # The batch path must never collapse; at the ISSUE's named scale the
    # operator-level cells must clear the 3x acceptance bar.
    assert min_speedup > 0.5, payload
    # A read behind writes must not pay for the batch engine's snapshot.
    assert churn_speedup >= 1.0, payload
    if FULL_SCALE:
        assert filter_speedup >= 3.0, payload
        assert hop_speedup >= 3.0, payload
