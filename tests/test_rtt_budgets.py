"""RTT-budget regression suite (§4 of the paper).

FUSEE's core performance claim is a *round-trip budget* per operation:
a cached SEARCH completes in one READ RTT, each SNAPSHOT-replication
write phase is one doorbell batch (one RTT) regardless of the replica
count, and chain replication (FUSEE-CR) pays one extra RTT per extra
replica.  These tests pin those budgets with the tracer so an
accidentally serialised batch or an extra round trip fails loudly
instead of showing up as a quiet throughput regression.

Budgets asserted here (embedded op log, warm address cache unless noted):

=====================  ==========  =========================================
operation              RTTs        phases (signaled doorbell batches)
=====================  ==========  =========================================
SEARCH, cache hit      1           cached slot+KV read
SEARCH, no cache       2           bucket read, KV match read
SEARCH, stale entry    2           cached slot+KV read, KV refetch
SEARCH, bypassed key   2           slot read, then the KV block it names
UPDATE, stale entry    +1          the refetch verifies the slot's new block
UPDATE, bypassed key   +1          slot read (KV write batched in), KV read
FUSEE-CR, lost CAS     +2 / retry  slot re-read, KV read, then CAS again
UPDATE, r_idx = 1      2           locate (KV write batched in), primary CAS
UPDATE, r_idx >= 2     4           locate, backup CAS broadcast, log commit,
                                   primary CAS — flat in the replica count
UPDATE, separate log   +1          the log-entry write gets its own batch
FUSEE-CR, r_idx >= 2   2 + r_idx   backup CASes serialise: +1 RTT/replica
SWARM, r_idx = 1       2           locate, CAS broadcast (primary only)
SWARM, r_idx >= 2      3           locate, CAS broadcast to *all* replicas,
                                   log commit — flat in the replica count
INSERT                 UPDATE + 2  alloc batch precedes the KV write, and
                                   the winner re-reads its candidate
                                   buckets before returning (RACE's
                                   duplicate check: two same-key inserters
                                   can win different empty slots, so an
                                   empty-slot CAS win alone cannot rule
                                   out a duplicate)
=====================  ==========  =========================================
"""

from dataclasses import replace

import pytest

from repro import ClusterConfig, FuseeCluster, Tracer
from repro.core.addressing import RegionConfig
from repro.core.race import RaceConfig
from tests.conftest import backlog_ports


def traced_cluster(n_memory_nodes=3, replication_factor=2,
                   index_replication=1, fabric_overrides=None,
                   cluster_overrides=None, backlogged=False,
                   **client_overrides):
    config = ClusterConfig(
        n_memory_nodes=n_memory_nodes,
        replication_factor=replication_factor,
        index_replication=index_replication,
        regions_per_mn=2,
        max_clients=32,
        region=RegionConfig(region_size=1 << 18, block_size=1 << 13,
                            min_object_size=64),
        race=RaceConfig(n_subtables=4, n_groups=16, slots_per_bucket=7))
    if cluster_overrides:
        config = replace(config, **cluster_overrides)
    if fabric_overrides:
        config = replace(config,
                         fabric=replace(config.fabric, **fabric_overrides))
    if client_overrides:
        config = replace(config,
                         client=replace(config.client, **client_overrides))
    tracer = Tracer()
    cluster = FuseeCluster(config, tracer=tracer)
    if backlogged:
        # every batch arrives at backlogged ports: each slot that may
        # coalesce does
        fabric = cluster.fabric
        post = fabric.post

        def post_backlogged(ops, unsignaled=False, qp=0):
            backlog_ports(fabric, 2.0)
            return post(ops, unsignaled=unsignaled, qp=qp)
        fabric.post = post_backlogged
    return cluster, cluster.new_client(), tracer


def warm_update_span(cluster, client, tracer):
    """Insert + two updates; the second update runs fully warm."""
    assert cluster.run_op(client.insert(b"key", b"val")).ok
    assert cluster.run_op(client.update(b"key", b"v2")).ok
    assert cluster.run_op(client.update(b"key", b"v3")).ok
    return tracer.last_span("update")


class TestSearchBudget:
    def test_cached_search_is_one_read_rtt(self):
        cluster, client, tracer = traced_cluster()
        cluster.run_op(client.insert(b"key", b"val"))
        cluster.run_op(client.search(b"key"))  # populates the cache
        result = cluster.run_op(client.search(b"key"))
        assert result.ok
        span = tracer.last_span("search")
        assert span.rtts == 1
        assert span.phases() == ["search.cached_read"]
        # ... and that one round trip is all READs (no atomics on the
        # search path).
        assert set(span.verb_counts()) == {"read"}

    def test_uncached_search_is_two_rtts(self):
        cluster, client, tracer = traced_cluster(cache_enabled=False)
        cluster.run_op(client.insert(b"key", b"val"))
        result = cluster.run_op(client.search(b"key"))
        assert result.ok
        span = tracer.last_span("search")
        assert span.rtts == 2
        assert span.phases() == ["search.bucket_read", "kv.match_read"]


class TestUpdateBudget:
    def test_unreplicated_update_is_two_rtts(self):
        cluster, client, tracer = traced_cluster(index_replication=1)
        span = warm_update_span(cluster, client, tracer)
        assert span.rtts == 2
        assert span.phases() == ["write.locate_cached", "repl.primary_cas"]

    def test_replicated_update_is_four_rtts(self):
        cluster, client, tracer = traced_cluster(index_replication=2)
        span = warm_update_span(cluster, client, tracer)
        assert span.rtts == 4
        assert span.phases() == ["write.locate_cached", "repl.backup_cas",
                                 "log.commit", "repl.primary_cas"]

    def test_snapshot_budget_is_flat_in_replica_count(self):
        """The backup CAS broadcast is one doorbell batch however many
        backups there are — the paper's argument for SNAPSHOT over CR."""
        cluster, client, tracer = traced_cluster(replication_factor=3,
                                                 index_replication=3)
        span = warm_update_span(cluster, client, tracer)
        assert span.rtts == 4
        # the broadcast batch carries one CAS per backup replica
        broadcast = next(b for b in span.batches
                         if b["phase"] == "repl.backup_cas")
        assert len(broadcast["verbs"]) == 2
        assert all(v["kind"] == "cas" for v in broadcast["verbs"])

    def test_separate_log_write_costs_one_extra_rtt(self):
        cluster, client, tracer = traced_cluster(index_replication=1,
                                                 embedded_log=False)
        span = warm_update_span(cluster, client, tracer)
        assert span.rtts == 3
        assert span.phases() == ["write.locate_cached", "log.separate_write",
                                 "repl.primary_cas"]


class TestChainReplicationBudget:
    """FUSEE-CR serialises the per-replica CASes (Fig. 19's latency gap)."""

    @pytest.mark.parametrize("replicas,expected_rtts", [
        (1, 2),   # locate + primary CAS
        (2, 4),   # locate + backup CAS + log commit + primary CAS
        (3, 5),   # ... + one more RTT for the extra backup
    ])
    def test_sequential_update_pays_per_replica(self, replicas,
                                                expected_rtts):
        cluster, client, tracer = traced_cluster(
            replication_factor=max(replicas, 1),
            index_replication=replicas,
            replication_mode="sequential")
        span = warm_update_span(cluster, client, tracer)
        assert span.rtts == expected_rtts
        assert span.phases().count("repl.seq_backup_cas") == \
            max(0, replicas - 1)

    def test_snapshot_beats_chain_at_three_replicas(self):
        snap_cluster, snap_client, snap_tracer = traced_cluster(
            replication_factor=3, index_replication=3)
        seq_cluster, seq_client, seq_tracer = traced_cluster(
            replication_factor=3, index_replication=3,
            replication_mode="sequential")
        snap = warm_update_span(snap_cluster, snap_client, snap_tracer)
        seq = warm_update_span(seq_cluster, seq_client, seq_tracer)
        assert snap.rtts < seq.rtts


class TestSwarmBudget:
    """SWARM commits inside one CAS broadcast to all replicas: a warm
    replicated UPDATE is 3 RTTs (locate, broadcast, post-commit log
    write), one fewer than SNAPSHOT's 4, and flat in the replica count
    like SNAPSHOT."""

    def test_unreplicated_swarm_update_is_two_rtts(self):
        cluster, client, tracer = traced_cluster(index_replication=1,
                                                 replication_mode="swarm")
        span = warm_update_span(cluster, client, tracer)
        assert span.rtts == 2
        assert span.phases() == ["write.locate_cached",
                                 "repl.swarm_broadcast"]

    @pytest.mark.parametrize("replicas", [2, 3])
    def test_replicated_swarm_update_is_three_rtts(self, replicas):
        cluster, client, tracer = traced_cluster(
            replication_factor=replicas, index_replication=replicas,
            replication_mode="swarm")
        span = warm_update_span(cluster, client, tracer)
        assert span.rtts == 3  # flat in the replica count
        assert span.phases() == ["write.locate_cached",
                                 "repl.swarm_broadcast", "log.commit"]

    def test_broadcast_batch_covers_every_replica(self):
        """One doorbell batch carries a CAS per replica — primary
        included, unlike SNAPSHOT's backups-only broadcast."""
        cluster, client, tracer = traced_cluster(replication_factor=3,
                                                 index_replication=3,
                                                 replication_mode="swarm")
        span = warm_update_span(cluster, client, tracer)
        broadcast = next(b for b in span.batches
                         if b["phase"] == "repl.swarm_broadcast")
        assert len(broadcast["verbs"]) == 3
        assert all(v["kind"] == "cas" for v in broadcast["verbs"])

    def test_swarm_beats_snapshot_budget(self):
        swarm_cluster, swarm_client, swarm_tracer = traced_cluster(
            replication_factor=3, index_replication=3,
            replication_mode="swarm")
        snap_cluster, snap_client, snap_tracer = traced_cluster(
            replication_factor=3, index_replication=3)
        swarm = warm_update_span(swarm_cluster, swarm_client, swarm_tracer)
        snap = warm_update_span(snap_cluster, snap_client, snap_tracer)
        assert swarm.rtts == snap.rtts - 1

    def test_swarm_insert_delete_follow_update(self):
        cluster, client, tracer = traced_cluster(index_replication=2,
                                                 replication_mode="swarm")
        update = warm_update_span(cluster, client, tracer)
        insert = tracer.last_span("insert")
        assert insert.rtts == update.rtts + 2
        assert insert.phases()[0] == "alloc"
        assert "insert.dedup_check" in insert.phases()
        assert cluster.run_op(client.delete(b"key")).ok
        assert tracer.last_span("delete").rtts == update.rtts

    def test_swarm_cached_search_still_one_rtt(self):
        """The read path budget is unchanged: swarm validation rides the
        same single doorbell batch (backup word + primary word)."""
        cluster, client, tracer = traced_cluster(index_replication=2,
                                                 replication_mode="swarm")
        assert cluster.run_op(client.insert(b"key", b"val")).ok
        assert cluster.run_op(client.search(b"key")).ok
        assert cluster.run_op(client.search(b"key")).ok
        span = tracer.last_span("search")
        assert span.rtts == 1
        assert span.phases() == ["search.cached_read"]


class TestInsertDeleteBudget:
    def test_insert_is_update_plus_alloc_plus_dedup(self):
        """INSERT = UPDATE + the alloc batch + the post-install duplicate
        re-read (RACE's insert check — see the module docstring table)."""
        cluster, client, tracer = traced_cluster(index_replication=2)
        update = warm_update_span(cluster, client, tracer)
        insert = tracer.last_span("insert")
        assert insert.rtts == update.rtts + 2
        assert insert.phases()[0] == "alloc"
        assert insert.phases()[-1] == "insert.dedup_check"

    def test_clean_dedup_sweep_is_one_bucket_read(self):
        """The duplicate check on an uncontended insert is exactly one
        extra batch — no KV match reads (no foreign fingerprint hits) and
        no master arbitration."""
        cluster, client, tracer = traced_cluster(index_replication=2)
        assert cluster.run_op(client.insert(b"key", b"val")).ok
        phases = tracer.last_span("insert").phases()
        assert phases.count("insert.dedup_check") == 1
        assert "insert.dedup_match_read" not in phases
        assert "insert.dedup_clear" not in phases

    def test_delete_matches_update_budget(self):
        cluster, client, tracer = traced_cluster(index_replication=2)
        update = warm_update_span(cluster, client, tracer)
        assert cluster.run_op(client.delete(b"key")).ok
        delete = tracer.last_span("delete")
        assert delete.rtts == update.rtts

    def test_cleanup_batches_are_off_the_critical_path(self):
        """Old-object invalidation is fire-and-forget (§4.4): it must be
        recorded as unsignaled work, never as an operation RTT."""
        cluster, client, tracer = traced_cluster(index_replication=1)
        span = warm_update_span(cluster, client, tracer)
        assert span.unsignaled >= 1
        unsignaled = [b for b in span.batches if b.get("unsignaled")]
        assert all(b["phase"].startswith("cleanup.") for b in unsignaled)


def batch_kinds(span):
    """[(phase, [verb kind, ...])] of a span's signaled batches."""
    return [(b["phase"], [v["kind"] for v in b["verbs"]])
            for b in span.batches
            if b["kind"] == "batch" and not b.get("unsignaled")]


class TestHowAKeyIsFound:
    """The strategies beside the warm 1-RTT probe (docs/protocol.md, "How
    a key is found"): a stale cached entry costs one refetch, a key the
    adaptive cache bypasses (§4.6) costs slot-then-KV, an empty slot
    drops the entry, and a FUSEE-CR writer that loses its CAS re-reads
    the slot before retrying.  A second client makes the first one's
    entry stale; ``cache_threshold=0.0`` turns one invalidation into a
    bypass."""

    @staticmethod
    def stale_pair(**overrides):
        cluster, reader, tracer = traced_cluster(**overrides)
        writer = cluster.new_client()
        assert cluster.run_op(reader.insert(b"key", b"val")).ok
        assert cluster.run_op(writer.update(b"key", b"v2")).ok
        return cluster, reader, writer, tracer

    def bypassed_pair(self):
        cluster, reader, writer, tracer = self.stale_pair(
            cache_threshold=0.0)
        assert cluster.run_op(reader.search(b"key")).value == b"v2"
        assert reader.cache.stats.invalidations == 1
        return cluster, reader, writer, tracer

    def test_stale_cached_search_refetches_once(self):
        cluster, reader, writer, tracer = self.stale_pair()
        result = cluster.run_op(reader.search(b"key"))
        assert result.ok and result.value == b"v2"
        span = tracer.last_span("search")
        assert span.rtts == 2
        assert batch_kinds(span) == [("search.cached_read", ["read", "read"]),
                                     ("search.kv_refetch", ["read"])]
        assert reader.cache.stats.invalidations == 1
        assert reader.cache.peek(b"key").slot_word == \
            writer.cache.peek(b"key").slot_word
        # re-stored: the next search is the 1-RTT hit again
        assert cluster.run_op(reader.search(b"key")).ok
        assert tracer.last_span("search").phases() == ["search.cached_read"]
        assert reader.cache.stats.invalidations == 1

    def test_bypassed_search_reads_slot_then_kv(self):
        cluster, reader, writer, tracer = self.bypassed_pair()
        assert cluster.run_op(writer.update(b"key", b"v3")).ok
        result = cluster.run_op(reader.search(b"key"))
        assert result.ok and result.value == b"v3"
        span = tracer.last_span("search")
        assert span.rtts == 2
        assert batch_kinds(span) == [("search.bypass_slot_read", ["read"]),
                                     ("search.bypass_kv_read", ["read"])]
        assert reader.cache.stats.bypasses == 1
        # reading the live pair charges nothing and re-stores the entry
        assert reader.cache.stats.invalidations == 1
        assert reader.cache.peek(b"key").slot_word == \
            writer.cache.peek(b"key").slot_word

    @pytest.mark.parametrize("op", ["update", "delete"])
    def test_stale_cached_write_refetches_once(self, op):
        cluster, client, _writer, tracer = self.stale_pair()
        call = client.update(b"key", b"v3") if op == "update" \
            else client.delete(b"key")
        assert cluster.run_op(call).ok
        batches = batch_kinds(tracer.last_span(op))
        assert [phase for phase, _ in batches] == [
            "write.locate_cached", "write.locate_refetch",
            "repl.primary_cas"]
        # the new object's replica WRITEs ride the first batch only
        assert batches[0][1] == ["write"] * 4 + ["read", "read"]
        assert batches[1][1] == ["read"]
        assert client.cache.stats.invalidations == 1
        found = cluster.run_op(client.search(b"key"))
        assert found.value == (b"v3" if op == "update" else None)

    @pytest.mark.parametrize("op", ["update", "delete"])
    def test_bypassed_write_reads_slot_then_kv(self, op):
        cluster, client, _writer, tracer = self.bypassed_pair()
        call = client.update(b"key", b"v3") if op == "update" \
            else client.delete(b"key")
        assert cluster.run_op(call).ok
        batches = batch_kinds(tracer.last_span(op))
        # the KV read keeps the probe's label: one phase, two batches
        assert [phase for phase, _ in batches] == [
            "write.locate_bypass", "write.locate_bypass",
            "repl.primary_cas"]
        assert batches[0][1] == ["write"] * 4 + ["read"]
        assert batches[1][1] == ["read"]
        assert client.cache.stats.bypasses == 1
        assert client.cache.stats.invalidations == 1
        assert (b"key" in client.cache) == (op == "update")

    @pytest.mark.parametrize("op,phases", [
        ("search", ["search.bypass_slot_read", "search.bucket_read"]),
        ("update", ["write.locate_bypass", "write.locate_buckets"]),
        ("delete", ["write.locate_bypass", "write.locate_buckets"]),
    ])
    def test_empty_slot_drops_a_bypassed_entry(self, op, phases):
        cluster, client, writer, tracer = self.bypassed_pair()
        assert cluster.run_op(writer.delete(b"key")).ok
        assert b"key" in client.cache
        call = {"search": lambda: client.search(b"key"),
                "update": lambda: client.update(b"key", b"v3"),
                "delete": lambda: client.delete(b"key")}[op]()
        result = cluster.run_op(call)
        assert not result.ok and result.error is None
        span = tracer.last_span(op)
        assert span.phases() == phases
        if op != "search":
            # the KV WRITEs went with the slot read, not again with the
            # bucket read
            assert batch_kinds(span)[0][1] == ["write"] * 4 + ["read"]
            assert batch_kinds(span)[1][1] == ["read", "read"]
        assert b"key" not in client.cache

    @pytest.mark.parametrize("op,phases", [
        ("search", ["search.cached_read", "search.bucket_read"]),
        ("update", ["write.locate_cached", "write.locate_buckets"]),
    ])
    def test_empty_slot_drops_a_cached_entry(self, op, phases):
        cluster, client, tracer = traced_cluster()
        writer = cluster.new_client()
        assert cluster.run_op(client.insert(b"key", b"val")).ok
        assert cluster.run_op(writer.delete(b"key")).ok
        call = client.search(b"key") if op == "search" \
            else client.update(b"key", b"v3")
        assert not cluster.run_op(call).ok
        assert tracer.last_span(op).phases() == phases
        assert client.cache.stats.invalidations == 1
        assert b"key" not in client.cache

    def test_chain_replication_lost_cas_refreshes_the_slot(self):
        """Two warm FUSEE-CR writers CAS the same slot in the same RTT:
        the loser re-reads the slot and the block it names (one phase,
        two batches) and retries against the winner's word."""
        cluster, first, tracer = traced_cluster(
            replication_mode="sequential")
        second = cluster.new_client()
        assert cluster.run_op(first.insert(b"key", b"val")).ok
        assert cluster.run_op(second.insert(b"other", b"val")).ok
        assert cluster.run_op(second.search(b"key")).ok
        env = cluster.env
        procs = [env.process(first.update(b"key", b"from-first")),
                 env.process(second.update(b"key", b"from-second"))]
        for proc in procs:
            env.run(until=proc)
            assert proc.value.ok and proc.value.outcome.won
        winner, loser = tracer.spans_of("update")[-2:]
        assert winner.phases() == ["write.locate_cached",
                                   "repl.seq_primary_cas"]
        assert batch_kinds(loser) == [
            ("write.locate_cached", ["write"] * 4 + ["read", "read"]),
            ("repl.seq_primary_cas", ["cas"]),
            ("write.refresh_slot", ["read"]),
            ("write.refresh_slot", ["read"]),
            ("repl.seq_primary_cas", ["cas"])]
        assert loser.retries == 1
        assert cluster.run_op(first.search(b"key")).value == b"from-second"


class TestBudgetsUnderHotPathKnobs:
    """Read-spreading and doorbell coalescing reshape NIC serialisation
    waits only — the protocol's RTT-per-op budgets must be untouched at
    any knob setting (the tentpole's 'only waits moved' guarantee)."""

    KNOBS = [
        {"read_spread": "round_robin"},
        {"read_spread": "least_loaded"},
        {"fabric_overrides": {"max_coalesce_width": 8}},
        {"fabric_overrides": {"max_coalesce_width": 8},
         "backlogged": True},
        {"read_spread": "least_loaded",
         "fabric_overrides": {"max_coalesce_width": 8},
         "backlogged": True},
    ]

    @pytest.mark.parametrize("knobs", KNOBS)
    def test_search_budgets_unchanged(self, knobs):
        cluster, client, tracer = traced_cluster(**knobs)
        assert cluster.run_op(client.insert(b"key", b"val")).ok
        assert cluster.run_op(client.search(b"key")).ok
        assert cluster.run_op(client.search(b"key")).ok
        span = tracer.last_span("search")
        assert span.rtts == 1
        assert span.phases() == ["search.cached_read"]

    @pytest.mark.parametrize("knobs", KNOBS)
    def test_uncached_search_budget_unchanged(self, knobs):
        cluster, client, tracer = traced_cluster(cache_enabled=False,
                                                 **knobs)
        assert cluster.run_op(client.insert(b"key", b"val")).ok
        assert cluster.run_op(client.search(b"key")).ok
        span = tracer.last_span("search")
        assert span.rtts == 2
        assert span.phases() == ["search.bucket_read", "kv.match_read"]

    @pytest.mark.parametrize("knobs", KNOBS)
    def test_update_insert_delete_budgets_unchanged(self, knobs):
        cluster, client, tracer = traced_cluster(index_replication=2,
                                                 **knobs)
        update = warm_update_span(cluster, client, tracer)
        assert update.rtts == 4
        assert update.phases() == ["write.locate_cached",
                                   "repl.backup_cas", "log.commit",
                                   "repl.primary_cas"]
        insert = tracer.last_span("insert")
        assert insert.rtts == update.rtts + 2
        assert cluster.run_op(client.delete(b"key")).ok
        assert tracer.last_span("delete").rtts == update.rtts

    def test_spread_reads_still_one_rtt_each(self):
        """Reading a backup replica costs the same single READ RTT."""
        cluster, client, tracer = traced_cluster(read_spread="round_robin")
        assert cluster.run_op(client.insert(b"key", b"val")).ok
        for _ in range(4):  # rotation visits both replicas
            assert cluster.run_op(client.search(b"key")).ok
        searches = tracer.spans_of("search")[-3:]
        assert all(s.rtts == 1 for s in searches)
        assert len(cluster.fabric.stats.kv_replica_reads) == 2


class TestBudgetsUnderMultiQueue:
    """Multi-queue NICs and RPC sharding move *which* port a verb
    serialises on, never how many round trips an operation takes.  The
    budgets must be unchanged in count under every multi-queue knob and
    byte-identical to the seed model at ``nic_ports=1``."""

    MQ_KNOBS = [
        {"cluster_overrides": {"nic_ports": 2}},
        {"cluster_overrides": {"nic_ports": 4}},
        {"cluster_overrides": {"nic_ports": 4, "rpc_shards": 2}},
        {"cluster_overrides": {"nic_ports": 4},
         "fabric_overrides": {"port_affinity": "rss"}},
        {"cluster_overrides": {"nic_ports": 8, "rpc_shards": 4},
         "fabric_overrides": {"port_affinity": "rss",
                              "max_coalesce_width": 8}},
    ]

    @pytest.mark.parametrize("knobs", MQ_KNOBS)
    def test_search_budgets_unchanged(self, knobs):
        cluster, client, tracer = traced_cluster(**knobs)
        assert cluster.run_op(client.insert(b"key", b"val")).ok
        assert cluster.run_op(client.search(b"key")).ok
        assert cluster.run_op(client.search(b"key")).ok
        span = tracer.last_span("search")
        assert span.rtts == 1
        assert span.phases() == ["search.cached_read"]

    @pytest.mark.parametrize("knobs", MQ_KNOBS)
    def test_update_insert_delete_budgets_unchanged(self, knobs):
        cluster, client, tracer = traced_cluster(index_replication=2,
                                                 **knobs)
        update = warm_update_span(cluster, client, tracer)
        assert update.rtts == 4
        assert update.phases() == ["write.locate_cached",
                                   "repl.backup_cas", "log.commit",
                                   "repl.primary_cas"]
        insert = tracer.last_span("insert")
        assert insert.rtts == update.rtts + 2
        assert cluster.run_op(client.delete(b"key")).ok
        assert tracer.last_span("delete").rtts == update.rtts

    def test_single_port_trace_is_byte_identical(self):
        """``nic_ports=1`` (the default) is not just equivalent — the
        whole trace, timings included, matches the pre-multi-queue
        model byte for byte."""
        from repro.obs import jsonl_lines

        def run(overrides):
            cluster, client, tracer = traced_cluster(
                index_replication=2, cluster_overrides=overrides)
            warm_update_span(cluster, client, tracer)
            assert cluster.run_op(client.search(b"key")).ok
            assert cluster.run_op(client.delete(b"key")).ok
            return jsonl_lines(tracer)

        assert run(None) == run({"nic_ports": 1, "rpc_shards": 1})

    def test_multiqueue_timings_match_at_one_client(self):
        """A single unloaded client never queues, so even wall-clock
        timings are identical at any port count (only contention
        changes, and there is none)."""
        from repro.obs import jsonl_lines

        def run(overrides):
            cluster, client, tracer = traced_cluster(
                cluster_overrides=overrides)
            warm_update_span(cluster, client, tracer)
            assert cluster.run_op(client.search(b"key")).ok
            return jsonl_lines(tracer)

        assert run(None) == run({"nic_ports": 4, "rpc_shards": 2})


class TestBudgetsUnderLoad:
    def test_warm_ycsb_search_stays_within_budget(self):
        """No operation mix may push a cached search past 2 RTTs (1 for
        hits, 2 after an update invalidated the cached address)."""
        cluster, client, tracer = traced_cluster()
        keys = [f"k{i}".encode() for i in range(32)]
        for key in keys:
            assert cluster.run_op(client.insert(key, b"v")).ok
        for key in keys:
            assert cluster.run_op(client.search(key)).ok
        for key in keys:
            assert cluster.run_op(client.search(key)).ok
        searches = tracer.spans_of("search")[-32:]
        assert all(s.rtts == 1 for s in searches)
