"""Tests for YCSB and microbenchmark workload generators."""

import math
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.workloads import (
    LatestGenerator,
    MicroConfig,
    MicroWorkload,
    ScrambledZipfian,
    YcsbConfig,
    YcsbWorkload,
    ZipfianGenerator,
    key_bytes,
    make_value,
)
from repro.workloads.ycsb import _SCATTER, scatter


class TestZipfian:
    def test_range(self):
        gen = ZipfianGenerator(100, seed=1)
        for _ in range(2000):
            assert 0 <= gen.next() < 100

    def test_determinism(self):
        a = ZipfianGenerator(1000, seed=7)
        b = ZipfianGenerator(1000, seed=7)
        assert [a.next() for _ in range(100)] == [b.next() for _ in range(100)]

    def test_skew(self):
        """θ=0.99 over 1000 keys: rank 0 gets ~13% of draws."""
        gen = ZipfianGenerator(1000, theta=0.99, seed=3)
        counts = Counter(gen.next() for _ in range(20000))
        top = counts.most_common(1)[0]
        assert top[0] == 0
        assert 0.08 < top[1] / 20000 < 0.20

    def test_frequency_monotone_for_top_ranks(self):
        gen = ZipfianGenerator(100, seed=11)
        counts = Counter(gen.next() for _ in range(50000))
        assert counts[0] > counts[5] > counts[50]

    def test_theoretical_head_probability(self):
        """P(rank 0) = 1/zeta_n; check the empirical estimate."""
        n, theta = 100, 0.99
        gen = ZipfianGenerator(n, theta=theta, seed=5)
        zetan = sum(1.0 / math.pow(i, theta) for i in range(1, n + 1))
        expect = 1.0 / zetan
        draws = 40000
        got = sum(1 for _ in range(draws) if gen.next() == 0) / draws
        assert abs(got - expect) < 0.03

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            ZipfianGenerator(0)
        with pytest.raises(ValueError):
            ZipfianGenerator(10, theta=1.0)

    def test_single_key(self):
        gen = ZipfianGenerator(1, seed=1)
        assert all(gen.next() == 0 for _ in range(50))

    @pytest.mark.parametrize("theta", [0.01, 0.5, 0.99])
    def test_two_keys(self, theta):
        """zeta(2) == zeta(n) at n = 2: eta's denominator is zero there
        (the constructor used to raise ZeroDivisionError), and no draw
        reaches the formula that uses it."""
        gen = ZipfianGenerator(2, theta=theta, seed=3)
        counts = Counter(gen.next() for _ in range(2000))
        assert set(counts) == {0, 1}
        assert counts[0] > counts[1]
        workload = YcsbWorkload(YcsbConfig(workload="A", n_keys=2), seed=1)
        assert {workload.next_op()[1] for _ in range(200)} \
            == set(workload.load_keys())

    @pytest.mark.parametrize("n,theta", [(3, 0.99), (1000, 0.5),
                                         (20000, 0.99)])
    def test_memoised_zeta_is_the_plain_sum(self, n, theta):
        """Same float, bit for bit: it scales every draw, so the
        summation order is part of every workload's op sequence."""
        plain = sum(1.0 / math.pow(i, theta) for i in range(1, n + 1))
        assert ZipfianGenerator._zeta(n, theta) == plain
        assert ZipfianGenerator._zeta(n, theta) == plain   # from the memo
        assert ZipfianGenerator(n, theta)._zetan == plain


class TestScrambledZipfian:
    def test_range(self):
        gen = ScrambledZipfian(500, seed=2)
        for _ in range(1000):
            assert 0 <= gen.next() < 500

    def test_hot_keys_scattered(self):
        """Scrambling must spread the hottest keys over the key space."""
        gen = ScrambledZipfian(1000, seed=2)
        counts = Counter(gen.next() for _ in range(30000))
        hot = [k for k, _ in counts.most_common(10)]
        assert max(hot) - min(hot) > 100

    def test_still_skewed(self):
        gen = ScrambledZipfian(1000, seed=4)
        counts = Counter(gen.next() for _ in range(30000))
        assert counts.most_common(1)[0][1] / 30000 > 0.05

    @staticmethod
    def _byte_loop_scatter(rank, n):
        """The per-draw hash the table replaced, kept here as the oracle."""
        h = 0xCBF29CE484222325
        for _ in range(8):
            h ^= rank & 0xFF
            h = (h * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
            rank >>= 8
        return h % n

    @pytest.mark.parametrize("n", [1, 2, 200, 20_000])
    def test_scatter_table_is_the_byte_loop(self, n):
        for rank in range(n):
            expect = self._byte_loop_scatter(rank, n)
            assert scatter(rank, n) == expect
            assert scatter(rank, n) == expect      # from the table
        # a rotated scenario rank is just another rank of the key space
        assert scatter(n + 12345, n) == self._byte_loop_scatter(n + 12345, n)

    def test_streams_of_one_key_space_share_one_table(self):
        # 1237 keys: a key space no other test draws from
        config = YcsbConfig(workload="C", n_keys=1237)
        a, b = YcsbWorkload(config, seed=1), YcsbWorkload(config, seed=2)
        # a scrambled stream binds its key space's table when it is made
        assert _SCATTER[1237] == {}
        drawn = {a.next_op()[1] for _ in range(200)}
        table = _SCATTER[1237]
        filled = len(table)
        assert 0 < filled <= 200 and len(drawn) <= filled
        for _ in range(200):
            b.next_op()
        assert table is _SCATTER[1237]
        assert filled <= len(table) < 2 * filled   # b re-used a's hot ranks
        assert all(index == self._byte_loop_scatter(rank, 1237)
                   for rank, index in table.items())
        assert _SCATTER[1238] is not table


class TestLatest:
    def test_prefers_recent(self):
        gen = LatestGenerator(1000, seed=1)
        counts = Counter(gen.next() for _ in range(20000))
        recent = sum(counts[k] for k in range(900, 1000))
        old = sum(counts[k] for k in range(0, 100))
        assert recent > old * 3

    def test_tracks_inserts(self):
        gen = LatestGenerator(100, seed=1)
        gen.observe_insert(499)
        counts = Counter(gen.next() for _ in range(5000))
        assert max(counts) > 400  # draws now reach the new maximum


class TestHelpers:
    def test_key_bytes_fixed_width(self):
        assert len(key_bytes(0)) == len(key_bytes(10**12)) == 24

    def test_key_bytes_unique(self):
        assert len({key_bytes(i) for i in range(1000)}) == 1000

    @given(st.integers(0, 4096), st.integers(0, 1000))
    @settings(max_examples=50)
    def test_make_value_size_property(self, size, salt):
        assert len(make_value(size, salt)) == size

    def test_make_value_varies_with_salt(self):
        assert make_value(64, 1) != make_value(64, 2)


class TestYcsbWorkload:
    def test_unknown_workload_rejected(self):
        with pytest.raises(ValueError):
            YcsbConfig(workload="Z")

    def test_bad_mix_rejected(self):
        with pytest.raises(ValueError):
            YcsbConfig(mix=(0.5, 0.6, 0.0))

    def test_value_size_accounts_for_key(self):
        config = YcsbConfig(kv_size=1024)
        assert config.value_size == 1000

    @pytest.mark.parametrize("name,expect", [
        ("A", (0.50, 0.50)), ("B", (0.95, 0.05)), ("C", (1.0, 0.0)),
    ])
    def test_op_mix(self, name, expect):
        wl = YcsbWorkload(YcsbConfig(workload=name, n_keys=1000), seed=1)
        counts = Counter(wl.next_op()[0] for _ in range(4000))
        search_f = counts["search"] / 4000
        update_f = counts["update"] / 4000
        assert abs(search_f - expect[0]) < 0.03
        assert abs(update_f - expect[1]) < 0.03

    def test_workload_d_inserts_fresh_keys(self):
        wl = YcsbWorkload(YcsbConfig(workload="D", n_keys=100), seed=1)
        inserted = set()
        for _ in range(1000):
            op, key, value = wl.next_op()
            if op == "insert":
                assert key not in inserted
                inserted.add(key)
                assert value is not None
        assert len(inserted) > 10

    def test_custom_mix(self):
        wl = YcsbWorkload(YcsbConfig(mix=(0.3, 0.7, 0.0), n_keys=100),
                          seed=2)
        counts = Counter(wl.next_op()[0] for _ in range(3000))
        assert abs(counts["update"] / 3000 - 0.7) < 0.04

    def test_load_keys(self):
        wl = YcsbWorkload(YcsbConfig(workload="C", n_keys=50))
        keys = wl.load_keys()
        assert len(keys) == 50
        assert len(set(keys)) == 50

    def test_update_values_sized(self):
        config = YcsbConfig(workload="A", n_keys=100, kv_size=256)
        wl = YcsbWorkload(config, seed=3)
        for _ in range(200):
            op, _key, value = wl.next_op()
            if op == "update":
                assert len(value) == config.value_size

    # (op, key index) of the first 64 ops of the benchmark's key space at
    # its seed, captured before the zeta constant was memoised.
    GOLDEN_A_20000_SEED_13 = [
        ("u", 6178), ("u", 2161), ("u", 1894), ("u", 18475), ("u", 3814),
        ("s", 7360), ("u", 13223), ("s", 7360), ("u", 15614), ("u", 4996),
        ("s", 4784), ("s", 16769), ("s", 7470), ("u", 16502), ("u", 15678),
        ("u", 7894), ("s", 14405), ("s", 8652), ("s", 13223), ("s", 12003),
        ("u", 1993), ("u", 15696), ("s", 14755), ("s", 5078), ("s", 6508),
        ("u", 7683), ("u", 6178), ("u", 18028), ("s", 8601), ("s", 7081),
        ("s", 3441), ("u", 5911), ("u", 5373), ("u", 5911), ("u", 19243),
        ("u", 4996), ("s", 12222), ("s", 17685), ("s", 13493), ("s", 10054),
        ("s", 12634), ("u", 2286), ("u", 4996), ("s", 4686), ("u", 9567),
        ("s", 3814), ("u", 16769), ("u", 16557), ("s", 6178), ("u", 8224),
        ("s", 3335), ("u", 6983), ("s", 4996), ("s", 9029), ("u", 7360),
        ("s", 15587), ("s", 3814), ("s", 15964), ("u", 14405), ("s", 2620),
        ("s", 10716), ("u", 19781), ("u", 19373), ("s", 9268),
    ]

    def test_op_sequence_is_pinned(self):
        """The sequence is part of every benchmark fingerprint."""
        wl = YcsbWorkload(YcsbConfig(n_keys=20000), seed=13)
        expect = [
            ("search", key_bytes(index), None) if op == "s" else
            ("update", key_bytes(index), make_value(1000, salt=index ^ serial))
            for serial, (op, index) in enumerate(
                self.GOLDEN_A_20000_SEED_13, start=1)]
        assert [wl.next_op() for _ in range(64)] == expect

    def test_distinct_seeds_distinct_streams(self):
        a = YcsbWorkload(YcsbConfig(workload="A", n_keys=1000), seed=1)
        b = YcsbWorkload(YcsbConfig(workload="A", n_keys=1000), seed=2)
        sa = [a.next_op()[:2] for _ in range(50)]
        sb = [b.next_op()[:2] for _ in range(50)]
        assert sa != sb


class TestMicroWorkload:
    def test_insert_stream_fresh_unique_keys(self):
        wl = MicroWorkload(MicroConfig(op="insert"), client_id=3)
        keys = {wl.next_op()[1] for _ in range(100)}
        assert len(keys) == 100

    def test_insert_streams_disjoint_across_clients(self):
        a = MicroWorkload(MicroConfig(op="insert"), client_id=1)
        b = MicroWorkload(MicroConfig(op="insert"), client_id=2)
        ka = {a.next_op()[1] for _ in range(50)}
        kb = {b.next_op()[1] for _ in range(50)}
        assert not ka & kb

    def test_search_targets_loaded_keys(self):
        config = MicroConfig(op="search", n_keys=100)
        wl = MicroWorkload(config, client_id=1)
        loaded = set(wl.load_keys())
        for _ in range(100):
            op, key, value, measured = wl.next_op()
            assert op == "search" and key in loaded and measured

    def test_delete_alternates_with_unmeasured_reinsert(self):
        wl = MicroWorkload(MicroConfig(op="delete", n_keys=10), client_id=1)
        op1, key1, _v1, m1 = wl.next_op()
        op2, key2, _v2, m2 = wl.next_op()
        assert (op1, m1) == ("delete", True)
        assert (op2, m2) == ("insert", False)
        assert key1 == key2

    def test_invalid_op_rejected(self):
        with pytest.raises(ValueError):
            MicroConfig(op="upsert")
