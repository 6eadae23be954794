"""Unit tests for the LSM building blocks: bloom filters, memtable,
SSTable format, rate limiter."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ReproError
from repro.lsm import BloomFilter, MemTable, TOMBSTONE
from repro.qos.tokenbucket import TokenBucket
from repro.lsm.bloom import build_from_hashes, hash_key
from repro.lsm.sstable import (
    SSTableBuilder,
    SSTableMeta,
    build_sstable,
    encode_entry,
    iter_block,
    search_block,
)
from repro.sim import Simulator

from tests.oracles import search_block_by_scan


class TestBloomFilter:
    def test_no_false_negatives(self):
        bloom = BloomFilter.for_keys(1000)
        keys = [f"key-{i}".encode() for i in range(1000)]
        bloom.add_all(keys)
        assert all(bloom.may_contain(key) for key in keys)

    def test_false_positive_rate_reasonable(self):
        bloom = BloomFilter.for_keys(2000, bits_per_key=10)
        bloom.add_all(f"in-{i}".encode() for i in range(2000))
        false_positives = sum(
            bloom.may_contain(f"out-{i}".encode()) for i in range(2000))
        # ~1 % expected at 10 bits/key; allow generous slack.
        assert false_positives < 2000 * 0.05

    def test_serialize_roundtrip(self):
        bloom = BloomFilter.for_keys(100)
        bloom.add_all(f"k{i}".encode() for i in range(100))
        restored = BloomFilter.deserialize(bloom.serialize())
        assert restored.num_bits == bloom.num_bits
        assert restored.num_hashes == bloom.num_hashes
        assert all(restored.may_contain(f"k{i}".encode())
                   for i in range(100))

    def test_build_from_hashes_sized_by_actual_count(self):
        hashes = [hash_key(f"k{i}".encode()) for i in range(50)]
        bloom = build_from_hashes(hashes)
        assert bloom.num_bits == 500
        assert all(bloom.may_contain(f"k{i}".encode()) for i in range(50))

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            BloomFilter(num_bits=4, num_hashes=2)
        with pytest.raises(ValueError):
            BloomFilter(num_bits=64, num_hashes=0)


@given(st.sets(st.binary(min_size=1, max_size=32), min_size=1, max_size=200))
@settings(max_examples=50)
def test_bloom_no_false_negatives_property(keys):
    bloom = BloomFilter.for_keys(len(keys))
    bloom.add_all(keys)
    assert all(bloom.may_contain(key) for key in keys)


class TestMemTable:
    def test_put_get(self):
        table = MemTable()
        table.put(b"a", b"1")
        assert table.get(b"a") == b"1"
        assert table.get(b"b") is None

    def test_delete_leaves_tombstone(self):
        table = MemTable()
        table.put(b"a", b"1")
        table.delete(b"a")
        assert table.get(b"a") is TOMBSTONE

    def test_items_sorted(self):
        table = MemTable()
        for key in (b"c", b"a", b"b"):
            table.put(key, key)
        assert [k for k, __ in table.items_sorted()] == [b"a", b"b", b"c"]

    def test_arena_accounting_counts_overwrites(self):
        """RocksDB arena semantics: overwriting a key still consumes
        memtable space (drives the N-client flush pressure of Figure 5)."""
        table = MemTable()
        table.put(b"k", b"v" * 100)
        size_once = table.approximate_bytes
        table.put(b"k", b"v" * 100)
        assert table.approximate_bytes == 2 * size_once
        assert len(table) == 1


class TestSSTableFormat:
    def test_block_roundtrip(self):
        entries = [(f"k{i:03d}".encode(), f"v{i}".encode())
                   for i in range(10)]
        block = b"".join(encode_entry(k, v) for k, v in entries)
        block = block.ljust(1024, b"\x00")
        assert list(iter_block(block)) == entries

    def test_tombstone_roundtrip(self):
        block = encode_entry(b"dead", TOMBSTONE).ljust(256, b"\x00")
        [(key, value)] = list(iter_block(block))
        assert key == b"dead"
        assert value is TOMBSTONE

    def test_search_block(self):
        entries = [(f"k{i:03d}".encode(), str(i).encode())
                   for i in range(0, 20, 2)]
        block = b"".join(encode_entry(k, v) for k, v in entries)
        assert search_block(block, b"k004") == b"4"
        assert search_block(block, b"k005") is None

    @settings(max_examples=300, deadline=None)
    @given(st.dictionaries(st.binary(min_size=1, max_size=6),
                           st.one_of(st.binary(max_size=12),
                                     st.just(TOMBSTONE)),
                           max_size=12),
           st.one_of(st.integers(0, 40).map(bytes),
                     st.binary(min_size=1, max_size=4)),
           st.lists(st.binary(max_size=7), max_size=4))
    def test_search_block_matches_scan(self, entries, tail, extra_probes):
        # Sorted entries, then zero padding or a tail shorter than an
        # entry header.
        entries = sorted(entries.items())
        block = b"".join(encode_entry(k, v) for k, v in entries) + tail
        keys = [key for key, __ in entries]
        probes = [b""] + keys + extra_probes
        probes += [key + b"\x00" for key in keys]     # between entries
        probes += [key[:-1] for key in keys]           # before an entry
        if keys:
            probes.append(keys[-1] + b"\xff")         # after the last
        for probe in probes:
            expected = search_block_by_scan(block, probe)
            got = search_block(block, probe)
            assert got == expected
            assert (got is TOMBSTONE) == (expected is TOMBSTONE)
        for key, value in entries:
            assert search_block(block, key) == value

    def test_builder_emits_fixed_size_blocks(self):
        builder = SSTableBuilder(1, 1, block_size=256)
        blocks = []
        for i in range(50):
            block = builder.add(f"key-{i:04d}".encode(), b"x" * 20)
            if block:
                blocks.append(block)
        final, meta = builder.finish()
        if final:
            blocks.append(final)
        assert all(len(b) == 256 for b in blocks)
        assert meta.num_blocks == len(blocks)
        assert meta.entry_count == 50
        assert len(meta.first_keys) == len(blocks)

    def test_builder_rejects_out_of_order_keys(self):
        builder = SSTableBuilder(1, 1, block_size=256)
        builder.add(b"b", b"")
        with pytest.raises(ReproError):
            builder.add(b"a", b"")
        with pytest.raises(ReproError):
            builder.add(b"b", b"")   # duplicates rejected too

    def test_builder_rejects_oversized_entry(self):
        builder = SSTableBuilder(1, 1, block_size=128)
        with pytest.raises(ReproError):
            builder.add(b"k", b"v" * 256)

    def test_meta_serialize_roundtrip(self):
        data = build_sstable(7, 7, 512, iter(
            (f"k{i:04d}".encode(), b"val") for i in range(100)))
        blob = data.meta.serialize()
        meta = SSTableMeta.deserialize(blob)
        assert meta.sstable_id == 7
        assert meta.entry_count == 100
        assert meta.num_blocks == data.meta.num_blocks
        assert meta.first_keys == data.meta.first_keys
        assert meta.last_key == data.meta.last_key
        assert meta.locate(b"k0042") == data.meta.locate(b"k0042")

    def test_meta_corruption_detected(self):
        data = build_sstable(7, 7, 512,
                             iter([(b"a", b"1")]))
        blob = bytearray(data.meta.serialize())
        blob[-2] ^= 0xFF   # clobber the magic
        with pytest.raises(ReproError):
            SSTableMeta.deserialize(bytes(blob))

    def test_locate_uses_bloom(self):
        data = build_sstable(1, 1, 512, iter(
            (f"k{i:04d}".encode(), b"v") for i in range(100)))
        assert data.meta.locate(b"k0050") is not None
        # A key inside the range but absent is (almost surely) filtered.
        misses = sum(data.meta.locate(f"k{i:04d}x".encode()) is not None
                     for i in range(99))
        assert misses < 10

    def test_sstable_data_get(self):
        data = build_sstable(1, 1, 512, iter(
            (f"k{i:04d}".encode(), str(i).encode()) for i in range(200)))
        assert data.get(b"k0123") == b"123"
        assert data.get(b"nope") is None
        assert len(list(data.items())) == 200


@given(st.dictionaries(st.binary(min_size=1, max_size=24),
                       st.binary(max_size=64), min_size=1, max_size=200))
@settings(max_examples=50)
def test_sstable_roundtrip_property(mapping):
    """Property: build from any sorted mapping, read every key back."""
    items = sorted(mapping.items())
    data = build_sstable(1, 1, block_size=512, items=iter(items))
    assert list(data.items()) == items
    for key, value in items:
        assert data.get(key) == value


class TestRateLimiter:
    """The LSM throttle is the qos TokenBucket, imported directly."""
    def test_unlimited_never_waits(self):
        sim = Simulator()
        limiter = TokenBucket(sim, None)

        def proc():
            yield from limiter.acquire_proc(10**9)
            return sim.now

        assert sim.run_until(sim.spawn(proc())) == 0.0

    def test_rate_enforced(self):
        sim = Simulator()
        limiter = TokenBucket(sim, rate_bytes_per_sec=1000, burst_bytes=100)

        def proc():
            yield from limiter.acquire_proc(100)    # burst credit: free
            yield from limiter.acquire_proc(1000)   # must wait ~1 s
            return sim.now

        finished = sim.run_until(sim.spawn(proc()))
        assert finished == pytest.approx(1.0, rel=0.05)

    def test_concurrent_acquirers_share_rate(self):
        sim = Simulator()
        limiter = TokenBucket(sim, rate_bytes_per_sec=1000, burst_bytes=1)
        done = []

        def proc(tag):
            yield from limiter.acquire_proc(500)
            done.append((tag, sim.now))

        sim.spawn(proc("a"))
        sim.spawn(proc("b"))
        sim.run()
        # 1000 bytes at 1000 B/s: both done by ~1s, serialized fairly.
        assert done[-1][1] == pytest.approx(1.0, rel=0.05)

    def test_invalid_rate_rejected(self):
        with pytest.raises(ValueError):
            TokenBucket(Simulator(), rate_bytes_per_sec=0)
