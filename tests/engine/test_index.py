"""Tests for hash and ordered indexes."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.engine.errors import DuplicateKeyError, EngineError
from repro.engine.index import HashIndex, OrderedIndex


class TestHashIndex:
    def test_insert_lookup(self):
        index = HashIndex("i", ("K",))
        index.insert(5, 1)
        index.insert(5, 2)
        assert index.lookup(5) == [1, 2]
        assert index.lookup(6) == []

    def test_unique_rejects_duplicates(self):
        index = HashIndex("i", ("K",), unique=True)
        index.insert(5, 1)
        with pytest.raises(DuplicateKeyError):
            index.insert(5, 2)

    def test_lookup_unique(self):
        index = HashIndex("i", ("K",), unique=True)
        assert index.lookup_unique(5) is None
        index.insert(5, 1)
        assert index.lookup_unique(5) == 1

    def test_delete_removes_entry(self):
        index = HashIndex("i", ("K",))
        index.insert(5, 1)
        index.delete(5, 1)
        assert index.lookup(5) == []
        assert len(index) == 0

    def test_delete_missing_raises(self):
        index = HashIndex("i", ("K",))
        with pytest.raises(EngineError):
            index.delete(5, 1)


class TestOrderedIndex:
    def test_range_inclusive(self):
        index = OrderedIndex("i", ("K",))
        for key in (1, 3, 5, 7):
            index.insert(key, key)
        assert [k for k, _ in index.range(3, 5)] == [3, 5]

    def test_range_exclusive_bounds(self):
        index = OrderedIndex("i", ("K",))
        for key in range(1, 6):
            index.insert(key, key)
        keys = [k for k, _ in index.range(1, 5, include_low=False, include_high=False)]
        assert keys == [2, 3, 4]

    def test_range_open_ended(self):
        index = OrderedIndex("i", ("K",))
        for key in (2, 4, 6):
            index.insert(key, key)
        assert [k for k, _ in index.range(low=4)] == [4, 6]
        assert [k for k, _ in index.range(high=4)] == [2, 4]
        assert [k for k, _ in index.range()] == [2, 4, 6]

    def test_range_reverse(self):
        index = OrderedIndex("i", ("K",))
        for key in (1, 2, 3):
            index.insert(key, key)
        assert [k for k, _ in index.range(reverse=True)] == [3, 2, 1]

    def test_duplicates_per_key(self):
        index = OrderedIndex("i", ("K",))
        index.insert(1, 1)
        index.insert(1, 2)
        assert len(list(index.range(1, 1))) == 2
        index.delete(1, 1)
        assert [r for _k, r in index.range(1, 1)] == [2]

    def test_delete_last_rid_removes_sorted_key(self):
        index = OrderedIndex("i", ("K",))
        index.insert(1, 1)
        index.insert(2, 2)
        index.delete(1, 1)
        assert [k for k, _ in index.range()] == [2]

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.integers(min_value=0, max_value=50), unique=True, min_size=1))
    def test_property_range_matches_sorted_filter(self, keys):
        index = OrderedIndex("i", ("K",))
        for key in keys:
            index.insert(key, key)
        low = min(keys)
        high = max(keys)
        mid_low = low + (high - low) // 3
        mid_high = high - (high - low) // 3
        got = [k for k, _ in index.range(mid_low, mid_high)]
        expected = sorted(k for k in keys if mid_low <= k <= mid_high)
        assert got == expected

    @settings(max_examples=50, deadline=None)
    @given(
        st.lists(
            st.tuples(st.booleans(), st.integers(min_value=0, max_value=20)),
            min_size=1, max_size=60,
        )
    )
    def test_property_insert_delete_consistency(self, operations):
        """Ordered index stays consistent with a model dict under churn."""
        index = OrderedIndex("i", ("K",))
        model: dict[int, set] = {}
        for is_insert, key in operations:
            if is_insert:
                if key in model.get(key, set()):
                    continue
                index.insert(key, key)
                model.setdefault(key, set()).add(key)
            else:
                if key in model and key in model[key]:
                    index.delete(key, key)
                    model[key].discard(key)
                    if not model[key]:
                        del model[key]
        assert sorted(k for k, _ in index.range()) == sorted(
            k for k, rids in model.items() for _ in rids
        )


def _observe(index, probes):
    """Everything a caller can read from an index, for comparison."""
    seen = {
        "len": len(index),
        "lookup": {key: index.lookup(key) for key in probes},
    }
    if index.unique:
        seen["unique"] = {key: index.lookup_unique(key) for key in probes}
    if isinstance(index, OrderedIndex):
        def scan(**bounds):
            try:
                return list(index.range(**bounds))
            except TypeError:  # a lone None key does not compare to a bound
                return TypeError

        seen["range"] = [
            scan(low=lo, high=hi, include_low=inc_lo, include_high=inc_hi,
                 reverse=reverse)
            for lo in (None, 3) for hi in (None, 9)
            for inc_lo in (True, False) for inc_hi in (True, False)
            for reverse in (False, True)
        ]
    return seen


class TestBulkRebuild:
    """``rebuild(keys, rids)`` == one ``insert`` per pair."""

    @settings(max_examples=60, deadline=None)
    @given(
        index_class=st.sampled_from([HashIndex, OrderedIndex]),
        unique=st.booleans(),
        keys=st.lists(
            st.one_of(st.none(), st.integers(min_value=0, max_value=12)),
            max_size=40,
        ),
    )
    def test_property_rebuild_matches_incremental(self, index_class, unique, keys):
        rids = list(range(len(keys)))
        incremental = index_class("i", ("K",), unique)
        try:
            for key, row_id in zip(keys, rids):
                incremental.insert(key, row_id)
        except DuplicateKeyError:
            with pytest.raises(DuplicateKeyError):
                index_class("i", ("K",), unique).rebuild(keys, rids)
            return
        except TypeError:  # an ordered index cannot sort None beside ints
            with pytest.raises((TypeError, DuplicateKeyError)):
                index_class("i", ("K",), unique).rebuild(keys, rids)
            return
        bulk = index_class("i", ("K",), unique)
        bulk.insert(99, 9999)  # rebuild replaces, it does not merge
        bulk.rebuild(keys, rids)
        probes = [None, *range(14), 99]
        assert _observe(bulk, probes) == _observe(incremental, probes)
        if None in keys:
            return
        # and the rebuilt index keeps working incrementally
        for index in (bulk, incremental):
            index.insert(50, 5000)
            if keys:
                index.delete(keys[0], rids[0])
        assert _observe(bulk, probes + [50]) == _observe(incremental, probes + [50])

    @pytest.mark.parametrize("index_class", [HashIndex, OrderedIndex])
    def test_unique_rebuild_rejects_duplicates(self, index_class):
        index = index_class("i", ("K",), unique=True)
        with pytest.raises(DuplicateKeyError, match="duplicate key 7 in unique index 'i'"):
            index.rebuild([1, 7, 3, 7], [0, 1, 2, 3])

    def test_composite_keys_are_tuples(self):
        index = OrderedIndex("i", ("A", "B"))
        index.rebuild([(2, "x"), (1, "y"), (2, "x")], [3, 2, 1])
        assert index.lookup((2, "x")) == [1, 3]
        assert [k for k, _ in index.range()] == [(1, "y"), (2, "x"), (2, "x")]


# -- tombstoned deletes: the index against a plain sorted-list model ---------------

_BOUNDS = [
    dict(low=low, high=high, include_low=inc_low, include_high=inc_high,
         reverse=reverse)
    for low in (None, 2, 5) for high in (None, 5, 9)
    for inc_low in (True, False) for inc_high in (True, False)
    for reverse in (False, True)
]


def _model_range(pairs, low, high, include_low, include_high, reverse):
    """What ``range`` yields, read off a sorted list of (key, rid) pairs:
    keys in bound order, the row ids of one key ascending either way."""
    inside = [
        (key, row_id) for key, row_id in pairs
        if (low is None or key > low or include_low and key == low)
        and (high is None or key < high or include_high and key == high)
    ]
    if reverse:
        inside.sort(key=lambda pair: -pair[0])  # stable: rids stay ascending
    return inside


class TestTombstones:
    """A delete leaves a tombstone in the sorted key list, a re-insert
    revives it, and past half the list the list is rebuilt -- while every
    read answers what a plain sorted list of the live entries answers."""

    @settings(max_examples=150, deadline=None)
    @given(
        unique=st.booleans(),
        operations=st.lists(
            st.tuples(
                st.booleans(),  # insert, else delete
                st.integers(min_value=0, max_value=11),  # key
                st.integers(min_value=0, max_value=2),  # which row id
            ),
            max_size=80,
        ),
    )
    def test_property_matches_a_sorted_list_model(self, unique, operations):
        index = OrderedIndex("i", ("K",), unique)
        model = []  # sorted (key, rid) pairs
        for step, (is_insert, key, which) in enumerate(operations):
            row_id = key * 10 + which
            if is_insert:
                if unique and any(k == key for k, _ in model):
                    with pytest.raises(DuplicateKeyError):
                        index.insert(key, row_id)
                    continue
                index.insert(key, row_id)  # a deleted key's re-insert too
                if (key, row_id) not in model:
                    model.append((key, row_id))
                    model.sort()
            elif model:
                # delete a live entry (about half the runs cross the
                # rebuild threshold this way)
                key, row_id = model.pop((key * 3 + which) % len(model))
                index.delete(key, row_id)
            else:
                with pytest.raises(EngineError):
                    index.delete(key, row_id)
            live = {k for k, _ in model}
            # every live key listed once, tombstones at most half the list
            listed = index._sorted_keys
            assert listed == sorted(set(listed)) and set(listed) >= live
            assert 2 * (len(listed) - len(live)) <= len(listed)
            bounds = _BOUNDS[step % len(_BOUNDS)]
            assert list(index.range(**bounds)) == _model_range(model, **bounds)
        assert len(index) == len(model)
        for key in range(12):
            assert index.lookup(key) == [r for k, r in model if k == key]
        for bounds in _BOUNDS:
            assert list(index.range(**bounds)) == _model_range(model, **bounds)

    @pytest.mark.parametrize("unique", [True, False])
    def test_delete_tombstones_reinsert_revives_half_compacts(self, unique):
        index = OrderedIndex("i", ("K",), unique)
        for key in range(10):
            index.insert(key, key)
        index.delete(3, 3)
        assert index._sorted_keys == list(range(10))  # 3 is a tombstone
        assert [k for k, _ in index.range(2, 4)] == [2, 4]
        index.insert(3, 33)  # revived in place, not listed twice
        assert index._sorted_keys == list(range(10))
        assert list(index.range(3, 3)) == [(3, 33)]
        for key in range(5):
            index.delete(key, 33 if key == 3 else key)
        assert index._sorted_keys == list(range(10))  # 5 of 10: not past half
        index.delete(5, 5)
        assert index._sorted_keys == [6, 7, 8, 9]  # 6 of 10: rebuilt
        index.insert(0, 0)
        assert [k for k, _ in index.range(reverse=True)] == [9, 8, 7, 6, 0]
