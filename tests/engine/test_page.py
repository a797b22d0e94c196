"""Tests for slotted pages."""

import pytest

from repro.engine.errors import EngineError
from repro.engine.page import PAGE_SIZE_BYTES, Page, rows_per_page


class TestPage:
    def test_insert_read_roundtrip(self):
        page = Page(0, capacity=4)
        slot = page.insert((1, "a"))
        assert page.read(slot) == (1, "a")
        assert page.live_rows == 1

    def test_delete_frees_slot_and_reuse(self):
        page = Page(0, capacity=2)
        slot_a = page.insert(("a",))
        page.insert(("b",))
        assert not page.has_free_slot()
        page.delete(slot_a)
        assert page.has_free_slot()
        slot_c = page.insert(("c",))
        assert slot_c == slot_a  # freed slot is reused

    def test_read_deleted_raises(self):
        page = Page(0, capacity=2)
        slot = page.insert(("a",))
        page.delete(slot)
        with pytest.raises(EngineError):
            page.read(slot)

    def test_double_delete_raises(self):
        page = Page(0, capacity=2)
        slot = page.insert(("a",))
        page.delete(slot)
        with pytest.raises(EngineError):
            page.delete(slot)

    def test_insert_into_full_page_raises(self):
        page = Page(0, capacity=1)
        page.insert(("a",))
        with pytest.raises(EngineError):
            page.insert(("b",))

    def test_rows_iterates_live_only(self):
        page = Page(0, capacity=3)
        page.insert(("a",))
        slot_b = page.insert(("b",))
        page.insert(("c",))
        page.delete(slot_b)
        assert [row for _slot, row in page.rows()] == [("a",), ("c",)]

    def test_clone_is_independent(self):
        page = Page(0, capacity=2)
        slot = page.insert(("a",))
        clone = page.clone()
        page.write(slot, ("changed",))
        assert clone.read(slot) == ("a",)

    def test_rows_per_page(self):
        assert rows_per_page(100) == PAGE_SIZE_BYTES // 100
        assert rows_per_page(PAGE_SIZE_BYTES * 10) == 1  # never zero
        with pytest.raises(EngineError):
            rows_per_page(0)

