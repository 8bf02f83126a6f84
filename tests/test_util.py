"""Tests for units and RNG trees."""

import numpy as np
import pytest

from repro.util import (
    GB,
    GiB,
    RngTree,
    format_bytes,
    format_rate,
    spawn,
)
from repro.util.units import gbit_to_bytes


class TestUnits:
    def test_format_bytes_decimal_and_binary(self):
        assert format_bytes(20 * GB) == "20.00 GB"
        assert format_bytes(24 * GiB, binary=True) == "24.00 GiB"
        assert format_bytes(512) == "512 B"

    def test_format_rate(self):
        assert format_rate(18.5 * GB) == "18.50 GB/s"

    def test_qdr_infiniband_is_4_gbytes(self):
        assert gbit_to_bytes(32.0) == pytest.approx(4 * GB)


class TestRng:
    def test_same_path_same_stream(self):
        a = spawn(7, "gpfs", 3)
        b = spawn(7, "gpfs", 3)
        assert np.array_equal(a.random(16), b.random(16))

    def test_different_paths_diverge(self):
        a = spawn(7, "gpfs", 3)
        b = spawn(7, "gpfs", 4)
        assert not np.array_equal(a.random(16), b.random(16))

    def test_different_roots_diverge(self):
        a = spawn(7, "x")
        b = spawn(8, "x")
        assert not np.array_equal(a.random(16), b.random(16))

    def test_subtree_is_stable(self):
        t = RngTree(5)
        s1 = t.subtree("testbed").child("node", 0).random(4)
        s2 = t.subtree("testbed").child("node", 0).random(4)
        assert np.array_equal(s1, s2)

    def test_subtree_independent_of_sibling_order(self):
        t = RngTree(5)
        before = t.subtree("b").child("x").random(4)
        _ = t.subtree("a")  # creating another subtree must not disturb "b"
        after = t.subtree("b").child("x").random(4)
        assert np.array_equal(before, after)
