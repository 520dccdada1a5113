"""Tests for the fixed-length (Kraken) codec."""

import numpy as np
import pytest

from repro.coding.fixed_length import FixedLengthCodec
from repro.errors import CodingError


class TestFixedLengthCodec:
    def test_default_table_bits_cover_tables(self):
        codec = FixedLengthCodec([100] * 5, key_bits=32)
        assert codec.table_bits >= 3

    def test_explicit_table_bits(self):
        codec = FixedLengthCodec([100] * 3, key_bits=32, table_bits=8)
        for c in codec.layout.codes:
            assert c.prefix_bits == 8
            assert c.feature_bits == 24

    def test_all_tables_same_feature_bits(self):
        # The defining weakness: a 10-row table and a 1M-row table get the
        # same number of feature bits.
        codec = FixedLengthCodec([10, 1_000_000], key_bits=24, table_bits=8)
        bits = {c.feature_bits for c in codec.layout.codes}
        assert bits == {16}

    def test_too_many_tables_rejected(self):
        with pytest.raises(CodingError):
            FixedLengthCodec([10] * 5, key_bits=32, table_bits=2)

    def test_table_bits_must_leave_feature_room(self):
        with pytest.raises(CodingError):
            FixedLengthCodec([10], key_bits=8, table_bits=8)

    def test_encode_keys_distinct_across_tables(self):
        codec = FixedLengthCodec([100, 100], key_bits=32)
        ids = np.arange(100, dtype=np.uint64)
        a = codec.encode(0, ids)
        b = codec.encode(1, ids)
        assert len(np.intersect1d(a, b)) == 0

    def test_table_of_roundtrip(self):
        codec = FixedLengthCodec([50, 60, 70], key_bits=32)
        ids = np.arange(50, dtype=np.uint64)
        for t in range(3):
            keys = codec.encode(t, ids)
            assert (codec.table_of(keys) == t).all()

    def test_large_corpus_collides_with_few_bits(self):
        # 2**18 ids into 16 feature bits must collide badly.
        codec = FixedLengthCodec([2**18], key_bits=24, table_bits=8)
        ids = np.arange(2**18, dtype=np.uint64)
        keys = codec.encode(0, ids)
        assert len(np.unique(keys)) < len(ids)
