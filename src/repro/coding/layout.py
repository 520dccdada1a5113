"""Common machinery for flat-key codecs.

A codec assigns every embedding table a *table code*: a bit prefix of some
length placed in the high bits of the flat key, with the remaining low bits
carrying the (possibly hashed) feature ID.  Encoding is a single shift/or/
mask per batch — the "ultra-fast, almost no cost" property the paper relies
on (§3.1) — so both codecs are expressed as vectorised numpy transforms.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

from ..errors import CodingError

_FIB_MIX = np.uint64(0xBF58476D1CE4E5B9)


def hash_feature_ids(
    ids: np.ndarray, feature_bits: int, corpus_size: int = None
) -> np.ndarray:
    """Map feature IDs into ``feature_bits`` bits (vectorised).

    When the table's corpus fits the available bits (``corpus_size`` is
    given and does not exceed ``2**feature_bits``) the identity mapping is
    used — no collisions.  Otherwise a mixing hash folds the ID domain
    down, which can introduce intra-table collisions — the effect
    Experiment #5 quantifies.
    """
    ids = ids.astype(np.uint64)
    if feature_bits >= 64:
        return ids
    space = np.uint64(1) << np.uint64(feature_bits)
    if corpus_size is not None and corpus_size <= int(space):
        # IDs are bounded by the corpus, so they already fit exactly.
        return ids % space
    if ids.size == 0:
        return ids
    mixed = ids * _FIB_MIX
    mixed ^= mixed >> np.uint64(31)
    return mixed % space


@dataclass(frozen=True)
class TableCode:
    """The code assigned to one embedding table.

    Attributes:
        table_id: index of the table in the model.
        prefix: integer value of the table-ID prefix.
        prefix_bits: number of bits the prefix occupies.
        feature_bits: number of low bits left for the feature ID.
        corpus_size: the table's key-space size (for collision analysis).
    """

    table_id: int
    prefix: int
    prefix_bits: int
    feature_bits: int
    corpus_size: int

    @property
    def collision_free(self) -> bool:
        """True when every feature ID of the table fits without hashing."""
        return self.corpus_size <= (1 << self.feature_bits)

    def __deepcopy__(self, memo):
        return self  # frozen, all-scalar: safe to share across clones


@dataclass(frozen=True)
class CodecLayout:
    """A complete key layout: one :class:`TableCode` per table."""

    key_bits: int
    codes: Tuple[TableCode, ...]

    def __post_init__(self) -> None:
        if not 8 <= self.key_bits <= 64:
            raise CodingError(f"key_bits must be in [8, 64], got {self.key_bits}")
        seen: Dict[int, TableCode] = {}
        for code in self.codes:
            if code.prefix_bits + code.feature_bits != self.key_bits:
                raise CodingError(
                    f"table {code.table_id}: prefix_bits + feature_bits "
                    f"({code.prefix_bits}+{code.feature_bits}) != key_bits "
                    f"({self.key_bits})"
                )
            if code.table_id in seen:
                raise CodingError(f"duplicate table id {code.table_id}")
            seen[code.table_id] = code
        self._check_prefix_free()

    def _check_prefix_free(self) -> None:
        """Every pair of prefixes must be non-nested (no inter-table overlap)."""
        entries = [
            (c.prefix_bits, c.prefix, c.table_id) for c in self.codes if c.prefix_bits
        ]
        for i, (bits_a, prefix_a, table_a) in enumerate(entries):
            for bits_b, prefix_b, table_b in entries[i + 1:]:
                short, long = sorted(
                    [(bits_a, prefix_a, table_a), (bits_b, prefix_b, table_b)]
                )
                s_bits, s_prefix, s_table = short
                l_bits, l_prefix, l_table = long
                if l_prefix >> (l_bits - s_bits) == s_prefix:
                    raise CodingError(
                        f"prefix of table {s_table} is a prefix of table "
                        f"{l_table}'s code: inter-table collision possible"
                    )

    def code_for(self, table_id: int) -> TableCode:
        for code in self.codes:
            if code.table_id == table_id:
                return code
        raise CodingError(f"no code assigned to table {table_id}")


class FlatKeyCodec(abc.ABC):
    """Base class for flat-key codecs.

    Subclasses implement :meth:`build_layout`; encoding itself is shared.
    """

    def __init__(self, corpus_sizes: Sequence[int], key_bits: int):
        if not corpus_sizes:
            raise CodingError("codec needs at least one table")
        if any(size <= 0 for size in corpus_sizes):
            raise CodingError("corpus sizes must be positive")
        self.corpus_sizes = list(corpus_sizes)
        self.key_bits = key_bits
        self.layout = self.build_layout()
        self._prefix_shifted = {
            code.table_id: np.uint64(code.prefix) << np.uint64(code.feature_bits)
            for code in self.layout.codes
        }
        # Per-table columns for :meth:`encode_many`: the prefix, the
        # feature-bits mask, and whether the table's ids are hashed.
        size = max(code.table_id for code in self.layout.codes) + 1
        self._prefix_of = np.zeros(size, dtype=np.uint64)
        self._mask_of = np.zeros(size, dtype=np.uint64)
        self._hashed_of = np.zeros(size, dtype=bool)
        for code in self.layout.codes:
            t = code.table_id
            self._prefix_of[t] = self._prefix_shifted[t]
            if code.feature_bits >= 64:
                self._mask_of[t] = np.uint64(0xFFFFFFFFFFFFFFFF)
            else:
                self._mask_of[t] = (np.uint64(1) << np.uint64(
                    code.feature_bits)) - np.uint64(1)
                self._hashed_of[t] = not code.collision_free
        self._any_hashed = bool(self._hashed_of.any())

    @abc.abstractmethod
    def build_layout(self) -> CodecLayout:
        """Assign a :class:`TableCode` to every table."""

    @property
    def num_tables(self) -> int:
        return len(self.corpus_sizes)

    def encode(self, table_id: int, feature_ids: np.ndarray) -> np.ndarray:
        """Re-encode one table's feature IDs to flat keys (one transform)."""
        code = self.layout.code_for(table_id)
        hashed = hash_feature_ids(
            np.asarray(feature_ids), code.feature_bits, code.corpus_size
        )
        return self._prefix_shifted[table_id] | hashed

    # hot-path: vectorized
    def encode_many(
        self, table_ids: np.ndarray, feature_ids: np.ndarray
    ) -> np.ndarray:
        """Re-encode a mixed-table batch in one transform: the flat keys
        :meth:`encode` gives each ``(table, id)`` pair."""
        ids = np.asarray(feature_ids).astype(np.uint64)
        if self._any_hashed:
            hashed = self._hashed_of[table_ids]
            mixed = ids * _FIB_MIX
            mixed ^= mixed >> np.uint64(31)
            ids = np.where(hashed, mixed, ids)
        ids &= self._mask_of[table_ids]
        ids |= self._prefix_of[table_ids]
        return ids

    def table_of(self, flat_keys: np.ndarray) -> np.ndarray:
        """Decode the owning table of each flat key (vectorised)."""
        flat_keys = np.asarray(flat_keys, dtype=np.uint64)
        out = np.full(len(flat_keys), -1, dtype=np.int64)
        for code in sorted(
            self.layout.codes, key=lambda c: c.prefix_bits, reverse=True
        ):
            if code.prefix_bits == 0:
                out[out == -1] = code.table_id
                continue
            shift = np.uint64(self.key_bits - code.prefix_bits)
            hits = (flat_keys >> shift) == np.uint64(code.prefix)
            out[hits & (out == -1)] = code.table_id
        return out

    def describe(self) -> List[str]:
        """Human-readable layout summary (used by examples and docs)."""
        lines = []
        for code in self.layout.codes:
            lines.append(
                f"table {code.table_id:>3}: prefix {code.prefix:>8b} "
                f"({code.prefix_bits} bits) | feature {code.feature_bits} bits "
                f"| corpus {code.corpus_size} "
                f"| {'exact' if code.collision_free else 'hashed'}"
            )
        return lines
