"""The batched sketch fold against the per-key code it replaced.

:class:`DecayedCountMinSketch` buffers updates and folds them in one
vectorised hashing pass before any read.  These tests pin the three
pieces that must make that invisible:

(a) the numpy row-index kernel equals the scalar ``fnv_hash64`` loop;
(b) the cached-table-prefix fingerprint equals FNV-1a over the whole
    ``repr(key)``;
(c) an interleaved stream of updates and reads gives bit-equal rows,
    candidates, estimates and update counts to an eager oracle — the
    one-key-at-a-time sketch, kept here verbatim.
"""

from __future__ import annotations

from collections import namedtuple
from typing import Hashable

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.rng import Rng, fnv_hash64, fnv_row_indices
from repro.predict.sketch import (
    CANDIDATE_MIN,
    DecayedCountMinSketch,
    key_fingerprint,
)

U64 = (1 << 64) - 1


def _fnv1a_repr(key) -> int:
    h = 0xCBF29CE484222325
    for b in repr(key).encode("utf-8"):
        h ^= b
        h = (h * 0x100000001B3) & U64
    return h


class EagerSketch:
    """The sketch as it was before batching: every update folds at once."""

    def __init__(self, width, depth, decay, seed, hot_capacity):
        self.width = width
        self.depth = depth
        self.decay_factor = decay
        self.hot_capacity = hot_capacity
        rng = Rng(seed)
        self.salts = tuple(
            rng.fork(d + 1).randint(0, (1 << 62) - 1) for d in range(depth)
        )
        self.rows = [[0.0] * width for _ in range(depth)]
        self._candidates: dict[Hashable, int] = {}
        self.updates = 0

    def _indices(self, fp):
        return [fnv_hash64(fp ^ salt) % self.width for salt in self.salts]

    def update(self, key, amount=1.0):
        fp = _fnv1a_repr(key)
        est = None
        for row, i in zip(self.rows, self._indices(fp)):
            v = row[i] + amount
            row[i] = v
            if est is None or v < est:
                est = v
        self.updates += 1
        if est >= CANDIDATE_MIN and key not in self._candidates:
            self._candidates[key] = fp
            if len(self._candidates) > self.hot_capacity:
                self._evict_coldest()

    def estimate(self, key):
        return self._estimate_fp(_fnv1a_repr(key))

    def _estimate_fp(self, fp):
        est = None
        for row, i in zip(self.rows, self._indices(fp)):
            v = row[i]
            if est is None or v < est:
                est = v
        return est

    def decay(self):
        f = self.decay_factor
        if f < 1.0:
            for row in self.rows:
                for i, v in enumerate(row):
                    if v:
                        v *= f
                        row[i] = v if v > 1e-9 else 0.0
        cold = [k for k, fp in self._candidates.items()
                if self._estimate_fp(fp) < 1.0]
        for k in cold:
            del self._candidates[k]

    def merge(self, other):
        for mine, theirs in zip(self.rows, other.rows):
            for i, v in enumerate(theirs):
                if v:
                    mine[i] += v
        self.updates += other.updates
        for key, fp in other._candidates.items():
            if key not in self._candidates:
                self._candidates[key] = fp
        while len(self._candidates) > self.hot_capacity:
            self._evict_coldest()

    def _evict_coldest(self):
        victim = min(
            self._candidates.items(),
            key=lambda kv: (self._estimate_fp(kv[1]), kv[1], repr(kv[0])),
        )
        del self._candidates[victim[0]]

    def hot_items(self):
        return sorted(
            ((key, self._estimate_fp(fp))
             for key, fp in self._candidates.items()),
            key=lambda kv: (-kv[1], _fnv1a_repr(kv[0]), repr(kv[0])),
        )

    def total_mass(self):
        return sum(self.rows[0])


# -- (a) the row-index kernel ----------------------------------------------

class TestRowIndexKernel:
    @given(
        st.lists(st.integers(0, U64), max_size=64),
        st.lists(st.integers(0, (1 << 62) - 1), min_size=1, max_size=5),
        st.sampled_from([1, 2, 64, 1_024, 1 << 20, 3, 7, 1_000, 65_537]),
    )
    @settings(max_examples=200)
    def test_kernel_equals_scalar_fnv(self, fps, salts, width):
        fps = fps + [0, U64]
        got = fnv_row_indices(fps, salts, width).tolist()
        assert got == [[fnv_hash64(fp ^ s) % width for s in salts]
                       for fp in fps]

    def test_extreme_fingerprints_and_salts(self):
        fps = [0, 1, U64, U64 - 1, 1 << 63]
        salts = [0, (1 << 62) - 1]
        for width in (1_024, 999):
            got = fnv_row_indices(fps, salts, width).tolist()
            assert got == [[fnv_hash64(fp ^ s) % width for s in salts]
                           for fp in fps]


# -- (b) the fingerprint fast path -------------------------------------------

Row = namedtuple("Row", "table pk")


class Table(str):
    """A ``str`` subclass: its repr differs, so it must skip the fast path."""

    def __repr__(self) -> str:
        return f"Table({str(self)!r})"


class TestFingerprint:
    KEYS = [
        ("usertable", 0),
        ("usertable", 123_456_789),
        ("usertable", -5),
        ("stock", (3, 1_044)),
        ("order_line", (1, 2, 3001, 4)),
        ("customer", "BARBARBAR"),
        ("ünïcode", "ключ"),
        ("t", None),
        ("t", 1.5),
        ("t",),
        ("t", 1, 2),
        (1, 2),
        Row("usertable", 7),
        (Table("usertable"), 7),
        Table("usertable"),
        0,
        17,
        -3,
        "user:17",
        "",
    ]

    def test_fast_path_equals_generic_fnv_over_repr(self):
        for key in self.KEYS:
            # Twice: the first call fills the table-prefix cache.
            assert key_fingerprint(key) == _fnv1a_repr(key), key
            assert key_fingerprint(key) == _fnv1a_repr(key), key

    @given(st.text(max_size=12),
           st.one_of(st.integers(), st.text(max_size=8),
                     st.tuples(st.integers(), st.integers())))
    @settings(max_examples=200)
    def test_any_table_and_pk(self, table, pk):
        key = (table, pk)
        assert key_fingerprint(key) == _fnv1a_repr(key)


# -- (c) batched fold == eager fold ------------------------------------------

keys = st.one_of(
    st.integers(0, 30),
    st.tuples(st.just("usertable"), st.integers(0, 30)),
    st.tuples(st.just("stock"), st.tuples(st.integers(0, 3),
                                          st.integers(0, 3))),
)
amounts = st.sampled_from([1.0, 0.5, 2.5, 0.1, 3.0])

ops = st.one_of(
    st.tuples(st.just("update"), keys, amounts),
    st.tuples(st.just("update_many"), st.lists(keys, max_size=12)),
    st.tuples(st.just("estimate"), keys),
    st.tuples(st.just("decay")),
    st.tuples(st.just("merge"), st.lists(keys, max_size=12)),
    st.tuples(st.just("hot_items")),
    st.tuples(st.just("total_mass")),
    st.tuples(st.just("updates")),
)

PARAMS = dict(width=16, depth=3, decay=0.5, seed=11, hot_capacity=3)


def _same_state(batched: DecayedCountMinSketch, eager: EagerSketch) -> None:
    assert repr(batched.rows) == repr(eager.rows)  # bit-equal, -0.0 too
    assert batched.updates == eager.updates
    assert [(k, fp) for k, (fp, _) in batched._candidates.items()] == \
        list(eager._candidates.items())
    for key, (fp, idx) in batched._candidates.items():
        assert list(idx) == eager._indices(fp)


class TestBatchedEqualsEager:
    @given(st.lists(ops, max_size=40))
    @settings(max_examples=300, deadline=None)
    def test_interleaved_ops_bit_equal(self, script):
        batched = DecayedCountMinSketch(**PARAMS)
        eager = EagerSketch(**PARAMS)
        for op, *args in script:
            if op == "update":
                key, amount = args
                assert batched.update(key, amount) is None
                eager.update(key, amount)
            elif op == "update_many":
                batched.update_many(iter(args[0]))
                for key in args[0]:
                    eager.update(key)
            elif op == "estimate":
                assert batched.estimate(args[0]) == eager.estimate(args[0])
            elif op == "decay":
                batched.decay()
                eager.decay()
            elif op == "merge":
                # The other side keeps its updates pending until merged.
                other_b = DecayedCountMinSketch(**PARAMS)
                other_e = EagerSketch(**PARAMS)
                other_b.update_many(args[0])
                for key in args[0]:
                    other_e.update(key)
                batched.merge(other_b)
                eager.merge(other_e)
                _same_state(other_b, other_e)
            elif op == "hot_items":
                assert batched.hot_items() == eager.hot_items()
            elif op == "total_mass":
                assert batched.total_mass() == eager.total_mass()
            else:
                assert batched.updates == eager.updates
        _same_state(batched, eager)
        assert batched.hot_items() == eager.hot_items()

    def test_long_stream_forces_evictions(self):
        """Hundreds of hot keys through a 4-slot candidate set, with a
        decay every 97 updates: every eviction must pick the oracle's
        victim."""
        params = dict(PARAMS, width=64, depth=4, hot_capacity=4)
        batched = DecayedCountMinSketch(**params)
        eager = EagerSketch(**params)
        rng = Rng(5)
        for i in range(3_000):
            key = ("usertable", rng.randint(0, 200))
            batched.update(key)
            eager.update(key)
            if i % 97 == 96:
                batched.decay()
                eager.decay()
        _same_state(batched, eager)
        assert batched.hot_items() == eager.hot_items()
