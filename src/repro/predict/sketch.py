"""Seeded, deterministic decayed count-min sketch over write sets.

The predictor's memory of recent conflicts: every committed write set is
folded in with :meth:`DecayedCountMinSketch.update`, and each epoch
boundary multiplies every cell by a decay factor so stale heat fades and
a migrating hot set is tracked instead of averaged away.

Determinism is a contract, not an accident:

* keys are fingerprinted with FNV-1a over ``repr(key)`` bytes — a pure
  function of the key's value, independent of ``PYTHONHASHSEED``,
  process boundaries, and dict iteration order;
* per-row index salts come from forks of a single :class:`Rng` seed;
* cells are plain floats mutated by the same sequence of adds and
  multiplies for a given update sequence, so estimates are bit-equal
  across runs.

The count-min guarantees hold throughout: an estimate never
underestimates the (decayed) true count of a key — collisions only ever
add — and decay is monotone, so :meth:`estimate` after :meth:`decay` is
never larger than before.  The property suite in
``tests/property/test_prop_sketch.py`` pins all of this down.

Updates are buffered and folded in batches: :meth:`update` only appends
the key, and every read (:meth:`estimate`, :meth:`decay`, :meth:`merge`,
:meth:`hot_items`, :meth:`total_mass`, :attr:`updates`) first folds the
pending keys in arrival order.  The fold hashes all of them in one
vectorised pass (:func:`~repro.common.rng.fnv_row_indices`) and then
applies the float adds and candidate bookkeeping one key at a time,
exactly as an eager update would, so every estimate and candidate set is
bit-identical to folding each key on arrival.

Because a sketch cannot enumerate its keys, heat reporting keeps a small
deterministic *candidate set*: any key whose estimate reaches
``CANDIDATE_MIN`` as its update folds is remembered (up to ``hot_capacity``,
evicting the coldest), and :meth:`top_k` re-estimates candidates on
demand.  Truly hot keys repeat, so they always enter the candidate set.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Hashable, Iterable

from ..common.errors import ConfigError
from ..common.rng import (
    _FNV_OFFSET,
    _FNV_PRIME,
    Rng,
    fnv_hash64,
    fnv_row_indices,
)

_MASK64 = 0xFFFFFFFFFFFFFFFF

#: Estimate at which a key becomes a heat-reporting candidate.  2.0 means
#: a key must repeat within the decay horizon; one-off cold keys skip the
#: candidate bookkeeping entirely, keeping the fold cheap on the tail.
CANDIDATE_MIN = 2.0


def _fnv1a(h: int, data: bytes) -> int:
    """Continue an FNV-1a hash from state ``h`` over ``data``."""
    for b in data:
        h ^= b
        h = (h * _FNV_PRIME) & _MASK64
    return h


@lru_cache(maxsize=256)
def _table_prefix(table: str) -> int:
    """FNV state after ``"('<table>', "``: the shared repr prefix of every
    ``(table, pk)`` record key (bounded: a few tables in practice)."""
    return _fnv1a(_FNV_OFFSET, f"({table!r}, ".encode("utf-8"))


def key_fingerprint(key: Hashable) -> int:
    """64-bit FNV-1a over ``repr(key)`` — stable across processes.

    ``hash()`` is salted per process for strings (PYTHONHASHSEED);
    ``repr`` of the int/str/tuple record keys the workloads use is a pure
    value function, so the fingerprint — and every sketch estimate — is
    bit-identical wherever it is computed.

    FNV-1a streams, and ``repr((t, pk))`` is ``"(" + repr(t) + ", " +
    repr(pk) + ")"`` for an exact 2-tuple with an exact ``str`` head, so
    such record keys resume from the cached state of their table's prefix
    and hash only ``repr(pk) + ")"``.  Every other key (namedtuple,
    ``str`` subclass, other arity) hashes its whole ``repr``.
    """
    if type(key) is tuple and len(key) == 2 and type(key[0]) is str:
        return _fnv1a(_table_prefix(key[0]), f"{key[1]!r})".encode("utf-8"))
    return _fnv1a(_FNV_OFFSET, repr(key).encode("utf-8"))


class DecayedCountMinSketch:
    """Count-min sketch with multiplicative decay and hot-key candidates."""

    def __init__(
        self,
        width: int = 1_024,
        depth: int = 4,
        decay: float = 0.5,
        seed: int = 0,
        hot_capacity: int = 64,
    ):
        if width <= 0 or depth <= 0:
            raise ConfigError(
                f"sketch needs positive width/depth, got {width}x{depth}")
        if not 0.0 < decay <= 1.0:
            raise ConfigError(f"decay must be in (0, 1], got {decay}")
        if hot_capacity <= 0:
            raise ConfigError("hot_capacity must be positive")
        self.width = width
        self.depth = depth
        self.decay_factor = decay
        self.hot_capacity = hot_capacity
        rng = Rng(seed)
        #: One salt per row; row index = fnv64(fingerprint ^ salt) % width.
        self.salts = tuple(
            rng.fork(d + 1).randint(0, (1 << 62) - 1) for d in range(depth)
        )
        self._rows: list[list[float]] = [
            [0.0] * width for _ in range(depth)
        ]
        #: key -> (fingerprint, row indices), for keys whose estimate
        #: reached CANDIDATE_MIN; capped at hot_capacity by coldest-first
        #: eviction.
        self._candidates: dict[Hashable, tuple[int, tuple[int, ...]]] = {}
        #: Updates not yet folded into the rows, in arrival order.
        self._pending: list[Hashable] = []
        self._amounts: list[float] = []
        self._updates = 0
        self.decays = 0

    # -- core sketch operations -------------------------------------------
    def update(self, key: Hashable, amount: float = 1.0) -> None:
        """Queue ``amount`` for the key's cells; folded before any read."""
        self._pending.append(key)
        self._amounts.append(amount)

    def update_many(self, keys: Iterable[Hashable]) -> None:
        before = len(self._pending)
        self._pending.extend(keys)
        self._amounts.extend([1.0] * (len(self._pending) - before))

    def _fold(self) -> None:
        """Apply the pending updates in arrival order (one hashing pass)."""
        keys = self._pending
        if not keys:
            return
        amounts = self._amounts
        self._pending = []
        self._amounts = []
        fps = [key_fingerprint(key) for key in keys]
        # One column list per row (not one list per key): the fold then
        # allocates a handful of objects, not one per update.
        columns = fnv_row_indices(fps, self.salts, self.width).T.tolist()
        rows = self._rows
        candidates = self._candidates
        for key, fp, idx, amount in zip(keys, fps, zip(*columns), amounts):
            est = None
            for row, i in zip(rows, idx):
                v = row[i] + amount
                row[i] = v
                if est is None or v < est:
                    est = v
            if est >= CANDIDATE_MIN and key not in candidates:
                candidates[key] = (fp, idx)
                if len(candidates) > self.hot_capacity:
                    self._evict_coldest()
        self._updates += len(keys)

    @property
    def rows(self) -> list[list[float]]:
        """The cell rows, with every pending update folded in."""
        self._fold()
        return self._rows

    @property
    def updates(self) -> int:
        """Number of updates seen (pending ones are folded first)."""
        self._fold()
        return self._updates

    def estimate(self, key: Hashable) -> float:
        """Upper-bound estimate of the key's decayed count (never under)."""
        self._fold()
        fp = key_fingerprint(key)
        w = self.width
        return self._estimate_at([fnv_hash64(fp ^ s) % w for s in self.salts])

    def _estimate_at(self, idx) -> float:
        est = None
        for row, i in zip(self._rows, idx):
            v = row[i]
            if est is None or v < est:
                est = v
        return est

    def decay(self) -> None:
        """Multiply every cell by the decay factor (epoch boundary).

        Cells below a tiny floor snap to zero so a long-idle sketch does
        not accumulate denormals; candidates whose estimate fell below
        1.0 are forgotten (deterministically, by insertion order).
        """
        self._fold()
        f = self.decay_factor
        if f < 1.0:
            for row in self._rows:
                for i, v in enumerate(row):
                    if v:
                        v *= f
                        row[i] = v if v > 1e-9 else 0.0
        self.decays += 1
        if self._candidates:
            cold = [k for k, (_, idx) in self._candidates.items()
                    if self._estimate_at(idx) < 1.0]
            for k in cold:
                del self._candidates[k]

    def merge(self, other: "DecayedCountMinSketch") -> None:
        """Fold another sketch in cell-wise (per-shard sketch merge).

        Requires identical geometry *and* salts — merging differently
        hashed sketches would be meaningless — which holds whenever both
        were built from the same (width, depth, seed).
        """
        if (other.width, other.depth) != (self.width, self.depth):
            raise ConfigError(
                f"cannot merge {other.width}x{other.depth} sketch into "
                f"{self.width}x{self.depth}")
        if other.salts != self.salts:
            raise ConfigError("cannot merge sketches with different salts")
        self._fold()
        other._fold()
        for mine, theirs in zip(self._rows, other._rows):
            for i, v in enumerate(theirs):
                if v:
                    mine[i] += v
        self._updates += other._updates
        for key, entry in other._candidates.items():
            if key not in self._candidates:
                self._candidates[key] = entry
        while len(self._candidates) > self.hot_capacity:
            self._evict_coldest()

    # -- heat reporting ----------------------------------------------------
    def _evict_coldest(self) -> None:
        est = self._estimate_at
        victim = min(
            self._candidates.items(),
            key=lambda kv: (est(kv[1][1]), kv[1][0], repr(kv[0])),
        )
        del self._candidates[victim[0]]

    def hot_items(self) -> list[tuple[Hashable, float]]:
        """Every candidate with its current estimate, hottest first.

        Order is deterministic: descending estimate, then fingerprint,
        then ``repr`` as the final tiebreak.
        """
        self._fold()
        est = self._estimate_at
        ranked = sorted(
            ((key, est(idx), fp)
             for key, (fp, idx) in self._candidates.items()),
            key=lambda t: (-t[1], t[2], repr(t[0])),
        )
        return [(key, e) for key, e, _ in ranked]

    def top_k(self, n: int) -> list[tuple[Hashable, float]]:
        """The ``n`` hottest tracked keys with their estimates."""
        return self.hot_items()[:n]

    def total_mass(self) -> float:
        """Sum of one row's cells — total decayed write volume seen."""
        self._fold()
        return sum(self._rows[0])
