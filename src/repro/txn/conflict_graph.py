"""The conflict graph G_c of a workload (Section 2.1 / Section 4).

Nodes are transactions; an undirected edge joins every conventionally
conflicting pair.  TsPAR builds it once per planned bundle: residual
extraction cuts its cross-partition edges and TSgen re-uses it to look
up the neighbours of residual transactions, so construction cost is
shared — exactly the re-use the paper describes.

The graph is backed by an inverted index (key -> readers / writers),
which keeps construction linear in the total access-set size.
:meth:`ConflictGraph.neighbors` caches each node's *full* neighbourhood
on first use, so a walk costs the node's degree in the whole graph and
the cache grows with every node touched.  A graph must therefore not
outlive the bundle it plans: an epoch planned over a larger bundle's
graph walks, and caches, every neighbour outside the epoch too.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Iterable, Iterator, Sequence

from .conflicts import IsolationLevel
from .transaction import Transaction


class ConflictGraph:
    """Conflict graph over a fixed set of transactions."""

    def __init__(
        self,
        transactions: Sequence[Transaction],
        isolation: IsolationLevel = IsolationLevel.SERIALIZABLE,
    ):
        self.isolation = isolation
        self._txns = {t.tid: t for t in transactions}
        self._readers: dict = defaultdict(list)
        self._writers: dict = defaultdict(list)
        self._neighbor_cache: dict[int, frozenset[int]] = {}
        readers = self._readers
        writers = self._writers
        for t in transactions:
            tid = t.tid
            for key in t.read_set:
                readers[key].append(tid)
            for key in t.write_set:
                writers[key].append(tid)

    def __contains__(self, tid: int) -> bool:
        return tid in self._txns

    def __len__(self) -> int:
        return len(self._txns)

    @property
    def tids(self) -> Iterable[int]:
        return self._txns.keys()

    def transaction(self, tid: int) -> Transaction:
        return self._txns[tid]

    def neighbors(self, tid: int) -> frozenset[int]:
        """All transactions in conflict with ``tid`` (cached)."""
        cached = self._neighbor_cache.get(tid)
        if cached is not None:
            return cached
        t = self._txns[tid]
        out: set[int] = set()
        update = out.update
        writers_get = self._writers.get
        if self.isolation is IsolationLevel.SNAPSHOT:
            for key in t.write_set:
                update(writers_get(key, ()))
        else:
            readers_get = self._readers.get
            for key in t.read_set:
                update(writers_get(key, ()))
            for key in t.write_set:
                update(writers_get(key, ()))
                update(readers_get(key, ()))
        out.discard(tid)
        result = frozenset(out)
        self._neighbor_cache[tid] = result
        return result

    def degree(self, tid: int) -> int:
        return len(self.neighbors(tid))

    def are_adjacent(self, a: int, b: int) -> bool:
        if a == b:
            return False
        # Probe from the side with the smaller access set.
        ta, tb = self._txns[a], self._txns[b]
        if len(ta.access_set) > len(tb.access_set):
            ta, tb = tb, ta
            a, b = b, a
        if a in self._neighbor_cache:
            return b in self._neighbor_cache[a]
        if self.isolation is IsolationLevel.SNAPSHOT:
            return not ta.write_set.isdisjoint(tb.write_set)
        return (
            not ta.write_set.isdisjoint(tb.write_set)
            or not ta.write_set.isdisjoint(tb.read_set)
            or not ta.read_set.isdisjoint(tb.write_set)
        )

    def edges(self) -> Iterator[tuple[int, int]]:
        """Iterate all conflict edges as (smaller tid, larger tid) pairs.

        Materialises each node's neighbour set; intended for tests and for
        partitioners on bundle-sized workloads, not for huge graphs.
        """
        seen: set[tuple[int, int]] = set()
        for tid in self._txns:
            for other in self.neighbors(tid):
                edge = (tid, other) if tid < other else (other, tid)
                if edge not in seen:
                    seen.add(edge)
                    yield edge

    def writers_of(self, key) -> Sequence[int]:
        """Transactions writing a key (used by Strife's data-item view)."""
        return self._writers.get(key, ())

    def readers_of(self, key) -> Sequence[int]:
        return self._readers.get(key, ())
