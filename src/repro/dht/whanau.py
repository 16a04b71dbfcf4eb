"""Whānau: a Sybil-proof distributed hash table on a social graph.

Lesniewski-Laas and Kaashoek (NSDI 2010) — reference [10], and the
paper's example of using fast mixing for *communication* rather than
admission control.  The construction only uses one primitive: random
walks on the social graph.  On a fast-mixing graph a w-step walk from
an honest node lands on another honest node with probability
``1 - O(g w / m)``, so sampling tables by random walks yields mostly
honest entries no matter how many Sybil identities exist.

This is a faithful single-shot implementation of the routing core:

* **setup** — every node samples ``num_successors`` *successor records*
  (key/value pairs collected from walk endpoints) and, per layer,
  ``num_fingers`` *fingers* (walk endpoints annotated with their layer
  id).  Layer-0 ids are random keys from the node's sampled pool;
  layer-i ids are copied from a random layer-(i-1) finger — the layered
  id trick that defeats key-clustering attacks.
* **lookup** — to find a key, try each layer: pick the finger whose id
  most closely precedes the key on the ring, and scan that finger's
  successor records.  Retry over layers and repetitions.

Sybil nodes participate in the protocol but answer lookups adversarially
(they claim ignorance), so every routing step through a Sybil finger is
a wasted try — exactly the failure mode the walk-sampling bounds.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import SybilDefenseError
from repro.graph.core import Graph
from repro.markov.walk_batch import walk_endpoints

__all__ = ["WhanauConfig", "WhanauTables", "Whanau", "LookupResult"]

KEY_SPACE = 1 << 32


@dataclass(frozen=True)
class WhanauConfig:
    """Whānau parameters.

    The paper sets table sizes Theta(sqrt(km)) for k keys; here the
    successor tables, and the finger tables when ``num_fingers`` is
    None, get ``max(ceil(sqrt(k)), 4)`` entries.  Sampling walks take
    ``max(2, ceil(2 log2 n))`` steps, the mixing-time stand-in used
    throughout this library.
    """

    num_layers: int = 3
    num_fingers: int | None = None
    lookup_retries: int = 4
    seed: int = 0

    def __post_init__(self) -> None:
        if self.num_layers < 1:
            raise SybilDefenseError("num_layers must be positive")
        if self.num_fingers is not None and self.num_fingers < 1:
            raise SybilDefenseError("num_fingers must be positive")
        if self.lookup_retries < 1:
            raise SybilDefenseError("lookup_retries must be positive")


@dataclass
class WhanauTables:
    """One node's routing state."""

    ids: list[int] = field(default_factory=list)  # layer ids
    # fingers[layer] = list of (finger's layer id, finger node)
    fingers: list[list[tuple[int, int]]] = field(default_factory=list)
    # successor records: (key, owner node)
    successors: list[tuple[int, int]] = field(default_factory=list)


@dataclass(frozen=True)
class LookupResult:
    """Outcome of one lookup."""

    key: int
    source: int
    found_owner: int | None
    tries: int

    @property
    def success(self) -> bool:
        """True when the correct owner was located."""
        return self.found_owner is not None


def _ring_distance(from_id: int, to_key: int) -> int:
    """Clockwise distance from ``from_id`` to ``to_key`` on the ring."""
    return (to_key - from_id) % KEY_SPACE


class Whanau:
    """A Whānau overlay built over a social graph.

    Parameters
    ----------
    graph:
        The social graph (possibly under Sybil attack).
    keys:
        ``keys[v]`` is the list of keys node v owns and serves.
    honest:
        Boolean mask; Sybil nodes (False) follow the protocol during
        setup (their structure is adversary-chosen anyway) but answer
        every lookup query with "unknown".
    """

    def __init__(
        self,
        graph: Graph,
        keys: dict[int, list[int]],
        honest: np.ndarray | None = None,
        config: WhanauConfig | None = None,
    ) -> None:
        if graph.num_nodes < 3:
            raise SybilDefenseError("Whanau needs at least 3 nodes")
        self._graph = graph
        self._config = config or WhanauConfig()
        self._honest = (
            np.ones(graph.num_nodes, dtype=bool) if honest is None else honest
        )
        if self._honest.shape != (graph.num_nodes,):
            raise SybilDefenseError("honest mask must cover every node")
        self._keys = {int(v): sorted(ks) for v, ks in keys.items()}
        self._owner: dict[int, int] = {}
        for v, ks in self._keys.items():
            for k in ks:
                self._owner[int(k)] = v
        total_keys = sum(len(ks) for ks in self._keys.values())
        if total_keys == 0:
            raise SybilDefenseError("at least one key must be stored")
        n = graph.num_nodes
        cfg = self._config
        scale = max(int(np.ceil(np.sqrt(total_keys))), 4)
        self._num_fingers = cfg.num_fingers or scale
        self._num_successors = scale
        self._walk_length = max(2, int(np.ceil(2 * np.log2(n))))
        self._rng = np.random.default_rng(cfg.seed)
        # every walk-sampling stage draws its engine seed from this
        # root (spawn counter advances deterministically), keeping
        # table construction reproducible while each stage's walks run
        # as one vectorized block
        self._walk_seed_root = np.random.SeedSequence(cfg.seed)
        self._tables: list[WhanauTables] = [WhanauTables() for _ in range(n)]
        self._setup()

    # ------------------------------------------------------------------
    @property
    def graph(self) -> Graph:
        """The underlying social graph."""
        return self._graph

    @property
    def walk_length(self) -> int:
        """Sampling walk length w."""
        return self._walk_length

    def tables(self, node: int) -> WhanauTables:
        """Return a node's routing tables (read-mostly)."""
        return self._tables[node]

    # ------------------------------------------------------------------
    def _sample_block(self, sources: np.ndarray) -> np.ndarray:
        """Endpoints of one w-step walk per source, as one engine block."""
        return walk_endpoints(
            self._graph,
            sources,
            self._walk_length,
            seed=self._walk_seed_root.spawn(1)[0],
        )

    def _sample_uniform_block(self, sources: np.ndarray) -> np.ndarray:
        """Walk-sample one peer per source, rejection-corrected toward uniform.

        Raw walk endpoints are degree biased (stationary ~ deg/2m), so
        keys owned by peripheral nodes would be under-represented in
        every database at once — correlated lookup misses.  Accepting an
        endpoint v with probability min-degree/deg(v) (the standard
        Metropolis correction used in social-graph sampling) restores a
        near-uniform key sample while still only using random walks.
        Each of 16 rejection rounds resamples every still-unaccepted
        source in one block; a source never accepted keeps its last
        attempt.
        """
        sources = np.asarray(sources, dtype=np.int64)
        degrees = self._graph.degrees
        floor = max(int(degrees[degrees > 0].min()), 1)
        result = sources.copy()
        active = np.arange(result.size)
        for _ in range(16):
            if active.size == 0:
                break
            peers = self._sample_block(sources[active])
            result[active] = peers
            accepted = self._rng.random(active.size) < floor / np.maximum(
                degrees[peers], 1
            )
            active = active[~accepted]
        return result

    def _closest_following(
        self, records: list[tuple[int, int]], anchor: int, count: int
    ) -> list[tuple[int, int]]:
        """Keep the ``count`` records closest-following ``anchor`` on the ring."""
        unique = sorted(set(records), key=lambda r: _ring_distance(anchor, r[0]))
        return sorted(unique[:count])

    def _setup(self) -> None:
        """Build successor tables (two aggregation rounds), ids, fingers."""
        n = self._graph.num_nodes
        # round 0: everyone knows the keys it owns
        stage: list[list[tuple[int, int]]] = [
            [(k, v) for k in self._keys.get(v, ())] for v in range(n)
        ]
        # layer-0 ids: a random key from a first batch of sampled peers
        # (one engine block covers every node's batch)
        all_keys = sorted(self._owner)
        nodes = np.arange(n, dtype=np.int64)
        id_peers = self._sample_block(
            np.repeat(nodes, self._num_successors)
        ).reshape(n, self._num_successors)
        for v in range(n):
            pool: list[int] = []
            for peer in id_peers[v]:
                pool.extend(self._keys.get(int(peer), ()))
            if not pool:
                pool = all_keys
            self._tables[v].ids = [int(pool[self._rng.integers(len(pool))])]
        # phase 1 — databases: every node collects the keys owned by
        # 2 * num_successors walk-sampled peers.  db(v) is a UNIFORM
        # random sample of the key space (this uniformity is load-
        # bearing: concentrated databases would starve distant queriers).
        db_peers = self._sample_uniform_block(
            np.repeat(nodes, 2 * self._num_successors)
        ).reshape(n, 2 * self._num_successors)
        databases: list[list[tuple[int, int]]] = []
        for v in range(n):
            records: list[tuple[int, int]] = []
            for peer in db_peers[v]:
                peer = int(peer)
                if self._honest[peer]:
                    records.extend(stage[peer])
            databases.append(sorted(set(records)))
        # phase 2 — successor tables: sample fresh peers and pull from
        # each peer's database the few records nearest-following our
        # id.  The union over many independent uniform samples is DENSE
        # in the ring segment right after our id, which is exactly what
        # the closest-preceding-finger routing step relies on.
        per_peer = 4
        table_cap = 6 * self._num_successors
        succ_peers = self._sample_block(
            np.repeat(nodes, 2 * self._num_successors)
        ).reshape(n, 2 * self._num_successors)
        for v in range(n):
            anchor = self._tables[v].ids[0]
            records = list(databases[v])
            for peer in succ_peers[v]:
                peer = int(peer)
                if not self._honest[peer]:
                    continue
                nearest = sorted(
                    databases[peer],
                    key=lambda r: _ring_distance(anchor, r[0]),
                )[:per_peer]
                records.extend(nearest)
            self._tables[v].successors = self._closest_following(
                records, anchor, table_cap
            )
        # 3. fingers, layer by layer; layer-i ids copy a random
        #    layer-(i-1) finger's id
        for layer in range(self._config.num_layers):
            finger_peers = self._sample_block(
                np.repeat(nodes, self._num_fingers)
            ).reshape(n, self._num_fingers)
            for v in range(n):
                fingers: list[tuple[int, int]] = []
                for peer in finger_peers[v]:
                    peer = int(peer)
                    peer_ids = self._tables[peer].ids
                    if layer < len(peer_ids):
                        fingers.append((int(peer_ids[layer]), peer))
                self._tables[v].fingers.append(sorted(fingers))
            if layer + 1 < self._config.num_layers:
                for v in range(n):
                    fingers = self._tables[v].fingers[layer]
                    if fingers:
                        pick = fingers[self._rng.integers(len(fingers))][0]
                    else:
                        pick = self._tables[v].ids[0]
                    self._tables[v].ids.append(int(pick))

    # ------------------------------------------------------------------
    def _query_successors(self, node: int, key: int) -> int | None:
        """Ask ``node`` for the key; Sybils always claim ignorance."""
        if not self._honest[node]:
            return None
        for stored_key, owner in self._tables[node].successors:
            if stored_key == key:
                return owner
        return None

    def lookup(self, source: int, key: int) -> LookupResult:
        """Locate ``key``'s owner starting from ``source``.

        Tries every layer per retry round: choose the finger whose layer
        id most closely precedes the key on the ring, query its
        successor table, fall back to random fingers on later retries.
        """
        self._graph._check_node(source)
        if key not in self._owner:
            raise SybilDefenseError(f"key {key} is not stored anywhere")
        tries = 0
        # a node can always answer from its own successor records
        direct = self._query_successors(source, key) if self._honest[source] else None
        if direct is not None:
            return LookupResult(key=key, source=source, found_owner=direct, tries=0)
        for attempt in range(self._config.lookup_retries):
            for layer in range(self._config.num_layers):
                fingers = self._tables[source].fingers[layer]
                if not fingers:
                    continue
                if attempt == 0:
                    # the three fingers whose ids most closely precede
                    # the key: their dense segments should cover it
                    candidates = [
                        f[1]
                        for f in sorted(
                            fingers, key=lambda f: _ring_distance(f[0], key)
                        )[:3]
                    ]
                else:
                    candidates = [
                        fingers[self._rng.integers(len(fingers))][1]
                    ]
                for candidate in candidates:
                    tries += 1
                    owner = self._query_successors(candidate, key)
                    if owner is not None and owner == self._owner[key]:
                        return LookupResult(
                            key=key, source=source, found_owner=owner, tries=tries
                        )
        return LookupResult(key=key, source=source, found_owner=None, tries=tries)

    def lookup_success_rate(self, num_lookups: int = 200, seed: int = 0) -> float:
        """Measure the fraction of successful lookups from honest nodes."""
        if num_lookups < 1:
            raise SybilDefenseError("num_lookups must be positive")
        rng = np.random.default_rng(seed)
        pool = np.flatnonzero(self._honest)
        keys = sorted(self._owner)
        hits = 0
        for _ in range(num_lookups):
            source = int(pool[rng.integers(pool.size)])
            key = int(keys[rng.integers(len(keys))])
            if self.lookup(source, key).success:
                hits += 1
        return hits / num_lookups
