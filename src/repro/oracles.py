"""Scalar reference implementations of the batch engines.

Each batch engine — the walk modes of :mod:`repro.markov.walk_batch`,
the TVD profile of :mod:`repro.markov.batch`, the block BFS of
:mod:`repro.graph.bfs_batch`, the loopy BP of :mod:`repro.sybil.fusion`,
the level-sliced ticket kernel of :mod:`repro.sybil.tickets` with
SumUp's flow graph, the route block of :mod:`repro.markov.walks`
with SybilGuard's and SybilLimit's verdicts, SybilInfer's table-based
sampler, and the one-pass core structure of :mod:`repro.cores` — has a
one-item-at-a-time twin here that replays the same operations walk by
walk, source by source, level mask by level mask, half-edge by
half-edge, route hop by route hop or core by core.  So do the
measurements built on them that the test suite and the speedup
benchmarks compare (mixing profile, envelope expansion, escape
probability, link perturbation), and the edge-churn
proposal filter of :class:`repro.dynamics.ChurnModel`.  Every function
returns exactly what its library namesake returns for the same
arguments, bit for bit; the library never calls this module.
"""

from __future__ import annotations

from typing import Iterator, Sequence

import numpy as np
import scipy.sparse as sp

from repro.chunking import validate_sources
from repro.cores.decomposition import core_decomposition
from repro.cores.statistics import CoreStructure
from repro.dynamics import evolution
from repro.errors import SybilDefenseError
from repro.expansion import envelope
from repro.graph.core import Graph
from repro.graph.ops import induced_subgraph
from repro.graph.shard import ShardedGraph
from repro.graph.traversal import bfs_distances, bfs_levels, num_connected_components
from repro.markov import walks
from repro.markov.batch import validate_walk_lengths
from repro.markov.distance import total_variation_distance
from repro.markov.transition import stationary_distribution, transition_matrix
from repro.markov.walk_batch import NO_HIT, _keys, _step_block
from repro.mixing import sampling
from repro.privacy import perturb
from repro.sybil import escape, fusion, sumup, tickets
from repro.sybil.sybilguard import SybilGuard
from repro.sybil.sybilinfer import SybilInfer, SybilInferResult
from repro.sybil.sybillimit import SybilLimit

__all__ = [
    "walk_block",
    "walk_endpoints",
    "walk_first_hits",
    "walk_visit_counts",
    "tvd_profile",
    "sampled_mixing_profile",
    "bfs_distances_block",
    "bfs_level_sizes_block",
    "envelope_expansion",
    "core_structure",
    "loopy_belief_propagation",
    "distribute_tickets",
    "sumup_flow_graph",
    "route_permutations",
    "sybilguard_routes",
    "sybilguard_verify",
    "sybillimit_tails",
    "sybillimit_verify_all",
    "sybilinfer_run",
    "measure_escape",
    "perturb_links",
    "churn_step_events",
]


# ----------------------------------------------------------------------
# Monte-Carlo walks: one walk at a time, one uniform per step
# ----------------------------------------------------------------------
def _scalar_step(graph: Graph | ShardedGraph):
    """``step(state, u)``: the scalar twin of the engine's vector step."""
    if isinstance(graph, ShardedGraph):

        def step(state: int, u: float) -> int:
            shard = graph.shard(graph.shard_index_of(int(state)))
            start = int(shard.indptr[state - shard.lo])
            deg = int(shard.indptr[state - shard.lo + 1]) - start
            if deg == 0:
                return int(state)
            return int(shard.indices[start + min(int(u * deg), deg - 1)])

        return step
    indptr, indices, degrees = graph.indptr, graph.indices, graph.degrees

    def step(state: int, u: float) -> int:
        deg = degrees[state]
        if deg == 0:
            return state
        return int(indices[indptr[state] + min(int(u * deg), int(deg - 1))])

    return step


def _walks(graph, chosen: np.ndarray, seed, length: int) -> Iterator[Iterator]:
    """Per walk, an iterator of ``(t, state)`` for steps ``1 .. length``.

    Walk ``i`` is walk ``w = i % group`` of seed group ``g = i // group``;
    its step-``t`` uniform is the double at position
    ``(t // B) * 2**128 + w * B + t % B`` of ``Philox(key(seed[g]))``,
    read one step block at a time.
    """
    step = _scalar_step(graph)
    keys, group = _keys(seed, chosen.size)
    block = _step_block(length)

    def walk(i: int, state: int):
        g, w = divmod(i, group)
        t = 0
        for lo in range(0, length, block):
            position = (lo // block) * 2**128 + w * block
            bits = np.random.Philox(key=keys[g], counter=position // 4)
            for u in np.random.Generator(bits).random(min(block, length - lo)):
                t += 1
                state = step(state, u)
                yield t, state

    return (walk(i, int(s)) for i, s in enumerate(chosen))


def walk_block(graph, sources, length: int, seed=0) -> np.ndarray:
    """Per-walk twin of :func:`repro.markov.walk_block`."""
    chosen = validate_sources(graph.num_nodes, sources)
    out = np.empty((chosen.size, length + 1), dtype=np.int64)
    out[:, 0] = chosen
    for row, walk in zip(out, _walks(graph, chosen, seed, length)):
        for t, state in walk:
            row[t] = state
    return out


def walk_endpoints(graph, sources, length: int, seed=0) -> np.ndarray:
    """Per-walk twin of :func:`repro.markov.walk_endpoints`."""
    return walk_block(graph, sources, length, seed)[:, -1].copy()


def walk_first_hits(graph, sources, length: int, mask, seed=0) -> np.ndarray:
    """Per-walk twin of :func:`repro.markov.walk_first_hits`."""
    chosen = validate_sources(graph.num_nodes, sources)
    mask = np.asarray(mask, dtype=bool)
    out = np.full(chosen.size, NO_HIT, dtype=np.int64)
    for i, walk in enumerate(_walks(graph, chosen, seed, length)):
        if mask[chosen[i]]:
            out[i] = 0
            continue
        out[i] = next((t for t, state in walk if mask[state]), NO_HIT)
    return out


def walk_visit_counts(graph, sources, length: int, seed=0) -> np.ndarray:
    """Per-walk twin of :func:`repro.markov.walk_visit_counts`."""
    paths = walk_block(graph, sources, length, seed)
    return np.bincount(paths.ravel(), minlength=graph.num_nodes).astype(np.int64)


# ----------------------------------------------------------------------
# Figure 1: one sparse matvec per source per step
# ----------------------------------------------------------------------
def tvd_profile(
    matrix: sp.spmatrix, stationary: np.ndarray, sources: Sequence[int], walk_lengths
) -> np.ndarray:
    """Per-source twin of :func:`repro.markov.batched_tvd_profile`."""
    lengths = validate_walk_lengths(walk_lengths)
    n = matrix.shape[0]
    chosen = validate_sources(n, sources)
    tvd = np.empty((chosen.size, lengths.size))
    for row, source in enumerate(chosen):
        dist = np.zeros(n)
        dist[source] = 1.0
        step = 0
        for col, target in enumerate(lengths):
            while step < target:
                dist = matrix.T @ dist
                step += 1
            tvd[row, col] = total_variation_distance(dist, stationary)
    return tvd


def sampled_mixing_profile(
    graph: Graph,
    walk_lengths=None,
    num_sources: int = 100,
    sources=None,
    lazy: bool = False,
    seed: int = 0,
) -> sampling.MixingProfile:
    """Per-source twin of :func:`repro.mixing.sampled_mixing_profile`."""
    lengths, chosen = sampling._profile_inputs(
        graph, walk_lengths, num_sources, sources, seed
    )
    tvd = tvd_profile(
        transition_matrix(graph, lazy=lazy),
        stationary_distribution(graph),
        chosen,
        lengths,
    )
    return sampling.MixingProfile(
        walk_lengths=lengths, sources=chosen, tvd=tvd, lazy=lazy
    )


# ----------------------------------------------------------------------
# Figures 3-4: one Python BFS per source
# ----------------------------------------------------------------------
def bfs_distances_block(graph: Graph, sources: Sequence[int]) -> np.ndarray:
    """Per-source twin of :func:`repro.graph.bfs_distances_block`."""
    return np.stack([bfs_distances(graph, int(s)) for s in sources])


def bfs_level_sizes_block(graph: Graph, sources: Sequence[int]) -> np.ndarray:
    """Per-source twin of :func:`repro.graph.bfs_level_sizes_block`."""
    rows = [
        np.array([lvl.size for lvl in bfs_levels(graph, int(s))], dtype=np.int64)
        for s in sources
    ]
    out = np.zeros((len(rows), max(row.size for row in rows)), dtype=np.int64)
    for j, row in enumerate(rows):
        out[j, : row.size] = row
    return out


def envelope_expansion(
    graph: Graph,
    sources=None,
    num_sources: int | None = None,
    max_radius: int | None = None,
    seed: int = 0,
) -> envelope.ExpansionMeasurement:
    """Per-core twin of :func:`repro.expansion.envelope_expansion`."""
    chosen = envelope._cores(graph, sources, num_sources, max_radius, seed)
    sizes, neighbors = [], []
    for source in chosen:
        result = envelope.source_expansion(graph, int(source))
        sizes.append(result.envelope_sizes[:max_radius])
        neighbors.append(result.frontier_sizes[:max_radius])
    return envelope._measurement(chosen, sizes, neighbors)


# ----------------------------------------------------------------------
# Figure 5: one induced subgraph and one Python BFS per k
# ----------------------------------------------------------------------
def core_structure(graph: Graph) -> CoreStructure:
    """Per-k twin of :func:`repro.cores.core_structure`."""
    coreness = core_decomposition(graph)
    kmax = int(coreness.max())
    n = graph.num_nodes
    m = max(graph.num_edges, 1)
    ks = np.arange(kmax + 1, dtype=np.int64)
    node_fraction = np.empty(kmax + 1)
    edge_fraction = np.empty(kmax + 1)
    num_cores = np.empty(kmax + 1, dtype=np.int64)
    for k in ks:
        keep = np.flatnonzero(coreness >= k)
        sub, _ = induced_subgraph(graph, keep)
        node_fraction[k] = sub.num_nodes / n
        edge_fraction[k] = sub.num_edges / m
        num_cores[k] = num_connected_components(sub) if sub.num_nodes else 0
    return CoreStructure(
        ks=ks,
        node_fraction=node_fraction,
        edge_fraction=edge_fraction,
        num_cores=num_cores,
    )


# ----------------------------------------------------------------------
# SybilFrame / SybilFuse: loopy BP one half-edge at a time
# ----------------------------------------------------------------------
def loopy_belief_propagation(
    graph: Graph,
    priors: np.ndarray,
    edge_potentials: float | np.ndarray = 0.9,
    max_rounds: int = 50,
    damping: float = 0.25,
    tol: float = 1e-6,
) -> fusion.BeliefPropagationResult:
    """Per-edge twin of :func:`repro.sybil.loopy_belief_propagation`."""
    arrays = fusion._bp_inputs(graph, priors, edge_potentials, max_rounds, damping, tol)
    src, twin, log_w, log_not_w, log_phi = (
        arrays[k] for k in ("src", "twin", "log_w", "log_not_w", "log_phi")
    )
    n, dst = graph.num_nodes, graph.indices
    logm = np.full((dst.size, 2), np.log(0.5))
    converged, delta, rounds = dst.size == 0 or max_rounds == 0, 0.0, 0
    for _ in range(0 if converged else max_rounds):
        rounds += 1
        acc = fusion._aggregate_incoming(n, dst, logm)
        new_logm = np.empty_like(logm)
        diffs = np.empty(dst.size)
        for p in range(dst.size):
            u, rev = src[p], twin[p]
            pre0 = acc[u, 0] + log_phi[u, 0] - logm[rev, 0]
            pre1 = acc[u, 1] + log_phi[u, 1] - logm[rev, 1]
            upd0 = np.logaddexp(pre0 + log_w[p], pre1 + log_not_w[p])
            upd1 = np.logaddexp(pre0 + log_not_w[p], pre1 + log_w[p])
            z = np.logaddexp(upd0, upd1)
            m0, m1 = np.exp(upd0 - z), np.exp(upd1 - z)
            old0, old1 = np.exp(logm[p, 0]), np.exp(logm[p, 1])
            if damping > 0.0:
                m0 = (1.0 - damping) * m0 + damping * old0
                m1 = (1.0 - damping) * m1 + damping * old1
                total = m0 + m1
                m0, m1 = m0 / total, m1 / total
            diffs[p] = max(abs(m0 - old0), abs(m1 - old1))
            new_logm[p] = np.log(m0), np.log(m1)
        logm = new_logm
        delta = float(diffs.max())
        if delta <= tol:
            converged = True
            break
    return fusion.BeliefPropagationResult(
        beliefs=fusion._beliefs(graph, log_phi, logm),
        converged=bool(converged),
        rounds=rounds,
        delta=delta,
    )


# ----------------------------------------------------------------------
# GateKeeper / SumUp: one full-graph level mask per level, one dict
# entry per edge, one capacity per half-edge
# ----------------------------------------------------------------------
def distribute_tickets(
    graph: Graph, source: int, num_tickets: float
) -> tickets.TicketDistribution:
    """Level-mask twin of :func:`repro.sybil.distribute_tickets`."""
    graph._check_node(source)
    if num_tickets < 1:
        raise SybilDefenseError("num_tickets must be at least 1")
    n = graph.num_nodes
    dist = bfs_distances(graph, source)
    reachable = dist >= 0
    max_level = int(dist[reachable].max()) if reachable.any() else 0
    src = np.repeat(np.arange(n, dtype=np.int64), graph.degrees)
    dst = graph.indices
    forward = (dist[src] >= 0) & (dist[dst] == dist[src] + 1)
    fsrc, fdst = src[forward], dst[forward]
    forward_count = np.bincount(fsrc, minlength=n).astype(float)
    src_level = dist[fsrc]
    node_tickets = np.zeros(n, dtype=float)
    node_tickets[int(source)] = float(num_tickets)
    edge_share = np.zeros(fsrc.size, dtype=float)
    has_forward = forward_count > 0
    for level in range(max_level):
        at_level = src_level == level
        if not at_level.any():
            continue
        available = np.maximum(node_tickets - 1.0, 0.0)  # one consumed per node
        share = np.zeros(n, dtype=float)
        share[has_forward] = available[has_forward] / forward_count[has_forward]
        contribution = share[fsrc[at_level]]
        edge_share[at_level] = contribution
        np.add.at(node_tickets, fdst[at_level], contribution)
    positive = edge_share > 0
    edge_tickets = {
        (int(u), int(v)): float(s)
        for u, v, s in zip(fsrc[positive], fdst[positive], edge_share[positive])
    }
    return tickets.TicketDistribution(
        source=int(source),
        tickets_sent=float(num_tickets),
        node_tickets=node_tickets,
        reached=np.flatnonzero(node_tickets >= 1.0).astype(np.int64),
        edge_tickets=edge_tickets,
    )


def sumup_flow_graph(
    vote: sumup.SumUp, collector: int, voters: np.ndarray
) -> tuple[sp.csr_matrix, int]:
    """Per-half-edge twin of :meth:`repro.sybil.SumUp._flow_graph`."""
    graph = vote.graph
    n = graph.num_nodes
    source = n  # super-source id
    outward = distribute_tickets(graph, collector, vote._budget())
    boosted = {
        (v, u): 1 + int(np.ceil(t)) for (u, v), t in outward.edge_tickets.items()
    }
    dist = bfs_distances(graph, collector)
    rows: list[int] = []
    cols: list[int] = []
    data: list[int] = []
    for u in range(n):
        for v in graph.neighbors(u):
            v = int(v)
            capacity = boosted.get((u, v), 1)
            if dist[u] <= dist[v]:
                capacity = min(capacity, 1)
            rows.append(u)
            cols.append(v)
            data.append(int(capacity))
    for voter in voters:
        rows.append(source)
        cols.append(int(voter))
        data.append(1)
    matrix = sp.csr_matrix(
        (data, (rows, cols)), shape=(n + 1, n + 1), dtype=np.int32
    )
    return matrix, source


# ----------------------------------------------------------------------
# SybilGuard / SybilLimit: one node permutation per key segment, one
# route hop at a time
# ----------------------------------------------------------------------
def _route_draws(
    graph: Graph, seed: int, rows: int
) -> tuple[list[list[np.ndarray]], np.random.Generator]:
    """Each table row's per-node exit permutations, and the stream left
    after the key block."""
    rng = np.random.default_rng(seed)
    keys = walks._route_keys(rng, rows, graph.indices.size)
    bounds = graph.indptr
    perms = [
        [
            np.argsort(row[bounds[v] : bounds[v + 1]], kind="stable")
            for v in range(graph.num_nodes)
        ]
        for row in keys
    ]
    return perms, rng


def route_permutations(graph: Graph, seed: int = 0) -> list[np.ndarray]:
    """Per-node exit permutations of the route table
    :func:`repro.markov.walks._route_paths` routes on for ``seed``."""
    return _route_draws(graph, seed, 1)[0][0]


def _route(
    graph: Graph, perms: list[np.ndarray], source: int, first_hop: int, length: int
) -> np.ndarray:
    path = [source, first_hop]
    for _ in range(length - 1):
        nbrs = graph.neighbors(path[-1])
        enter = int(np.searchsorted(nbrs, path[-2]))
        path.append(int(nbrs[perms[path[-1]][enter]]))
    return np.asarray(path, dtype=np.int64)


def sybilguard_routes(guard: SybilGuard) -> list[list[np.ndarray]]:
    """Per-hop twin of :meth:`repro.sybil.SybilGuard.routes`, every node."""
    graph = guard.graph
    perms = route_permutations(graph, guard._config.seed)
    return [
        [
            _route(graph, perms, v, int(nbr), guard.route_length)
            for nbr in graph.neighbors(v)
        ]
        for v in range(graph.num_nodes)
    ]


def sybilguard_verify(
    guard: SybilGuard,
    verifier: int,
    suspect: int,
    routes: list[list[np.ndarray]] | None = None,
) -> bool:
    """Node-set twin of :meth:`repro.sybil.SybilGuard.verify`; pass
    ``routes`` (:func:`sybilguard_routes`) to reuse them across calls."""
    if verifier == suspect:
        return True
    routes = sybilguard_routes(guard) if routes is None else routes
    suspect_nodes: set[int] = set()
    for path in routes[suspect]:
        suspect_nodes.update(int(x) for x in path)
    verifier_routes = [set(int(x) for x in path) for path in routes[verifier]]
    if not verifier_routes:
        return False
    hits = sum(1 for nodes in verifier_routes if not nodes.isdisjoint(suspect_nodes))
    return hits >= guard._config.intersection_threshold * len(verifier_routes)


def sybillimit_tails(defense: SybilLimit) -> list[list[tuple[int, int]]]:
    """Per-route twin of :meth:`repro.sybil.SybilLimit.tails`, every node."""
    graph, r = defense.graph, defense.num_routes
    perms, rng = _route_draws(graph, defense._config.seed, r)
    first = rng.random((graph.num_nodes, r))
    out: list[list[tuple[int, int]]] = []
    for v in range(graph.num_nodes):
        nbrs = graph.neighbors(v)
        tails = []
        for i in range(r if nbrs.size else 0):
            hop = int(nbrs[min(int(first[v, i] * nbrs.size), nbrs.size - 1)])
            path = _route(graph, perms[i], v, hop, defense.route_length)
            tails.append((int(path[-2]), int(path[-1])))
        out.append(tails)
    return out


def sybillimit_verify_all(
    defense: SybilLimit, verifier: int, suspects: Sequence[int]
) -> np.ndarray:
    """Tail-dict twin of :meth:`repro.sybil.SybilLimit.verify_all`."""
    verifier_tails = defense.tails(verifier)
    if not verifier_tails:
        return np.empty(0, dtype=np.int64)
    tail_index: dict[tuple[int, int], list[int]] = {}
    for idx, tail in enumerate(verifier_tails):
        tail_index.setdefault(tail, []).append(idx)
    loads = np.zeros(len(verifier_tails), dtype=np.int64)
    accepted: list[int] = []
    r = len(verifier_tails)
    log_r = max(np.log(r), 1.0)
    for suspect in suspects:
        suspect = int(suspect)
        if suspect == verifier:
            accepted.append(suspect)
            continue
        matching: list[int] = []
        for tail in defense.tails(suspect):
            matching.extend(tail_index.get(tail, ()))
        if not matching:
            continue
        best = min(matching, key=lambda idx: loads[idx])
        average = (loads.sum() + 1) / r
        bound = defense._config.balance_h * max(log_r, average)
        if loads[best] + 1 > bound:
            continue
        loads[best] += 1
        accepted.append(suspect)
    return np.asarray(accepted, dtype=np.int64)


# ----------------------------------------------------------------------
# SybilInfer: per-walk membership flags, scalar logs per proposal
# ----------------------------------------------------------------------
def _sybilinfer_log_likelihood(
    infer: SybilInfer, inside_xx: int, total_from_x: int, ends_in_x: int, vol_x
) -> float:
    alpha = infer._config.escape_probability
    total = infer._walk_starts.size
    vol_out = float(infer.graph.degrees.sum()) - vol_x
    escaped_x = total_from_x - inside_xx  # X -> out
    crossed_in = ends_in_x - inside_xx  # out -> X
    inside_oo = total - total_from_x - crossed_in  # out -> out
    ll = 0.0
    if inside_xx:
        if vol_x <= 0:
            return -np.inf
        ll += inside_xx * (np.log1p(-alpha) - np.log(vol_x))
    if escaped_x:
        if vol_out <= 0:
            return -np.inf
        ll += escaped_x * (np.log(alpha) - np.log(vol_out))
    if crossed_in:
        if vol_x <= 0:
            return -np.inf
        ll += crossed_in * (np.log(alpha) - np.log(vol_x))
    if inside_oo:
        if vol_out <= 0:
            return -np.inf
        ll += inside_oo * (np.log1p(-alpha) - np.log(vol_out))
    return float(ll)


def sybilinfer_run(infer: SybilInfer, trusted: int) -> SybilInferResult:
    """Per-walk twin of :meth:`repro.sybil.SybilInfer.run`.

    Each proposal walks the node's start and end walk lists, reading
    the other endpoint's membership flag, and takes its logs one
    scalar ``np.log`` at a time.
    """
    infer.graph._check_node(trusted)
    cfg = infer._config
    rng = np.random.default_rng(cfg.seed + 1)
    n = infer.graph.num_nodes
    starts, ends = infer._walk_starts, infer._walk_ends
    degrees = infer.graph.degrees.astype(float)
    walks_starting: list[list[int]] = [[] for _ in range(n)]
    walks_ending: list[list[int]] = [[] for _ in range(n)]
    for w in range(starts.size):
        walks_starting[starts[w]].append(w)
        walks_ending[ends[w]].append(w)
    member = infer._initial_membership(trusted)
    start_in = member[starts].copy()
    end_in = member[ends].copy()
    inside_xx = int(np.count_nonzero(start_in & end_in))
    total_from_x = int(np.count_nonzero(start_in))
    ends_in_x = int(np.count_nonzero(end_in))
    vol_x = float(degrees[member].sum())
    current = _sybilinfer_log_likelihood(
        infer, inside_xx, total_from_x, ends_in_x, vol_x
    )
    counts = np.zeros(n, dtype=np.int64)
    best_set = member.copy()
    best_ll = current
    for step in range(cfg.burn_in + cfg.num_samples):
        for node in rng.permutation(n):
            node = int(node)
            if node == trusted:
                continue
            entering = not member[node]
            sign = 1 if entering else -1
            delta_inside = 0
            delta_from_x = 0
            delta_ends = 0
            for w in walks_starting[node]:
                delta_from_x += sign
                if ends[w] == node:
                    # self walk: (v, v) contributes iff v is in X, so
                    # its inside count always moves with the flip
                    delta_inside += sign
                elif end_in[w]:
                    delta_inside += sign
            for w in walks_ending[node]:
                delta_ends += sign
                if starts[w] == node:
                    continue  # the start-side delta covered this walk
                if start_in[w]:
                    delta_inside += sign
            new_vol = vol_x + sign * degrees[node]
            proposed = _sybilinfer_log_likelihood(
                infer,
                inside_xx + delta_inside,
                total_from_x + delta_from_x,
                ends_in_x + delta_ends,
                new_vol,
            )
            if proposed >= current or rng.random() < np.exp(proposed - current):
                member[node] = entering
                for w in walks_starting[node]:
                    start_in[w] = entering
                for w in walks_ending[node]:
                    end_in[w] = entering
                inside_xx += delta_inside
                total_from_x += delta_from_x
                ends_in_x += delta_ends
                vol_x = new_vol
                current = proposed
        if current > best_ll:
            best_ll = current
            best_set = member.copy()
        if step >= cfg.burn_in:
            counts += member
    probability = counts / cfg.num_samples
    probability[trusted] = 1.0
    return SybilInferResult(
        honest_probability=probability,
        best_set=np.flatnonzero(best_set).astype(np.int64),
        best_log_likelihood=float(best_ll),
    )


# ----------------------------------------------------------------------
# measurements whose walks come from the per-walk oracles above
# ----------------------------------------------------------------------
def measure_escape(
    attack, walk_lengths: list[int], num_walks: int = 2000, seed: int = 0
) -> escape.EscapeMeasurement:
    """Per-walk twin of :func:`repro.sybil.measure_escape`."""
    return escape._measure_escape(
        attack, walk_lengths, num_walks, seed, walk_first_hits
    )


def perturb_links(graph: Graph, t: int, seed=0) -> Graph:
    """Per-edge twin of :func:`repro.privacy.perturb_links`."""
    return perturb._perturb(graph, t, seed, walk_endpoints)


# ----------------------------------------------------------------------
# edge churn: one proposed edge at a time
# ----------------------------------------------------------------------
def churn_step_events(
    model: evolution.ChurnModel, graph: Graph
) -> evolution.GraphDelta:
    """Per-candidate twin of :meth:`repro.dynamics.ChurnModel.step_events`.

    Consumes the same block draws from ``model``'s generator, but keeps
    or rejects each candidate edge in plain python.
    """
    return model._step_events(graph, _churn_propose)


def _churn_propose(
    model: evolution.ChurnModel,
    graph: Graph,
    kept_keys: np.ndarray,
    num_replace: int,
) -> np.ndarray:
    n = graph.num_nodes
    budget = 50 * num_replace
    attempts = 0
    kept = set(int(k) for k in kept_keys)
    seen: set[int] = set()
    added: list[tuple[int, int]] = []
    while len(added) < num_replace and attempts < budget:
        size = min(num_replace - len(added), budget - attempts)
        lo, hi, valid = model._draw_block(graph, size)
        attempts += size
        for i in range(size):
            if not valid[i]:
                continue
            key = int(lo[i]) * n + int(hi[i])
            if key in kept or key in seen:
                continue
            seen.add(key)
            added.append((int(lo[i]), int(hi[i])))
    if not added:
        return np.empty((0, 2), dtype=np.int64)
    return np.asarray(added, dtype=np.int64)
