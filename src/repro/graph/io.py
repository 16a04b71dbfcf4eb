"""Edge-list serialization in the SNAP text format.

The paper's datasets are distributed as whitespace-separated edge lists
with ``#`` comment headers (the SNAP convention); this module reads and
writes that format so users can drop in the real traces when they have
them, in place of the bundled synthetic analogs.
"""

from __future__ import annotations

import gzip
import zlib
from pathlib import Path
from typing import IO, Iterator

from repro.errors import GraphError
from repro.graph.core import Graph

__all__ = ["read_edge_list", "write_edge_list", "parse_edge_lines"]


def _open_text(path: Path, mode: str) -> IO[str]:
    if path.suffix == ".gz":
        return gzip.open(path, mode + "t", encoding="utf-8")
    return open(path, mode, encoding="utf-8")


def parse_edge_lines(lines: Iterator[str]) -> Iterator[tuple[int, int]]:
    """Yield ``(u, v)`` pairs from SNAP-style edge-list lines.

    Blank lines and lines starting with ``#`` or ``%`` are skipped.
    Raises :class:`GraphError` on malformed rows.
    """
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith(("#", "%")):
            continue
        parts = line.split()
        if len(parts) < 2:
            raise GraphError(f"line {lineno}: expected two node ids, got {line!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError as exc:
            raise GraphError(f"line {lineno}: non-integer node id in {line!r}") from exc
        yield (u, v)


def read_edge_list(path: str | Path, num_nodes: int | None = None) -> Graph:
    """Load a graph from a (possibly gzipped) SNAP edge-list file.

    Directed inputs are symmetrized (the paper treats all graphs as
    undirected); duplicate edges and self loops are dropped.  A file
    that cannot be read or decoded (a directory, non-UTF-8 text, a
    damaged gzip stream) raises :class:`GraphError` naming the file.
    """
    path = Path(path)
    try:
        with _open_text(path, "r") as handle:
            edges = list(parse_edge_lines(handle))
    except (OSError, EOFError, UnicodeDecodeError, zlib.error) as exc:
        raise GraphError(f"cannot read edge list {path}: {exc}") from exc
    return Graph.from_edges(edges, num_nodes=num_nodes)


def write_edge_list(graph: Graph, path: str | Path, header: str | None = None) -> None:
    """Write ``graph`` as a SNAP edge list (one ``u v`` row per edge)."""
    path = Path(path)
    with _open_text(path, "w") as handle:
        if header:
            for line in header.splitlines():
                handle.write(f"# {line}\n")
        handle.write(f"# nodes: {graph.num_nodes} edges: {graph.num_edges}\n")
        for u, v in graph.edges():
            handle.write(f"{u}\t{v}\n")
