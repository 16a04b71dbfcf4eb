"""Unit tests for the content-addressed artifact store."""

from __future__ import annotations

import json
import subprocess
import sys
import threading

import numpy as np
import pytest

from repro.analysis import persistence
from repro.errors import ReproError, StoreError
from repro.graph import Graph
from repro.store import ArtifactStore, canonical_params, graph_digest, memoize


@pytest.fixture
def store(tmp_path) -> ArtifactStore:
    return ArtifactStore(tmp_path / "cache")


def _files(root) -> list[str]:
    """Every file under ``root``, as sorted root-relative POSIX paths."""
    return sorted(
        path.relative_to(root).as_posix()
        for path in root.rglob("*")
        if path.is_file()
    )


class TestGraphDigest:
    def test_equal_graphs_share_digest(self):
        a = Graph.from_edges([(0, 1), (1, 2), (0, 2)])
        b = Graph.from_edges([(2, 0), (0, 1), (2, 1), (1, 0)])
        assert a == b
        assert graph_digest(a) == graph_digest(b)

    def test_different_graphs_differ(self, ba_small, community_small):
        assert graph_digest(ba_small) != graph_digest(community_small)

    def test_isolated_node_changes_digest(self):
        a = Graph.from_edges([(0, 1)])
        b = Graph.from_edges([(0, 1)], num_nodes=3)
        assert graph_digest(a) != graph_digest(b)

    def test_stable_across_processes(self):
        """The same analog generated in a fresh interpreter hashes identically."""
        script = (
            "from repro.datasets import load_dataset\n"
            "from repro.store import graph_digest\n"
            "print(graph_digest(load_dataset('rice_grad', scale=0.3, seed=0)))\n"
        )
        out = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            check=True,
            env={"PYTHONPATH": "src", "PATH": "/usr/bin:/bin"},
            cwd=str(__import__("pathlib").Path(__file__).parents[1]),
        ).stdout.strip()
        from repro.datasets import load_dataset

        assert out == graph_digest(load_dataset("rice_grad", scale=0.3, seed=0))


class TestCanonicalParams:
    def test_key_order_is_irrelevant(self):
        assert canonical_params({"a": 1, "b": 2}) == canonical_params(
            {"b": 2, "a": 1}
        )

    def test_tuples_and_lists_collapse(self):
        assert canonical_params({"w": (1, 2)}) == canonical_params({"w": [1, 2]})

    def test_unkeyable_value_rejected(self):
        with pytest.raises(StoreError):
            canonical_params({"fn": object()})

    def test_store_error_is_repro_error(self):
        with pytest.raises(ReproError):
            canonical_params({"fn": object()})


class TestRoundTrip:
    def test_put_get(self, store, triangle):
        value = {"mu": 0.5, "arr": np.arange(4)}
        store.put(triangle, "spectral", {"seed": 0}, value)
        loaded = store.get(triangle, "spectral", {"seed": 0})
        assert loaded["mu"] == 0.5
        assert np.array_equal(loaded["arr"], np.arange(4))
        assert store.stats.writes == 1
        assert store.stats.hits == 1

    def test_miss_returns_default(self, store, triangle):
        sentinel = object()
        assert store.get(triangle, "absent", {}, default=sentinel) is sentinel
        assert store.stats.misses == 1

    def test_params_distinguish_entries(self, store, triangle):
        store.put(triangle, "s", {"k": 1}, "one")
        store.put(triangle, "s", {"k": 2}, "two")
        assert store.get(triangle, "s", {"k": 1}) == "one"
        assert store.get(triangle, "s", {"k": 2}) == "two"

    def test_graphs_distinguish_entries(self, store, triangle, k5):
        store.put(triangle, "s", {}, "tri")
        store.put(k5, "s", {}, "k5")
        assert store.get(triangle, "s", {}) == "tri"
        assert store.get(k5, "s", {}) == "k5"

    def test_contains(self, store, triangle):
        assert not store.contains(triangle, "s", {})
        store.put(triangle, "s", {}, 1)
        assert store.contains(triangle, "s", {})

    def test_string_subject(self, store):
        store.put("feedcafe", "load", {"scale": 0.1}, [1, 2, 3])
        assert store.get("feedcafe", "load", {"scale": 0.1}) == [1, 2, 3]

    def test_second_instance_sees_entries(self, store, triangle):
        store.put(triangle, "s", {}, {"x": 1})
        other = ArtifactStore(store.root)
        assert other.get(triangle, "s", {}) == {"x": 1}

    def test_invalid_stage_name_rejected(self, store, triangle):
        with pytest.raises(StoreError):
            store.key_for(triangle, "bad|name", {})
        with pytest.raises(StoreError):
            store.key_for(triangle, "", {})


class TestInvalidation:
    def test_stage_version_bump_invalidates(self, store, triangle):
        store.put(triangle, "s", {}, "v1", version=1)
        assert store.get(triangle, "s", {}, version=2) is None
        assert store.get(triangle, "s", {}, version=1) == "v1"

    def test_codec_version_bump_invalidates(self, store, triangle, monkeypatch):
        store.put(triangle, "s", {}, "old")
        monkeypatch.setattr(persistence, "CODEC_VERSION", persistence.CODEC_VERSION + 1)
        assert store.get(triangle, "s", {}) is None


class TestCorruption:
    def _entry_path(self, store, subject, stage):
        key = store.key_for(subject, stage, {})
        return store.root / "objects" / key[:2] / f"{key}.json"

    def test_truncated_entry_recovers(self, store, triangle):
        store.put(triangle, "s", {}, {"x": 1})
        path = self._entry_path(store, triangle, "s")
        path.write_text(path.read_text()[: 10])
        assert store.get(triangle, "s", {}) is None
        assert store.stats.corrupt == 1
        assert not path.exists()
        # the memoize path recomputes and repairs the entry
        assert store.memoize(triangle, "s", {}, lambda: {"x": 1}) == {"x": 1}
        assert store.get(triangle, "s", {}) == {"x": 1}

    def test_foreign_key_detected(self, store, triangle, k5):
        store.put(triangle, "s", {}, "tri")
        src = self._entry_path(store, triangle, "s")
        dst = self._entry_path(store, k5, "s")
        dst.parent.mkdir(parents=True, exist_ok=True)
        dst.write_text(src.read_text())
        assert store.get(k5, "s", {}) is None
        assert store.stats.corrupt == 1

class TestConcurrency:
    def test_concurrent_readers_and_writers(self, tmp_path, triangle):
        """Hammer one directory from many threads and two instances."""
        a = ArtifactStore(tmp_path / "cache")
        b = ArtifactStore(tmp_path / "cache")
        errors: list[Exception] = []

        def worker(store, worker_id):
            try:
                for i in range(25):
                    key = {"k": i % 5}
                    store.put(triangle, "s", key, {"payload": i % 5})
                    got = store.get(triangle, "s", key)
                    if got is not None and got != {"payload": i % 5}:
                        raise AssertionError(f"wrong value {got}")
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [
            threading.Thread(target=worker, args=(store, i))
            for i, store in enumerate([a, b, a, b])
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        for i in range(5):
            assert a.get(triangle, "s", {"k": i}) == {"payload": i}

    def test_cross_process_writers_one_valid_entry(self, tmp_path):
        """Two processes memoizing the same key must converge on one
        valid entry: object files are written atomically, so racing
        writers may duplicate work but can never tear a file (the
        process backend runs engine stages in separate interpreters
        against one cache directory, making this a load-bearing
        property, not a nicety)."""
        cache = tmp_path / "cache"
        script = (
            "import sys\n"
            "from repro.store import ArtifactStore\n"
            "store = ArtifactStore(sys.argv[1])\n"
            "for _ in range(30):\n"
            "    got = store.memoize(\n"
            "        'subject', 'stage', {'k': 1}, lambda: {'payload': 1}\n"
            "    )\n"
            "    assert got == {'payload': 1}, got\n"
        )
        repo_root = str(__import__("pathlib").Path(__file__).parents[1])
        procs = [
            subprocess.Popen(
                [sys.executable, "-c", script, str(cache)],
                stdout=subprocess.PIPE,
                stderr=subprocess.PIPE,
                env={"PYTHONPATH": "src", "PATH": "/usr/bin:/bin"},
                cwd=repo_root,
            )
            for _ in range(2)
        ]
        for proc in procs:
            _, stderr = proc.communicate(timeout=120)
            assert proc.returncode == 0, stderr.decode()
        # a fresh instance reads the entry the racers wrote ...
        fresh = ArtifactStore(cache)
        assert fresh.get("subject", "stage", {"k": 1}) == {"payload": 1}
        # ... from the one intact object file they left behind
        key = fresh.key_for("subject", "stage", {"k": 1})
        assert _files(cache) == [f"objects/{key[:2]}/{key}.json"]
        payload = json.loads((cache / _files(cache)[0]).read_text())
        assert payload["key"] == key
        assert payload["stage"] == "stage"

    def test_memoize_counters_exact_under_threads(self, store, triangle):
        """Every memoize call performs exactly one lookup, so after any
        interleaving ``hits + misses`` equals the number of calls and
        ``writes`` equals ``misses``.  Before StoreStats took a lock,
        racing unguarded ``+=`` updates silently lost increments under
        the pipeline's wave scheduler."""
        num_threads, rounds, keyspace = 8, 25, 5
        barrier = threading.Barrier(num_threads)

        def worker():
            barrier.wait()
            for i in range(rounds):
                params = {"k": i % keyspace}
                got = store.memoize(
                    triangle, "s", params, lambda p=params: {"v": p["k"]}
                )
                assert got == {"v": params["k"]}

        threads = [threading.Thread(target=worker) for _ in range(num_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        stats = store.stats
        assert stats.hits + stats.misses == num_threads * rounds
        assert stats.writes == stats.misses
        assert stats.misses >= keyspace  # each key missed at least once
        assert stats.corrupt == 0

    def test_increment_is_thread_safe(self, store):
        stats = store.stats

        def bump():
            for _ in range(1000):
                stats.increment("hits")

        threads = [threading.Thread(target=bump) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert stats.hits == 8000

    def test_atomic_writes_leave_no_temp_files(self, store, triangle):
        for i in range(10):
            store.put(triangle, "s", {"k": i}, i)
        leftovers = list(store.root.rglob(".tmp-*"))
        assert leftovers == []


class TestOneRecordPerArtifact:
    def test_instances_sharing_a_root_keep_every_entry(self, tmp_path, triangle):
        """Each object file is the artifact's only record, so entries
        written by different instances all survive, and nothing but
        those files lands in the root."""
        cache = tmp_path / "cache"
        a = ArtifactStore(cache)
        b = ArtifactStore(cache)
        a.put(triangle, "mixing", {"seed": 0}, "from a")
        b.put(triangle, "cores", {}, "from b")
        fresh = ArtifactStore(cache)
        assert fresh.get(triangle, "mixing", {"seed": 0}) == "from a"
        assert fresh.get(triangle, "cores", {}) == "from b"
        key = fresh.key_for(triangle, "mixing", {"seed": 0})
        other = fresh.key_for(triangle, "cores", {})
        assert _files(cache) == sorted(
            f"objects/{k[:2]}/{k}.json" for k in (key, other)
        )
        # the object file records what the artifact measured
        payload = json.loads((cache / f"objects/{key[:2]}/{key}.json").read_text())
        assert payload["stage"] == "mixing"
        assert payload["graph"] == graph_digest(triangle)


class TestMemoizeHelper:
    def test_without_store_calls_through(self, triangle):
        calls = []
        out = memoize(None, triangle, "s", {}, lambda: calls.append(1) or 41)
        assert out == 41
        assert calls == [1]

    def test_with_store_computes_once(self, store, triangle):
        calls = []

        def compute():
            calls.append(1)
            return {"v": 7}

        first = memoize(store, triangle, "s", {}, compute)
        second = memoize(store, triangle, "s", {}, compute)
        assert first == second == {"v": 7}
        assert calls == [1]
