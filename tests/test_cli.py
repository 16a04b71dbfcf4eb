"""Unit tests for the command-line interface."""

from __future__ import annotations

import gzip
import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.cli import main
from repro.generators import barabasi_albert
from repro.graph import write_edge_list
from repro.mixing import spectral


class TestDatasets:
    def test_lists_all_analogs(self, capsys):
        assert main(["datasets"]) == 0
        out = capsys.readouterr().out
        assert "wiki_vote" in out
        assert "livejournal_b" in out
        assert "regime" in out

    def test_closed_pipe_exits_quietly(self):
        """A reader that closes standard output before the listing is
        written (``repro datasets | head``) gets a nonzero exit and no
        traceback."""
        src = str(Path(repro.__file__).resolve().parents[1])
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "datasets"],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env={**os.environ, "PYTHONPATH": src},
        )
        proc.stdout.close()  # before the child has imported numpy
        stderr = proc.stderr.read().decode()
        proc.stderr.close()
        assert proc.wait(timeout=60) != 0
        assert "Traceback" not in stderr
        assert "BrokenPipeError" not in stderr


class TestAudit:
    def test_bundled_dataset(self, capsys):
        assert main(["audit", "wiki_vote", "--scale", "0.05"]) == 0
        out = capsys.readouterr().out
        assert "SLEM" in out
        assert "verdict" in out

    def test_edge_list_file(self, tmp_path, capsys):
        graph = barabasi_albert(120, 3, seed=0)
        path = tmp_path / "edges.txt"
        write_edge_list(graph, path)
        assert main(["audit", str(path)]) == 0
        out = capsys.readouterr().out
        assert "120 nodes" in out

    def test_missing_target(self):
        with pytest.raises(SystemExit):
            main(["audit", "/nonexistent/file.txt"])

    def test_two_node_graph_exits_with_one_line(self, tmp_path):
        # SLEM is 1 (bipartite), so the Sinclair bounds are infinite
        path = tmp_path / "edge.txt"
        path.write_text("0 1\n")
        with pytest.raises(SystemExit) as info:
            main(["audit", str(path)])
        message = str(info.value.code)
        assert "SLEM must lie in [0, 1)" in message
        assert "\n" not in message


def _grid_edges(side: int) -> list[tuple[int, int]]:
    n = side * side
    return [(i, i + 1) for i in range(n - 1) if i % side != side - 1] + [
        (i, i + side) for i in range(n - side)
    ]


def _periodic_row(out: str, label: str) -> str:
    (row,) = [line for line in out.splitlines() if line.startswith(label)]
    return row


class TestPeriodicAudit:
    """Bipartite graphs print a periodic row instead of a 10^16-step bound."""

    @pytest.mark.parametrize(
        "edges",
        [
            pytest.param([(i, (i + 1) % 4) for i in range(4)], id="4-cycle"),
            pytest.param([(i, (i + 1) % 600) for i in range(600)], id="600-cycle"),
            pytest.param(_grid_edges(30), id="30x30-grid"),
        ],
    )
    def test_in_ram_audit(self, tmp_path, capsys, edges):
        path = tmp_path / "edges.txt"
        path.write_text("".join(f"{u} {v}\n" for u, v in edges))
        assert main(["audit", str(path)]) == 0
        out = capsys.readouterr().out
        row = _periodic_row(out, "T(1/n) upper bound")
        assert "none: periodic chain (bipartite graph)" in row
        assert "steps" not in row

    def test_sharded_audit(self, tmp_path, capsys):
        path = tmp_path / "grid.txt"
        path.write_text("".join(f"{u} {v}\n" for u, v in _grid_edges(30)))
        root = tmp_path / "grid"
        assert main(
            ["shard", "build", "--target", str(path), "--out", str(root),
             "--num-shards", "3"]
        ) == 0
        capsys.readouterr()
        assert main(["audit", "--sharded", str(root)]) == 0
        out = capsys.readouterr().out
        for label in ("T(1/n) lower bound", "T(1/n) upper bound"):
            row = _periodic_row(out, label)
            assert "none: periodic chain (bipartite graph)" in row
            assert "steps" not in row


class TestShard:
    def test_build_stream_info_audit_round_trip(self, tmp_path, capsys):
        root = tmp_path / "sg"
        assert (
            main(
                [
                    "shard",
                    "build",
                    "--out",
                    str(root),
                    "--stream",
                    "fast",
                    "--nodes",
                    "4000",
                    "--num-shards",
                    "3",
                ]
            )
            == 0
        )
        assert "3 shards" in capsys.readouterr().out
        assert main(["shard", "info", str(root), "--verify"]) == 0
        out = capsys.readouterr().out
        assert "4000 nodes" in out
        assert "digests match" in out
        assert main(["audit", str(root), "--sharded", "--sources", "5"]) == 0
        out = capsys.readouterr().out
        assert "SLEM" in out
        assert "verdict" in out

    def test_build_from_bundled_dataset(self, tmp_path, capsys):
        root = tmp_path / "wv"
        args = ["shard", "build", "--out", str(root), "--target", "wiki_vote"]
        assert main(args + ["--scale", "0.05"]) == 0
        assert "graph digest" in capsys.readouterr().out

    def test_build_requires_exactly_one_source(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["shard", "build", "--out", str(tmp_path / "x")])
        with pytest.raises(SystemExit):
            main(
                [
                    "shard",
                    "build",
                    "--out",
                    str(tmp_path / "x"),
                    "--target",
                    "wiki_vote",
                    "--stream",
                    "fast",
                ]
            )

    def test_info_missing_directory(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["shard", "info", str(tmp_path / "nothing")])

    def test_sharded_audit_metrics_contract(self, tmp_path, capsys):
        root = tmp_path / "sg"
        main(
            [
                "shard",
                "build",
                "--out",
                str(root),
                "--stream",
                "fast",
                "--nodes",
                "3000",
            ]
        )
        metrics = tmp_path / "metrics.json"
        assert (
            main(
                [
                    "audit",
                    str(root),
                    "--sharded",
                    "--sources",
                    "4",
                    "--metrics-out",
                    str(metrics),
                ]
            )
            == 0
        )
        capsys.readouterr()
        doc = json.loads(metrics.read_text())
        assert doc["counters"]["shard.loads"] >= 1
        assert doc["gauges"]["shard.resident_bytes"] > 0
        assert doc["counters"]["mixing.slem.matvecs"] > 0

    def test_sharded_audit_nonconvergence_exits_with_one_line(
        self, tmp_path, monkeypatch
    ):
        root = tmp_path / "sg"
        main(["shard", "build", "--out", str(root), "--stream", "fast",
              "--nodes", "3000"])
        monkeypatch.setattr(spectral, "_MAX_MATVECS", 3)
        with pytest.raises(SystemExit) as info:
            main(["audit", str(root), "--sharded"])
        message = str(info.value.code)
        assert message.startswith("Lanczos failed to converge")
        assert "\n" not in message

    def test_shard_info_on_contradictory_manifest_exits_with_one_line(
        self, tmp_path
    ):
        root = tmp_path / "sg"
        main(["shard", "build", "--out", str(root), "--stream", "fast",
              "--nodes", "600", "--num-shards", "4"])
        path = root / "manifest.json"
        manifest = json.loads(path.read_text())
        manifest["nodes_per_shard"] = 149  # bounds stay [0, 150, ..., 600]
        path.write_text(json.dumps(manifest))
        with pytest.raises(SystemExit) as info:
            main(["shard", "info", str(root)])
        message = str(info.value.code)
        assert message.startswith("malformed shard manifest")
        assert "\n" not in message


class TestReproduce:
    @pytest.mark.parametrize("experiment", ["table1", "fig2", "fig5"])
    def test_fast_experiments(self, experiment, capsys):
        assert main(["reproduce", experiment, "--scale", "0.05"]) == 0
        out = capsys.readouterr().out
        assert len(out.splitlines()) > 3

    def test_fig4(self, capsys):
        assert main(["reproduce", "fig4", "--scale", "0.05"]) == 0
        assert "alpha" in capsys.readouterr().out

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            main(["reproduce", "fig9"])

    def test_missing_command_rejected(self):
        with pytest.raises(SystemExit):
            main([])


class TestReport:
    def test_report_to_stdout(self, capsys):
        assert main(["report", "wiki_vote", "--scale", "0.05"]) == 0
        out = capsys.readouterr().out
        assert "# Measurement report" in out
        assert "Mixing time" in out
        assert "Defense readiness" in out

    def test_report_to_file(self, tmp_path, capsys):
        target = tmp_path / "report.md"
        assert main(
            ["report", "wiki_vote", "--scale", "0.05", "--output", str(target)]
        ) == 0
        assert "# Measurement report" in target.read_text()

    def test_output_creates_missing_parents_and_prints_path(self, tmp_path, capsys):
        target = tmp_path / "deeply" / "nested" / "dir" / "report.md"
        assert main(
            ["report", "wiki_vote", "--scale", "0.05", "--output", str(target)]
        ) == 0
        assert target.exists()
        out = capsys.readouterr().out
        assert str(target.resolve()) in out

    def test_report_cache_dir_warms(self, tmp_path, capsys):
        argv = [
            "report", "wiki_vote", "--scale", "0.05",
            "--cache-dir", str(tmp_path / "cache"),
        ]
        assert main(argv) == 0
        cold = capsys.readouterr().out
        assert main(argv) == 0
        warm = capsys.readouterr().out
        assert warm == cold


class TestPipeline:
    ARGS = ["--target", "wiki_vote", "--scale", "0.05", "--sources", "5"]

    def test_stages_lists_dag(self, capsys):
        assert main(["pipeline", "stages", *self.ARGS]) == 0
        out = capsys.readouterr().out
        for stage in ("load", "mixing", "spectral", "cores", "expansion",
                      "gatekeeper", "tables"):
            assert stage in out

    def test_run_without_cache(self, capsys):
        assert main(["pipeline", "run", *self.ARGS]) == 0
        out = capsys.readouterr().out
        assert "cache: disabled" in out
        assert "results digest:" in out

    def test_cold_then_warm_hits_cache(self, tmp_path, capsys):
        argv = [
            "pipeline", "run", *self.ARGS, "--cache-dir", str(tmp_path / "cache")
        ]
        assert main(argv) == 0
        cold = capsys.readouterr().out
        assert "misses=7" in cold
        assert main(argv) == 0
        warm = capsys.readouterr().out
        assert "hits=7" in warm
        assert "misses=0" in warm
        digest = [l for l in cold.splitlines() if l.startswith("results digest:")]
        assert digest == [
            l for l in warm.splitlines() if l.startswith("results digest:")
        ]

    def test_stage_subset(self, tmp_path, capsys):
        assert main(
            ["pipeline", "run", *self.ARGS, "--stages", "cores",
             "--cache-dir", str(tmp_path / "cache")]
        ) == 0
        out = capsys.readouterr().out
        assert "cores" in out
        assert "gatekeeper" not in out


class TestObservability:
    ARGS = ["--target", "wiki_vote", "--scale", "0.05", "--sources", "5"]

    def test_trace_prints_summary_table(self, capsys):
        assert main(["pipeline", "run", *self.ARGS, "--trace"]) == 0
        out = capsys.readouterr().out
        assert "Telemetry — spans" in out
        assert "pipeline.stage.load" in out
        assert "chunking.chunks" in out

    def test_metrics_out_writes_canonical_json(self, tmp_path, capsys):
        target = tmp_path / "metrics" / "m.json"
        assert main(
            ["pipeline", "run", *self.ARGS, "--metrics-out", str(target)]
        ) == 0
        out = capsys.readouterr().out
        assert f"metrics written to {target.resolve()}" in out
        doc = json.loads(target.read_text())
        assert doc["schema"] == 1
        for stage in ("load", "mixing", "spectral", "cores", "expansion",
                      "gatekeeper", "tables"):
            span = doc["spans"][f"pipeline.stage.{stage}"]
            assert span["count"] == 1
            assert span["wall_seconds"] >= 0.0
            assert span["cpu_seconds"] >= 0.0
        assert doc["counters"]["pipeline.stage_computed"] == 7
        assert doc["counters"]["chunking.chunks"] >= 1
        # the gatekeeper stage samples distributors through the
        # vectorized walk engine, whose counters surface here
        assert doc["counters"]["markov.walk.walks"] >= 1
        assert doc["counters"]["markov.walk.steps"] >= 1
        assert any("markov.walk.endpoints" in path for path in doc["spans"])
        assert doc["gauges"]["pipeline.max_wave_occupancy"] >= 1
        # canonical form: re-serialising the parse is byte-identical
        assert (
            json.dumps(doc, sort_keys=True, indent=2) + "\n"
            == target.read_text()
        )

    def test_warm_run_metrics_show_memoization_hits(self, tmp_path, capsys):
        argv = [
            "pipeline", "run", *self.ARGS,
            "--cache-dir", str(tmp_path / "cache"),
            "--metrics-out", str(tmp_path / "m.json"),
        ]
        assert main(argv) == 0
        cold = json.loads((tmp_path / "m.json").read_text())
        assert cold["counters"]["store.misses"] == 7
        assert cold["counters"]["store.writes"] == 7
        assert main(argv) == 0
        warm = json.loads((tmp_path / "m.json").read_text())
        assert warm["counters"]["store.hits"] == 7
        assert warm["counters"]["pipeline.stage_cache_hits"] == 7
        assert warm["counters"]["pipeline.stage.load.cache_hits"] == 1
        assert "pipeline.stage_computed" not in warm["counters"]
        capsys.readouterr()

    def test_metrics_out_on_report_command(self, tmp_path, capsys):
        target = tmp_path / "m.json"
        assert main(
            ["report", "wiki_vote", "--scale", "0.05",
             "--metrics-out", str(target)]
        ) == 0
        doc = json.loads(target.read_text())
        assert doc["schema"] == 1
        capsys.readouterr()

    def test_telemetry_off_by_default(self, capsys):
        from repro import telemetry

        assert main(["pipeline", "run", *self.ARGS]) == 0
        assert telemetry.current() is telemetry.NULL_TELEMETRY
        assert "Telemetry — spans" not in capsys.readouterr().out


class TestCacheDir:
    def test_audit_cache_dir(self, tmp_path, capsys):
        argv = [
            "audit", "wiki_vote", "--scale", "0.05",
            "--cache-dir", str(tmp_path / "cache"),
        ]
        assert main(argv) == 0
        cold = capsys.readouterr().out
        assert main(argv) == 0
        warm = capsys.readouterr().out
        assert warm.splitlines()[:5] == cold.splitlines()[:5]
        assert list((tmp_path / "cache" / "objects").glob("*/*.json"))

    def test_reproduce_cache_dir(self, tmp_path, capsys):
        argv = [
            "reproduce", "fig5", "--scale", "0.05",
            "--cache-dir", str(tmp_path / "cache"),
        ]
        assert main(argv) == 0
        cold = capsys.readouterr().out
        assert main(argv) == 0
        assert capsys.readouterr().out == cold


class TestPrivacySweep:
    ARGS = [
        "privacy", "sweep", "--target", "wiki_vote", "--scale", "0.08",
        "--ts", "0,2", "--sources", "8", "--suspect-sample", "30",
    ]

    def test_sweep_prints_frontier_tables(self, capsys):
        assert main(self.ARGS) == 0
        out = capsys.readouterr().out
        assert "Privacy-utility frontier" in out
        assert "Utility retention" in out
        assert "Defense AUC degradation" in out
        assert "verdict:" in out

    def test_sweep_metrics_out(self, tmp_path, capsys):
        target = tmp_path / "privacy.json"
        assert main([*self.ARGS, "--metrics-out", str(target)]) == 0
        doc = json.loads(target.read_text())
        assert doc["counters"]["privacy.perturb.walks"] >= 1
        assert doc["counters"]["privacy.frontier.points"] == 2
        assert any("privacy.perturb" in path for path in doc["spans"])

    def test_bad_ts_rejected(self):
        with pytest.raises(SystemExit):
            main(["privacy", "sweep", "--target", "wiki_vote", "--ts", "x"])

    def test_cache_dir_warms(self, tmp_path, capsys):
        argv = [*self.ARGS, "--cache-dir", str(tmp_path / "cache")]
        assert main(argv) == 0
        cold = capsys.readouterr().out
        assert main(argv) == 0
        assert capsys.readouterr().out == cold


#: Target files that exist but hold no readable edge list (``None``: a
#: directory).
BAD_TARGETS = {
    "directory": None,
    "non-utf8.txt": b"0 1\n\xff\xfe 2\n",
    "not-gzip.gz": b"0 1\n1 2\n2 0\n",
    "truncated.gz": gzip.compress(b"0 1\n1 2\n2 0\n" * 50)[:-12],
    # a gzip header over a deflate block of the reserved type
    "corrupt.gz": gzip.compress(b"0 1\n")[:10] + b"\xff" * 16,
}

#: Every command that loads a target, as argv builders.
TARGET_COMMANDS = {
    "audit": lambda target, tmp: ["audit", target],
    "report": lambda target, tmp: ["report", target],
    "pipeline run": lambda target, tmp: ["pipeline", "run", "--target", target],
    "sybil compare": lambda target, tmp: ["sybil", "compare", "--target", target],
    "privacy sweep": lambda target, tmp: ["privacy", "sweep", "--target", target],
    "shard build": lambda target, tmp: [
        "shard", "build", "--target", target, "--out", str(tmp / "shards"),
    ],
    "serve": lambda target, tmp: ["serve", "--target", target, "--burst", "1"],
}


@pytest.mark.parametrize("command", sorted(TARGET_COMMANDS))
@pytest.mark.parametrize("kind", sorted(BAD_TARGETS))
def test_malformed_target_exits_with_one_line(kind, command, tmp_path):
    target = tmp_path / kind
    if BAD_TARGETS[kind] is None:
        target.mkdir()
    else:
        target.write_bytes(BAD_TARGETS[kind])
    with pytest.raises(SystemExit) as info:
        main(TARGET_COMMANDS[command](str(target), tmp_path))
    message = info.value.code
    assert isinstance(message, str)  # a message, not a traceback
    assert "\n" not in message
    assert str(target) in message


#: Malformed option values, each paired with the commands that take it.
_BAD_SCALES = st.one_of(
    st.sampled_from(["nan", "inf", "-inf", "1e400"]),
    st.floats(max_value=0.0).map(repr),
)
_BAD_NON_NEGATIVE = st.one_of(
    st.integers(max_value=-1).map(str), st.sampled_from(["1.5", "abc", ""])
)
_BAD_COUNTS = st.one_of(
    st.integers(max_value=0).map(str), st.sampled_from(["1.5", "abc", ""])
)
_BAD_SUSPECT_SAMPLES = st.one_of(
    st.integers(max_value=1).map(str), st.sampled_from(["1.5", "abc", ""])
)
_BAD_PORTS = st.one_of(st.integers(min_value=65536), st.integers(max_value=-1)).map(
    str
)
_SMALL = ["--scale", "0.01"]
_PIPELINE = ["pipeline", "run", "--target", "wiki_vote", *_SMALL]
_SYBIL = ["sybil", "compare", "--target", "wiki_vote", *_SMALL]
_PRIVACY = ["privacy", "sweep", "--target", "wiki_vote", *_SMALL, "--ts", "0,1"]
_SERVE = ["serve", "--target", "wiki_vote", *_SMALL]


def _malformed_invocations(tmp):
    """(argv builder, bad-value strategy) for each checked option."""
    a_file = tmp / "a-file"
    a_file.write_text("not a directory\n")
    a_dir = tmp / "a-dir"
    a_dir.mkdir(exist_ok=True)
    out = str(tmp / "shards")
    return [
        (lambda v: ["audit", "wiki_vote", f"--scale={v}"], _BAD_SCALES),
        (lambda v: ["report", "wiki_vote", f"--scale={v}"], _BAD_SCALES),
        (lambda v: ["pipeline", "run", "--target", "wiki_vote", f"--scale={v}"],
         _BAD_SCALES),
        (lambda v: ["pipeline", "run", "--target", "wiki_vote", f"--seed={v}"],
         _BAD_NON_NEGATIVE),
        (lambda v: ["sybil", "compare", "--target", "wiki_vote", f"--seed={v}"],
         _BAD_NON_NEGATIVE),
        (lambda v: ["shard", "build", "--target", "wiki_vote", "--out", out,
                    f"--seed={v}"], _BAD_NON_NEGATIVE),
        (lambda v: ["serve", "--target", "wiki_vote", f"--port={v}"], _BAD_PORTS),
        (lambda v: ["report", "wiki_vote", *_SMALL, "--output", v],
         st.just(str(a_dir))),
        (lambda v: ["audit", "wiki_vote", *_SMALL, "--cache-dir", v],
         st.just(str(a_file))),
        (lambda v: ["audit", "wiki_vote", *_SMALL, f"--sources={v}"], _BAD_COUNTS),
        (lambda v: [*_PIPELINE, f"--sources={v}"], _BAD_COUNTS),
        (lambda v: [*_PIPELINE, f"--workers={v}"], _BAD_COUNTS),
        (lambda v: [*_SYBIL, f"--suspect-sample={v}"], _BAD_SUSPECT_SAMPLES),
        (lambda v: [*_SYBIL, f"--attack-edges={v}"], _BAD_NON_NEGATIVE),
        (lambda v: [*_SYBIL, f"--workers={v}"], _BAD_COUNTS),
        (lambda v: [*_PRIVACY, f"--sources={v}"], _BAD_COUNTS),
        (lambda v: [*_PRIVACY, f"--suspect-sample={v}"], _BAD_SUSPECT_SAMPLES),
        (lambda v: [*_PRIVACY, f"--attack-edges={v}"], _BAD_NON_NEGATIVE),
        (lambda v: [*_PRIVACY, f"--workers={v}"], _BAD_COUNTS),
        (lambda v: [*_SERVE, f"--attack-edges={v}"], _BAD_NON_NEGATIVE),
        (lambda v: [*_SERVE, f"--compact-max-overlay={v}"], _BAD_COUNTS),
        (lambda v: [*_SERVE, f"--burst={v}"], _BAD_COUNTS),
        (lambda v: [*_SERVE, "--burst=4", f"--clients={v}"], _BAD_COUNTS),
        (lambda v: ["shard", "build", "--stream", "fast", "--out", out,
                    f"--nodes={v}"], _BAD_COUNTS),
        (lambda v: ["shard", "build", "--target", "wiki_vote", "--out", out,
                    f"--num-shards={v}"], _BAD_COUNTS),
        (lambda v: ["shard", "build", "--target", "wiki_vote", "--out", out,
                    f"--nodes-per-shard={v}"], _BAD_COUNTS),
    ]


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_malformed_values_exit_without_traceback(data, tmp_path_factory):
    """Every malformed value ends in SystemExit with a nonzero code: the
    usage error argparse prints, or one line from a check after parsing.
    Any other exception would be printed as a traceback."""
    tmp = tmp_path_factory.getbasetemp() / "malformed"
    tmp.mkdir(exist_ok=True)
    build, values = data.draw(st.sampled_from(_malformed_invocations(tmp)))
    argv = build(data.draw(values))
    stdout, stderr = io.StringIO(), io.StringIO()
    with pytest.raises(SystemExit) as info:
        with redirect_stdout(stdout), redirect_stderr(stderr):
            main(argv)
    code = info.value.code
    assert code not in (0, None), argv
    if isinstance(code, str):  # raised after parsing: one line
        assert code and "\n" not in code, argv
    else:  # argparse's usage error
        assert code == 2 and "error:" in stderr.getvalue(), argv
    assert "Traceback" not in stdout.getvalue() + stderr.getvalue()


@pytest.mark.parametrize(
    "argv",
    [
        [*_PIPELINE, "--sources", "-1"],
        [*_PRIVACY, "--sources", "-2"],
        [*_SYBIL, "--suspect-sample", "-1"],
        [*_SERVE, "--burst", "-1"],
    ],
    ids=["pipeline-sources", "privacy-sources", "sybil-suspect-sample", "serve-burst"],
)
def test_bad_count_fails_before_any_work(argv, capsys):
    """A bad count is argparse's usage error: the command loads no graph
    and binds no server before rejecting it."""
    with pytest.raises(SystemExit) as info:
        main(argv)
    captured = capsys.readouterr()
    assert info.value.code == 2 and "error:" in captured.err
    assert captured.out == ""
