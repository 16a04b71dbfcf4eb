"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``datasets``
    List the bundled Table-I analogs.
``audit <edgelist> [--scale S]``
    Audit a SNAP-format edge list (or a bundled analog name) for
    Sybil-defense readiness: mixing, cores, expansion, recommendation.
    With ``--sharded`` the target is an out-of-core sharded-graph
    directory instead and every measurement streams shard by shard
    (Lanczos SLEM, Sinclair bounds, sampled fast-mixing check).
``shard build --out DIR (--target T | --stream fast|slow --nodes N)``
    Shard a dataset to disk (:mod:`repro.graph.shard`), or stream a
    multi-million-node synthetic analog straight into shards without
    ever materializing the edge list.
``shard info DIR [--verify]``
    Print a sharded graph's manifest summary and per-shard layout;
    ``--verify`` re-hashes every shard file against its digest.
``reproduce <experiment> [--scale S]``
    Regenerate one of the paper's tables/figures from the analog
    registry; ``<experiment>`` is one of table1, fig1, fig2, table2,
    fig3, fig4, fig5.
``pipeline run --target T [--cache-dir DIR]``
    Run the full measurement DAG (load -> mixing/spectral/cores/
    expansion/gatekeeper -> tables) with per-stage memoization; a
    second run against the same cache directory recomputes nothing.
``sybil compare --target T [--topology wild|powerlaw]``
    Run every registered Sybil defense (structure-only and fusion) on
    one attack scenario and print the midrank-AUC comparison table —
    the fusion-vs-structure ablation, memoized like the pipeline.
``privacy sweep --target T [--ts 0,1,2,5,10]``
    Sweep the Mittal et al. link-privacy perturbation level t over the
    standard attack scenario and print the privacy-utility frontier:
    per-t structure metrics, utility-retention curves, and per-defense
    AUC degradation, with a monotonicity verdict.
``serve --target T [--burst N]``
    Stand up the online admission service (:mod:`repro.serve`) on the
    standard attack scenario: SybilRank / GateKeeper / escape queries
    over a snapshot + overlay, compacted per policy.  Without
    ``--burst`` the JSON API serves until interrupted; with ``--burst
    N`` the closed-loop load generator fires N mixed read/write
    requests over HTTP and prints the p50/p99 latency table.

``audit``, ``report`` and ``reproduce`` accept the same ``--cache-dir``
flag, sharing warm artifacts with the pipeline.

Observability: every command accepts ``--metrics-out PATH``, which
enables the :mod:`repro.telemetry` registry for the run and writes the
canonical JSON metrics document (per-stage wall/CPU spans, store
hit/miss counters, chunk fan-out counts) to ``PATH``; ``pipeline run
--trace`` additionally prints the human-readable telemetry tables.

Errors: any :class:`~repro.errors.ReproError` a command raises ends the
run with its one-line message and exit code 1, never a traceback.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path
from typing import Callable

import numpy as np

from repro.analysis import (
    figure1_mixing_profiles,
    figure2_coreness_ecdfs,
    figure3_expansion_summaries,
    figure4_expansion_factors,
    figure5_core_structures,
    format_table,
    table1_dataset_summary,
    table2_gatekeeper,
)
from repro.datasets import STREAM_REGIMES, available_datasets, dataset_spec
from repro.errors import ReproError
from repro.graph import ShardedGraph
from repro.mixing import (
    PERIODIC_CHAIN,
    MixingBounds,
    mixing_bounds,
    sampled_mixing_profile,
    slem,
)
from repro import telemetry
from repro.chunking import default_workers
from repro.parallel import EXECUTORS, execution
from repro.pipeline import (
    cores_stage,
    expansion_stage,
    fusion_comparison_pipeline,
    load_target,
    measure,
    paper_measurement_pipeline,
    spectral_stage,
)
from repro.store import ArtifactStore

__all__ = ["main"]


def _int_in(low: int, high: int | None, rule: str) -> Callable[[str], int]:
    """An argparse type: an integer in ``[low, high]`` (no upper bound
    when ``high`` is None), rejected at parse time as ``rule`` says."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            value = None
        if value is None or value < low or (high is not None and value > high):
            raise argparse.ArgumentTypeError(f"{rule}, got {text!r}")
        return value

    return parse


#: numpy seeds and attack-edge counts are non-negative integers, other
#: counts and sizes positive ones; a suspect sample needs one honest and
#: one Sybil suspect; ports fit in 16 bits
_non_negative = _int_in(0, None, "must be a non-negative integer")
_positive = _int_in(1, None, "must be a positive integer")
_suspects = _int_in(2, None, "must be an integer of at least 2")
_port = _int_in(0, 65535, "must be an integer in 0..65535")


def _store_from(args: argparse.Namespace) -> ArtifactStore | None:
    cache_dir = getattr(args, "cache_dir", None)
    return ArtifactStore(cache_dir) if cache_dir else None


def _workers_from(args: argparse.Namespace) -> int | None:
    """Resolve ``--workers``, defaulting to the core count when a
    non-thread executor was requested without an explicit fan-out."""
    workers = getattr(args, "workers", None)
    if workers is None and getattr(args, "executor", None) in ("process", "auto"):
        return default_workers()
    return workers


def _cmd_datasets(_: argparse.Namespace) -> int:
    rows = []
    for name in available_datasets():
        spec = dataset_spec(name)
        rows.append(
            [
                name,
                spec.mixing_regime,
                spec.analog_nodes,
                f"{spec.paper_nodes:,}",
                spec.category,
            ]
        )
    print(
        format_table(
            ["name", "regime", "analog nodes", "paper nodes", "category"],
            rows,
            title="Bundled Table-I analogs",
        )
    )
    return 0


def _steps(bounds: MixingBounds | None, side: str) -> str:
    """One Sinclair bound as the audits print it, or why there is none."""
    return PERIODIC_CHAIN if bounds is None else f"{getattr(bounds, side):.0f} steps"


def _audit_sharded(args: argparse.Namespace) -> int:
    """Out-of-core readiness audit over a sharded-graph directory.

    Streams every measurement shard block by shard block: SLEM via
    :func:`repro.mixing.slem` (Lanczos on streamed shard matvecs),
    Sinclair bounds (none for a bipartite graph), and the sampled
    fast-mixing check (worst-source TVD below ``1/n`` within the
    ``4 log2 n`` budget — the same criterion as
    :func:`repro.mixing.is_fast_mixing`, measured by
    :func:`repro.mixing.sampled_mixing_profile` on a geometric length
    grid).  The TVD chunks run on every core, with at most 8 source
    columns resident at once; the profile is bit-identical for every
    worker count.  Core/expansion structure needs the resident graph
    and is skipped at this scale.
    """
    sharded = ShardedGraph.open(args.target)
    n = sharded.num_nodes
    print(
        f"sharded graph: {n} nodes, {sharded.num_edges} edges, "
        f"{sharded.num_shards} shards ({sharded.nodes_per_shard} nodes/shard)"
    )
    mu = slem(sharded)
    bounds = mixing_bounds(sharded, mu)
    budget = max(1, int(4.0 * np.log2(max(n, 2))))
    lengths = sorted(
        {1 << k for k in range(budget.bit_length()) if (1 << k) <= budget}
        | {budget}
    )
    workers = default_workers()
    with execution(workers=workers, chunk_size=max(1, 8 // workers)):
        worst = sampled_mixing_profile(
            sharded, walk_lengths=lengths, num_sources=args.sources, seed=args.seed
        ).max
    fast = bool((worst < 1.0 / n).any())
    print(
        format_table(
            ["property", "value"],
            [
                # perfbench/workloads.py parses this label verbatim
                ["SLEM mu (power iteration)", f"{mu:.4f}"],
                ["T(1/n) lower bound", _steps(bounds, "lower")],
                ["T(1/n) upper bound", _steps(bounds, "upper")],
                ["O(log n) budget", f"{budget} steps"],
                ["worst-source TVD at budget", f"{worst[-1]:.3e}"],
                ["fast-mixing (O(log n))", "PASS" if fast else "FAIL"],
            ],
            title="Sharded mixing audit",
        )
    )
    if fast:
        print("\nverdict: mixes fast at this scale; random-walk Sybil")
        print("defenses get their headline guarantees.")
    else:
        print("\nverdict: slow mixing — random-walk Sybil defenses will")
        print("either reject confined honest users or admit more Sybils.")
    return 0


def _cmd_audit(args: argparse.Namespace) -> int:
    if getattr(args, "sharded", False):
        return _audit_sharded(args)
    store = _store_from(args)
    graph = load_target(args.target, args.scale)
    print(f"graph: {graph.num_nodes} nodes, {graph.num_edges} edges (LCC)")

    spectral = measure(store, graph, spectral_stage(num_sources=50))
    mu, bounds, fast = spectral["slem"], spectral["bounds"], spectral["fast"]
    structure = measure(store, graph, cores_stage())
    cohesive = bool(np.all(structure.num_cores == 1))
    measurement = measure(store, graph, expansion_stage(num_sources=50))
    alpha = measurement.small_set_expansion(graph.num_nodes)
    print(
        format_table(
            ["property", "value"],
            [
                ["SLEM mu", f"{mu:.4f}"],
                ["T(1/n) upper bound", _steps(bounds, "upper")],
                ["fast-mixing (O(log n))", "PASS" if fast else "FAIL"],
                ["degeneracy k_max", structure.degeneracy],
                ["max simultaneous cores", int(structure.num_cores.max())],
                ["single cohesive core", "yes" if cohesive else "no"],
                ["mean alpha (small envelopes)", f"{alpha:.2f}"],
            ],
            title="Sybil-defense readiness audit",
        )
    )
    if fast and cohesive:
        print("\nverdict: meets the fast-mixing and expansion assumptions.")
    elif fast:
        print("\nverdict: mixes fast but cores fragment; peripheral honest")
        print("communities will see degraded acceptance.")
    else:
        print("\nverdict: slow mixing — random-walk Sybil defenses will")
        print("either reject confined honest users or admit more Sybils.")
    return 0


def _shard_build(args: argparse.Namespace) -> int:
    if (args.target is None) == (args.stream is None):
        raise SystemExit("pass exactly one of --target or --stream")
    out = Path(args.out)
    if args.stream is not None:
        if args.nodes is None:
            raise SystemExit("--stream requires --nodes")
        from repro.datasets import build_sharded_analog

        sharded = build_sharded_analog(
            out,
            args.nodes,
            regime=args.stream,
            seed=args.seed,
            num_shards=args.num_shards,
            nodes_per_shard=args.nodes_per_shard,
        )
    else:
        graph = load_target(args.target, args.scale)
        sharded = ShardedGraph.from_graph(
            graph,
            out,
            num_shards=args.num_shards,
            nodes_per_shard=args.nodes_per_shard,
        )
    print(f"sharded graph written to {out}")
    print(
        f"{sharded.num_nodes} nodes, {sharded.num_edges} edges, "
        f"{sharded.num_shards} shards ({sharded.nodes_per_shard} nodes/shard)"
    )
    print(f"graph digest: {sharded.graph_digest}")
    return 0


def _shard_info(args: argparse.Namespace) -> int:
    sharded = ShardedGraph.open(args.root)
    print(
        f"sharded graph: {sharded.num_nodes} nodes, {sharded.num_edges} edges, "
        f"{sharded.num_shards} shards ({sharded.nodes_per_shard} nodes/shard)"
    )
    print(f"graph digest: {sharded.graph_digest}")
    bounds = sharded.bounds
    rows = []
    for index, (lo, hi) in enumerate(zip(bounds[:-1], bounds[1:])):
        shard = sharded.shard(index)
        rows.append(
            [
                index,
                f"[{lo}, {hi})",
                hi - lo,
                int(np.asarray(shard.indptr)[-1]),
                f"{shard.nbytes:,}",
            ]
        )
    print(
        format_table(
            ["shard", "nodes", "rows", "half-edges", "bytes"],
            rows,
            title="Shard layout",
        )
    )
    if args.verify:
        if sharded.verify():
            print("\nverify: all shard digests match the manifest")
        else:
            print("\nverify: DIGEST MISMATCH — shard files are corrupt")
            return 1
    return 0


def _cmd_shard(args: argparse.Namespace) -> int:
    if args.shard_command == "build":
        return _shard_build(args)
    return _shard_info(args)


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.analysis import measurement_report

    graph = load_target(args.target, args.scale)
    text = measurement_report(graph, name=args.target, store=_store_from(args))
    if args.output:
        output = Path(args.output).resolve()
        try:
            output.parent.mkdir(parents=True, exist_ok=True)
            output.write_text(text, encoding="utf-8")
        except OSError as exc:
            raise SystemExit(f"cannot write the report to {output}: {exc.strerror}")
        print(f"report written to {output}")
    else:
        print(text)
    return 0


def _cmd_reproduce(args: argparse.Namespace) -> int:
    scale = args.scale
    store = _store_from(args)
    if args.experiment == "table1":
        rows = table1_dataset_summary(
            list(available_datasets()), scale=scale, store=store
        )
        print(
            format_table(
                ["dataset", "nodes", "edges", "mu"],
                [[r.name, r.num_nodes, r.num_edges, f"{r.slem:.6f}"] for r in rows],
                title="Table I",
            )
        )
    elif args.experiment == "fig1":
        profiles = figure1_mixing_profiles(
            ["wiki_vote", "enron", "physics1", "epinions"],
            num_sources=50,
            scale=scale,
            store=store,
        )
        headers = ["walk len"] + list(profiles)
        lengths = next(iter(profiles.values())).walk_lengths
        rows = [
            [int(w)] + [f"{profiles[n].mean[i]:.4f}" for n in profiles]
            for i, w in enumerate(lengths)
        ]
        print(format_table(headers, rows, title="Figure 1 (mean TVD)"))
        from repro.analysis import ascii_chart

        print()
        print(
            ascii_chart(
                {n: (p.walk_lengths, p.mean) for n, p in profiles.items()},
                title="Figure 1 — TVD vs walk length",
                x_label="walk length",
                y_label="TVD",
            )
        )
    elif args.experiment == "fig2":
        ecdfs = figure2_coreness_ecdfs(
            ["wiki_vote", "physics1", "epinions"], scale=scale, store=store
        )
        for name, (values, fractions) in ecdfs.items():
            rows = [[int(v), f"{f:.3f}"] for v, f in zip(values, fractions)]
            print(format_table(["k", "P(coreness <= k)"], rows, title=name))
    elif args.experiment == "table2":
        outcomes = table2_gatekeeper(num_controllers=2, scale=scale, store=store)
        print(
            format_table(
                ["dataset", "f", "honest", "sybil/edge"],
                [
                    [
                        o.dataset,
                        f"{o.parameter:.1f}",
                        f"{o.honest_acceptance:.1%}",
                        f"{o.sybils_per_attack_edge:.2f}",
                    ]
                    for o in outcomes
                ],
                title="Table II (GateKeeper)",
            )
        )
    elif args.experiment == "fig3":
        summaries = figure3_expansion_summaries(
            ["wiki_vote", "physics1"], num_sources=50, scale=scale, store=store
        )
        for name, s in summaries.items():
            picks = np.linspace(0, s.set_sizes.size - 1, 10).astype(int)
            rows = [
                [
                    int(s.set_sizes[i]),
                    int(s.minimum[i]),
                    f"{s.mean[i]:.1f}",
                    int(s.maximum[i]),
                ]
                for i in picks
            ]
            print(
                format_table(
                    ["|S|", "min", "mean", "max"], rows, title=f"Figure 3 ({name})"
                )
            )
    elif args.experiment == "fig4":
        factors = figure4_expansion_factors(
            ["wiki_vote", "physics1"], num_sources=50, scale=scale, store=store
        )
        for name, (sizes, alphas) in factors.items():
            picks = np.linspace(0, sizes.size - 1, 10).astype(int)
            rows = [[int(sizes[i]), f"{alphas[i]:.3f}"] for i in picks]
            print(format_table(["|S|", "alpha"], rows, title=f"Figure 4 ({name})"))
    elif args.experiment == "fig5":
        structures = figure5_core_structures(
            ["wiki_vote", "physics1", "epinions"], scale=scale, store=store
        )
        for name, s in structures.items():
            rows = [
                [int(k), f"{s.node_fraction[k]:.3f}", int(s.num_cores[k])]
                for k in s.ks
            ]
            print(
                format_table(
                    ["k", "nu'_k", "#cores"], rows, title=f"Figure 5 ({name})"
                )
            )
    else:
        raise SystemExit(f"unknown experiment {args.experiment!r}")
    return 0


def _cmd_pipeline(args: argparse.Namespace) -> int:
    store = _store_from(args)
    pipeline = paper_measurement_pipeline(
        args.target,
        scale=args.scale,
        seed=args.seed,
        num_sources=args.sources,
        store=store,
        workers=_workers_from(args),
        executor=args.executor,
    )
    if args.pipeline_command == "stages":
        rows = [
            [s, ", ".join(pipeline.stage(s).deps) or "-"]
            for s in pipeline.stage_names
        ]
        print(format_table(["stage", "depends on"], rows, title="Pipeline DAG"))
        return 0
    targets = args.stages.split(",") if args.stages else None
    result = pipeline.run(targets=targets)
    print(result.summary())
    print(store.stats.as_line() if store else "cache: disabled")
    print(f"results digest: {result.digest()}")
    tables = result.results.get("tables")
    if tables is not None:
        print(
            format_table(
                ["property", "value"],
                [
                    ["target", tables["target"]],
                    ["nodes", tables["num_nodes"]],
                    ["edges", tables["num_edges"]],
                    ["SLEM mu", f"{tables['slem']:.4f}"],
                    ["fast-mixing", "PASS" if tables["fast_mixing"] else "FAIL"],
                    ["degeneracy k_max", tables["degeneracy"]],
                    ["max simultaneous cores", tables["max_cores"]],
                    [
                        "mean alpha (small envelopes)",
                        f"{tables['mean_small_set_expansion']:.2f}",
                    ],
                    [
                        "gatekeeper cells",
                        len(tables["gatekeeper"]),
                    ],
                ],
                title="Pipeline headline results",
            )
        )
    return 0


def _cmd_sybil(args: argparse.Namespace) -> int:
    pipeline = fusion_comparison_pipeline(
        args.target,
        scale=args.scale,
        seed=args.seed,
        num_attack_edges=args.attack_edges,
        topology=args.topology,
        suspect_sample=args.suspect_sample,
        store=_store_from(args),
        workers=_workers_from(args),
        executor=args.executor,
    )
    result = pipeline.run()
    report = result.results["report"]
    attack = result.results["attack"]
    print(
        f"attack: {attack.num_honest} honest + {attack.num_sybil} sybil "
        f"({report['topology']} region), {attack.num_attack_edges} attack edges"
    )
    from repro.sybil import FUSION_DEFENSE_NAMES

    rows = [
        [
            name,
            "fusion" if name in FUSION_DEFENSE_NAMES else "structure",
            f"{auc:.4f}",
        ]
        for name, auc in sorted(
            report["auc"].items(), key=lambda kv: -kv[1]
        )
    ]
    print(
        format_table(
            ["defense", "family", "AUC"],
            rows,
            title="Fusion-vs-structure comparison (midrank ROC AUC)",
        )
    )
    verdict = (
        "both fusion defenses beat every structure-only AUC"
        if report["fusion_beats_structure"]
        else "fusion does not dominate on this scenario"
    )
    print(f"verdict: {verdict}")
    return 0


def _cmd_privacy(args: argparse.Namespace) -> int:
    from repro.privacy import privacy_frontier_pipeline

    try:
        ts = tuple(int(part) for part in args.ts.split(","))
    except ValueError:
        raise SystemExit(f"--ts must be a comma-separated int list, got {args.ts!r}")
    pipeline = privacy_frontier_pipeline(
        args.target,
        scale=args.scale,
        seed=args.seed,
        ts=ts,
        num_attack_edges=args.attack_edges,
        topology=args.topology,
        suspect_sample=args.suspect_sample,
        num_sources=args.sources,
        store=_store_from(args),
        workers=_workers_from(args),
        executor=args.executor,
    )
    result = pipeline.run()
    frontier = result.results["frontier"]
    mix_deg = frontier.mixing_degradation()
    rows = [
        [
            p.t,
            p.num_edges,
            f"{1.0 - p.edge_overlap:.3f}",
            f"{p.lcc_fraction:.3f}",
            f"{p.slem:.4f}",
            p.mixing_time if p.mixing_time is not None else "-",
            f"{mix_deg[i]:.4f}",
            f"{p.mean_defense_auc:.4f}",
        ]
        for i, p in enumerate(frontier.points)
    ]
    print(
        format_table(
            ["t", "edges", "privacy", "lcc", "slem", "T(1/n)", "mix-deg", "mean AUC"],
            rows,
            title=f"Privacy-utility frontier ({frontier.target}, "
            f"{frontier.topology} region)",
        )
    )
    retention = frontier.utility_retention()
    metrics = list(retention)
    print(
        format_table(
            ["t"] + metrics,
            [
                [p.t] + [f"{retention[m][i]:.3f}" for m in metrics]
                for i, p in enumerate(frontier.points)
            ],
            title="Utility retention (vs the first level)",
        )
    )
    degradation = frontier.auc_degradation()
    print(
        format_table(
            ["defense"] + [f"t={p.t}" for p in frontier.points],
            [
                [name] + [f"{drop:+.4f}" for drop in drops]
                for name, drops in sorted(
                    degradation.items(), key=lambda kv: -kv[1][-1]
                )
            ],
            title="Defense AUC degradation (baseline AUC - perturbed AUC)",
        )
    )
    tol = 0.02
    aucs = frontier.mean_aucs
    mixing_rises = bool(np.all(np.diff(mix_deg) >= -tol))
    auc_falls = bool(np.all(np.diff(aucs) <= tol))
    if mixing_rises and auc_falls:
        print(
            "verdict: utility degrades monotonically with t "
            "(mixing degradation rises, mean defense AUC falls)"
        )
    else:
        print(
            "verdict: non-monotone frontier "
            f"(mixing degradation rises: {mixing_rises}, "
            f"mean AUC falls: {auc_falls})"
        )
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.serve import (
        AdmissionService,
        CompactionPolicy,
        HttpClient,
        LoadConfig,
        ServiceConfig,
        create_server,
        run_load,
    )
    from repro.sybil import standard_attack

    honest = load_target(args.target, args.scale)
    attack = standard_attack(honest, args.attack_edges, seed=args.seed)
    policy = CompactionPolicy(max_overlay_edges=args.compact_max_overlay)
    service = AdmissionService(
        attack.graph,
        num_honest=attack.num_honest,
        config=ServiceConfig(seed=args.seed),
        policy=policy,
        store=_store_from(args),
    )
    server = create_server(service, host=args.host, port=args.port)
    print(
        f"serving {args.target} ({attack.num_honest} honest + "
        f"{attack.num_sybil} sybil nodes, {attack.num_attack_edges} attack "
        f"edges) at {server.url}"
    )
    if args.burst:
        server.serve_in_background()
        report = run_load(
            HttpClient(server.url),
            LoadConfig(
                num_clients=args.clients,
                num_requests=args.burst,
                write_fraction=args.write_fraction,
                seed=args.seed,
            ),
            target=args.target,
            service=service,
        )
        server.shutdown()
        print(report.format_table())
        final = service.stats()
        print(
            f"final state: {final.num_nodes} nodes, {final.num_edges} edges, "
            f"snapshot v{final.snapshot_version}, "
            f"{final.compactions} compactions, "
            f"{final.cache_hits}/{final.cache_hits + final.cache_misses} "
            "warm-cache hits"
        )
        return 1 if report.errors else 0
    print("press Ctrl-C to stop")
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        print("\nshutting down")
        server.shutdown()
    return 0


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction toolkit for 'Understanding Social Networks "
            "Properties for Trustworthy Computing' (ICDCS-W 2011)"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    metrics = argparse.ArgumentParser(add_help=False)
    metrics.add_argument(
        "--metrics-out",
        metavar="PATH",
        help="record telemetry and write the canonical JSON metrics "
        "document to PATH",
    )
    sub.add_parser(
        "datasets", help="list bundled Table-I analogs", parents=[metrics]
    )
    cache_help = "artifact-cache directory for warm reruns"
    audit = sub.add_parser(
        "audit", help="audit a graph for defense readiness", parents=[metrics]
    )
    audit.add_argument(
        "target",
        help="edge-list path or bundled dataset name "
        "(with --sharded: a sharded-graph directory)",
    )
    audit.add_argument("--scale", type=float, default=0.25)
    audit.add_argument("--cache-dir", help=cache_help)
    audit.add_argument(
        "--sharded",
        action="store_true",
        help="audit TARGET as an out-of-core sharded-graph directory, "
        "streaming every measurement shard by shard",
    )
    audit.add_argument(
        "--seed",
        type=_non_negative,
        default=0,
        help="sharded audit: source-sampling seed",
    )
    audit.add_argument(
        "--sources",
        type=_positive,
        default=30,
        help="sharded audit: number of sampled TVD sources",
    )
    shard = sub.add_parser(
        "shard", help="build and inspect out-of-core sharded graphs"
    )
    shard_sub = shard.add_subparsers(dest="shard_command", required=True)
    build = shard_sub.add_parser(
        "build",
        help="shard a dataset to disk, or stream a huge synthetic analog",
        parents=[metrics],
    )
    build.add_argument("--out", required=True, help="destination directory")
    build.add_argument(
        "--target", help="edge-list path or bundled dataset name to shard"
    )
    build.add_argument("--scale", type=float, default=0.25)
    build.add_argument(
        "--stream",
        choices=sorted(STREAM_REGIMES),
        help="instead of --target, stream a synthetic analog of this "
        "mixing regime straight to shards (needs --nodes)",
    )
    build.add_argument(
        "--nodes", type=_positive, help="streamed analog size (with --stream)"
    )
    build.add_argument("--seed", type=_non_negative, default=0)
    build.add_argument("--num-shards", type=_positive)
    build.add_argument("--nodes-per-shard", type=_positive)
    info = shard_sub.add_parser(
        "info",
        help="print a sharded graph's manifest summary",
        parents=[metrics],
    )
    info.add_argument("root", help="sharded-graph directory")
    info.add_argument(
        "--verify",
        action="store_true",
        help="re-hash every shard file against the manifest digests",
    )
    repro = sub.add_parser(
        "reproduce", help="regenerate a paper experiment", parents=[metrics]
    )
    repro.add_argument(
        "experiment",
        choices=["table1", "fig1", "fig2", "table2", "fig3", "fig4", "fig5"],
    )
    repro.add_argument("--scale", type=float, default=0.25)
    repro.add_argument("--cache-dir", help=cache_help)
    report = sub.add_parser(
        "report",
        help="full markdown measurement report for a graph",
        parents=[metrics],
    )
    report.add_argument("target", help="edge-list path or bundled dataset name")
    report.add_argument("--scale", type=float, default=0.25)
    report.add_argument("--output", help="write the report to this file")
    report.add_argument("--cache-dir", help=cache_help)
    pipeline = sub.add_parser(
        "pipeline", help="run the measurement DAG with per-stage memoization"
    )
    pipe_sub = pipeline.add_subparsers(dest="pipeline_command", required=True)
    for verb, help_text in [
        ("run", "execute the DAG (warm stages are served from the cache)"),
        ("stages", "list the DAG stages and their dependencies"),
    ]:
        cmd = pipe_sub.add_parser(verb, help=help_text, parents=[metrics])
        cmd.add_argument(
            "--target",
            required=True,
            help="edge-list path or bundled dataset name",
        )
        if verb == "run":
            cmd.add_argument(
                "--trace",
                action="store_true",
                help="record telemetry and print the span/counter tables",
            )
        cmd.add_argument("--scale", type=float, default=0.25)
        cmd.add_argument("--seed", type=_non_negative, default=0)
        cmd.add_argument("--sources", type=_positive, default=50)
        cmd.add_argument("--workers", type=_positive)
        cmd.add_argument(
            "--executor",
            choices=EXECUTORS,
            help="batch-engine backend: threads share the GIL, processes "
            "fan chunks out over a shared-memory graph plane "
            "(default workers: one per core)",
        )
        cmd.add_argument("--cache-dir", help=cache_help)
        cmd.add_argument(
            "--stages",
            help="comma-separated target stages (their dependencies run too)",
        )
    sybil = sub.add_parser(
        "sybil",
        help="compare Sybil defenses (structure-only vs fusion) on one attack",
    )
    sybil_sub = sybil.add_subparsers(dest="sybil_command", required=True)
    compare = sybil_sub.add_parser(
        "compare",
        help="run all registered defenses and print the midrank-AUC table",
        parents=[metrics],
    )
    compare.add_argument(
        "--target", required=True, help="edge-list path or bundled dataset name"
    )
    compare.add_argument(
        "--topology",
        choices=["wild", "powerlaw"],
        default="wild",
        help="Sybil-region shape (wild = sparse tree-like, per arXiv 1106.5321)",
    )
    compare.add_argument(
        "--attack-edges",
        type=_non_negative,
        help="number of attack edges g (default: nodes/20, at least 5)",
    )
    compare.add_argument("--scale", type=float, default=0.25)
    compare.add_argument("--seed", type=_non_negative, default=0)
    compare.add_argument("--suspect-sample", type=_suspects, default=120)
    compare.add_argument("--workers", type=_positive)
    compare.add_argument(
        "--executor",
        choices=EXECUTORS,
        help="batch-engine backend (thread, process, or auto)",
    )
    compare.add_argument("--cache-dir", help=cache_help)
    privacy = sub.add_parser(
        "privacy",
        help="link-privacy perturbation vs defense-utility frontier",
    )
    privacy_sub = privacy.add_subparsers(dest="privacy_command", required=True)
    sweep = privacy_sub.add_parser(
        "sweep",
        help="sweep the perturbation level t and print the frontier tables",
        parents=[metrics],
    )
    sweep.add_argument(
        "--target", required=True, help="edge-list path or bundled dataset name"
    )
    sweep.add_argument(
        "--ts",
        default="0,1,2,5,10",
        help="comma-separated perturbation levels, strictly increasing "
        "(start at 0: the first level is the retention baseline)",
    )
    sweep.add_argument(
        "--topology",
        choices=["wild", "powerlaw"],
        default="powerlaw",
        help="Sybil-region shape of the attack scenario",
    )
    sweep.add_argument(
        "--attack-edges",
        type=_non_negative,
        help="number of attack edges g (default: nodes/20, at least 5)",
    )
    sweep.add_argument("--scale", type=float, default=0.25)
    sweep.add_argument("--seed", type=_non_negative, default=0)
    sweep.add_argument("--sources", type=_positive, default=50)
    sweep.add_argument("--suspect-sample", type=_suspects, default=120)
    sweep.add_argument("--workers", type=_positive)
    sweep.add_argument(
        "--executor",
        choices=EXECUTORS,
        help="batch-engine backend (thread, process, or auto)",
    )
    sweep.add_argument("--cache-dir", help=cache_help)
    serve = sub.add_parser(
        "serve",
        help="online admission service over a snapshot + overlay",
        parents=[metrics],
    )
    serve.add_argument(
        "--target", required=True, help="edge-list path or bundled dataset name"
    )
    serve.add_argument("--scale", type=float, default=0.25)
    serve.add_argument("--seed", type=_non_negative, default=0)
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument(
        "--port", type=_port, default=0, help="listen port (0 picks a free one)"
    )
    serve.add_argument(
        "--attack-edges",
        type=_non_negative,
        help="number of attack edges g (default: nodes/20, at least 5)",
    )
    serve.add_argument(
        "--compact-max-overlay",
        type=_positive,
        default=1024,
        help="compaction policy: fold the overlay at this many delta edges",
    )
    serve.add_argument(
        "--burst",
        type=_positive,
        help="run a closed-loop HTTP load burst of this many requests "
        "and exit (default: serve until interrupted)",
    )
    serve.add_argument(
        "--clients", type=_positive, default=4, help="load-burst worker threads"
    )
    serve.add_argument(
        "--write-fraction",
        type=float,
        default=0.2,
        help="load-burst fraction of write requests",
    )
    serve.add_argument("--cache-dir", help=cache_help)
    args = parser.parse_args(argv)
    handlers = {
        "datasets": _cmd_datasets,
        "audit": _cmd_audit,
        "shard": _cmd_shard,
        "reproduce": _cmd_reproduce,
        "report": _cmd_report,
        "pipeline": _cmd_pipeline,
        "sybil": _cmd_sybil,
        "privacy": _cmd_privacy,
        "serve": _cmd_serve,
    }
    metrics_out = getattr(args, "metrics_out", None)
    trace = getattr(args, "trace", False)
    try:
        if not metrics_out and not trace:
            code = handlers[args.command](args)
        else:
            with telemetry.activate() as tel:
                code = handlers[args.command](args)
                if trace:
                    from repro.analysis import telemetry_summary

                    print()
                    print(telemetry_summary(tel))
                if metrics_out:
                    written = tel.write_json(metrics_out)
                    print(f"metrics written to {written}")
        sys.stdout.flush()
        return code
    except ReproError as exc:
        raise SystemExit(str(exc)) from None
    except BrokenPipeError:
        # the reader closed standard output early (``repro datasets |
        # head``); point it at devnull so the flush at exit cannot fail
        # again, and exit nonzero without a traceback
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    sys.exit(main())
