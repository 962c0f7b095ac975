"""sessgraph benchmark: one workload end to end, checked, with every metric.

    python3 bench/run.py --workload embed-train --seed 1 --seconds 3 --trace 0

A run generates its interaction log from ``--seed`` with
``tests/corpusgen.py``, then runs the sessgraph CLI as a user would:

  set-up      ``preprocess``, ``build-graph`` and ``train-embed`` (each a
              process of its own), then, in the serving process (serve.py),
              loading the split and ``embeddings.bin`` and indexing the
              sessions; done several times, ``setup_s`` is the median
  experiment  ``eval-knn`` and ``train-next`` at the workload's repeats
  serving     one client, closed loop, over the test prefixes with GCNext on,
              in whole passes until ``--seconds`` have passed (at least one)

It then checks the outputs against oracle.py and prints one JSON line:
``correct``, ``attempted`` and ``failed`` operations (CLI stage runs, served
queries and correctness checks) and the metrics. With ``--trace 0`` these
are the end-to-end metrics; with ``--trace 1`` the run makes one untraced and
one traced pass (tracing.py), prints the tracing overhead, and reports the
per-layer metrics. Every process runs with one BLAS thread.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import copy
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import oracle
import tracing
from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = BENCH / "_work"
TIME_LIMIT_S = 170.0
SETUP_STAGES = ("preprocess", "build-graph", "train-embed")
EXPERIMENT_STAGES = ("eval-knn", "train-next")
METRIC_K = 20
SCORE_TOL = 1e-9
CHANCE_FACTOR = 5.0
# The generator's cluster is one of the item features, so an untrained encoder
# already separates clusters; the margin catches collapse and misordered rows.
CLUSTER_GAP = 0.1
SETUP_REPEATS = 3    # set-ups per untraced run; setup_s is their median
ORACLE_QUERIES = 40  # served queries re-derived by the brute-force oracle

END_TO_END = [
    ("setup_s", "s"), ("experiment_s", "s"), ("knn_p50_ms", "ms"), ("knn_p99_ms", "ms"),
    ("peak_rss_mb", "MB"), ("knn_mrr20", "score"), ("next_mrr20", "score"),
]
LAYERS = ("cli", "sessiondata", "cograph", "bgrl", "encoder", "diffcore", "knnrec",
          "nextitem", "evalkit")
# per-layer metric -> unit; a name "<span>_s" is the total seconds of that span
PER_LAYER = {
    "cli.preprocess_s": "s", "cli.build_graph_s": "s", "cli.train_embed_s": "s",
    "cli.eval_knn_s": "s", "cli.train_next_s": "s", "cli.load_split_s": "s",
    "cli.load_catalog_s": "s",
    "sessiondata.load_interactions_s": "s", "sessiondata.sessionize_s": "s",
    "sessiondata.filter_corpus_s": "s", "sessiondata.encode_features_s": "s",
    "sessiondata.corpus_prefixes_s": "s", "sessiondata.interactions": "count",
    "cograph.build_cograph_s": "s", "cograph.from_edges_s": "s",
    "cograph.edge_triples_s": "s", "cograph.save_graph_text_s": "s",
    "cograph.save_graph_binary_s": "s", "cograph.load_graph_binary_s": "s",
    "cograph.edges": "count", "cograph.sample_neighbors_s": "s",
    "cograph.sample_neighbors_calls": "count",
    "bgrl.augment_s": "s", "bgrl.bgrl_loss_s": "s", "bgrl.ema_update_s": "s",
    "bgrl.batches": "count", "bgrl.save_embeddings_s": "s",
    "bgrl.load_embeddings_binary_s": "s",
    "encoder.encode_sampled_s": "s", "encoder.encode_full_s": "s",
    "diffcore.backward_s": "s", "diffcore.adamw_step_s": "s", "diffcore.adam_step_s": "s",
    "knnrec.index_sessions_s": "s", "knnrec.find_neighbors_p50_ms": "ms",
    "knnrec.score_items_p50_ms": "ms", "knnrec.sknn_p50_ms": "ms",
    "knnrec.sknn_p99_ms": "ms", "knnrec.pool_mean": "count",
    "knnrec.neighbors_mean": "count", "knnrec.sknn_mrr20": "score",
    "nextitem.train_next_s": "s", "nextitem.batch_loss_s": "s",
    "nextitem.evaluate_ranks_s": "s", "nextitem.prefixes_per_s": "1/s",
    "evalkit.run_experiment_s": "s", "evalkit.query_metrics_s": "s",
    **{f"{layer}.self_s": "s" for layer in LAYERS},
}


class BenchError(Exception):
    """The run cannot go on; no result is printed."""


def log(msg: str):
    print(msg, flush=True)


class Run:
    """Process launcher and operation counters of one benchmark run."""

    def __init__(self, workload, work: Path, cfg_path: Path, cfg: dict):
        self.workload = workload
        self.work = work
        self.cfg_path = cfg_path
        self.cfg = cfg  # the config as sessgraph resolves it
        self.deadline = time.monotonic() + TIME_LIMIT_S
        self.attempted = 0
        self.failed = 0
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")

    def _run(self, argv: list[str], log_name: str) -> float:
        """Run one process to its end; its wall seconds."""
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise BenchError("time limit reached")
        with open(self.work / f"{log_name}.log", "w", encoding="utf-8") as fh:
            t0 = time.perf_counter()
            try:
                proc = subprocess.run(argv, stdout=fh, stderr=subprocess.STDOUT,
                                      env=self.env, timeout=remaining)
            except subprocess.TimeoutExpired:
                raise BenchError(f"{log_name} exceeded the time limit") from None
            wall = time.perf_counter() - t0
        if proc.returncode != 0:
            tail = (self.work / f"{log_name}.log").read_text(encoding="utf-8")[-2000:]
            raise BenchError(f"{log_name} exited with {proc.returncode}:\n{tail}")
        return wall

    def stage(self, name: str, art: Path, spans: Path | None, tag: str) -> float:
        """One CLI stage run (an operation); a failed one ends the run."""
        self.attempted += 1
        args = [name, "--config", str(self.cfg_path), "--out", str(art)]
        if spans is None:
            return self._run([sys.executable, "-m", "sessgraph.cli", *args], f"{tag}{name}")
        return self._run([sys.executable, str(BENCH / "tracing.py"), "--spans",
                          str(spans / f"{tag}{name}.json"), "--", *args], f"{tag}{name}")

    def serve(self, art: Path, stream: list, seconds: float, spans: Path | None,
              tag: str) -> dict:
        """One serving process over the given queries; its result."""
        stream_path = self.work / f"{tag}stream.json"
        stream_path.write_text(json.dumps(stream), encoding="utf-8")
        result_path = self.work / f"{tag}serve.json"
        argv = [sys.executable, str(BENCH / "serve.py"), "--out", str(art),
                "--config", str(self.cfg_path), "--stream", str(stream_path),
                "--result", str(result_path), "--seconds", str(seconds)]
        if spans is not None:
            argv += ["--spans", str(spans / f"{tag}serve.json")]
        self._run(argv, f"{tag}serve")
        served = json.loads(result_path.read_text(encoding="utf-8"))
        self.attempted += len(served["latency_ns"]) + len(served.get("sknn_latency_ns", ()))
        self.failed += served["failed"] + served.get("sknn_failed", 0)
        return served

    def pipeline(self, art: Path, setups: int, seconds: float,
                 spans: Path | None = None, tag: str = "") -> dict:
        """Set-ups, each followed by a serving process on its share of the
        stream, with the experiment stages run between them.

        On the two-core machine this was sized on, CPU speed drifts by 10-20 %
        over spells of a few seconds, so each metric is gathered across the
        run rather than in one block: the serving process of set-up r answers
        queries r, r + setups, ...
        """
        setup_s, experiment_s, parts = [], 0.0, []
        for r in range(setups):
            stage_s = sum(self.stage(s, art, spans, f"{tag}{r}.") for s in SETUP_STAGES)
            if r == 0:
                stream = make_stream(art, self.cfg, self.workload.min_queries)
            queries = stream["queries"] * stream["copies"]
            part = self.serve(art, queries[r::setups], seconds / setups, spans, f"{tag}{r}.")
            setup_s.append(stage_s + part["load_s"])
            parts.append(part)
            for i, name in enumerate(EXPERIMENT_STAGES):
                if min(i, setups - 1) == r:
                    experiment_s += self.stage(name, art, spans, tag)
        served = {"passes": min(part["passes"] for part in parts)}
        for key in ("latency_ns", "sknn_latency_ns"):
            served[key] = [x for part in parts for x in part.get(key, [])]
        for key in ("lists", "sknn_lists"):
            if key in parts[0]:
                served[key] = [None] * len(queries)
                for r, part in enumerate(parts):
                    served[key][r::setups] = part[key]
        return {"setup_s": setup_s, "experiment_s": experiment_s, "served": served,
                "stream": stream}


def make_inputs(workload, seed: int, work: Path) -> Path:
    """Interaction log and run config of this workload and seed."""
    from corpusgen import clustered_interactions, clustered_schema, write_log

    interactions = clustered_interactions(np.random.default_rng(seed), **workload.generator)
    log_path = write_log(work / "log.csv", interactions)
    cfg = copy.deepcopy(workload.config)
    cfg["dataset"] = {"path": str(log_path),
                      "features": [{"name": n, "kind": k}
                                   for n, k in clustered_schema().features]}
    cfg["eval"]["master_seed"] = seed % (2 ** 31)
    cfg_path = work / "config.json"
    cfg_path.write_text(json.dumps(cfg, indent=2), encoding="utf-8")
    return cfg_path


def make_stream(art: Path, cfg: dict, min_queries: int) -> dict:
    """The served stream: every test prefix in order, repeated whole until it
    holds at least min_queries queries."""
    qs, targets = oracle.prefixes(oracle.read_sessions(art / "test.sessions"),
                                  cfg["preprocess"]["max_prefix_len"])
    if not qs:
        raise BenchError("no test prefixes")
    return {"queries": qs, "targets": targets, "copies": -(-min_queries // len(qs))}


# ---------------------------------------------------------------------------
# correctness checks
# ---------------------------------------------------------------------------

def run_checks(run: Run, art: Path, result: dict, trace: bool) -> bool:
    cfg = run.cfg
    workload = run.workload
    knn = cfg["knn"]
    catalog = oracle.read_catalog_ids(art / "catalog.ids")
    m = len(catalog)
    train = oracle.read_sessions(art / "train.sessions")
    served = result["served"]
    n_test = len(result["stream"]["queries"])
    targets = result["stream"]["targets"]
    emb, emb_ids = oracle.read_embeddings_binary(art / "embeddings.bin")
    unit = emb / np.maximum(np.linalg.norm(emb, axis=1, keepdims=True), 1e-12)
    sample = sorted(set(np.linspace(0, n_test - 1, ORACLE_QUERIES).astype(int)))

    def graph_counts():
        n, c_max, i, j, w = oracle.read_graph_text(art / "graph.txt")
        ci, cj, counts = oracle.pair_counts(train, m)
        return (n == m and c_max == int(counts.max()) and np.array_equal(i, ci)
                and np.array_equal(j, cj) and np.array_equal(w, counts / counts.max()))

    def graph_forms_agree():
        text = oracle.read_graph_text(art / "graph.txt")
        binary = oracle.read_graph_binary(art / "graph.bin")
        return text[:2] == binary[:2] and all(np.array_equal(a, b)
                                              for a, b in zip(text[2:], binary[2:]))

    def embeddings_wellformed():
        # An item with no co-occurrence edge gets an all-zero row (the encoder
        # aggregates neighbours only), so unit norm is checked on the others.
        _, _, i, j, _ = oracle.read_graph_text(art / "graph.txt")
        linked = np.zeros(m, dtype=bool)
        linked[i] = linked[j] = True
        log(f"  embeddings: {m - int(linked.sum())} items without edges left out of the norm test")
        return (emb.shape == (m, cfg["embed"]["dim"]) and emb_ids == catalog
                and bool(np.all(np.isfinite(emb)))
                and bool(np.all(np.abs(np.linalg.norm(emb[linked], axis=1) - 1.0) < 1e-9)))

    def embeddings_clustered():
        per = workload.generator["n_items"] // workload.generator["n_clusters"]
        cluster = np.array([int(e[len("item"):]) // per for e in catalog])
        within, cross = oracle.cluster_cosines(unit, cluster)
        log(f"  embeddings: mean cosine within clusters {within:.4f}, across {cross:.4f}")
        return within - cross >= CLUSTER_GAP

    def lists_wellformed():
        for lst in served["lists"]:
            if lst is None:
                continue
            scores = [s for _, s in lst]
            keys = [(-s, i) for i, s in lst]
            if (len(lst) > knn["k_rec"] or keys != sorted(keys)
                    or not all(np.isfinite(scores)) or not all(0 <= i < m for i, _ in lst)):
                return False
        return True

    def agrees(lists, brute):
        worst = 0.0
        for q in sample:
            want = brute.recommend(result["stream"]["queries"][q])
            got = lists[q]
            if got is None or [i for i, _ in got] != [i for i, _ in want]:
                log(f"  query {q}: served {got} but the oracle gives {want}")
                return False
            worst = max([worst] + [abs(a[1] - b[1]) for a, b in zip(got, want)])
        log(f"  oracle: {len(sample)} queries identical, worst score gap {worst:.2e}")
        return worst <= SCORE_TOL

    def knn_matches_oracle():
        return agrees(served["lists"], oracle.BruteForceKnn(train, m, unit, knn))

    def sknn_matches_oracle():
        base = dict(knn, gcnext=dict(knn["gcnext"], enabled=False))
        return agrees(served["sknn_lists"], oracle.BruteForceKnn(train, m, None, base))

    def knn_report():
        report = oracle.read_report(art / "report_eval-knn.tsv")
        lists = [lst or [] for lst in served["lists"][:n_test]]
        hr, mrr = oracle.hr_mrr(lists, targets, METRIC_K)
        log(f"  eval-knn: HR@20 {hr:.6f} MRR@20 {mrr:.6f} recomputed from {n_test} prefixes")
        return all(abs(v - want) <= SCORE_TOL
                   for name, want in ((f"HR@{METRIC_K}", hr), (f"MRR@{METRIC_K}", mrr))
                   for v in report[name].values())

    def next_report():
        report = oracle.read_report(art / "report_train-next.tsv")
        runs = {name: [v for k, v in vals.items() if k != "mean"]
                for name, vals in report.items()}
        chance = oracle.chance_mrr(m, METRIC_K)
        mrr = report[f"MRR@{METRIC_K}"]["mean"]
        log(f"  train-next: MRR@20 {mrr:.6f}, {mrr / chance:.1f} times chance ({chance:.6f})")
        return (len(runs[f"MRR@{METRIC_K}"]) == cfg["eval"]["repeats"]
                and all(abs(report[name]["mean"] - statistics.fmean(v)) <= SCORE_TOL
                        for name, v in runs.items())
                and all(0.0 <= x <= 1.0 for v in runs.values() for x in v)
                and report[f"MRR@{METRIC_K}"]["mean"] <= report[f"HR@{METRIC_K}"]["mean"]
                and mrr > CHANCE_FACTOR * chance)

    checks = [graph_counts, graph_forms_agree, embeddings_wellformed, embeddings_clustered,
              lists_wellformed, knn_matches_oracle, knn_report, next_report]
    if trace:
        checks.append(sknn_matches_oracle)
    ok_all = True
    for check in checks:
        run.attempted += 1
        ok = bool(check())
        log(f"check {check.__name__}: {'ok' if ok else 'FAILED'}")
        if not ok:
            run.failed += 1
            ok_all = False
    return ok_all


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def percentile_ms(latency_ns, q: float) -> float:
    return float(np.percentile(np.asarray(latency_ns, dtype=np.float64) / 1e6, q))


def end_to_end(art: Path, result: dict) -> dict:
    lat = result["served"]["latency_ns"]
    return {
        "setup_s": statistics.median(result["setup_s"]),
        "experiment_s": result["experiment_s"],
        "knn_p50_ms": percentile_ms(lat, 50),
        "knn_p99_ms": percentile_ms(lat, 99),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0,
        "knn_mrr20": oracle.read_report(art / "report_eval-knn.tsv")["MRR@20"]["mean"],
        "next_mrr20": oracle.read_report(art / "report_train-next.tsv")["MRR@20"]["mean"],
    }


def per_layer(spans_dir: Path, result: dict) -> dict:
    total: dict[str, float] = {}
    durations: dict[str, list[float]] = {}
    self_s = dict.fromkeys(LAYERS, 0.0)
    counts: dict[str, float] = {}
    for path in sorted(spans_dir.glob("*.json")):
        doc = json.loads(path.read_text(encoding="utf-8"))
        for (name, start, end, _), own in zip(doc["spans"], tracing.self_times(doc["spans"])):
            total[name] = total.get(name, 0.0) + (end - start) / 1e9
            durations.setdefault(name, []).append((end - start) / 1e6)
            self_s[name.split(".")[0]] += own
        for name, value in doc["counts"].items():
            counts[name] = counts.get(name, 0) + value

    served = result["served"]
    n_test = len(result["stream"]["queries"])
    _, sknn_mrr = oracle.hr_mrr([lst or [] for lst in served["sknn_lists"][:n_test]],
                                result["stream"]["targets"], METRIC_K)
    special = {
        "knnrec.find_neighbors_p50_ms": float(np.median(durations["knnrec.find_neighbors"])),
        "knnrec.score_items_p50_ms": float(np.median(durations["knnrec.score_items"])),
        "knnrec.sknn_p50_ms": percentile_ms(served["sknn_latency_ns"], 50),
        "knnrec.sknn_p99_ms": percentile_ms(served["sknn_latency_ns"], 99),
        "knnrec.pool_mean": counts["knnrec.pool"] / len(durations["knnrec.candidate_pool"]),
        "knnrec.neighbors_mean":
            counts["knnrec.neighbors"] / len(durations["knnrec.find_neighbors"]),
        "knnrec.sknn_mrr20": sknn_mrr,
        "nextitem.prefixes_per_s": counts["nextitem.prefixes"] / total["nextitem.train_next"],
    }
    out = {}
    for name in PER_LAYER:
        if name in special:
            out[name] = special[name]
        elif name.endswith(".self_s"):
            out[name] = self_s[name.split(".")[0]]
        elif name.endswith("_s"):
            out[name] = total.get(name[:-2], 0.0)
        else:
            out[name] = counts.get(name, 0)
    log("self time per layer (s): " + ", ".join(f"{k} {v:.3f}" for k, v in self_s.items()))
    return out


def phase_total(result: dict) -> float:
    """Wall seconds of one set-up, the experiment and one serving pass."""
    served = result["served"]
    first_pass = len(result["stream"]["queries"]) * result["stream"]["copies"]
    return (result["setup_s"][0] + result["experiment_s"]
            + sum(served["latency_ns"][:first_pass]) / 1e9)


# ---------------------------------------------------------------------------

def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True,
                    help="minimum length of the serving window")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "sessgraph" / "cli.py").is_file() or \
            not (ROOT / "tests" / "corpusgen.py").is_file():
        print("bench: src/sessgraph or tests/corpusgen.py not found beside bench/",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]
    from sessgraph.config import load_config
    if args.workload not in WORKLOADS:
        print(f"bench: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]

    work = WORK / workload.name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    cfg_path = make_inputs(workload, args.seed, work)
    run = Run(workload, work, cfg_path, load_config(cfg_path))
    try:
        if args.trace:
            plain = run.pipeline(work / "art", 1, 0.0)
            spans = work / "spans"
            spans.mkdir()
            traced = run.pipeline(work / "traced_art", 1, 0.0, spans=spans, tag="traced.")
            correct = run_checks(run, work / "traced_art", traced, trace=True)
            metrics = per_layer(spans, traced)
            base, with_tracing = phase_total(plain), phase_total(traced)
            log(f"tracing overhead: {100 * (with_tracing / base - 1):+.1f}% "
                f"({with_tracing:.2f} s traced vs {base:.2f} s untraced for one set-up, "
                f"the experiment and one serving pass)")
            units = PER_LAYER
        else:
            result = run.pipeline(work / "art", SETUP_REPEATS, args.seconds)
            correct = run_checks(run, work / "art", result, trace=False)
            metrics = end_to_end(work / "art", result)
            log(f"served {len(result['served']['latency_ns'])} queries in "
                f"{result['served']['passes']} pass(es); set-ups "
                + ", ".join(f"{s:.3f}" for s in result["setup_s"]) + " s")
            units = dict(END_TO_END)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": correct, "attempted": run.attempted, "failed": run.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
