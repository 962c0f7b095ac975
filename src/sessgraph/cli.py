"""Command-line pipeline driver.

Each command reads the artifacts of earlier stages from the output directory,
writes its own artifact plus a manifest (input hashes, config hash, seed,
versions), and echoes the resolved config. Stages:

    preprocess   raw log -> split corpora + catalog + encoded features
    build-graph  train corpus -> co-occurrence graph (text + binary)
    train-embed  graph -> item embeddings (text + binary) + encoder checkpoint
    eval-knn     recommend over test prefixes, repeated runs, metric report
    train-next   neural next-item training + test metric report
    compare      paired significance test between two configs
    grid         parameter lattice ranked by validation MRR@20

The four evaluating commands share one experiment function, `_experiment`:
it builds the evaluation prefixes once and runs `eval.repeats` seeded runs of
the configured task. kNN recommendation draws no random numbers, so its
metrics are computed once per experiment and every repeat reports them.

Exit codes: 0 success, 2 config error, 3 data error or shape error, 4 numeric
failure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__, bgrl, evalkit, knnrec, nextitem
from .cograph import build_cograph, load_graph_binary, save_graph_binary, save_graph_text
from .config import config_hash, load_config, resolve_config, set_by_path
from .diffcore import save_tensors
from .errors import ConfigError, DataError, NumericError, ShapeError
from .sessiondata import (
    WHITESPACE,
    CorpusSplit,
    DelimitedFormat,
    FeatureSchema,
    ItemCatalog,
    SessionCorpus,
    _offsets,
    collect_feature_rows,
    corpus_prefixes,
    encode_features,
    filter_corpus,
    load_interactions,
    restrict_split_to_train,
    sessionize,
    temporal_split,
)

SESSIONS_FILES = {"train": "train.sessions", "validation": "validation.sessions",
                  "test": "test.sessions"}
CATALOG_IDS = "catalog.ids"
CATALOG_FEATURES = "catalog.features"
GRAPH_TEXT = "graph.txt"
GRAPH_BINARY = "graph.bin"
EMBED_TEXT = "embeddings.txt"
EMBED_BINARY = "embeddings.bin"
ENCODER_CKPT = "encoder.ntc"
RESOLVED_CONFIG = "resolved_config.json"


def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            h.update(chunk)
    return h.hexdigest()


def _write_manifest(out: Path, stage: str, cfg: dict, seed: int,
                    inputs: list[Path], outputs: list[Path], params: dict):
    manifest = {
        "stage": stage,
        "config_hash": config_hash(cfg),
        "seed": seed,
        "inputs": {p.name: _sha256(p) for p in inputs},
        "outputs": {p.name: _sha256(p) for p in outputs},
        "params": params,
        "versions": {"sessgraph": __version__, "numpy": np.__version__,
                     "python": ".".join(map(str, sys.version_info[:3]))},
    }
    path = out / f"manifest_{stage}.json"
    path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return path


def _echo_config(out: Path, cfg: dict):
    (out / RESOLVED_CONFIG).write_text(
        json.dumps(cfg, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def _require(path: Path) -> Path:
    if not path.exists():
        raise DataError(f"missing upstream artifact: {path}")
    return path


def _read_text(path: Path) -> str:
    try:
        return _require(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not UTF-8 ({exc.reason} at byte {exc.start})") from None


def _schema_from_config(cfg: dict) -> FeatureSchema:
    return FeatureSchema(tuple((f["name"], f["kind"]) for f in cfg["dataset"]["features"]))


# ---------------------------------------------------------------------------
# artifact I/O
# ---------------------------------------------------------------------------

def save_corpus(path: Path, corpus: SessionCorpus):
    if WHITESPACE.search("".join(corpus.ids)):
        sid = next(s for s in corpus.ids if WHITESPACE.search(s))
        raise DataError(f"session id {sid!r} contains whitespace")
    items, bounds = list(map(str, corpus.items.tolist())), corpus.indptr.tolist()
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(f"{sid} {' '.join(items[lo:hi])} {ts}\n" for sid, lo, hi, ts
                      in zip(corpus.ids, bounds, bounds[1:], corpus.start_ts.tolist()))


def load_corpus(path: Path) -> SessionCorpus:
    ids, lengths, items, stamps = [], [], [], []
    for lineno, line in enumerate(_read_text(path).splitlines(), start=1):
        parts = line.split()
        if len(parts) < 3:
            raise DataError(f"{path}:{lineno}: corpus line needs id, items, timestamp: {line!r}")
        try:
            numbers = [*map(int, parts[1:])]
        except ValueError:
            raise DataError(f"{path}:{lineno}: non-integer item or timestamp in "
                            f"{line!r}") from None
        ids.append(parts[0])
        lengths.append(len(numbers) - 1)
        items += numbers[:-1]
        stamps.append(numbers[-1])
    indptr = _offsets(lengths)
    # stages turn items and timestamps into int64 arrays (load_split, knnrec.index_sessions)
    if ids and not _fits_int64([*items, *stamps]):
        bounds = indptr.tolist()
        lineno = next(j + 1 for j, ts in enumerate(stamps)
                      if not _fits_int64([*items[bounds[j]:bounds[j + 1]], ts]))
        raise DataError(f"{path}:{lineno}: item or timestamp outside int64")
    return SessionCorpus.from_columns(ids, np.array(stamps, np.int64), indptr,
                                      np.array(items, np.int64))


def _fits_int64(numbers) -> bool:
    bounds = np.iinfo(np.int64)
    return bounds.min <= min(numbers) and max(numbers) <= bounds.max


def save_catalog(out: Path, catalog: ItemCatalog, X: np.ndarray):
    with open(out / CATALOG_IDS, "w", encoding="utf-8") as fh:
        for i, ext in enumerate(catalog.external_ids):
            fh.write(f"{i} {ext}\n")
    with open(out / CATALOG_FEATURES, "w", encoding="utf-8") as fh:
        fh.writelines(" ".join(map(repr, row)) + "\n" for row in X.tolist())


def _catalog_ids(out: Path) -> list[str]:
    path = out / CATALOG_IDS
    ids = []
    for lineno, line in enumerate(_read_text(path).splitlines(), start=1):
        parts = line.split(maxsplit=1)
        if len(parts) < 2:
            raise DataError(f"{path}:{lineno}: catalog line without an external id: {line!r}")
        ids.append(parts[1])
    return ids


def load_catalog(out: Path) -> tuple[ItemCatalog, np.ndarray]:
    ids = _catalog_ids(out)
    path = out / CATALOG_FEATURES
    rows = []
    for lineno, line in enumerate(_read_text(path).splitlines(), start=1):
        try:
            rows.append([float(v) for v in line.split()])
        except ValueError:
            raise DataError(f"{path}:{lineno}: non-numeric feature in {line!r}") from None
        if len(rows[-1]) != len(rows[0]):
            raise DataError(f"{path}:{lineno}: {len(rows[-1])} features, "
                            f"line 1 has {len(rows[0])}")
    if rows and len(rows) != len(ids):
        raise DataError(f"{path}: {len(rows)} feature rows for {len(ids)} ids in {CATALOG_IDS}")
    X = np.array(rows) if rows else np.zeros((len(ids), 0))
    finite = np.isfinite(X).all(axis=1)
    if not finite.all():    # preprocess never writes one
        raise DataError(f"{path}:{int(np.argmin(finite)) + 1}: non-finite feature value")
    return ItemCatalog(ids, {e: i for i, e in enumerate(ids)}), X


def load_split(out: Path, ids: list[str] | None = None) -> CorpusSplit:
    """The three corpora, each item id checked against the m ids of
    catalog.ids (read here unless given): numpy would read -1 as item m - 1."""
    m = len(_catalog_ids(out) if ids is None else ids)
    corpora = {}
    for name, filename in SESSIONS_FILES.items():
        corpus = corpora[name] = load_corpus(out / filename)
        outside = np.flatnonzero((corpus.items < 0) | (corpus.items >= m))
        if outside.size:
            lineno = int(np.searchsorted(corpus.indptr, outside[0], side="right"))
            raise DataError(f"{out / filename}:{lineno}: item {corpus.items[outside[0]]} "
                            f"outside the catalog of {m} items")
    return CorpusSplit(**corpora)


# ---------------------------------------------------------------------------
# stages
# ---------------------------------------------------------------------------

def run_preprocess(cfg: dict, out: Path) -> dict:
    out.mkdir(parents=True, exist_ok=True)
    ds = cfg["dataset"]
    source = _require(Path(ds["path"]))
    schema = _schema_from_config(cfg)
    with open(source, "rb") as fh:
        log = load_interactions(fh, schema, DelimitedFormat(ds["delimiter"]))
    raw = sessionize(log, ds["session_gap_seconds"])
    pp = cfg["preprocess"]
    rounds: list[list[int]] = []
    corpus, catalog0 = filter_corpus(raw, pp["min_item_support"], pp["min_session_len"],
                                     rounds)
    split0 = temporal_split(corpus, tuple(pp["fractions"]))
    split, catalog = restrict_split_to_train(split0, catalog0)
    X, columns = encode_features(collect_feature_rows(log), schema, catalog)

    outputs = []
    for name, corpus_part in (("train", split.train), ("validation", split.validation),
                              ("test", split.test)):
        path = out / SESSIONS_FILES[name]
        save_corpus(path, corpus_part)
        outputs.append(path)
    save_catalog(out, catalog, X)
    outputs += [out / CATALOG_IDS, out / CATALOG_FEATURES]
    _echo_config(out, cfg)
    params = {
        "interactions": len(log),
        "gap_splits": len(raw) - len(log.session_ids),
        "filter_rounds": rounds,
        "min_item_support": pp["min_item_support"],
        "min_session_len": pp["min_session_len"],
        "max_prefix_len": pp["max_prefix_len"],
        "fractions": pp["fractions"],
        "assigned_counts": list(split.assigned_counts),
        "retained_counts": [len(split.train), len(split.validation), len(split.test)],
        "catalog_size": len(catalog),
        "feature_width": int(X.shape[1]),
        "feature_columns": list(columns),
    }
    _write_manifest(out, "preprocess", cfg, cfg["eval"]["master_seed"],
                    [source], outputs, params)
    return params


def run_build_graph(cfg: dict, out: Path) -> dict:
    train = load_corpus(out / SESSIONS_FILES["train"])
    catalog, X = load_catalog(out)
    graph = build_cograph(train, catalog, X)
    save_graph_text(graph, out / GRAPH_TEXT)
    save_graph_binary(graph, out / GRAPH_BINARY)
    _echo_config(out, cfg)
    params = {"nodes": graph.n, "edges": graph.num_edges, "c_max": graph.c_max}
    _write_manifest(out, "build-graph", cfg, cfg["eval"]["master_seed"],
                    [out / SESSIONS_FILES["train"], out / CATALOG_IDS],
                    [out / GRAPH_TEXT, out / GRAPH_BINARY], params)
    return params


def _train_config_from(cfg: dict, seed: int) -> bgrl.TrainConfig:
    em = cfg["embed"]
    return bgrl.TrainConfig(
        epochs=em["epochs"], batch_size=em["batch_size"],
        fanouts=tuple(em["fanouts"]) if em["fanouts"] else None,
        lr=em["lr"], weight_decay=em["weight_decay"], ema_decay=em["ema_decay"],
        d_hidden=em["hidden_dim"], d_out=em["dim"],
        augmentation=bgrl.AugmentationConfig(
            bgrl.ViewConfig(em["view1"]["feature_mask_prob"], em["view1"]["edge_drop_prob"]),
            bgrl.ViewConfig(em["view2"]["feature_mask_prob"], em["view2"]["edge_drop_prob"]),
        ),
        seed=seed,
    )


def run_train_embed(cfg: dict, out: Path) -> dict:
    seed = cfg["eval"]["master_seed"]
    catalog, X = load_catalog(out)
    graph = load_graph_binary(_require(out / GRAPH_BINARY), nodes=len(catalog))
    graph.X = X
    result = bgrl.train_embeddings(graph, _train_config_from(cfg, seed))
    bgrl.save_embeddings_text(out / EMBED_TEXT, result.embeddings, catalog)
    bgrl.save_embeddings_binary(out / EMBED_BINARY, result.embeddings, catalog)
    save_tensors(out / ENCODER_CKPT, result.encoder.state_dict())
    _echo_config(out, cfg)
    params = {"dim": cfg["embed"]["dim"], "epochs": cfg["embed"]["epochs"],
              "final_loss": result.epoch_losses[-1]}
    _write_manifest(out, "train-embed", cfg, seed,
                    [out / GRAPH_BINARY, out / CATALOG_FEATURES],
                    [out / EMBED_TEXT, out / EMBED_BINARY, out / ENCODER_CKPT], params)
    return params


def _knn_config_from(cfg: dict) -> knnrec.KnnConfig:
    kn = cfg["knn"]
    gc = kn["gcnext"]
    return knnrec.KnnConfig(
        k=kn["k"], m_sample=kn["m_sample"], base_mode=kn["base_mode"],
        k_rec=kn["k_rec"], exclude_input_items=kn["exclude_input_items"],
        gcnext=knnrec.GcnextConfig(gc["enabled"], gc["distance_threshold"],
                                   gc["session_scoring"], gc["expand_pool"]),
    )


def _load_embeddings(cfg: dict, out: Path, task: str, ids: list[str]) -> np.ndarray | None:
    """The embeddings.bin rows when `task` uses them (GCNext kNN, pretrained
    next-item init), after checking their ids against `ids`, those of
    catalog.ids."""
    if not (cfg["knn"]["gcnext"]["enabled"] if task == "knn"
            else cfg["nextitem"]["init_mode"] == "pretrained"):
        return None
    path = _require(out / EMBED_BINARY)
    emb, emb_ids = bgrl.load_embeddings_binary(path)
    if emb_ids != ids:
        raise DataError(f"{path}: item ids differ from {CATALOG_IDS}; "
                        "re-run train-embed after preprocess")
    return emb


def _experiment(cfg: dict, out: Path, task: str, corpus_name: str = "test"
                ) -> tuple[evalkit.MetricReport, list[str]]:
    """The metric report of `task` ("knn" or "nextitem") on the prefixes of
    one corpus over `eval.repeats` runs, plus the next-item epoch log lines.
    Every evaluating command (eval-knn, train-next, compare, grid) runs this.
    The prefixes are built once, as one `FlatPrefixes`, and each next-item run
    ranks them all through `NextItemModel.ranks`, in blocks of
    `nextitem.batch_size`. On the validation corpus they are `train_next`'s
    validation set too, and the report takes the ranks of its last epoch."""
    ids = _catalog_ids(out)
    split = load_split(out, ids)
    embeddings = _load_embeddings(cfg, out, task, ids)
    cap = cfg["preprocess"]["max_prefix_len"]
    prefixes = corpus_prefixes(getattr(split, corpus_name), cap)
    if not prefixes:
        raise DataError(f"no {corpus_name} prefixes to evaluate")
    ks = tuple(cfg["eval"]["k_values"])
    logs: list[str] = []
    if task == "knn":
        knn_cfg = _knn_config_from(cfg)
        metrics = []

        def pipeline(seed):
            # kNN recommendation draws no random numbers, so every repeat
            # would redo identical work. The metrics are computed on the first
            # call (so a failure still carries "run 0") and every repeat gets
            # the same vectors.
            if not metrics:
                index = knnrec.index_sessions(split.train)
                items, bounds = prefixes.items.tolist(), prefixes.indptr.tolist()
                ranked = [knnrec.recommend(items[lo:hi], index, knn_cfg, embeddings)
                          for lo, hi in zip(bounds, bounds[1:])]
                metrics.append(evalkit.query_metrics(ranked, prefixes.targets.tolist(), ks))
            return metrics[0]
    else:
        train_prefixes = corpus_prefixes(split.train, cap)
        if not train_prefixes:
            raise DataError("no train prefixes to train on")
        on_validation = corpus_name == "validation"
        val_prefixes = prefixes if on_validation else corpus_prefixes(split.validation, cap)
        ni = cfg["nextitem"]

        def pipeline(seed):
            if embeddings is not None:
                table = nextitem.init_table(nextitem.PRETRAINED, len(ids), embeddings.shape[1],
                                            source=embeddings)
            else:
                table = nextitem.init_table(nextitem.SCALED_UNIFORM, len(ids), cfg["embed"]["dim"],
                                            rng=np.random.default_rng(seed))
            model = nextitem.NextItemModel(table)
            result = nextitem.train_next(
                model, train_prefixes, val_prefixes,
                nextitem.NextTrainConfig(epochs=ni["epochs"], lr=ni["lr"],
                                         batch_size=ni["batch_size"], seed=seed))
            logs.extend(f"seed={seed}\t{rec.as_line()}" for rec in result.records)
            ranks = (result.val_ranks if on_validation
                     else model.ranks(prefixes, ni["batch_size"]))
            return evalkit.rank_metrics(ranks, ks)

    report = evalkit.run_experiment(pipeline, cfg["eval"]["repeats"],
                                    cfg["eval"]["master_seed"])
    return report, logs


def run_eval_knn(cfg: dict, out: Path) -> evalkit.MetricReport:
    report, _ = _experiment(cfg, out, "knn")
    _write_report(out, "eval-knn", cfg, report)
    return report


def run_train_next(cfg: dict, out: Path) -> evalkit.MetricReport:
    report, logs = _experiment(cfg, out, "nextitem")
    (out / "training_log.tsv").write_text(
        f"seed\tepoch\ttrain_loss\tval_hr{nextitem.VAL_K}\tval_mrr{nextitem.VAL_K}\twall_s\n"
        + "".join(line + "\n" for line in logs), encoding="utf-8")
    _write_report(out, "train-next", cfg, report)
    return report


def _structured_lines(report: evalkit.MetricReport) -> list[str]:
    """metric, run index or "mean", and value: one line per run and metric."""
    lines = []
    for name in report.metric_names():
        lines += [f"{name}\t{i}\t{v:.10f}" for i, v in enumerate(report.runs[name])]
        lines.append(f"{name}\tmean\t{report.mean(name):.10f}")
    return lines


def _write_report(out: Path, stage: str, cfg: dict, report: evalkit.MetricReport,
                  tests: dict | None = None):
    out.mkdir(parents=True, exist_ok=True)
    text_lines = [f"{stage} results ({len(next(iter(report.runs.values())))} runs)"]
    text_lines += report.table_lines()
    structured = ["metric\trun\tvalue"] + _structured_lines(report)
    if tests:
        text_lines.append("")
        text_lines.append("paired t-test")
        structured.append("metric\tt\tp\tsignificant\tdegenerate")
        for name, r in tests.items():
            if r.degenerate:
                text_lines.append(f"  {name}: degenerate (zero-variance differences)")
                structured.append(f"{name}\tNA\tNA\tFalse\tTrue")
            else:
                text_lines.append(f"  {name}: t={r.t:.4f} df={r.df} p={r.p:.6f}"
                                  f" significant={r.significant}")
                structured.append(f"{name}\t{r.t:.10f}\t{r.p:.10f}\t{r.significant}\tFalse")
    report_txt = out / f"report_{stage}.txt"
    report_tsv = out / f"report_{stage}.tsv"
    report_txt.write_text("\n".join(text_lines) + "\n", encoding="utf-8")
    report_tsv.write_text("\n".join(structured) + "\n", encoding="utf-8")
    _echo_config(out, cfg)
    _write_manifest(out, stage, cfg, cfg["eval"]["master_seed"], [],
                    [report_txt, report_tsv],
                    {"repeats": cfg["eval"]["repeats"], "k_values": cfg["eval"]["k_values"]})


def run_compare(cfg_a: dict, cfg_b: dict, out_a: Path, out_b: Path, out: Path,
                pair_by: str = "queries") -> dict:
    report_a, _ = _experiment(cfg_a, out_a, cfg_a["task"])
    report_b, _ = _experiment(cfg_b, out_b, cfg_b["task"])
    tests = evalkit.compare_reports(report_a, report_b, pair_by=pair_by)
    out.mkdir(parents=True, exist_ok=True)
    _write_report(out, "compare", cfg_a, report_a, tests=tests)
    return tests


def _grid_points(cfg: dict) -> list[dict]:
    params = cfg["grid"]["parameters"]
    if not params:
        raise ConfigError("grid.parameters is empty")
    names = sorted(params)
    points: list[dict] = [{}]
    for name in names:
        values = params[name]
        if not isinstance(values, list) or not values:
            raise ConfigError(f"grid.parameters.{name}: need a non-empty value list")
        points = [dict(p, **{name: v}) for p in points for v in values]
    if len(points) > cfg["grid"]["max_points"]:
        raise ConfigError(f"grid has {len(points)} points, above max_points "
                          f"{cfg['grid']['max_points']}")
    return points


def _eval_grid_point(args):
    cfg, out_str, assignment = args
    cfg = json.loads(json.dumps(cfg))
    for dotted, value in assignment.items():
        set_by_path(cfg, dotted, value)
    cfg = resolve_config(cfg)
    cfg["eval"]["repeats"] = 1
    report, _ = _experiment(cfg, Path(out_str), cfg["task"], "validation")
    objective = cfg["grid"]["objective"]
    if objective not in report.runs:
        raise ConfigError(f"grid objective {objective!r} is not a computed metric")
    return assignment, report.runs[objective][0]


def run_grid(cfg: dict, out: Path, workers: int = 1) -> list[tuple[dict, float]]:
    if workers < 1:
        raise ConfigError(f"--workers: need at least 1, got {workers}")
    points = _grid_points(cfg)
    tasks = [(cfg, str(out), assignment) for assignment in points]
    workers = min(workers, len(points))
    if workers > 1:
        # imported here: multiprocessing costs every other command its import time
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_eval_grid_point, tasks))
    else:
        results = [_eval_grid_point(t) for t in tasks]
    results.sort(key=lambda r: (-r[1], json.dumps(r[0], sort_keys=True)))
    lines = ["rank\tobjective\tassignment"]
    for rank, (assignment, value) in enumerate(results, start=1):
        lines.append(f"{rank}\t{value:.10f}\t{json.dumps(assignment, sort_keys=True)}")
    (out / "grid_summary.tsv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    _echo_config(out, cfg)
    _write_manifest(out, "grid", cfg, cfg["eval"]["master_seed"], [],
                    [out / "grid_summary.tsv"],
                    {"points": len(points), "objective": cfg["grid"]["objective"]})
    return results


# ---------------------------------------------------------------------------
# argument parsing and dispatch
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="sessgraph",
                                     description="session co-occurrence graph toolkit")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("preprocess", "build-graph", "train-embed", "eval-knn",
                 "train-next", "compare", "grid"):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="path to the JSON run config")
        p.add_argument("--out", required=True, help="artifact directory")
        p.add_argument("--seed", type=int, default=None, help="override the master seed")
        if name == "grid":
            p.add_argument("--workers", type=int, default=1)
        if name in ("eval-knn", "train-next"):
            p.add_argument("--format", choices=("text", "structured"), default="text")
        if name == "compare":
            p.add_argument("--config-b", required=True, help="second config to compare against")
            p.add_argument("--out-b", default=None,
                           help="artifact directory of the second config (defaults to --out)")
            p.add_argument("--pair-by", choices=("queries", "runs"), default="queries")
    return parser


def _load_seeded_config(path, seed: int | None) -> dict:
    """The config at `path`, with eval.master_seed = `seed` unless None,
    checked as a value given in the file would be."""
    cfg = load_config(path)
    if seed is None:
        return cfg
    cfg["eval"]["master_seed"] = seed
    return resolve_config(cfg)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = _load_seeded_config(args.config, args.seed)
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        if args.command == "preprocess":
            params = run_preprocess(cfg, out)
            print(json.dumps(params, sort_keys=True))
        elif args.command == "build-graph":
            params = run_build_graph(cfg, out)
            print(json.dumps(params, sort_keys=True))
        elif args.command == "train-embed":
            params = run_train_embed(cfg, out)
            print(json.dumps(params, sort_keys=True))
        elif args.command in ("eval-knn", "train-next"):
            report = (run_eval_knn if args.command == "eval-knn" else run_train_next)(cfg, out)
            print("\n".join(_structured_lines(report) if args.format == "structured"
                            else report.table_lines()))
        elif args.command == "compare":
            cfg_b = _load_seeded_config(args.config_b, args.seed)
            out_b = Path(args.out_b) if args.out_b else out
            tests = run_compare(cfg, cfg_b, out, out_b, out, pair_by=args.pair_by)
            for name, r in sorted(tests.items()):
                if r.degenerate:
                    print(f"{name}\tdegenerate")
                else:
                    print(f"{name}\tt={r.t:.4f}\tp={r.p:.6f}\tsignificant={r.significant}")
        elif args.command == "grid":
            results = run_grid(cfg, out, workers=args.workers)
            for rank, (assignment, value) in enumerate(results, start=1):
                print(f"{rank}\t{value:.6f}\t{json.dumps(assignment, sort_keys=True)}")
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except ShapeError as exc:
        print(f"shape error: {exc}", file=sys.stderr)
        return 3
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 4
    return 0


if __name__ == "__main__":
    sys.exit(main())
