"""End-to-end CLI stage tests on a small synthetic corpus: artifacts,
manifests, determinism, stage independence, exit codes."""

import concurrent.futures
import json
import shutil
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from sessgraph import cli, evalkit, nextitem
from sessgraph.cograph import CoGraph
from sessgraph.config import DEFAULTS, config_hash, load_config, resolve_config
from sessgraph.errors import ConfigError, DataError, ShapeError
from sessgraph.sessiondata import corpus_prefixes, generate_prefixes

from corpusgen import clustered_interactions, clustered_schema, write_log


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """Shared log + config + preprocessed artifacts (stages build on it)."""
    root = tmp_path_factory.mktemp("cli")
    rng = np.random.default_rng(0)
    log = write_log(root / "log.csv",
                    clustered_interactions(rng, n_items=60, n_clusters=4,
                                           n_sessions=220, min_len=3, max_len=6))
    cfg = {
        "dataset": {
            "path": str(log),
            "features": [{"name": n, "kind": k} for n, k in clustered_schema().features],
        },
        "embed": {"dim": 12, "hidden_dim": 12, "epochs": 4, "batch_size": 64,
                  "fanouts": None, "lr": 0.005},
        "knn": {"k": 30, "m_sample": 100},
        "nextitem": {"epochs": 3, "lr": 0.02, "batch_size": 64},
        "eval": {"repeats": 2, "master_seed": 11},
    }
    cfg_path = root / "config.json"
    cfg_path.write_text(json.dumps(cfg), encoding="utf-8")
    out = root / "artifacts"
    assert cli.main(["preprocess", "--config", str(cfg_path), "--out", str(out)]) == 0
    assert cli.main(["build-graph", "--config", str(cfg_path), "--out", str(out)]) == 0
    return root, cfg_path, out


@pytest.fixture(scope="module")
def embedded(workdir):
    """workdir with embeddings.bin, so a test reading it runs in any order."""
    root, cfg_path, out = workdir
    assert cli.main(["train-embed", "--config", str(cfg_path), "--out", str(out),
                     "--seed", "7"]) == 0
    return workdir


def test_config_defaults_and_unknown_keys():
    cfg = resolve_config({})
    assert cfg["preprocess"]["min_item_support"] == 5
    assert cfg["embed"]["dim"] == 128
    assert cfg["eval"]["repeats"] == 5
    with pytest.raises(ConfigError) as exc:
        resolve_config({"preprocess": {"min_item_support": 0, "bogus": 1}, "junk": {},
                        "graph": {"normalization": "global-max"}})
    msg = str(exc.value)
    # every violation is listed
    assert "bogus" in msg and "junk" in msg and "min_item_support" in msg
    assert "unknown key 'graph'" in msg


def test_config_hash_is_stable():
    c1 = resolve_config({})
    c2 = resolve_config({"eval": {"repeats": 5}})
    assert config_hash(c1) == config_hash(c2)
    c3 = resolve_config({"eval": {"repeats": 3}})
    assert config_hash(c1) != config_hash(c3)


def test_preprocess_artifacts_and_manifest(workdir):
    root, cfg_path, out = workdir
    for name in ("train.sessions", "validation.sessions", "test.sessions",
                 "catalog.ids", "catalog.features", "resolved_config.json"):
        assert (out / name).exists(), name
    manifest = json.loads((out / "manifest_preprocess.json").read_text())
    assert manifest["params"]["min_item_support"] == 5
    assert manifest["params"]["min_session_len"] == 2
    assert manifest["params"]["max_prefix_len"] == 50
    assert manifest["params"]["fractions"] == [0.8, 0.1, 0.1]
    n = sum(manifest["params"]["assigned_counts"])
    assert manifest["params"]["assigned_counts"][0] == int(0.8 * n)
    assert "log.csv" in manifest["inputs"]
    assert manifest["versions"]["sessgraph"]


def test_preprocess_writes_no_all_zero_feature_column(workdir):
    root, cfg_path, out = workdir
    _, X = cli.load_catalog(out)
    assert np.all(np.any(X != 0, axis=0))
    params = json.loads((out / "manifest_preprocess.json").read_text())["params"]
    assert len(params["feature_columns"]) == params["feature_width"] == X.shape[1]


def test_corpus_roundtrip(workdir):
    root, cfg_path, out = workdir
    corpus = cli.load_corpus(out / "train.sessions")
    assert len(corpus) > 0
    tmp = root / "copy.sessions"
    cli.save_corpus(tmp, corpus)
    assert tmp.read_text() == (out / "train.sessions").read_text()


def test_build_graph_manifest_and_loaders(workdir):
    root, cfg_path, out = workdir
    gb = cli.load_graph_binary(out / "graph.bin")
    header = (out / "graph.txt").read_text().split("\n", 1)[0].split()
    assert header == [str(gb.n), str(gb.num_edges), str(gb.c_max)]
    text_edges = np.loadtxt(out / "graph.txt", skiprows=1, ndmin=2)
    assert np.array_equal(text_edges, np.column_stack(gb.upper()))
    manifest = json.loads((out / "manifest_build-graph.json").read_text())
    assert manifest["params"]["nodes"] == gb.n
    assert manifest["params"]["edges"] == gb.num_edges


def test_train_embed_deterministic_bytes(workdir):
    root, cfg_path, out = workdir
    assert cli.main(["train-embed", "--config", str(cfg_path), "--out", str(out),
                     "--seed", "7"]) == 0
    first = (out / "embeddings.bin").read_bytes()
    first_txt = (out / "embeddings.txt").read_bytes()
    assert cli.main(["train-embed", "--config", str(cfg_path), "--out", str(out),
                     "--seed", "7"]) == 0
    assert (out / "embeddings.bin").read_bytes() == first
    assert (out / "embeddings.txt").read_bytes() == first_txt
    manifest = json.loads((out / "manifest_train-embed.json").read_text())
    assert manifest["seed"] == 7
    assert manifest["params"]["dim"] == 12


def test_eval_knn_report_and_stage_independence(workdir):
    root, cfg_path, out = workdir
    assert cli.main(["eval-knn", "--config", str(cfg_path), "--out", str(out)]) == 0
    report = (out / "report_eval-knn.tsv").read_text()
    assert cli.main(["eval-knn", "--config", str(cfg_path), "--out", str(out)]) == 0
    assert (out / "report_eval-knn.tsv").read_text() == report
    # deterministic recommender: every run identical
    lines = [l for l in report.splitlines() if l.startswith("HR@10\t")]
    values = {l.split("\t")[2] for l in lines}
    assert len(values) == 1
    # all four metrics present
    for metric in ("HR@10", "HR@20", "MRR@10", "MRR@20"):
        assert any(l.startswith(metric) for l in report.splitlines())


def test_eval_knn_gcnext_uses_embeddings(embedded):
    root, cfg_path, out = embedded
    cfg = json.loads(cfg_path.read_text())
    cfg["knn"]["gcnext"] = {"enabled": True, "distance_threshold": 0.4}
    cfg2 = root / "config_gc.json"
    cfg2.write_text(json.dumps(cfg), encoding="utf-8")
    assert cli.main(["eval-knn", "--config", str(cfg2), "--out", str(out)]) == 0
    report = (out / "report_eval-knn.tsv").read_text()
    assert "HR@10" in report


def test_train_next_writes_log_and_report(workdir):
    root, cfg_path, out = workdir
    assert cli.main(["train-next", "--config", str(cfg_path), "--out", str(out)]) == 0
    log = (out / "training_log.tsv").read_text().splitlines()
    assert log[0] == "seed\tepoch\ttrain_loss\tval_hr10\tval_mrr10\twall_s"
    assert len(log) > 1
    report = (out / "report_train-next.tsv").read_text()
    assert "MRR@20" in report


def test_compare_emits_t_test(workdir, capsys):
    root, cfg_path, out = workdir
    cfg = json.loads(cfg_path.read_text())
    cfg["knn"]["base_mode"] = "v-sknn"
    cfg_b = root / "config_b.json"
    cfg_b.write_text(json.dumps(cfg), encoding="utf-8")
    assert cli.main(["compare", "--config", str(cfg_path), "--config-b", str(cfg_b),
                     "--out", str(out)]) == 0
    printed = capsys.readouterr().out
    assert "HR@10" in printed
    assert (out / "report_compare.tsv").exists()


def test_grid_ranked_by_objective(workdir, capsys):
    root, cfg_path, out = workdir
    cfg = json.loads(cfg_path.read_text())
    cfg["grid"] = {"parameters": {"knn.k": [5, 30], "knn.base_mode": ["sknn", "v-sknn"]}}
    cfg_g = root / "config_grid.json"
    cfg_g.write_text(json.dumps(cfg), encoding="utf-8")
    assert cli.main(["grid", "--config", str(cfg_g), "--out", str(out)]) == 0
    summary = (out / "grid_summary.tsv").read_text().splitlines()
    assert summary[0] == "rank\tobjective\tassignment"
    assert len(summary) == 5
    objectives = [float(l.split("\t")[1]) for l in summary[1:]]
    assert objectives == sorted(objectives, reverse=True)


def test_numeric_failure_exit_code(workdir):
    root, cfg_path, out = workdir
    cfg = json.loads(cfg_path.read_text())
    cfg["embed"]["lr"] = 1e290  # guaranteed overflow within a step or two
    cfg_bad = root / "config_nan.json"
    cfg_bad.write_text(json.dumps(cfg), encoding="utf-8")
    rc = cli.main(["train-embed", "--config", str(cfg_bad), "--out", str(out)])
    assert rc == 4
    # repair the artifacts for any later test using this directory
    assert cli.main(["train-embed", "--config", str(cfg_path), "--out", str(out),
                     "--seed", "7"]) == 0


def test_missing_artifact_exit_code(tmp_path):
    cfg_path = tmp_path / "c.json"
    cfg_path.write_text("{}", encoding="utf-8")
    rc = cli.main(["eval-knn", "--config", str(cfg_path), "--out", str(tmp_path)])
    assert rc == 3


def test_bad_config_exit_code(tmp_path):
    cfg_path = tmp_path / "c.json"
    cfg_path.write_text('{"unknown_section": 1}', encoding="utf-8")
    rc = cli.main(["preprocess", "--config", str(cfg_path), "--out", str(tmp_path)])
    assert rc == 2


def test_embed_heads_is_unknown_key(tmp_path, capsys):
    """The encoder has one attention head; a config that still sets
    embed.heads is rejected like any other unknown key."""
    with pytest.raises(ConfigError, match="embed: unknown key 'heads'"):
        resolve_config({"embed": {"heads": 1}})
    cfg_path = tmp_path / "c.json"
    cfg_path.write_text(json.dumps({"embed": {"heads": 1}}), encoding="utf-8")
    assert cli.main(["train-embed", "--config", str(cfg_path), "--out", str(tmp_path)]) == 2
    assert "unknown key 'heads'" in capsys.readouterr().err


def test_t_test_that_does_not_converge_exit_code(workdir, monkeypatch, capsys):
    """A p-value whose continued fraction does not converge is a numeric
    failure (exit 4), not a traceback."""
    root, cfg_path, out = workdir
    cfg = json.loads(cfg_path.read_text())
    cfg["knn"]["base_mode"] = "v-sknn"
    cfg_b = root / "config_b.json"
    cfg_b.write_text(json.dumps(cfg), encoding="utf-8")
    monkeypatch.setattr(cli.evalkit, "_CF_MAX_ITER", 0)
    assert cli.main(["compare", "--config", str(cfg_path), "--config-b", str(cfg_b),
                     "--out", str(out)]) == 4
    assert "incomplete beta did not converge" in capsys.readouterr().err


def test_shape_error_exit_code(tmp_path, monkeypatch, capsys):
    """A ShapeError from a stage is reported in one line with exit 3, not
    as a traceback."""
    def mismatched(cfg, out):
        raise ShapeError("matmul", (2, 3), (4, 5))

    monkeypatch.setattr(cli, "run_build_graph", mismatched)
    cfg_path = tmp_path / "c.json"
    cfg_path.write_text("{}", encoding="utf-8")
    assert cli.main(["build-graph", "--config", str(cfg_path), "--out", str(tmp_path)]) == 3
    err = capsys.readouterr().err
    assert err == "shape error: matmul: incompatible shapes (2, 3), (4, 5)\n"


def test_importing_the_cli_leaves_out_multiprocessing():
    """Only grid with more than one worker needs a process pool, so a fresh
    interpreter that imports the CLI has not imported multiprocessing."""
    src = Path(__file__).resolve().parent.parent / "src"
    probe = "import sys, sessgraph.cli; print('multiprocessing' in sys.modules)"
    done = subprocess.run([sys.executable, "-c", probe], cwd=src, capture_output=True,
                          text=True, timeout=60, check=True)
    assert done.stdout == "False\n"


def test_config_file_not_json_exit_code(tmp_path):
    cfg_path = tmp_path / "c.json"
    cfg_path.write_text("not json", encoding="utf-8")
    assert cli.main(["preprocess", "--config", str(cfg_path), "--out", str(tmp_path)]) == 2


def test_missing_dataset_exit_code(tmp_path):
    cfg_path = tmp_path / "c.json"
    cfg_path.write_text(json.dumps({"dataset": {"path": str(tmp_path / "nope.csv")}}),
                        encoding="utf-8")
    rc = cli.main(["preprocess", "--config", str(cfg_path), "--out", str(tmp_path)])
    assert rc == 3


def test_embeddings_from_another_preprocess_run_exit_code(tmp_path):
    def preprocess(n_items):
        log = write_log(tmp_path / f"log{n_items}.csv",
                        clustered_interactions(np.random.default_rng(n_items),
                                               n_items=n_items, n_clusters=4,
                                               n_sessions=150, min_len=3, max_len=6))
        cfg = {
            "dataset": {"path": str(log),
                        "features": [{"name": n, "kind": k}
                                     for n, k in clustered_schema().features]},
            "embed": {"dim": 4, "hidden_dim": 4, "epochs": 1, "fanouts": None},
            "knn": {"gcnext": {"enabled": True}},
            "eval": {"repeats": 1},
        }
        cfg_path = tmp_path / f"config{n_items}.json"
        cfg_path.write_text(json.dumps(cfg), encoding="utf-8")
        args = ["--config", str(cfg_path), "--out", str(tmp_path / "art")]
        assert cli.main(["preprocess"] + args) == 0
        return args

    args = preprocess(40)
    assert cli.main(["build-graph"] + args) == 0
    assert cli.main(["train-embed"] + args) == 0
    assert cli.main(["eval-knn"] + args) == 0
    args = preprocess(48)
    assert cli.main(["eval-knn"] + args) == 3


def test_eval_knn_recommends_each_test_prefix_once(workdir, tmp_path, monkeypatch):
    root, cfg_path, out = workdir
    art = tmp_path / "art"
    shutil.copytree(out, art)
    cfg = load_config(cfg_path)
    cfg["eval"]["repeats"] = 3
    served = []
    recommend = cli.knnrec.recommend

    def counting(prefix, *args, **kwargs):
        served.append(tuple(prefix))
        return recommend(prefix, *args, **kwargs)

    monkeypatch.setattr(cli.knnrec, "recommend", counting)
    report = cli.run_eval_knn(cfg, art)
    cap = cfg["preprocess"]["max_prefix_len"]
    assert served == [p.prefix for s in cli.load_split(art).test.sessions
                      for p in generate_prefixes(s, cap)]
    assert all(len(runs) == 3 for runs in report.runs.values())


@pytest.mark.parametrize("task, overrides", [
    ("knn", {"knn": {"gcnext": {"enabled": True}}}),
    ("nextitem", {"nextitem": {"init_mode": "pretrained", "epochs": 1}}),
])
def test_experiment_reads_catalog_ids_once(workdir, tmp_path, monkeypatch, task, overrides):
    """load_split, the embedding id check and the next-item table size all
    need catalog.ids; one experiment parses it once."""
    root, cfg_path, out = workdir
    art = tmp_path / "art"
    shutil.copytree(out, art)
    assert cli.main(["train-embed", "--config", str(cfg_path), "--out", str(art)]) == 0
    raw = json.loads(cfg_path.read_text())
    for section, values in overrides.items():
        raw[section].update(values)
    raw["eval"]["repeats"] = 1
    cfg = resolve_config(raw)
    calls = []
    catalog_ids = cli._catalog_ids

    def counting(out_dir):
        calls.append(out_dir)
        return catalog_ids(out_dir)

    monkeypatch.setattr(cli, "_catalog_ids", counting)
    cli._experiment(cfg, art, task)
    assert calls == [art]


def _write(path: Path, text: str) -> Path:
    path.write_text(text, encoding="utf-8")
    return path


@pytest.mark.parametrize("line", ["s1 4 x 100", "s1 4 5 1.5e9"])
def test_corpus_with_non_integer_field_is_data_error(tmp_path, line):
    path = _write(tmp_path / "train.sessions", f"s0 1 2 10\n{line}\n")
    with pytest.raises(DataError, match=r"train\.sessions:2: non-integer"):
        cli.load_corpus(path)


def test_catalog_id_line_without_external_id_is_data_error(tmp_path):
    _write(tmp_path / "catalog.ids", "0 a\n1\n")
    with pytest.raises(DataError, match=r"catalog\.ids:2: catalog line without an external id"):
        cli._catalog_ids(tmp_path)


@pytest.mark.parametrize("features, message", [
    ("1.0 2.0\n1.0 abc\n", r"catalog\.features:2: non-numeric feature"),
    ("1.0 2.0\n1.0\n", r"catalog\.features:2: 1 features, line 1 has 2"),
    ("1.0 2.0\n", r"catalog\.features: 1 feature rows for 2 ids"),
    ("1.0 2.0\n1.0 nan\n", r"catalog\.features:2: non-finite feature"),
    ("-inf 2.0\n1.0 2.0\n", r"catalog\.features:1: non-finite feature"),
])
def test_bad_catalog_features_are_data_errors(tmp_path, features, message):
    _write(tmp_path / "catalog.ids", "0 a\n1 b\n")
    _write(tmp_path / "catalog.features", features)
    with pytest.raises(DataError, match=message):
        cli.load_catalog(tmp_path)


def test_corrupt_corpus_exit_code(workdir, tmp_path, capsys):
    root, cfg_path, out = workdir
    art = tmp_path / "art"
    shutil.copytree(out, art)
    with open(art / "train.sessions", "a", encoding="utf-8") as fh:
        fh.write("s-bad 1 two 100\n")
    rc = cli.main(["build-graph", "--config", str(cfg_path), "--out", str(art)])
    assert rc == 3
    assert "train.sessions:" in capsys.readouterr().err


def test_corpus_line_without_items_is_data_error(tmp_path):
    path = _write(tmp_path / "train.sessions", "s0 1 2 10\ns1 100\n")
    with pytest.raises(DataError, match=r"train\.sessions:2: corpus line needs id, items"):
        cli.load_corpus(path)


@pytest.mark.parametrize("corpus, bad, command", [
    ("test", "-1", "train-next"),
    ("test", "m+5", "train-next"),
    ("test", "m+5", "eval-knn"),
    ("validation", "-1", "eval-knn"),
    ("train", "-1", "train-next"),
    ("train", "m+5", "train-next"),
])
def test_corpus_item_outside_catalog_exit_code(workdir, tmp_path, capsys, corpus, bad, command):
    """-1 would index the last item and m+5 no row: both must stop the stage."""
    root, cfg_path, out = workdir
    art = tmp_path / "art"
    shutil.copytree(out, art)
    m = len(cli._catalog_ids(art))
    item = -1 if bad == "-1" else m + 5
    path = art / f"{corpus}.sessions"
    lines = path.read_text(encoding="utf-8").splitlines()
    sid, first, *rest = lines[0].split()
    lines[0] = " ".join([sid, str(item), *rest])
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    rc = cli.main([command, "--config", str(cfg_path), "--out", str(art)])
    assert rc == 3
    assert f"{corpus}.sessions:1: item {item} outside the catalog of {m} items" \
        in capsys.readouterr().err


@pytest.mark.parametrize("target, command, code", [
    ("artifacts/test.sessions", "eval-knn", 3),
    ("artifacts/catalog.ids", "build-graph", 3),
    ("artifacts/catalog.features", "build-graph", 3),
    ("log.csv", "preprocess", 3),
    ("config.json", "eval-knn", 2),
])
def test_non_utf8_input_exit_code(workdir, tmp_path, capsys, target, command, code):
    root, cfg_path, out = workdir
    work = tmp_path / "work"
    shutil.copytree(root, work)
    cfg = json.loads(cfg_path.read_text())
    cfg["dataset"]["path"] = str(work / "log.csv")
    (work / "config.json").write_text(json.dumps(cfg), encoding="utf-8")
    with open(work / target, "ab") as fh:
        fh.write(b"\xff\n")
    rc = cli.main([command, "--config", str(work / "config.json"),
                   "--out", str(work / "artifacts")])
    assert rc == code
    assert "not UTF-8" in capsys.readouterr().err


def _forbid_graph_allocation(monkeypatch):
    """A graph header must be rejected before CoGraph.from_edges sizes the
    graph by it; reaching the constructor fails the test instead."""
    def refuse(*args, **kwargs):
        raise AssertionError("graph built from an unchecked header")
    monkeypatch.setattr(CoGraph, "from_edges", refuse)


def test_graph_header_with_huge_node_count_exit_code(workdir, tmp_path, monkeypatch, capsys):
    root, cfg_path, out = workdir
    art = tmp_path / "art"
    shutil.copytree(out, art)
    (art / "graph.bin").write_bytes(b"COG1" + struct.pack("<QQQ", 10**12, 0, 1))
    _forbid_graph_allocation(monkeypatch)
    rc = cli.main(["train-embed", "--config", str(cfg_path), "--out", str(art)])
    assert rc == 3
    assert "graph.bin: header says 1000000000000 nodes" in capsys.readouterr().err


def test_graph_with_another_node_count_exit_code(workdir, tmp_path, monkeypatch, capsys):
    """A graph.bin left by another preprocess run: 5 nodes more than the catalog."""
    root, cfg_path, out = workdir
    art = tmp_path / "art"
    shutil.copytree(out, art)
    graph = cli.load_graph_binary(art / "graph.bin")
    nodes = len(cli._catalog_ids(art))
    assert graph.n == nodes
    cli.save_graph_binary(CoGraph.from_edges(nodes + 5, np.column_stack(graph.upper()),
                                             c_max=graph.c_max), art / "graph.bin")
    _forbid_graph_allocation(monkeypatch)
    rc = cli.main(["train-embed", "--config", str(cfg_path), "--out", str(art)])
    assert rc == 3
    assert f"header says {nodes + 5} nodes, the catalog has {nodes} items" \
        in capsys.readouterr().err


def test_graph_with_weight_outside_unit_interval_exit_code(workdir, tmp_path, capsys):
    root, cfg_path, out = workdir
    art = tmp_path / "art"
    shutil.copytree(out, art)
    graph = cli.load_graph_binary(art / "graph.bin")
    graph.weights[:] = 2.0
    cli.save_graph_binary(graph, art / "graph.bin")
    rc = cli.main(["train-embed", "--config", str(cfg_path), "--out", str(art)])
    assert rc == 3
    assert "graph.bin: edge weight outside (0, 1]" in capsys.readouterr().err


@pytest.mark.parametrize("command, flag", [
    ("preprocess", ["--workers", "2"]),
    ("eval-knn", ["--workers", "2"]),
    ("grid", ["--format", "structured"]),
    ("train-embed", ["--format", "text"]),
])
def test_flags_only_on_commands_that_read_them(tmp_path, command, flag):
    with pytest.raises(SystemExit) as exc:
        cli.main([command, "--config", str(tmp_path / "c.json"), "--out", str(tmp_path)]
                 + flag)
    assert exc.value.code == 2


def test_flag_count():
    parser = cli.build_parser()
    subparsers = next(a for a in parser._actions if a.dest == "command").choices
    flags = sum(len(a.option_strings) > 0 and a.dest != "help"
                for p in subparsers.values() for a in p._actions)
    assert flags == 27


def test_compare_and_grid_on_nextitem_task(workdir, tmp_path, capsys):
    root, cfg_path, out = workdir
    art = tmp_path / "art"
    shutil.copytree(out, art)
    cfg = json.loads(cfg_path.read_text())
    cfg["task"] = "nextitem"
    cfg["nextitem"]["epochs"] = 1
    cfg_a = _write(tmp_path / "a.json", json.dumps(cfg))
    cfg["nextitem"]["lr"] = 0.1
    cfg_b = _write(tmp_path / "b.json", json.dumps(cfg))
    assert cli.main(["compare", "--config", str(cfg_a), "--config-b", str(cfg_b),
                     "--out", str(art)]) == 0
    printed = capsys.readouterr().out.splitlines()
    assert [line.split("\t")[0] for line in printed] == ["HR@10", "HR@20", "MRR@10", "MRR@20"]
    report = (art / "report_compare.tsv").read_text().splitlines()
    # header, then 2 runs + mean for each of 4 metrics, then the t-test block
    assert report[0] == "metric\trun\tvalue"
    assert report[13] == "metric\tt\tp\tsignificant\tdegenerate"
    assert len(report) == 18

    cfg["grid"] = {"parameters": {"nextitem.lr": [0.02, 0.1]}}
    cfg_g = _write(tmp_path / "g.json", json.dumps(cfg))
    assert cli.main(["grid", "--config", str(cfg_g), "--out", str(art)]) == 0
    summary = (art / "grid_summary.tsv").read_text().splitlines()
    assert summary[0] == "rank\tobjective\tassignment"
    assert sorted(json.loads(line.split("\t")[2])["nextitem.lr"] for line in summary[1:]) \
        == [0.02, 0.1]
    objectives = [float(line.split("\t")[1]) for line in summary[1:]]
    assert objectives == sorted(objectives, reverse=True)
    assert all(0.0 <= v <= 1.0 for v in objectives)


def test_nextitem_grid_ranks_validation_once_per_epoch(workdir, tmp_path, monkeypatch):
    """A next-item grid point reports on the validation ranks of train_next's
    last epoch instead of ranking the validation prefixes again."""
    root, cfg_path, out = workdir
    art = tmp_path / "art"
    shutil.copytree(out, art)
    cfg = json.loads(cfg_path.read_text())
    cfg["task"] = "nextitem"
    cfg["nextitem"]["epochs"] = 2
    cfg["grid"] = {"parameters": {"nextitem.lr": [0.05]}}
    calls = []
    ranks = nextitem.NextItemModel.ranks

    def counting_ranks(model, batch, rows):
        calls.append((model, batch, rows))
        return ranks(model, batch, rows)

    monkeypatch.setattr(nextitem.NextItemModel, "ranks", counting_ranks)
    cfg_g = _write(tmp_path / "g.json", json.dumps(cfg))
    assert cli.main(["grid", "--config", str(cfg_g), "--out", str(art)]) == 0
    assert len(calls) == 2
    # the summary holds what ranking the final model again would give
    model, batch, rows = calls[-1]
    assert len(batch) == len(corpus_prefixes(cli.load_split(art).validation))
    objective = DEFAULTS["grid"]["objective"]
    again = evalkit.rank_metrics(ranks(model, batch, rows), tuple(DEFAULTS["eval"]["k_values"]))
    assert (art / "grid_summary.tsv").read_text().splitlines()[1] \
        == f"1\t{again[objective].mean():.10f}\t{json.dumps({'nextitem.lr': 0.05})}"


@pytest.mark.parametrize("command", ["train-embed", "train-next"])
def test_negative_seed_override_is_config_error(workdir, capsys, command):
    root, cfg_path, out = workdir
    assert cli.main([command, "--config", str(cfg_path), "--out", str(out),
                     "--seed", "-1"]) == 2
    assert "eval.master_seed" in capsys.readouterr().err


def test_compare_applies_seed_override_to_both_configs(tmp_path, monkeypatch):
    seeds = []

    def recording_experiment(cfg, out, task, corpus_name="test"):
        seeds.append(cfg["eval"]["master_seed"])
        report = evalkit.MetricReport()
        report.add_run({"HR@10": np.array([0.0, 1.0, float(len(seeds))])})
        return report, []

    monkeypatch.setattr(cli, "_experiment", recording_experiment)
    cfg_a = _write(tmp_path / "a.json", json.dumps({"eval": {"master_seed": 1}}))
    cfg_b = _write(tmp_path / "b.json", json.dumps({"eval": {"master_seed": 2}}))
    argv = ["compare", "--config", str(cfg_a), "--config-b", str(cfg_b),
            "--out", str(tmp_path / "out")]
    assert cli.main(argv) == 0
    assert cli.main(argv + ["--seed", "5"]) == 0
    assert seeds == [1, 2, 5, 5]
    assert cli.main(argv + ["--seed", "-1"]) == 2
    assert len(seeds) == 4


@pytest.mark.parametrize("workers, pools", [(1, []), (2, [2]), (64, [3])])
def test_grid_starts_at_most_one_worker_per_point(tmp_path, monkeypatch, workers, pools):
    started = []

    class RecordingPool:
        """Stands in for ProcessPoolExecutor: records max_workers, maps in-process."""

        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            return map(fn, tasks)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(cli, "_eval_grid_point", lambda task: (task[2], 0.5))
    cfg = resolve_config({"grid": {"parameters": {"knn.k": [5, 10, 20]}}})
    assert len(cli.run_grid(cfg, tmp_path, workers=workers)) == 3
    assert started == pools


@pytest.mark.parametrize("workers", ["0", "-3"])
def test_grid_workers_below_one_exit_code(tmp_path, capsys, workers):
    cfg = _write(tmp_path / "g.json",
                 json.dumps({"grid": {"parameters": {"knn.k": [5, 10]}}}))
    assert cli.main(["grid", "--config", str(cfg), "--out", str(tmp_path / "out"),
                     "--workers", workers]) == 2
    assert "--workers" in capsys.readouterr().err
