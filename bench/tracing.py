"""Span tracing for the benchmark's traced run.

The traced run wraps the functions of every sessgraph layer where
their callers look them up (``sessgraph.cli.build_cograph``,
``sessgraph.bgrl.sample_neighbors``, ``CoGraph.from_edges``, ...). Each call
records one span ``[name, start_ns, end_ns, parent]`` in memory; the spans
and counters are written out when the process ends. sessgraph itself is not
changed, and untraced runs install none of the wrappers.

Run as a script it is a traced ``sessgraph`` command line:

    python bench/tracing.py --spans spans.json -- preprocess --config c.json --out art
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from pathlib import Path


class Tracer:
    """In-memory span recorder; one per process."""

    def __init__(self):
        self.spans: list[list] = []     # [name, start_ns, end_ns, parent index or -1]
        self.counts: dict[str, float] = {}
        self.enabled = True
        self._stack: list[int] = []

    def count(self, name: str, value: float = 1):
        if self.enabled:
            self.counts[name] = self.counts.get(name, 0) + value

    def wrap(self, name: str, fn, counter=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            idx = len(self.spans)
            self.spans.append([name, time.perf_counter_ns(), 0,
                               self._stack[-1] if self._stack else -1])
            self._stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._stack.pop()
                self.spans[idx][2] = time.perf_counter_ns()
            if counter is not None:
                counter(self, args, result)
            return result
        return traced

    def dump(self, path: Path):
        Path(path).write_text(json.dumps({"spans": self.spans, "counts": self.counts}),
                              encoding="utf-8")


def _count_len(name):
    return lambda tr, args, result: tr.count(name, len(result))


def _count_calls(name):
    return lambda tr, args, result: tr.count(name)


# (owner, attribute, span name, counter). The owner is the module or class in
# which the caller looks the name up: "module" or "module:Class".
PATCHES = [
    ("sessgraph.cli", "run_preprocess", "cli.preprocess", None),
    ("sessgraph.cli", "run_build_graph", "cli.build_graph", None),
    ("sessgraph.cli", "run_train_embed", "cli.train_embed", None),
    ("sessgraph.cli", "run_eval_knn", "cli.eval_knn", None),
    ("sessgraph.cli", "run_train_next", "cli.train_next", None),
    ("sessgraph.cli", "load_split", "cli.load_split", None),
    ("sessgraph.cli", "load_catalog", "cli.load_catalog", None),
    ("sessgraph.cli", "load_interactions", "sessiondata.load_interactions",
     _count_len("sessiondata.interactions")),
    ("sessgraph.cli", "sessionize", "sessiondata.sessionize", None),
    ("sessgraph.cli", "filter_corpus", "sessiondata.filter_corpus", None),
    ("sessgraph.cli", "encode_features", "sessiondata.encode_features", None),
    ("sessgraph.cli", "corpus_prefixes", "sessiondata.corpus_prefixes", None),
    ("sessgraph.cli", "build_cograph", "cograph.build_cograph",
     lambda tr, args, g: tr.count("cograph.edges", g.num_edges)),
    ("sessgraph.cograph:CoGraph", "from_edges", "cograph.from_edges", None),
    ("sessgraph.cograph:CoGraph", "edge_triples", "cograph.edge_triples", None),
    ("sessgraph.cli", "save_graph_text", "cograph.save_graph_text", None),
    ("sessgraph.cli", "save_graph_binary", "cograph.save_graph_binary", None),
    ("sessgraph.cli", "load_graph_binary", "cograph.load_graph_binary", None),
    ("sessgraph.bgrl", "sample_neighbors", "cograph.sample_neighbors",
     _count_calls("cograph.sample_neighbors_calls")),
    ("sessgraph.bgrl", "augment", "bgrl.augment", None),
    ("sessgraph.bgrl", "bgrl_loss", "bgrl.bgrl_loss", _count_calls("bgrl.batches")),
    ("sessgraph.bgrl", "ema_update", "bgrl.ema_update", None),
    ("sessgraph.bgrl", "save_embeddings_text", "bgrl.save_embeddings", None),
    ("sessgraph.bgrl", "save_embeddings_binary", "bgrl.save_embeddings", None),
    ("sessgraph.bgrl", "load_embeddings_binary", "bgrl.load_embeddings_binary", None),
    ("sessgraph.encoder:SkipEncoder", "encode_sampled", "encoder.encode_sampled", None),
    ("sessgraph.encoder:SkipEncoder", "encode_full", "encoder.encode_full", None),
    ("sessgraph.diffcore", "backward", "diffcore.backward", None),
    ("sessgraph.diffcore", "adamw_step", "diffcore.adamw_step", None),
    ("sessgraph.diffcore", "adam_step", "diffcore.adam_step", None),
    ("sessgraph.knnrec", "index_sessions", "knnrec.index_sessions", None),
    ("sessgraph.knnrec", "recommend", "knnrec.recommend", None),
    ("sessgraph.knnrec", "find_neighbors", "knnrec.find_neighbors",
     _count_len("knnrec.neighbors")),
    ("sessgraph.knnrec", "score_items", "knnrec.score_items", None),
    ("sessgraph.knnrec", "_candidate_pool", "knnrec.candidate_pool",
     _count_len("knnrec.pool")),
    ("sessgraph.nextitem", "train_next", "nextitem.train_next", None),
    ("sessgraph.nextitem:NextItemModel", "batch_loss", "nextitem.batch_loss",
     lambda tr, args, result: tr.count("nextitem.prefixes", len(args[1]))),
    ("sessgraph.nextitem", "evaluate_ranks", "nextitem.evaluate_ranks", None),
    ("sessgraph.evalkit", "run_experiment", "evalkit.run_experiment", None),
    ("sessgraph.evalkit", "query_metrics", "evalkit.query_metrics", None),
]


def install(tracer: Tracer):
    """Replace every name in PATCHES by a tracing wrapper."""
    for owner_path, attr, name, counter in PATCHES:
        module_name, _, class_name = owner_path.partition(":")
        owner = importlib.import_module(module_name)
        if class_name:
            owner = getattr(owner, class_name)
        original = inspect.getattr_static(owner, attr)
        if isinstance(original, classmethod):
            setattr(owner, attr, classmethod(tracer.wrap(name, original.__func__, counter)))
        else:
            setattr(owner, attr, tracer.wrap(name, original, counter))


def self_times(spans: list[list]) -> list[float]:
    """Seconds of each span not covered by its child spans."""
    child_ns = [0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    return [(end - start - child_ns[i]) / 1e9 for i, (_, start, end, _) in enumerate(spans)]


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[0] != "--spans" or argv[2] != "--":
        print("usage: tracing.py --spans FILE -- <sessgraph arguments>", file=sys.stderr)
        return 2
    tracer = Tracer()
    install(tracer)
    from sessgraph import cli
    try:
        return cli.main(argv[3:])
    finally:
        tracer.dump(Path(argv[1]))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
