"""The benchmark's serving process.

Loads what a kNN server needs (the split, ``embeddings.bin`` and the session
index), timing the load, then answers a fixed stream of query prefixes with
``knnrec.recommend`` in a closed loop with one client. It repeats whole
passes over the stream until ``--seconds`` have passed (at least one pass)
and writes per-query latencies and the ranked lists of the first pass to
``--result``.

With ``--spans`` the process is traced (see tracing.py) and, after the
GCNext stream, serves one more pass with the base SKNN recommender with
tracing paused, for the ``knnrec.sknn_*`` metrics.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import time
from pathlib import Path

from sessgraph import bgrl, cli, knnrec
from sessgraph.config import load_config


def serve_pass(stream, index, config, embeddings):
    """One closed-loop pass: (latencies in ns, ranked lists, failed count)."""
    latencies, lists, failed = [], [], 0
    for prefix in stream:
        t0 = time.perf_counter_ns()
        try:
            ranked = knnrec.recommend(prefix, index, config, embeddings)
        except Exception:  # a failed query is counted, not fatal
            ranked = None
        latencies.append(time.perf_counter_ns() - t0)
        if ranked is None:
            failed += 1
            lists.append(None)
        else:
            lists.append([[int(i), float(s)] for i, s in ranked.entries])
    return latencies, lists, failed


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--out", required=True, help="artifact directory")
    ap.add_argument("--config", required=True)
    ap.add_argument("--stream", required=True, help="JSON list of query prefixes")
    ap.add_argument("--result", required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--spans", default=None, help="trace and write spans here")
    args = ap.parse_args(argv)

    tracer = None
    if args.spans:
        import tracing
        tracer = tracing.Tracer()
        tracing.install(tracer)

    out = Path(args.out)
    cfg = load_config(args.config)
    config = cli._knn_config_from(cfg)
    stream = [tuple(q) for q in json.loads(Path(args.stream).read_text(encoding="utf-8"))]

    t0 = time.perf_counter()
    split = cli.load_split(out)
    embeddings, _ = bgrl.load_embeddings_binary(out / "embeddings.bin")
    index = knnrec.index_sessions(split.train)
    load_s = time.perf_counter() - t0

    t_start = time.perf_counter()
    latencies, lists, failed = serve_pass(stream, index, config, embeddings)
    passes = 1
    while time.perf_counter() - t_start < args.seconds:
        more, _, more_failed = serve_pass(stream, index, config, embeddings)
        latencies += more
        failed += more_failed
        passes += 1
    result = {"load_s": load_s, "latency_ns": latencies, "lists": lists,
              "failed": failed, "passes": passes}

    if tracer is not None:
        tracer.enabled = False
        base = dataclasses.replace(config, gcnext=knnrec.GcnextConfig(enabled=False))
        sk_lat, sk_lists, sk_failed = serve_pass(stream, index, base, None)
        result.update(sknn_latency_ns=sk_lat, sknn_lists=sk_lists, sknn_failed=sk_failed)
        tracer.dump(Path(args.spans))
    Path(args.result).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
