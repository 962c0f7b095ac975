"""The benchmark's three workloads.

Each workload is a set of arguments to ``tests/corpusgen.clustered_interactions``
plus the sessgraph run config the CLI stages read. The seed given to the
benchmark drives the generator and the config's ``eval.master_seed``; nothing
else varies between runs of one workload.

Sizes are chosen so that one untraced run (three set-ups, one experiment and a
serving pass of at least 1000 queries) stays near 30 s on two cores.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    generator: dict          # keyword arguments of clustered_interactions
    config: dict             # sessgraph run config, without dataset
    min_queries: int = 1000  # served queries per pass, at least


def _config(embed: dict, knn: dict, nextitem: dict, fractions=(0.8, 0.1, 0.1),
            repeats: int = 1) -> dict:
    return {
        "preprocess": {"fractions": list(fractions)},
        "embed": embed,
        "knn": knn,
        "nextitem": dict(nextitem, init_mode="pretrained"),
        "eval": {"repeats": repeats},
    }


WORKLOADS = {
    w.name: w for w in (
        Workload(
            name="embed-train",
            why="one criterion-5 leg (500 items, 4k sessions): BGRL sampling, encoder, "
                "tape backward and AdamW/EMA dominate while graph and kNN pools stay small",
            generator=dict(n_items=500, n_clusters=10, n_sessions=4000,
                           min_len=3, max_len=8, noise=0.03),
            config=_config(
                embed={"dim": 32, "hidden_dim": 32, "epochs": 3, "batch_size": 128,
                       "fanouts": [10, 5], "lr": 5e-3},
                knn={"gcnext": {"enabled": True, "distance_threshold": 0.5}},
                nextitem={"epochs": 3, "lr": 1e-3, "batch_size": 1024},
                repeats=2,
            ),
        ),
        Workload(
            name="wide-catalog",
            why="4k items with 85 feature columns: co-occurrence counting, augment rebuilds, "
                "full-graph encode, expand_pool matching with position scoring, wide softmax",
            generator=dict(n_items=4000, n_clusters=80, n_sessions=9000,
                           min_len=2, max_len=5, noise=0.03),
            config=_config(
                embed={"dim": 32, "hidden_dim": 32, "epochs": 1, "batch_size": 4096,
                       "fanouts": [10, 5], "lr": 5e-3},
                knn={"k": 50, "m_sample": 250,
                     "gcnext": {"enabled": True, "distance_threshold": 0.1,
                                "session_scoring": "position", "expand_pool": True}},
                nextitem={"epochs": 1, "lr": 1e-2, "batch_size": 2048},
                fractions=(0.88, 0.06, 0.06),
            ),
            min_queries=2000,
        ),
        Workload(
            name="knn-serve",
            why="zipf catalog of 1.5k items and ~10k train sessions: log parsing and the "
                "per-query O(N) kNN work (recency scan, recency dict, matcher) dominate",
            generator=dict(n_items=1500, n_clusters=30, n_sessions=11000,
                           min_len=3, max_len=8, noise=0.05, zipf=True),
            config=_config(
                embed={"dim": 16, "hidden_dim": 16, "epochs": 1, "batch_size": 2048,
                       "fanouts": [5, 3], "lr": 5e-3},
                knn={"k": 50, "m_sample": 200,
                     "gcnext": {"enabled": True, "distance_threshold": 0.5}},
                nextitem={"epochs": 1, "lr": 1e-2, "batch_size": 2048},
                fractions=(0.95, 0.025, 0.025),
            ),
            min_queries=2000,
        ),
    )
}
