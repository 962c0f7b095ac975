"""Computations made apart from sessgraph, against which the benchmark checks it.

Every reader here parses the artifact formats itself, and the recommender is
written straight from the SKNN / GCNext formulas:

    pool(q)   = the m_sample most recent train sessions sharing an item with q
                (GCNext with expand_pool: sharing an embedding match)
    sim(q, s) = #{(x, y) in q x s : match(x, y)} / sqrt(|q| |s|)
                match(x, y) = [x == y] for SKNN, cos_dist(e_x, e_y) <= tau for GCNext
    w(q, s)   = p / |q| for the latest query position p matched in s when
                position weighting is on, else 1
    score(i)  = sum over the k most similar sessions s containing i of sim * w

Ties rank newer sessions and then lower item indices first. Item scores sum
over neighbours in rank order.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

MATCH_SLACK = 1e-12


# ---------------------------------------------------------------------------
# artifact readers
# ---------------------------------------------------------------------------

@dataclass
class Sessions:
    ids: list[str]
    items: list[tuple[int, ...]]
    start_ts: list[int]


def read_sessions(path: Path) -> Sessions:
    ids, items, ts = [], [], []
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        parts = line.split()
        ids.append(parts[0])
        items.append(tuple(int(x) for x in parts[1:-1]))
        ts.append(int(parts[-1]))
    return Sessions(ids, items, ts)


def read_catalog_ids(path: Path) -> list[str]:
    return [line.split(maxsplit=1)[1]
            for line in Path(path).read_text(encoding="utf-8").splitlines()]


def read_graph_text(path: Path):
    """(n, c_max, i, j, w) from the text form."""
    with open(path, encoding="utf-8") as fh:
        n, m, c_max = (int(t) for t in fh.readline().split())
        rows = [line.split() for line in fh]
    if len(rows) != m:
        raise ValueError(f"graph.txt: header says {m} edges, found {len(rows)}")
    i = np.array([int(r[0]) for r in rows], dtype=np.int64)
    j = np.array([int(r[1]) for r in rows], dtype=np.int64)
    w = np.array([float(r[2]) for r in rows], dtype=np.float64)
    return n, c_max, i, j, w


def read_graph_binary(path: Path):
    """(n, c_max, i, j, w) from the binary form: 'COG1', u64 n, m, c_max,
    then m records of u64 i, u64 j, f64 w, all little-endian."""
    data = Path(path).read_bytes()
    if data[:4] != b"COG1":
        raise ValueError("graph.bin: bad magic")
    n, m, c_max = struct.unpack_from("<QQQ", data, 4)
    rec = np.frombuffer(data, dtype=[("i", "<u8"), ("j", "<u8"), ("w", "<f8")],
                        count=m, offset=28)
    if 28 + 24 * m != len(data):
        raise ValueError("graph.bin: length does not match the header")
    return (int(n), int(c_max), rec["i"].astype(np.int64), rec["j"].astype(np.int64),
            rec["w"].astype(np.float64))


def read_embeddings_binary(path: Path) -> tuple[np.ndarray, list[str]]:
    """'EMB1', u64 m, u64 d, then per row u16 id length, id bytes, d f64."""
    data = Path(path).read_bytes()
    if data[:4] != b"EMB1":
        raise ValueError("embeddings.bin: bad magic")
    m, d = struct.unpack_from("<QQ", data, 4)
    off = 20
    ids, rows = [], []
    for _ in range(m):
        (ln,) = struct.unpack_from("<H", data, off)
        ids.append(data[off + 2:off + 2 + ln].decode("utf-8"))
        off += 2 + ln
        rows.append(np.frombuffer(data, dtype="<f8", count=d, offset=off))
        off += 8 * d
    if off != len(data):
        raise ValueError("embeddings.bin: trailing bytes")
    return np.array(rows, dtype=np.float64).reshape(m, d), ids


def read_report(path: Path) -> dict[str, dict[str, float]]:
    """metric -> {run index or 'mean': value} from report_<stage>.tsv."""
    out: dict[str, dict[str, float]] = {}
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    for line in lines[1:]:
        name, run, value = line.split("\t")
        out.setdefault(name, {})[run] = float(value)
    return out


# ---------------------------------------------------------------------------
# protocol pieces
# ---------------------------------------------------------------------------

def prefixes(sessions: Sessions, cap: int) -> tuple[list[tuple[int, ...]], list[int]]:
    """(prefix, next item) for every position t >= 2, keeping the most recent
    cap items of each prefix."""
    qs, targets = [], []
    for items in sessions.items:
        for t in range(1, len(items)):
            qs.append(tuple(items[max(0, t - cap):t]))
            targets.append(items[t])
    return qs, targets


def hr_mrr(lists, targets, k: int) -> tuple[float, float]:
    hits, rr = 0, 0.0
    for ranked, target in zip(lists, targets):
        top = [item for item, _ in ranked[:k]]
        if target in top:
            hits += 1
            rr += 1.0 / (top.index(target) + 1)
    return hits / len(targets), rr / len(targets)


def chance_mrr(m: int, k: int) -> float:
    """MRR@k of a uniformly random ranking of m items."""
    return sum(1.0 / r for r in range(1, k + 1)) / m


def pair_counts(sessions: Sessions, m: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(i, j, count) with i < j: sessions containing both items, in numpy."""
    by_len: dict[int, list[list[int]]] = {}
    for items in sessions.items:
        distinct = sorted(set(items))
        if len(distinct) >= 2:
            by_len.setdefault(len(distinct), []).append(distinct)
    keys = []
    for length, rows in by_len.items():
        arr = np.array(rows, dtype=np.int64)
        a, b = np.triu_indices(length, 1)
        keys.append((arr[:, a] * m + arr[:, b]).ravel())
    uniq, counts = np.unique(np.concatenate(keys), return_counts=True)
    return uniq // m, uniq % m, counts


def cluster_cosines(unit: np.ndarray, cluster: np.ndarray) -> tuple[float, float]:
    """Mean cosine over distinct same-cluster pairs and over cross-cluster pairs."""
    m = unit.shape[0]
    sums = np.zeros((cluster.max() + 1, unit.shape[1]))
    np.add.at(sums, cluster, unit)
    sizes = np.bincount(cluster)
    same_all = float(np.sum(sums * sums))
    total = float(np.sum(unit.sum(axis=0) ** 2))
    same_pairs = float(np.sum(sizes * (sizes - 1)))
    cross_pairs = float(m * m - np.sum(sizes * sizes))
    return (same_all - m) / same_pairs, (total - same_all) / cross_pairs


# ---------------------------------------------------------------------------
# brute-force SKNN / GCNext
# ---------------------------------------------------------------------------

class BruteForceKnn:
    def __init__(self, train: Sessions, m: int, unit: np.ndarray | None, knn: dict):
        self.sets = [sorted(set(s)) for s in train.items]
        self.flat = np.array([i for s in self.sets for i in s], dtype=np.int64)
        self.starts = np.cumsum([0] + [len(s) for s in self.sets[:-1]])
        self.sizes = np.array([len(s) for s in self.sets])
        newest_first = sorted(range(len(self.sets)),
                              key=lambda p: (train.start_ts[p], train.ids[p]), reverse=True)
        self.rank = np.empty(len(self.sets), dtype=np.int64)
        self.rank[newest_first] = np.arange(len(self.sets))
        self.newest_first = newest_first
        self.m = m
        self.unit = unit
        self.knn = knn
        gc = knn["gcnext"]
        self.gcnext = gc["enabled"]
        self.position = knn["base_mode"] == "v-sknn" or (
            self.gcnext and gc["session_scoring"] == "position")

    def _match_row(self, x: int) -> np.ndarray:
        """Boolean mask over the catalog of the items x matches."""
        if self.gcnext:
            tau = self.knn["gcnext"]["distance_threshold"]
            return (1.0 - self.unit @ self.unit[x]) <= tau + MATCH_SLACK
        row = np.zeros(self.m, dtype=bool)
        row[x] = True
        return row

    def recommend(self, query: tuple[int, ...]) -> list[tuple[int, float]]:
        knn = self.knn
        q_set = sorted(set(query))
        rows = {x: self._match_row(x) for x in q_set}
        matched_by = np.sum([rows[x] for x in q_set], axis=0)          # per catalog item
        pairs = np.add.reduceat(matched_by[self.flat], self.starts)     # per session
        exact = np.zeros(self.m, dtype=bool)
        exact[q_set] = True
        shares = np.add.reduceat(exact[self.flat].astype(np.int64), self.starts) > 0
        if self.gcnext and knn["gcnext"]["expand_pool"]:
            shares |= pairs > 0
        pool = [p for p in self.newest_first if shares[p]][:knn["m_sample"]]

        scored = []
        for p in pool:
            if pairs[p] > 0:
                scored.append((int(pairs[p]) / math.sqrt(len(q_set) * int(self.sizes[p])), p))
        scored.sort(key=lambda t: (-t[0], self.rank[t[1]]))
        neighbours = scored[:knn["k"]]

        scores: dict[int, float] = {}
        for sim, p in neighbours:
            items = self.sets[p]
            w = 1.0
            if self.position:
                w = 0.0
                for pos in range(len(query), 0, -1):
                    if rows[query[pos - 1]][items].any():
                        w = pos / len(query)
                        break
            if sim * w == 0.0:
                continue
            for item in items:
                scores[item] = scores.get(item, 0.0) + sim * w
        if knn["exclude_input_items"]:
            for item in q_set:
                scores.pop(item, None)
        ranked = sorted(scores.items(), key=lambda kv: (-kv[1], kv[0]))
        return ranked[:knn["k_rec"]]
