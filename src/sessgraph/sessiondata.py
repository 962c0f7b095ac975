"""Interaction-log ingestion and corpus preparation.

Pipeline: load_interactions -> sessionize -> filter_corpus -> temporal_split
-> restrict_split_to_train -> encode_features / generate_prefixes. All
functions are pure over their inputs and deterministic. encode_features turns
the catalog's raw feature rows into the graph's node feature matrix, one
labelled column per categorical value and per numeric feature.
"""

from __future__ import annotations

import io
import re
from dataclasses import dataclass, replace

import numpy as np

from .config import DEFAULTS
from .errors import (
    DataError,
    EmptyCorpusError,
    RowError,
    SchemaError,
    SplitError,
)

CATEGORICAL = "categorical"
NUMERIC = "numeric"

_PREPROCESS = DEFAULTS["preprocess"]
# a query needs a prefix item and a target, so validation and test sessions
# shorter than this give none; independent of preprocess.min_session_len
MIN_QUERY_SESSION_LEN = 2


@dataclass(frozen=True)
class FeatureSchema:
    """Ordered feature declarations: (name, kind) with kind categorical|numeric."""

    features: tuple[tuple[str, str], ...]

    def __post_init__(self):
        names = [n for n, _ in self.features]
        if len(set(names)) != len(names):
            raise SchemaError(f"duplicate feature names in schema: {names}")
        for name, kind in self.features:
            if kind not in (CATEGORICAL, NUMERIC):
                raise SchemaError(f"feature {name!r}: unknown kind {kind!r}")

    @property
    def names(self):
        return [n for n, _ in self.features]

    def __len__(self):
        return len(self.features)


@dataclass(frozen=True)
class Interaction:
    session_id: str
    item_id: str
    timestamp: int
    feature_values: tuple


@dataclass(frozen=True)
class RawSession:
    """One gap-split run of interactions: item external ids in time order."""

    session_id: str
    items: tuple[str, ...]
    start_ts: int


@dataclass(frozen=True)
class Session:
    session_id: str
    items: tuple[int, ...]
    start_ts: int

    def __len__(self):
        return len(self.items)


@dataclass
class ItemCatalog:
    """Dense index <-> external id bijection."""

    external_ids: list[str]
    index_of: dict[str, int]

    @classmethod
    def from_ids(cls, ids) -> "ItemCatalog":
        ordered = sorted(ids)
        return cls(ordered, {ext: i for i, ext in enumerate(ordered)})

    def __len__(self):
        return len(self.external_ids)


@dataclass
class SessionCorpus:
    sessions: list[Session]

    def __len__(self):
        return len(self.sessions)


@dataclass
class CorpusSplit:
    train: SessionCorpus
    validation: SessionCorpus
    test: SessionCorpus
    assigned_counts: tuple[int, int, int] = (0, 0, 0)


@dataclass(frozen=True)
class PrefixSample:
    prefix: tuple[int, ...]
    target: int


@dataclass(frozen=True)
class DelimitedFormat:
    delimiter: str = ","


REQUIRED_COLUMNS = ("session_id", "item_id", "timestamp")
# the corpus, catalog and embedding text files end an id at whitespace
_WHITESPACE = re.compile(r"\s")


def load_interactions(source, schema: FeatureSchema,
                      fmt: DelimitedFormat = DelimitedFormat()) -> list[Interaction]:
    """Parse a UTF-8 delimited log with a header row.

    Expected columns: session_id, item_id, timestamp, then the schema's
    features in order. Rows with a missing session_id, a missing item_id,
    an item_id containing whitespace, or an unparseable or negative
    timestamp raise RowError carrying the 1-based data row index.
    """
    try:
        if isinstance(source, (bytes, bytearray)):
            text = bytes(source).decode("utf-8")
        elif isinstance(source, str):
            text = source
        elif isinstance(source, io.IOBase) or hasattr(source, "read"):
            raw = source.read()
            text = raw.decode("utf-8") if isinstance(raw, bytes) else raw
        else:
            raise SchemaError(f"unsupported source type {type(source)!r}")
    except UnicodeDecodeError as exc:
        raise DataError(f"interaction log is not UTF-8 ({exc.reason} at byte "
                        f"{exc.start})") from None

    lines = text.splitlines()
    if not lines:
        raise SchemaError("empty input: missing header row")
    header = lines[0].split(fmt.delimiter)
    expected = list(REQUIRED_COLUMNS) + schema.names
    if [h.strip() for h in header] != expected:
        raise SchemaError(f"header {header!r} does not match expected columns {expected!r}")

    interactions = []
    n_fields = len(expected)
    for row_idx, line in enumerate(lines[1:], start=1):
        if not line.strip():
            continue
        parts = line.split(fmt.delimiter)
        if len(parts) != n_fields:
            raise RowError(row_idx, f"expected {n_fields} fields, got {len(parts)}")
        sid, item, ts_raw = parts[0].strip(), parts[1].strip(), parts[2].strip()
        if not sid:
            raise RowError(row_idx, "missing session_id")
        if not item:
            raise RowError(row_idx, "missing item_id")
        if _WHITESPACE.search(item):
            raise RowError(row_idx, f"item_id {item!r} contains whitespace")
        try:
            ts = int(ts_raw)
        except ValueError:
            raise RowError(row_idx, f"unparseable timestamp {ts_raw!r}") from None
        if ts < 0:
            raise RowError(row_idx, f"negative timestamp {ts}")
        interactions.append(Interaction(sid, item, ts, tuple(p.strip() for p in parts[3:])))
    return interactions


def write_interactions(interactions, schema: FeatureSchema,
                       fmt: DelimitedFormat = DelimitedFormat()) -> str:
    """Inverse of load_interactions (used for round-trip checks and fixtures)."""
    lines = [fmt.delimiter.join(list(REQUIRED_COLUMNS) + schema.names)]
    for it in interactions:
        fields = [it.session_id, it.item_id, str(it.timestamp), *map(str, it.feature_values)]
        lines.append(fmt.delimiter.join(fields))
    return "\n".join(lines) + "\n"


def sessionize(interactions, gap_seconds: int | None = DEFAULTS["dataset"]["session_gap_seconds"]
               ) -> list[RawSession]:
    """Group by session_id, order by timestamp, and split runs at gaps.

    Consecutive interactions stay together while their gap is <= gap_seconds;
    gap_seconds=None disables splitting (logs with trusted session ids). The
    k-th run of a split session is named f"{session_id}#{k}"; if that name
    is also the id of an unsplit session, DataError is raised.
    """
    if gap_seconds is not None and gap_seconds <= 0:
        raise DataError(f"gap_seconds must be positive, got {gap_seconds}")
    by_sid: dict[str, list[Interaction]] = {}
    order: list[str] = []
    for it in interactions:
        if it.session_id not in by_sid:
            by_sid[it.session_id] = []
            order.append(it.session_id)
        by_sid[it.session_id].append(it)

    sessions = []
    names: set[str] = set()
    for sid in order:
        group = sorted(by_sid[sid], key=lambda it: it.timestamp)
        runs: list[list[Interaction]] = [[group[0]]]
        if gap_seconds is not None:
            for prev, cur in zip(group, group[1:]):
                if cur.timestamp - prev.timestamp > gap_seconds:
                    runs.append([cur])
                else:
                    runs[-1].append(cur)
        else:
            runs[0].extend(group[1:])
        for k, run in enumerate(runs):
            run_id = sid if len(runs) == 1 else f"{sid}#{k}"
            if run_id in names:
                raise DataError(f"two sessions are named {run_id!r} after gap splitting")
            names.add(run_id)
            sessions.append(RawSession(run_id, tuple(it.item_id for it in run),
                                       run[0].timestamp))
    return sessions


def collect_feature_rows(interactions) -> dict[str, tuple]:
    """Raw feature row per item: values of its earliest interaction."""
    best: dict[str, tuple[int, tuple]] = {}
    for pos, it in enumerate(interactions):
        key = (it.timestamp, pos)
        if it.item_id not in best or key < best[it.item_id][0]:
            best[it.item_id] = (key, it.feature_values)
    return {item: vals for item, (_, vals) in best.items()}


def filter_corpus(raw_sessions, min_item_support: int = _PREPROCESS["min_item_support"],
                  min_session_len: int = _PREPROCESS["min_session_len"]
                  ) -> tuple[SessionCorpus, ItemCatalog]:
    """Iterate item-support and session-length filters to a fixpoint.

    Items need >= min_item_support retained occurrences; sessions need
    >= min_session_len items. Each removal can invalidate the other filter,
    so both repeat until nothing changes.
    """
    if not raw_sessions:
        raise EmptyCorpusError("no sessions to filter")
    survivors = [(s, list(s.items)) for s in raw_sessions]
    while True:
        counts: dict[str, int] = {}
        for _, items in survivors:
            for it in items:
                counts[it] = counts.get(it, 0) + 1
        keep_items = {it for it, c in counts.items() if c >= min_item_support}
        nxt = []
        changed = False
        for raw, items in survivors:
            kept = [it for it in items if it in keep_items]
            if len(kept) != len(items):
                changed = True
            if len(kept) >= min_session_len:
                nxt.append((raw, kept))
            else:
                changed = True
        survivors = nxt
        if not changed:
            break
    if not survivors:
        raise EmptyCorpusError(
            f"filtering (support>={min_item_support}, len>={min_session_len}) removed all sessions"
        )
    catalog = ItemCatalog.from_ids({it for _, items in survivors for it in items})
    sessions = [
        Session(raw.session_id, tuple(catalog.index_of[it] for it in items), raw.start_ts)
        for raw, items in survivors
    ]
    return SessionCorpus(sessions), catalog


def temporal_split(corpus: SessionCorpus,
                   fractions: tuple[float, float, float] = tuple(_PREPROCESS["fractions"])
                   ) -> CorpusSplit:
    """Sort sessions by (start timestamp, session id) and cut by `fractions`.

    Validation/test items that never occur in a train session are dropped in
    place; validation/test sessions left with fewer than two items are
    removed (they cannot produce an evaluation query).
    """
    n = len(corpus)
    if n < 3:
        raise SplitError(f"need at least 3 sessions to split, got {n}")
    if abs(sum(fractions) - 1.0) > 1e-9:
        raise SplitError(f"fractions must sum to 1, got {fractions}")
    ordered = sorted(corpus.sessions, key=lambda s: (s.start_ts, s.session_id))
    n_train = int(fractions[0] * n)
    n_val = int(fractions[1] * n)
    train = ordered[:n_train]
    val = ordered[n_train:n_train + n_val]
    test = ordered[n_train + n_val:]
    assigned = (len(train), len(val), len(test))

    train_items = {it for s in train for it in s.items}

    def _restrict(sessions):
        out = []
        for s in sessions:
            kept = tuple(it for it in s.items if it in train_items)
            if len(kept) >= MIN_QUERY_SESSION_LEN:
                out.append(replace(s, items=kept))
        return out

    return CorpusSplit(SessionCorpus(train), SessionCorpus(_restrict(val)),
                       SessionCorpus(_restrict(test)), assigned)


def restrict_split_to_train(split: CorpusSplit, catalog: ItemCatalog) -> tuple[CorpusSplit, ItemCatalog]:
    """Rebuild the catalog over items that occur in train and remap indices.

    After this, catalog size m equals the number of train items and the
    graph built from train covers every catalog row.
    """
    train_items = {it for s in split.train.sessions for it in s.items}
    kept_ext = sorted(catalog.external_ids[i] for i in train_items)
    new_catalog = ItemCatalog(kept_ext, {ext: i for i, ext in enumerate(kept_ext)})
    remap = {old: new_catalog.index_of[catalog.external_ids[old]] for old in train_items}

    def _remap(corpus: SessionCorpus) -> SessionCorpus:
        return SessionCorpus([
            replace(s, items=tuple(remap[it] for it in s.items)) for s in corpus.sessions
        ])

    new_split = CorpusSplit(_remap(split.train), _remap(split.validation),
                            _remap(split.test), split.assigned_counts)
    return new_split, new_catalog


def generate_prefixes(session: Session, max_len: int = _PREPROCESS["max_prefix_len"]
                      ) -> list[PrefixSample]:
    """Expand a session into (prefix, next item) pairs, keeping the most
    recent max_len items of each prefix."""
    items = session.items
    out = []
    for t in range(2, len(items) + 1):
        lo = max(0, (t - 1) - max_len)
        out.append(PrefixSample(tuple(items[lo:t - 1]), items[t - 1]))
    return out


def corpus_prefixes(corpus: SessionCorpus, max_len: int = _PREPROCESS["max_prefix_len"]
                    ) -> list[PrefixSample]:
    samples = []
    for s in corpus.sessions:
        samples.extend(generate_prefixes(s, max_len))
    return samples


def _parse_numeric(name: str, value) -> float:
    try:
        v = float(value)
    except (TypeError, ValueError):
        raise DataError(f"feature {name!r}: unparseable numeric value {value!r}") from None
    if not np.isfinite(v):
        raise DataError(f"feature {name!r}: non-finite value {value!r}")
    return v


def encode_features(raw_rows: dict[str, tuple], schema: FeatureSchema,
                    catalog: ItemCatalog) -> tuple[np.ndarray, tuple[str, ...]]:
    """Encode the catalog's raw feature rows into the matrix X, one row per
    catalog item, and return it with its column labels.

    A categorical feature becomes a one-hot block over the values its catalog
    rows take, in sorted str order, one column "name=value" each. A numeric
    feature becomes one column "name", standardized by the catalog mean and
    population std; a zero-variance feature gives an all-zero column.
    """
    missing = [ext for ext in catalog.external_ids if ext not in raw_rows]
    if missing:
        raise DataError(f"no raw feature row for items: {missing[:5]}")
    rows = [raw_rows[ext] for ext in catalog.external_ids]
    for row in rows:
        if len(row) != len(schema):
            raise SchemaError(f"feature row has {len(row)} values, schema has {len(schema)}")
    n = len(rows)
    blocks, labels = [np.zeros((n, 0))], []
    for j, (name, kind) in enumerate(schema.features):
        if kind == CATEGORICAL:
            values = [str(row[j]) for row in rows]
            # a dict, not np.unique: numpy's str dtype drops trailing NULs
            code = {v: k for k, v in enumerate(sorted(set(values)))}
            block = np.zeros((n, len(code)))
            block[np.arange(n), [code[v] for v in values]] = 1.0
            labels += [f"{name}={v}" for v in code]
        else:
            vals = np.array([_parse_numeric(name, row[j]) for row in rows])
            mu, sd = float(vals.mean()), float(vals.std())
            block = ((vals - mu) / sd if sd > 0 else np.zeros(n))[:, None]
            labels.append(name)
        blocks.append(block)
    X = np.hstack(blocks)
    if not np.all(np.isfinite(X)):
        raise DataError("encoded feature matrix contains non-finite values")
    return X, tuple(labels)
