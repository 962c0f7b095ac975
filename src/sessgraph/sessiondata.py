"""Interaction-log ingestion and corpus preparation.

Pipeline: load_interactions -> sessionize -> filter_corpus -> temporal_split
-> restrict_split_to_train -> encode_features / corpus_prefixes. All
functions are pure over their inputs and deterministic.

The log and the corpora travel as columns, not as one object per row:
- load_interactions parses the log in blocks of lines into an InteractionLog:
  session and item ids as integer codes, int64 timestamps, and the feature
  values of each item's earliest row;
- sessionize orders the rows with one stable lexsort and starts a run at
  each new session and at each timestamp diff beyond the gap;
- filter_corpus runs the support/length fixpoint with bincounts over masks
  of the surviving entries;
- temporal_split and restrict_split_to_train select and remap the columns
  of a SessionCorpus: ids, start times, and items in CSR form;
- corpus_prefixes cuts a corpus's (prefix, next item) samples out of its
  items as one FlatPrefixes, the form kNN evaluation and next-item training read.
Hand-made inputs may still be records (Interaction, RawSession, Session,
PrefixSample): each columnar type's from_records, of or constructor is the one
adapter that turns them into columns, and the stages call it at their boundary.

encode_features turns the catalog's raw feature rows into the graph's node
feature matrix, one labelled column per categorical value and per numeric
feature.
"""

from __future__ import annotations

import io
import re
from dataclasses import dataclass
from itertools import chain, repeat

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


@dataclass(eq=False)
class InteractionLog:
    """A parsed log in columns, one entry per data row.

    Row r has session session_ids[session[r]], item item_ids[item[r]] and
    timestamp[r] (int64); the codes number the ids in order of first
    appearance. features[c] holds the raw feature values of item c's earliest
    row: lowest timestamp, then first in the log.
    """

    session: np.ndarray
    session_ids: list[str]
    item: np.ndarray
    item_ids: list[str]
    timestamp: np.ndarray
    features: list[tuple]

    def __len__(self):
        return len(self.timestamp)

    @classmethod
    def from_records(cls, interactions) -> "InteractionLog":
        """The columns of Interaction records, as load_interactions gives them
        for the log those records would write."""
        interactions = list(interactions)
        session_index: dict[str, int] = {}
        item_index: dict[str, int] = {}
        session = _encode(session_index, [it.session_id for it in interactions])
        item = _encode(item_index, [it.item_id for it in interactions])
        timestamp = np.array([it.timestamp for it in interactions], np.int64)
        first = _earliest_rows(item, timestamp, len(item_index))
        return cls(session, list(session_index), item, list(item_index), timestamp,
                   [interactions[r].feature_values for r in first.tolist()])


class SessionCorpus:
    """Sessions in columns: session j is named ids[j], starts at start_ts[j]
    and holds items[indptr[j]:indptr[j + 1]] (int64).

    SessionCorpus(sessions) builds the columns from Session records, and the
    `sessions` property builds records back from the columns on each access.
    """

    def __init__(self, sessions=()):
        sessions = list(sessions)
        lengths = np.array([len(s.items) for s in sessions], np.int64)
        self.ids = [s.session_id for s in sessions]
        self.start_ts = np.array([s.start_ts for s in sessions], np.int64)
        self.indptr = _offsets(lengths)
        self.items = np.fromiter(chain.from_iterable(s.items for s in sessions), np.int64,
                                 int(self.indptr[-1]))

    @classmethod
    def from_columns(cls, ids: list[str], start_ts: np.ndarray, indptr: np.ndarray,
                     items: np.ndarray) -> "SessionCorpus":
        corpus = cls.__new__(cls)
        corpus.ids, corpus.start_ts, corpus.indptr, corpus.items = ids, start_ts, indptr, items
        return corpus

    @property
    def sessions(self) -> list[Session]:
        items, bounds = self.items.tolist(), self.indptr.tolist()
        return [Session(sid, tuple(items[lo:hi]), ts) for sid, lo, hi, ts
                in zip(self.ids, bounds, bounds[1:], self.start_ts.tolist())]

    def __len__(self):
        return len(self.ids)

    def owner(self) -> np.ndarray:
        """The session of each entry of items."""
        return np.repeat(np.arange(len(self)), np.diff(self.indptr))

    def take(self, rows: np.ndarray) -> "SessionCorpus":
        """The sessions at positions `rows`, in that order."""
        starts = self.indptr[rows]
        indptr, entries = _spans(starts, self.indptr[rows + 1] - starts)
        return SessionCorpus.from_columns([self.ids[j] for j in rows.tolist()],
                                          self.start_ts[rows], indptr, self.items[entries])

    def keep_items(self, keep: np.ndarray, min_len: int) -> "SessionCorpus":
        """Only the items i with keep[i], and only the sessions left with at
        least min_len of them."""
        owner = self.owner()
        kept = keep[self.items]
        lengths = np.bincount(owner[kept], minlength=len(self))
        long_enough = lengths >= min_len
        kept &= long_enough[owner]
        return SessionCorpus.from_columns(
            [self.ids[j] for j in np.flatnonzero(long_enough).tolist()],
            self.start_ts[long_enough], _offsets(lengths[long_enough]), self.items[kept])


@dataclass(eq=False)
class RawSessions:
    """sessionize's runs: a corpus whose items are codes into item_ids."""

    corpus: SessionCorpus
    item_ids: list[str]

    def __len__(self):
        return len(self.corpus)

    @classmethod
    def from_records(cls, raw_sessions) -> "RawSessions":
        """The columns of RawSession records."""
        index: dict[str, int] = {}
        corpus = SessionCorpus(
            Session(s.session_id, tuple(index.setdefault(x, len(index)) for x in s.items),
                    s.start_ts) for s in raw_sessions)
        return cls(corpus, list(index))


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
class FlatPrefixes:
    """Prefix samples as flat arrays: sample i predicts targets[i] from
    items[indptr[i]:indptr[i + 1]] (int64)."""

    indptr: np.ndarray
    items: np.ndarray
    targets: np.ndarray

    @classmethod
    def of(cls, prefixes: list[PrefixSample]) -> "FlatPrefixes":
        """The columns of PrefixSample records."""
        items = [x for p in prefixes for x in p.prefix]
        return cls(_offsets([len(p.prefix) for p in prefixes]), np.array(items, np.int64),
                   np.array([p.target for p in prefixes], np.int64))

    def __len__(self):
        return len(self.targets)

    def take(self, rows: np.ndarray) -> "FlatPrefixes":
        """The samples at positions `rows`, in that order."""
        starts = self.indptr[rows]
        indptr, entries = _spans(starts, self.indptr[rows + 1] - starts)
        return FlatPrefixes(indptr, self.items[entries], self.targets[rows])


@dataclass(frozen=True)
class DelimitedFormat:
    delimiter: str = ","


REQUIRED_COLUMNS = ("session_id", "item_id", "timestamp")
# the corpus, catalog and embedding text files end an id at whitespace
WHITESPACE = re.compile(r"\s")
# lines parsed at once: the field lists of a whole log would raise the peak memory
_BLOCK_LINES = 4096


def _offsets(lengths: np.ndarray) -> np.ndarray:
    indptr = np.zeros(len(lengths) + 1, np.int64)
    np.cumsum(lengths, out=indptr[1:])
    return indptr


def _spans(starts: np.ndarray, lengths: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(indptr, positions) of CSR rows, row r the lengths[r] positions from starts[r]."""
    indptr = _offsets(lengths)
    return indptr, np.repeat(starts - indptr[:-1], lengths) + np.arange(indptr[-1])


def str_codes(values: list[str]) -> np.ndarray:
    """Each value's rank among the distinct values in str order (Python str:
    numpy's str dtype drops trailing NULs)."""
    code = {v: k for k, v in enumerate(sorted(set(values)))}
    return np.fromiter(map(code.__getitem__, values), np.int64, len(values))


def _encode(index: dict, values: list) -> np.ndarray:
    """Codes of values, numbering new ones in `index` in order of first appearance."""
    for value in dict.fromkeys(values):
        index.setdefault(value, len(index))
    return np.fromiter(map(index.__getitem__, values), np.int64, len(values))


def _earliest_rows(item: np.ndarray, timestamp: np.ndarray, n_items: int) -> np.ndarray:
    """For each item code, its row of lowest timestamp, the first of ties."""
    order = np.lexsort((timestamp, item))    # stable: ties keep row order
    return order[np.searchsorted(item[order], np.arange(n_items))]


def _check_rows(lines: list[str], first_row: int, n_fields: int, delimiter: str) -> list[int]:
    """The positions of the non-blank lines among `lines`, data rows first_row,
    first_row + 1, ...; RowError at the first malformed row."""
    kept = []
    for pos, line in enumerate(lines):
        if not line.strip():
            continue
        row = first_row + pos
        parts = line.split(delimiter)
        if len(parts) != n_fields:
            raise RowError(row, f"expected {n_fields} fields, got {len(parts)}")
        sid, item, ts_raw = parts[0].strip(), parts[1].strip(), parts[2].strip()
        if not sid:
            raise RowError(row, "missing session_id")
        if not item:
            raise RowError(row, "missing item_id")
        for name, value in (("session_id", sid), ("item_id", item)):
            if WHITESPACE.search(value):
                raise RowError(row, f"{name} {value!r} contains whitespace")
        try:
            ts = int(ts_raw)
        except ValueError:
            raise RowError(row, f"unparseable timestamp {ts_raw!r}") from None
        if ts < 0:
            raise RowError(row, f"negative timestamp {ts}")
        if ts > np.iinfo(np.int64).max:
            raise RowError(row, f"timestamp {ts} outside int64")
        kept.append(pos)
    return kept


def _parse_lines(lines: list[str], n_fields: int, delimiter: str):
    """The session ids, item ids and int64 timestamps of `lines`, or None when
    one of them is blank or would fail a _check_rows check."""
    counts = list(map(str.count, lines, repeat(delimiter)))
    if counts.count(n_fields - 1) != len(counts):
        return None
    # lines hold no "\n", so no delimiter match spans two of them
    fields = "\n".join(lines).replace(delimiter, "\n").split("\n") if lines else []
    sids = list(map(str.strip, fields[0::n_fields]))
    items = list(map(str.strip, fields[1::n_fields]))
    if not (all(sids) and all(items)) or WHITESPACE.search("".join(sids)) \
            or WHITESPACE.search("".join(items)):
        return None
    try:
        timestamp = np.array(list(map(int, map(str.strip, fields[2::n_fields]))),
                             np.int64)
    except (ValueError, OverflowError):
        return None
    if timestamp.size and timestamp.min() < 0:
        return None
    return sids, items, timestamp


def load_interactions(source, schema: FeatureSchema,
                      fmt: DelimitedFormat = DelimitedFormat()) -> InteractionLog:
    """Parse a UTF-8 delimited log with a header row into columns.

    Expected columns: session_id, item_id, timestamp, then the schema's
    features in order. Rows with a missing session_id or item_id, an id
    containing whitespace, or a timestamp that is unparseable, negative or
    beyond int64 raise RowError carrying the 1-based data row index, in
    which blank lines count.

    Lines are parsed in blocks: each block's fields come from one split, ids
    become integer codes and timestamps one int64 array. A block in which a
    check fails is read again row by row to raise at its first bad row.
    Feature values are split only from each item's earliest row.
    """
    try:
        if isinstance(source, (bytes, bytearray)):
            text = bytes(source).decode("utf-8")
        elif isinstance(source, str):
            text = source
        elif isinstance(source, io.IOBase) or hasattr(source, "read"):
            raw = source.read()
            text = raw.decode("utf-8") if isinstance(raw, bytes) else raw
            del raw
        else:
            raise SchemaError(f"unsupported source type {type(source)!r}")
    except UnicodeDecodeError as exc:
        raise DataError(f"interaction log is not UTF-8 ({exc.reason} at byte "
                        f"{exc.start})") from None

    lines = text.splitlines()
    del text
    if not lines:
        raise SchemaError("empty input: missing header row")
    delimiter = fmt.delimiter
    header = lines[0].split(delimiter)
    expected = list(REQUIRED_COLUMNS) + schema.names
    if [h.strip() for h in header] != expected:
        raise SchemaError(f"header {header!r} does not match expected columns {expected!r}")

    n_fields = len(expected)
    session_index: dict[str, int] = {}
    item_index: dict[str, int] = {}
    rows, sessions, items, stamps = [], [], [], []
    # at least one block, an empty one for a log without data rows
    for lo in range(1, len(lines) + 1, _BLOCK_LINES):
        block = lines[lo:lo + _BLOCK_LINES]
        block_rows = np.arange(lo, lo + len(block))
        parsed = _parse_lines(block, n_fields, delimiter)
        if parsed is None:
            kept = _check_rows(block, lo, n_fields, delimiter)
            block_rows = block_rows[kept]
            parsed = _parse_lines([block[pos] for pos in kept], n_fields, delimiter)
        sids, item_ids, timestamp = parsed
        rows.append(block_rows)
        sessions.append(_encode(session_index, sids))
        items.append(_encode(item_index, item_ids))
        stamps.append(timestamp)
    item, timestamp = np.concatenate(items), np.concatenate(stamps)
    first = np.concatenate(rows)[_earliest_rows(item, timestamp, len(item_index))]
    features = [tuple(p.strip() for p in lines[r].split(delimiter)[3:]) for r in first.tolist()]
    return InteractionLog(np.concatenate(sessions), list(session_index), item,
                          list(item_index), timestamp, features)


def write_interactions(interactions, schema: FeatureSchema,
                       fmt: DelimitedFormat = DelimitedFormat()) -> str:
    """Inverse of load_interactions (used for round-trip checks and fixtures)."""
    lines = [fmt.delimiter.join(list(REQUIRED_COLUMNS) + schema.names)]
    for it in interactions:
        fields = [it.session_id, it.item_id, str(it.timestamp), *map(str, it.feature_values)]
        lines.append(fmt.delimiter.join(fields))
    return "\n".join(lines) + "\n"


def sessionize(log, gap_seconds: int | None = DEFAULTS["dataset"]["session_gap_seconds"]
               ) -> RawSessions:
    """Group by session_id, order by timestamp, and split runs at gaps.

    Consecutive interactions stay together while their gap is <= gap_seconds;
    gap_seconds=None disables splitting (logs with trusted session ids). The
    k-th run of a split session is named f"{session_id}#{k}"; if that name
    is also the id of an unsplit session, DataError is raised.

    Takes an InteractionLog, or Interaction records through
    InteractionLog.from_records. One stable lexsort orders the rows by
    (session code, timestamp), so sessions come in order of first appearance
    and equal timestamps keep log order; a run starts at each new session
    and wherever the timestamp diff exceeds gap_seconds.
    """
    if gap_seconds is not None and gap_seconds <= 0:
        raise DataError(f"gap_seconds must be positive, got {gap_seconds}")
    if not isinstance(log, InteractionLog):
        log = InteractionLog.from_records(log)
    order = np.lexsort((log.timestamp, log.session))
    session, timestamp = log.session[order], log.timestamp[order]
    starts = np.ones(len(order), bool)
    starts[1:] = session[1:] != session[:-1]
    if gap_seconds is not None:
        starts[1:] |= np.diff(timestamp) > gap_seconds
    first = np.flatnonzero(starts)
    run_session = session[first]
    runs = np.bincount(run_session, minlength=len(log.session_ids))
    k = np.arange(len(first)) - (np.cumsum(runs) - runs)[run_session]
    names = [sid if n == 1 else f"{sid}#{j}" for sid, n, j in
             zip([log.session_ids[c] for c in run_session.tolist()],
                 runs[run_session].tolist(), k.tolist())]
    if len(set(names)) != len(names):
        seen: set[str] = set()
        for name in names:
            if name in seen:
                raise DataError(f"two sessions are named {name!r} after gap splitting")
            seen.add(name)
    corpus = SessionCorpus.from_columns(names, timestamp[first],
                                        np.append(first, len(order)), log.item[order])
    return RawSessions(corpus, log.item_ids)


def collect_feature_rows(log) -> dict[str, tuple]:
    """Raw feature row per item: values of its earliest interaction. Takes
    an InteractionLog, or Interaction records through InteractionLog.from_records."""
    if not isinstance(log, InteractionLog):
        log = InteractionLog.from_records(log)
    return dict(zip(log.item_ids, log.features))


def filter_corpus(raw, min_item_support: int = _PREPROCESS["min_item_support"],
                  min_session_len: int = _PREPROCESS["min_session_len"],
                  rounds: list | None = None) -> tuple[SessionCorpus, ItemCatalog]:
    """Iterate item-support and session-length filters to a fixpoint.

    Items need >= min_item_support retained occurrences; sessions need
    >= min_session_len items. Each removal can invalidate the other filter,
    so both repeat until nothing changes. Each round is a few bincounts over
    masks of the surviving entries. When `rounds` is a list, each round
    appends [items_dropped, sessions_dropped] to it: the items that had an
    occurrence before the round and none after, and the sessions it removed.
    The last pair is the [0, 0] of the round that found the fixpoint.

    Takes sessionize's RawSessions, or RawSession records through
    RawSessions.from_records. The catalog holds the surviving items in
    sorted str order.
    """
    if not isinstance(raw, RawSessions):
        raw = RawSessions.from_records(raw)
    if not len(raw):
        raise EmptyCorpusError("no sessions to filter")
    corpus, n_items = raw.corpus, len(raw.item_ids)
    items, owner = corpus.items, corpus.owner()
    support = np.bincount(items, minlength=n_items)
    entries = np.ones(len(items), bool)
    alive = np.ones(len(corpus), bool)
    while True:
        kept = entries & (support >= min_item_support)[items]
        lengths = np.bincount(owner[kept], minlength=len(corpus))
        survive = alive & (lengths >= min_session_len)
        kept &= survive[owner]
        after = np.bincount(items[kept], minlength=n_items)
        dropped = [int(np.count_nonzero((support > 0) & (after == 0))),
                   int(np.count_nonzero(alive & ~survive))]
        if rounds is not None:
            rounds.append(dropped)
        support, entries, alive = after, kept, survive
        if dropped == [0, 0]:
            break
    if not alive.any():
        raise EmptyCorpusError(
            f"filtering (support>={min_item_support}, len>={min_session_len}) removed all sessions"
        )
    codes = np.flatnonzero(support)
    ids = [raw.item_ids[c] for c in codes.tolist()]
    catalog = ItemCatalog.from_ids(ids)
    remap = np.full(n_items, -1, np.int64)
    remap[codes] = [catalog.index_of[ext] for ext in ids]
    filtered = SessionCorpus.from_columns(
        [corpus.ids[j] for j in np.flatnonzero(alive).tolist()], corpus.start_ts[alive],
        _offsets(np.bincount(owner[entries], minlength=len(corpus))[alive]),
        remap[items[entries]])
    return filtered, catalog


def temporal_split(corpus: SessionCorpus,
                   fractions: tuple[float, float, float] = tuple(_PREPROCESS["fractions"])
                   ) -> CorpusSplit:
    """Sort sessions by (start timestamp, session id) and cut by `fractions`.

    Session ids compare in str order. Validation/test items that never occur
    in a train session are dropped in place; validation/test sessions left
    with fewer than two items are removed (they cannot produce an evaluation
    query).
    """
    n = len(corpus)
    if n < 3:
        raise SplitError(f"need at least 3 sessions to split, got {n}")
    if abs(sum(fractions) - 1.0) > 1e-9:
        raise SplitError(f"fractions must sum to 1, got {fractions}")
    ordered = np.lexsort((str_codes(corpus.ids), corpus.start_ts))
    n_train = int(fractions[0] * n)
    n_val = int(fractions[1] * n)
    train = corpus.take(ordered[:n_train])
    in_train = np.zeros(int(corpus.items.max(initial=-1)) + 1, bool)
    in_train[train.items] = True

    def _restrict(rows):
        return corpus.take(rows).keep_items(in_train, MIN_QUERY_SESSION_LEN)

    return CorpusSplit(train, _restrict(ordered[n_train:n_train + n_val]),
                       _restrict(ordered[n_train + n_val:]),
                       (n_train, n_val, n - n_train - n_val))


def restrict_split_to_train(split: CorpusSplit, catalog: ItemCatalog) -> tuple[CorpusSplit, ItemCatalog]:
    """Rebuild the catalog over items that occur in train and remap indices.

    After this, catalog size m equals the number of train items and the
    graph built from train covers every catalog row.
    """
    train_items = np.unique(split.train.items).tolist()
    kept_ext = sorted(catalog.external_ids[i] for i in train_items)
    new_catalog = ItemCatalog(kept_ext, {ext: i for i, ext in enumerate(kept_ext)})
    remap = np.full(len(catalog), -1, np.int64)
    remap[train_items] = [new_catalog.index_of[catalog.external_ids[i]] for i in train_items]

    def _remap(corpus: SessionCorpus) -> SessionCorpus:
        return SessionCorpus.from_columns(corpus.ids, corpus.start_ts, corpus.indptr,
                                          remap[corpus.items])

    new_split = CorpusSplit(_remap(split.train), _remap(split.validation),
                            _remap(split.test), split.assigned_counts)
    return new_split, new_catalog


def generate_prefixes(session: Session, max_len: int = _PREPROCESS["max_prefix_len"]
                      ) -> list[PrefixSample]:
    """Expand a session into (prefix, next item) pairs, keeping the most
    recent max_len items of each prefix."""
    items = session.items
    return [PrefixSample(tuple(items[max(0, g - max_len):g]), items[g])
            for g in range(1, len(items))]


def corpus_prefixes(corpus: SessionCorpus, max_len: int = _PREPROCESS["max_prefix_len"]
                    ) -> FlatPrefixes:
    """generate_prefixes of every session, in corpus order, as one
    FlatPrefixes: each entry after the first of its session is a target,
    and its prefix is the at most max_len entries before it in the session."""
    start = corpus.indptr[corpus.owner()]
    targets = np.flatnonzero(np.arange(len(start)) != start)
    lo = np.maximum(start[targets], targets - max_len)
    indptr, entries = _spans(lo, targets - lo)
    return FlatPrefixes(indptr, corpus.items[entries], corpus.items[targets])


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
            distinct = sorted(set(values))
            block = np.zeros((n, len(distinct)))
            block[np.arange(n), str_codes(values)] = 1.0
            labels += [f"{name}={v}" for v in distinct]
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
