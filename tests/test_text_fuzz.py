"""The text readers under corrupted input: a truncated, byte-flipped or
stuttered corpus file, catalog.ids, catalog.features or interaction log either
loads (the log: preprocesses) or raises DataError, never another exception."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sessgraph import cli, knnrec
from sessgraph.config import resolve_config
from sessgraph.errors import DataError
from sessgraph.sessiondata import ItemCatalog, Session, SessionCorpus

IDS = ["a", "bb", "item-3", "d", "é", "f"]


def _write_valid(root):
    catalog = ItemCatalog(IDS, {e: i for i, e in enumerate(IDS)})
    cli.save_catalog(root, catalog, np.random.default_rng(0).normal(size=(len(IDS), 3)))
    sessions = [Session("s1", (0, 3, 1), 1700000000), Session("s2", (5, 5, 2, 4), 1700000460),
                Session("u#1", (1, 2), 1700009999)]
    for name in cli.SESSIONS_FILES.values():
        cli.save_corpus(root / name, SessionCorpus(sessions))


# file name -> reader of the directory holding it; corpora are read as the
# stages read them, by load_split against the catalog's item count
FILES = {
    "train.sessions": cli.load_split,
    cli.CATALOG_IDS: cli.load_catalog,
    cli.CATALOG_FEATURES: cli.load_catalog,
}


@pytest.fixture(scope="module")
def valid_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("valid")
    _write_valid(root)
    for read in FILES.values():
        read(root)              # the unmutated files load
    return root


def _mutate(data, valid: bytes) -> bytes:
    """Truncate, xor up to four bytes with a nonzero mask, or repeat one byte
    up to 24 times in place (which makes numbers wider than 64 bits)."""
    kind = data.draw(st.sampled_from(["truncate", "flip", "stutter"]), label="kind")
    if kind == "truncate":
        return valid[:data.draw(st.integers(0, len(valid) - 1), label="cut")]
    if kind == "stutter":
        at = data.draw(st.integers(0, len(valid) - 1), label="at")
        return valid[:at] + valid[at:at + 1] * data.draw(st.integers(2, 24), label="times") \
            + valid[at + 1:]
    out = bytearray(valid)
    for _ in range(data.draw(st.integers(1, 4), label="flips")):
        out[data.draw(st.integers(0, len(valid) - 1), label="at")] ^= \
            data.draw(st.integers(1, 255), label="mask")
    return bytes(out)


@pytest.mark.parametrize("name", sorted(FILES))
@settings(max_examples=300)
@given(data=st.data())
def test_mutated_text_loads_or_raises_data_error(valid_dir, tmp_path_factory, name, data):
    root = tmp_path_factory.getbasetemp() / f"mutated-{name}"
    root.mkdir(exist_ok=True)
    for path in valid_dir.iterdir():
        (root / path.name).write_bytes(path.read_bytes())
    (root / name).write_bytes(_mutate(data, (valid_dir / name).read_bytes()))
    try:
        FILES[name](root)
    except DataError:
        pass


LOG_FEATURES = [{"name": "kind", "kind": "categorical"}, {"name": "price", "kind": "numeric"}]
KINDS = ["books", "é", "10", "9"]


def _preprocess(log):
    cfg = resolve_config({"dataset": {"path": str(log), "features": LOG_FEATURES},
                          "preprocess": {"min_item_support": 1}})
    return cli.run_preprocess(cfg, log.parent / "out")


@pytest.fixture(scope="module")
def valid_log(tmp_path_factory):
    lines = ["session_id,item_id,timestamp,kind,price"]
    for s in range(8):
        for k in range(3):
            i = (s + 2 * k) % len(IDS)
            ts = 1700000000 + 3600 * s + 60 * k
            lines.append(f"u{s},{IDS[i]},{ts},{KINDS[i % len(KINDS)]},{i * 1.5}")
    log = tmp_path_factory.mktemp("log") / "log.csv"
    log.write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert _preprocess(log)["feature_width"] == len(KINDS) + 1   # the unmutated log preprocesses
    return log.read_bytes()


@settings(max_examples=300)
@given(data=st.data())
def test_mutated_log_preprocesses_or_raises_data_error(valid_log, tmp_path_factory, data):
    root = tmp_path_factory.getbasetemp() / "mutated-log"
    root.mkdir(exist_ok=True)
    (root / "log.csv").write_bytes(_mutate(data, valid_log))
    try:
        _preprocess(root / "log.csv")
    except DataError:
        pass


@pytest.mark.parametrize("line", [
    "s1 0 33333333333333333333 1 1700000000",    # the fuzzer's shrunk example
    "s1 0 3 1 17000000000000000000",
    "s1 0 -9223372036854775809 1 1700000000",
])
def test_corpus_number_outside_int64_is_data_error(valid_dir, tmp_path, line):
    """load_split and knnrec.index_sessions turn items and timestamps into
    int64 arrays; a wider number raised OverflowError there."""
    for path in valid_dir.iterdir():
        (tmp_path / path.name).write_bytes(path.read_bytes())
    (tmp_path / "train.sessions").write_text(f"s0 1 2 10\n{line}\n", encoding="utf-8")
    with pytest.raises(DataError, match=r"train\.sessions:2: item or timestamp outside int64"):
        knnrec.index_sessions(cli.load_split(tmp_path).train)
