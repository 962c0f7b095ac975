"""The preprocess stage end to end on one fixed log: pinned artifact bytes,
the row of each RowError kind, and the counts in manifest_preprocess.json.
The same log continued through build-graph, train-embed, eval-knn and
train-next pins the bytes of the two metric reports."""

import hashlib
import json

import pytest

from sessgraph import cli
from sessgraph.config import resolve_config
from sessgraph.errors import RowError

HEADER = "session_id,item_id,timestamp,cat,price"

# (session_id, item_id, timestamp, cat, price) in file order. With a gap of 100 s,
# support >= 2 and length >= 2, the log holds:
#   - gap splits: "a" runs at 0 and 500 become a#0 and a#1, while the session
#     really named "a#1" splits too, into a#1#0 and a#1#1;
#   - equal timestamps inside a session: t's three rows at 40 keep file order;
#   - equal start_ts across sessions: b, B, é, s and "s\0" all start at 60 and
#     order by str (B < b < s < s\0 < é);
#   - a filter cascade over four rounds: q occurs once, and each dropped item
#     kills a session that held the only other occurrence of the next item
#     (q -> P, r -> Q, w -> R, v -> T), while "solo" is too short from the start;
#   - non-ASCII and trailing-NUL ids ("é", "i" and "i\0" are three items);
#   - an item first seen at a later timestamp than its earliest row, and two
#     rows of x at timestamp 0, so the feature row is the earliest, then first.
ROWS = [
    ("a", "x", 0, "c1", "1.0"),
    ("a", "y", 10, "c2", "2.0"),
    ("a#1", "y", 20, "c9", "9.0"),
    ("t", "z", 40, "c3", "3.0"),
    ("a", "z", 500, "c3", "3.5"),
    ("t", "x", 40, "c9", "9.0"),
    ("a#1", "z", 30, "c3", "3.0"),
    ("t", "y", 40, "c2", "2.0"),
    ("z0", "x", 0, "c8", "8.0"),
    ("z0", "é", 5, "c4", "4.0"),
    ("a", "x", 510, "c1", "1.0"),
    ("a#1", "x", 1000, "c1", "1.0"),
    ("a#1", "y", 1010, "c2", "2.0"),
    ("b", "x", 60, "c1", "1.0"),
    ("b", "z", 61, "c3", "3.0"),
    ("B", "y", 60, "c2", "2.0"),
    ("B", "x", 62, "c1", "1.0"),
    ("é", "z", 60, "c3", "3.0"),
    ("é", "i", 65, "c5", "5.0"),
    ("s\x00", "x", 60, "c1", "1.0"),
    ("s\x00", "i\x00", 63, "c6", "6.0"),
    ("s", "i\x00", 60, "c6", "6.5"),
    ("s", "é", 64, "c4", "4.0"),
    ("P", "q", 200, "c7", "7.0"),
    ("P", "r", 201, "c7", "7.5"),
    ("Q", "r", 210, "c7", "7.5"),
    ("Q", "w", 211, "c7", "7.25"),
    ("R", "w", 220, "c7", "7.25"),
    ("R", "v", 221, "c7", "7.125"),
    ("T", "v", 230, "c7", "7.125"),
    ("T", "x", 231, "c1", "1.0"),
    ("solo", "y", 240, "c2", "2.0"),
    ("u1", "i", 300, "c5", "5.0"),
    ("u1", "é", 301, "c4", "4.0"),
    ("u2", "i\x00", 400, "c6", "6.0"),
    ("u2", "i", 401, "c5", "5.0"),
    ("u3", "x", 2000, "c1", "1.0"),
    ("u3", "y", 2001, "c2", "2.0"),
    ("u3", "é", 2002, "c4", "4.0"),
    ("u4", "z", 3000, "c3", "3.0"),
    ("u4", "x", 3001, "c1", "1.0"),
    ("u5", "y", 4000, "c2", "2.0"),
    ("u5", "i", 4001, "c5", "5.0"),
    ("u5", "q2", 4002, "c7", "7.0"),
]


def _log_text():
    """The rows as CRLF lines, with an empty line and a whitespace-only line."""
    lines = [HEADER] + [",".join(map(str, row)) for row in ROWS]
    lines.insert(5, "")
    lines.insert(12, "  \t ")
    return "\r\n".join(lines) + "\r\n"


def _config(log, **sections):
    return resolve_config({
        "dataset": {"path": str(log), "session_gap_seconds": 100,
                    "features": [{"name": "cat", "kind": "categorical"},
                                 {"name": "price", "kind": "numeric"}]},
        "preprocess": {"min_item_support": 2, "min_session_len": 2,
                       "fractions": [0.6, 0.2, 0.2]},
        **sections,
    })


def _preprocess(tmp_path, text, **sections):
    log = tmp_path / "log.csv"
    log.write_bytes(text.encode("utf-8"))
    out = tmp_path / "out"
    return cli.run_preprocess(_config(log, **sections), out), out


ARTIFACTS = ("train.sessions", "validation.sessions", "test.sessions",
             cli.CATALOG_IDS, cli.CATALOG_FEATURES)
# sha256 of the five artifacts, as the per-row implementation wrote them
GOLDEN = {
    "train.sessions": "d1c93fbff0a1f1cffa20d517bd33c78240f928ec36da6401bd3ca4546f722815",
    "validation.sessions": "2f87535b04a8a4f1573c6f3f0493501109be9925813a90d49918fda88e836eb9",
    "test.sessions": "54999bb492ba320f8b623bbc63503775a54888c8770c7bf8880aeef2642d5cad",
    "catalog.ids": "385ef11a7f25eadac73131dd57ed35e6116782799d1662da26eb4d13d56e20f6",
    "catalog.features": "233a37a2532bc1aae7e31e685f765e5a732ae4fa5699fc82c0c54c59574c39ce",
}


def test_preprocess_artifacts_are_pinned(tmp_path):
    _, out = _preprocess(tmp_path, _log_text())
    digest = {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
              for name in ARTIFACTS}
    assert digest == GOLDEN


def test_manifest_counts_the_preprocess_work(tmp_path):
    params, out = _preprocess(tmp_path, _log_text())
    manifest = json.loads((out / "manifest_preprocess.json").read_text(encoding="utf-8"))
    assert manifest["params"] == params
    assert params["interactions"] == len(ROWS)      # blank lines are not rows
    assert params["gap_splits"] == 2                # a and a#1 split in two each
    # [items_dropped, sessions_dropped]: q and q2 occur once, which leaves P
    # with one item, and solo has one from the start; then r, w and v lose
    # their support one round after another, each taking its session along
    # (Q, R, T); the last round changes nothing
    assert params["filter_rounds"] == [[2, 2], [1, 1], [1, 1], [1, 1], [0, 0]]


# sha256 of the two metric reports of the pipeline below; any change to how
# prefixes are built, indexed, recommended, trained or ranked shows here
REPORTS = {
    "report_eval-knn.tsv": "b4a34766c6332507fb29702188e77fce1ada902d25d67e1490c7e860b4b89fad",
    "report_train-next.tsv": "0a4e8a59a94d3c5cf5c80341976612457fb093052f80f866fb723d52b7c6143f",
}


def test_pipeline_reports_are_pinned(tmp_path):
    # small dims and few epochs; GCNext kNN and the pretrained next-item init
    # both read train-embed's embeddings; k 5 of 9 train sessions cuts the
    # neighbour list, and cutoffs 1 and 3 of 6 items keep the metrics apart
    _, out = _preprocess(
        tmp_path, _log_text(),
        embed={"dim": 4, "hidden_dim": 4, "epochs": 3, "batch_size": 4, "fanouts": None},
        knn={"k": 5, "m_sample": 10, "gcnext": {"enabled": True}},
        nextitem={"init_mode": "pretrained", "epochs": 3, "batch_size": 4},
        eval={"k_values": [1, 3], "repeats": 2, "master_seed": 3})
    cfg = json.loads((out / cli.RESOLVED_CONFIG).read_text(encoding="utf-8"))
    for run in (cli.run_build_graph, cli.run_train_embed, cli.run_eval_knn,
                cli.run_train_next):
        run(cfg, out)
    digest = {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
              for name in REPORTS}
    assert digest == REPORTS


# one malformed row per failure kind after a good row and a blank line, so
# at row 3, with the message the per-row implementation gave
BAD_ROWS = [
    ("a,x,1,c1", "expected 5 fields, got 4"),
    ("a,x,1,c1,1.0,extra", "expected 5 fields, got 6"),
    (" ,x,1,c1,1.0", "missing session_id"),
    ("a, ,1,c1,1.0", "missing item_id"),
    ("a,x y,1,c1,1.0", "item_id 'x y' contains whitespace"),
    ("a,x,soon,c1,1.0", "unparseable timestamp 'soon'"),
    ("a,x,-1,c1,1.0", "negative timestamp -1"),
    # the corpus files end a session id at whitespace
    ("s 9,x,1,c1,1.0", "session_id 's 9' contains whitespace"),
    # the gap split and the corpus readers take timestamps as int64
    (f"a,x,{2**70},c1,1.0", f"timestamp {2**70} outside int64"),
    (f"a,x,{2**63},c1,1.0", f"timestamp {2**63} outside int64"),
]


@pytest.mark.parametrize("bad, message", BAD_ROWS)
def test_row_error_counts_blank_lines(tmp_path, bad, message):
    text = "\r\n".join([HEADER, "a,y,0,c2,2.0", "", bad, "a,z,2,c3,3.0"]) + "\r\n"
    with pytest.raises(RowError) as exc:
        _preprocess(tmp_path, text)
    assert exc.value.row == 3
    assert str(exc.value) == f"row 3: {message}"


def test_row_error_in_a_later_block(tmp_path):
    # the log is parsed in blocks of lines; rows keep counting across them
    good = [f"u{k},x,{k},c1,1.0" for k in range(5000)]
    text = "\n".join([HEADER, *good, "", "u,x,later,c1,1.0"]) + "\n"
    with pytest.raises(RowError) as exc:
        _preprocess(tmp_path, text)
    assert exc.value.row == 5002
