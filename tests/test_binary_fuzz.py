"""The binary readers under corrupted input: a truncated or byte-flipped
graph.bin, embeddings.bin or encoder.ntc either loads or raises DataError,
never another exception."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sessgraph import bgrl, cograph
from sessgraph import diffcore as dc
from sessgraph.encoder import SkipEncoder
from sessgraph.errors import DataError
from sessgraph.sessiondata import ItemCatalog

N_ITEMS = 6


def _write_graph(path):
    edges = [(0, 1, 1.0), (0, 3, 0.5), (1, 2, 0.25), (2, 5, 0.75), (3, 4, 0.5)]
    cograph.save_graph_binary(cograph.CoGraph.from_edges(N_ITEMS, edges, c_max=4), path)


def _write_embeddings(path):
    ids = ["a", "bb", "item-3", "d", "é", "f"]
    catalog = ItemCatalog(ids, {e: i for i, e in enumerate(ids)})
    emb = np.random.default_rng(0).normal(size=(N_ITEMS, 4))
    bgrl.save_embeddings_binary(path, emb, catalog)


def _write_checkpoint(path):
    dc.save_tensors(path, SkipEncoder(3, 4, 4, rng=np.random.default_rng(0)).state_dict())


# file name -> (writer, reader); the graph is read as the stages read it,
# against the catalog's node count
FILES = {
    "graph.bin": (_write_graph, lambda p: cograph.load_graph_binary(p, nodes=N_ITEMS)),
    "embeddings.bin": (_write_embeddings, bgrl.load_embeddings_binary),
    "encoder.ntc": (_write_checkpoint, dc.load_tensors),
}


@pytest.fixture(scope="module")
def valid_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("valid")
    out = {}
    for name, (write, read) in FILES.items():
        write(root / name)
        read(root / name)       # the unmutated file loads
        out[name] = (root / name).read_bytes()
    return out


def _mutate(data, valid: bytes) -> bytes:
    """Truncate, or xor up to four bytes with a nonzero mask; positions
    favour the header."""
    if data.draw(st.booleans(), label="truncate"):
        return valid[:data.draw(st.integers(0, len(valid) - 1), label="cut")]
    out = bytearray(valid)
    position = st.one_of(st.integers(0, min(40, len(valid) - 1)),
                         st.integers(0, len(valid) - 1))
    for _ in range(data.draw(st.integers(1, 4), label="flips")):
        out[data.draw(position, label="at")] ^= data.draw(st.integers(1, 255), label="mask")
    return bytes(out)


@pytest.mark.parametrize("name", sorted(FILES))
@settings(max_examples=300)
@given(data=st.data())
def test_mutated_binary_loads_or_raises_data_error(valid_files, tmp_path_factory, name, data):
    path = tmp_path_factory.getbasetemp() / f"mutated-{name}"
    path.write_bytes(_mutate(data, valid_files[name]))
    try:
        FILES[name][1](path)
    except DataError:
        pass
