"""config.DEFAULTS is the one home of the protocol values: the code reads
every leaf, and every library default is the DEFAULTS value."""

import ast
import inspect
from dataclasses import fields
from pathlib import Path

import sessgraph
from sessgraph import bgrl, encoder, evalkit, knnrec, nextitem
from sessgraph import sessiondata as sd
from sessgraph.config import DEFAULTS


def _leaves(node, path=()):
    for key, value in node.items():
        if isinstance(value, dict) and value:
            yield from _leaves(value, path + (key,))
        else:
            yield path + (key,)


def test_every_config_leaf_is_read():
    """A leaf whose key no module subscripts is a knob that changes nothing
    but the config hash."""
    read = set()
    for path in Path(sessgraph.__file__).parent.glob("*.py"):
        if path.name == "config.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Subscript) and isinstance(node.slice, ast.Constant):
                read.add(node.slice.value)
    assert [".".join(leaf) for leaf in _leaves(DEFAULTS) if leaf[-1] not in read] == []


def _param(fn, name):
    return inspect.signature(fn).parameters[name].default


def _field(cls, name):
    return next(f.default for f in fields(cls) if f.name == name)


def test_library_defaults_equal_config_defaults():
    view1, view2 = bgrl.AugmentationConfig().view1, bgrl.AugmentationConfig().view2
    library = {
        "dataset.session_gap_seconds": [_param(sd.sessionize, "gap_seconds")],
        "preprocess.min_item_support": [_param(sd.filter_corpus, "min_item_support")],
        "preprocess.min_session_len": [_param(sd.filter_corpus, "min_session_len")],
        "preprocess.max_prefix_len": [_param(sd.generate_prefixes, "max_len"),
                                      _param(sd.corpus_prefixes, "max_len")],
        "preprocess.fractions": [_param(sd.temporal_split, "fractions")],
        "embed.dim": [_field(bgrl.TrainConfig, "d_out"),
                      _param(encoder.SkipEncoder, "d_out")],
        "embed.hidden_dim": [_field(bgrl.TrainConfig, "d_hidden"),
                             _param(encoder.SkipEncoder, "d_hidden")],
        "embed.fanouts": [_field(bgrl.TrainConfig, "fanouts")],
        "embed.lr": [_field(bgrl.TrainConfig, "lr"), _param(bgrl.BgrlState.create, "lr")],
        "embed.weight_decay": [_field(bgrl.TrainConfig, "weight_decay"),
                               _param(bgrl.BgrlState.create, "weight_decay")],
        "embed.ema_decay": [_field(bgrl.TrainConfig, "ema_decay"),
                            _field(bgrl.BgrlState, "ema_decay"),
                            _param(bgrl.BgrlState.create, "ema_decay"),
                            _param(bgrl.ema_update, "decay")],
        "embed.epochs": [_field(bgrl.TrainConfig, "epochs")],
        "embed.batch_size": [_field(bgrl.TrainConfig, "batch_size")],
        "embed.view1.feature_mask_prob": [view1.feature_mask_prob,
                                          bgrl.ViewConfig().feature_mask_prob],
        "embed.view1.edge_drop_prob": [view1.edge_drop_prob, bgrl.ViewConfig().edge_drop_prob],
        "embed.view2.feature_mask_prob": [view2.feature_mask_prob],
        "embed.view2.edge_drop_prob": [view2.edge_drop_prob],
        "nextitem.epochs": [_field(nextitem.NextTrainConfig, "epochs")],
        "nextitem.lr": [_field(nextitem.NextTrainConfig, "lr")],
        "nextitem.batch_size": [_field(nextitem.NextTrainConfig, "batch_size")],
        "eval.k_values": [_param(evalkit.standard_metric_names, "ks"),
                          _param(evalkit.rank_metrics, "ks"),
                          _param(evalkit.query_metrics, "ks")],
        "eval.repeats": [_param(evalkit.run_experiment, "repeats")],
        "eval.master_seed": [_param(evalkit.run_experiment, "master_seed")],
    }
    for key in ("k", "m_sample", "base_mode", "k_rec", "exclude_input_items"):
        library[f"knn.{key}"] = [_field(knnrec.KnnConfig, key)]
    for key in ("enabled", "distance_threshold", "session_scoring", "expand_pool"):
        library[f"knn.gcnext.{key}"] = [_field(knnrec.GcnextConfig, key)]

    differ = {}
    for dotted, values in library.items():
        expected = DEFAULTS
        for part in dotted.split("."):
            expected = expected[part]
        if isinstance(expected, list):
            expected = tuple(expected)
        if any(v != expected for v in values):
            differ[dotted] = (values, expected)
    assert differ == {}
