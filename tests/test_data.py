"""The named-array file format behind the dataset cache and checkpoints."""

import json
from dataclasses import asdict

import numpy as np
import numpy.testing as npt
import pytest

from dropgraph.data import (
    SbmGraphSpec,
    SyntheticImageSpec,
    gen_images,
    gen_sbm,
    load_arrays,
    save_arrays,
    save_graph_dataset,
    save_image_dataset,
)
from dropgraph.errors import ContractError

_IMAGE_SPEC = SyntheticImageSpec(image_size=8, train_count=8, val_count=4, seed=2)
_GRAPH_SPEC = SbmGraphSpec(nodes=36, communities=3, p_in=0.3, p_out=0.05,
                           labeled_per_class=4, feature_dim=4, seed=3)
_IMAGE_ARRAYS = ("train_x", "train_y", "val_x", "val_y")
_GRAPH_ARRAYS = ("node_features", "normalized_adjacency", "labels",
                 "train_idx", "val_idx", "test_idx")


def _write_image(path):
    ds = gen_images(_IMAGE_SPEC)
    save_image_dataset(ds, path)
    meta = {**asdict(_IMAGE_SPEC), "pixel_mean": ds.pixel_mean, "pixel_std": ds.pixel_std}
    return ds, _IMAGE_ARRAYS, meta


def _write_graph(path):
    g = gen_sbm(_GRAPH_SPEC)
    save_graph_dataset(g, _GRAPH_SPEC, path)
    return g, _GRAPH_ARRAYS, asdict(_GRAPH_SPEC)


@pytest.mark.parametrize("kind, write", [("image", _write_image), ("graph", _write_graph)])
def test_dataset_cache_round_trip(tmp_path, kind, write):
    path = tmp_path / "dataset.dgd"
    source, names, meta = write(path)
    got_meta, arrays = load_arrays(path, kind)
    assert got_meta == meta
    assert list(arrays) == list(names)
    for name in names:
        want = getattr(source, name)
        assert arrays[name].dtype == want.dtype, name
        npt.assert_array_equal(arrays[name], want, err_msg=name)
    int_names = [n for n in names if n.endswith(("_y", "labels", "_idx"))]
    assert int_names and all(arrays[n].dtype == np.int64 for n in int_names)


@pytest.mark.parametrize("write", [_write_image, _write_graph])
def test_dataset_cache_writes_are_byte_equal(tmp_path, write):
    write(tmp_path / "a.dgd")
    write(tmp_path / "b.dgd")
    assert (tmp_path / "a.dgd").read_bytes() == (tmp_path / "b.dgd").read_bytes()


def test_arrays_keep_dtype_shape_and_memory_order(tmp_path):
    arrays = {"f32": np.arange(6, dtype=np.float32).reshape(2, 3),
              "fortran": np.asfortranarray(np.arange(12.0).reshape(3, 4)),
              "scalar": np.array(2.5),
              "empty": np.zeros((0, 3), dtype=np.int64),
              "flags": np.array([True, False])}
    save_arrays(tmp_path / "a.npys", "test", arrays, {"note": "x"})
    meta, got = load_arrays(tmp_path / "a.npys", "test")
    assert meta == {"note": "x"} and list(got) == list(arrays)
    for name, want in arrays.items():
        assert (got[name].dtype, got[name].shape) == (want.dtype, want.shape), name
        npt.assert_array_equal(got[name], want, err_msg=name)



@pytest.mark.parametrize("header", [
    {"kind": "test", "meta": {}, "names": ["w", "w"]},
    {"kind": "test", "meta": [], "names": ["w", "v"]},
], ids=["repeated_name", "meta_not_a_dict"])
def test_bad_header_raises_contract_error_naming_the_file(tmp_path, header):
    path = tmp_path / "bad.npys"
    with open(path, "wb") as fh:
        for arr in (np.array(json.dumps(header).encode("utf-8")), np.zeros(2), np.ones(2)):
            np.save(fh, arr, allow_pickle=False)
    with pytest.raises(ContractError, match="bad.npys: not a named-array file"):
        load_arrays(path, "test")
