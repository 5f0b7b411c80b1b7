"""The generated datasets, and the named-array file format behind the dataset cache and
checkpoints."""

import hashlib
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


# SHA-256 of each generated array's bytes.  The records contract sees a change to the
# generated bits only through the runs trained on them; these pins see it directly.
_IMAGE_DIGESTS = {
    "train_x": "0a70bef467aabb24569b535445b74948049c517d9dfbfca46649654860af395a",
    "train_y": "26d5e8917b1d4afe921e66f37cc682de14ae09f99950e41e9d40d2fddbade6a8",
    "val_x": "c7c0c24f0bf7265cd0a4a455e6b27f2375c6611945a242023561bacde4cab1f0",
    "val_y": "a1e03200f1f82ad2c1cec8795c271aaecf98f5aa2d151d2229ec5fa0c177cf77",
}
_DEFAULT_SBM_DIGESTS = {
    "node_features": "cc4c9b563c6da7a7e18bbf435173057eda709038375990b13bb086fcd3bbaf36",
    "normalized_adjacency": "90f272c54b8c0d6919b782dd66c25e5e51e9e77f98bbb581353566b3c530f352",
    "labels": "d2c97e5c656637523848ff6895b48043be172703aee9374513204c5aa7a78dda",
    "train_idx": "c7beaf284ccf40bbf202eae31e7d2f8dfc50e3c31c02ee4e038fc63c2d421a04",
    "val_idx": "55f0f217fbc9832f7386b4292431435b9f15f1df858fbb571e1270134b453822",
    "test_idx": "e15aa4e0efc644e7039128e14648c4ba477b5d8376fc0a7246e5081092ae70d2",
    "propagated_features": "fc7dd1f0f43de496fd1c6988eab674cc474e4dcb3d7e12589efbaf31f76a20b9",
}


def _digests(source, names):
    return {name: hashlib.sha256(getattr(source, name).tobytes()).hexdigest() for name in names}


def test_generated_arrays_keep_their_bits():
    ds = gen_images(_IMAGE_SPEC)
    assert _digests(ds, _IMAGE_DIGESTS) == _IMAGE_DIGESTS
    assert (ds.pixel_mean, ds.pixel_std) == (0.09090961261690741, 1.2210216850033733)
    assert _digests(gen_sbm(SbmGraphSpec()), _DEFAULT_SBM_DIGESTS) == _DEFAULT_SBM_DIGESTS


@pytest.mark.parametrize("source, names", [
    (lambda: gen_images(_IMAGE_SPEC), _IMAGE_ARRAYS),
    (lambda: gen_sbm(_GRAPH_SPEC), _GRAPH_ARRAYS + ("propagated_features",)),
], ids=["image", "graph"])
def test_generated_arrays_are_read_only(source, names):
    data = source()
    for name in names:
        arr = getattr(data, name)
        with pytest.raises(ValueError, match="read-only"):
            arr[(0,) * arr.ndim] = 1


def _write_image(path):
    ds = gen_images(_IMAGE_SPEC)
    save_image_dataset(ds, _IMAGE_SPEC, path)
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
