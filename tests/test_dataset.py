"""Binary dataset format, splits, batching, CSV export."""

import struct
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evasionlab.dataset import (
    batches,
    class_histogram,
    export_csv,
    read_dataset,
    split,
    write_dataset,
)
from evasionlab.errors import (
    DatasetFormatError,
    DimMismatchError,
    EmptyDatasetError,
    EvasionLabError,
)
from evasionlab.features import FEATURE_NAMES, FeatureSequence


def sample(label=0, n=5, seed=0):
    rng = np.random.default_rng(seed)
    return FeatureSequence(
        rows=rng.normal(size=(n, 16)).astype(np.float32), label=label
    )


def write_read(tmp_path, samples, **kw):
    path = tmp_path / "data.neds"
    write_dataset(samples, str(path), **kw)
    return read_dataset(str(path))


def test_round_trip_exact(tmp_path):
    samples = [sample(label=i % 3, n=3 + i % 5, seed=i) for i in range(12)]
    back, class_count = write_read(tmp_path, samples)
    assert class_count == 3
    assert len(back) == 12
    for a, b in zip(samples, back):
        assert a.label == b.label
        assert np.array_equal(a.rows, b.rows)
        assert b.rows.dtype == np.float32


def test_header_layout(tmp_path):
    path = tmp_path / "data.neds"
    write_dataset([sample(label=4)], str(path), class_count=9)
    raw = path.read_bytes()
    magic, version, dim, classes, count = struct.unpack("<4sHHHQ", raw[:18])
    assert magic == b"NEDS"
    assert version == 1
    assert dim == 16
    assert classes == 9
    assert count == 1
    # record: label byte, length byte, then 5*16 little-endian f4 rows
    assert raw[18] == 4
    assert raw[19] == 5
    assert len(raw) == 18 + 2 + 5 * 16 * 4


def test_default_class_count_is_max_label_plus_one(tmp_path):
    _, class_count = write_read(tmp_path, [sample(label=7), sample(label=2)])
    assert class_count == 8


def test_empty_write_rejected(tmp_path):
    with pytest.raises(EmptyDatasetError):
        write_dataset([], str(tmp_path / "x.neds"))


def test_label_above_class_count_rejected_on_write(tmp_path):
    with pytest.raises(DimMismatchError):
        write_dataset([sample(label=9)], str(tmp_path / "x.neds"), class_count=8)


def corrupt(tmp_path, mutate):
    path = tmp_path / "data.neds"
    write_dataset([sample()], str(path))
    raw = bytearray(path.read_bytes())
    mutate(raw)
    bad = tmp_path / "bad.neds"
    bad.write_bytes(bytes(raw))
    return str(bad)


def test_bad_magic(tmp_path):
    bad = corrupt(tmp_path, lambda raw: raw.__setitem__(slice(0, 4), b"XXXX"))
    with pytest.raises(DatasetFormatError):
        read_dataset(bad)


def test_bad_version(tmp_path):
    bad = corrupt(tmp_path, lambda raw: raw.__setitem__(4, 2))
    with pytest.raises(DatasetFormatError):
        read_dataset(bad)


def test_wrong_dim(tmp_path):
    bad = corrupt(tmp_path, lambda raw: raw.__setitem__(6, 8))
    with pytest.raises(DimMismatchError):
        read_dataset(bad)


def test_length_out_of_range(tmp_path):
    bad = corrupt(tmp_path, lambda raw: raw.__setitem__(19, 9))
    with pytest.raises(DatasetFormatError):
        read_dataset(bad)


def test_label_out_of_range_on_read(tmp_path):
    bad = corrupt(tmp_path, lambda raw: raw.__setitem__(18, 55))
    with pytest.raises(DatasetFormatError):
        read_dataset(bad)


def test_truncated_record(tmp_path):
    path = tmp_path / "data.neds"
    write_dataset([sample()], str(path))
    raw = path.read_bytes()
    clipped = tmp_path / "clipped.neds"
    clipped.write_bytes(raw[:-7])
    with pytest.raises(DatasetFormatError):
        read_dataset(str(clipped))


def test_trailing_bytes_rejected(tmp_path):
    path = tmp_path / "data.neds"
    write_dataset([sample()], str(path))
    padded = tmp_path / "padded.neds"
    padded.write_bytes(path.read_bytes() + b"\x00")
    with pytest.raises(DatasetFormatError):
        read_dataset(str(padded))


@st.composite
def sample_lists(draw):
    n = draw(st.integers(1, 20))
    out = []
    for k in range(n):
        rows = draw(
            st.integers(3, 7).map(
                lambda m, k=k: np.random.default_rng(k).normal(size=(m, 16))
                .astype(np.float32)
            )
        )
        out.append(FeatureSequence(rows=rows, label=draw(st.integers(0, 8))))
    return out


@settings(max_examples=40, deadline=None)
@given(sample_lists())
def test_round_trip_property(tmp_path_factory, samples):
    tmp = tmp_path_factory.mktemp("neds")
    path = tmp / "p.neds"
    write_dataset(samples, str(path), class_count=9)
    back, _ = read_dataset(str(path))
    assert len(back) == len(samples)
    for a, b in zip(samples, back):
        assert a.label == b.label
        assert np.array_equal(a.rows, b.rows)


# -- splits and batches -----------------------------------------------------


def _dataset_bytes():
    with tempfile.TemporaryDirectory() as tmp:
        path = f"{tmp}/data.neds"
        write_dataset([sample(label=i % 3, n=3 + i % 5, seed=i) for i in range(4)], path)
        with open(path, "rb") as fh:
            return fh.read()


_MUTATION_BASE = _dataset_bytes()


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.integers(0, len(_MUTATION_BASE) - 1), st.integers(1, 255)),
                max_size=3),
       st.integers(0, len(_MUTATION_BASE) + 4))
def test_mutated_dataset_raises_only_typed_errors(flips, keep):
    raw = bytearray(_MUTATION_BASE) + b"\x07" * 4
    for index, mask in flips:
        raw[index] ^= mask
    with tempfile.TemporaryDirectory() as tmp:
        path = f"{tmp}/data.neds"
        with open(path, "wb") as fh:
            fh.write(raw[:keep])
        try:
            read_dataset(path)
        except EvasionLabError:
            pass


def test_split_sizes_and_disjointness():
    samples = [sample(label=i % 4, seed=i) for i in range(101)]
    train, test = split(samples, seed=3, train_fraction=0.8)
    assert len(train) == 80
    assert len(test) == 21
    ids = {id(s) for s in samples}
    assert {id(s) for s in train} | {id(s) for s in test} == ids


def test_split_deterministic():
    samples = [sample(seed=i) for i in range(50)]
    a_train, a_test = split(samples, seed=5)
    b_train, b_test = split(samples, seed=5)
    assert [id(s) for s in a_train] == [id(s) for s in b_train]
    assert [id(s) for s in a_test] == [id(s) for s in b_test]
    c_train, _ = split(samples, seed=6)
    assert [id(s) for s in a_train] != [id(s) for s in c_train]


def test_split_needs_two_samples():
    with pytest.raises(EmptyDatasetError):
        split([sample()], seed=0)


def test_split_fraction_bounds():
    samples = [sample(seed=i) for i in range(4)]
    with pytest.raises(ValueError):
        split(samples, seed=0, train_fraction=1.0)
    with pytest.raises(ValueError):
        split(samples, seed=0, train_fraction=0.0)


def test_batches_cover_everything_once():
    samples = [sample(seed=i) for i in range(23)]
    seen = []
    sizes = []
    for batch in batches(samples, batch_size=5, epoch_seed=1):
        sizes.append(len(batch))
        seen.extend(id(s) for s in batch)
    assert sizes == [5, 5, 5, 5, 3]
    assert sorted(seen) == sorted(id(s) for s in samples)


def test_batches_shuffle_depends_on_epoch_seed():
    samples = [sample(seed=i) for i in range(20)]
    a = [id(s) for b in batches(samples, 4, epoch_seed=1) for s in b]
    b = [id(s) for b in batches(samples, 4, epoch_seed=2) for s in b]
    assert a != b
    again = [id(s) for b in batches(samples, 4, epoch_seed=1) for s in b]
    assert a == again


def test_class_histogram():
    samples = [sample(label=l) for l in (0, 0, 3, 7, 3, 3)]
    assert class_histogram(samples) == {0: 2, 3: 3, 7: 1}


# -- csv export -------------------------------------------------------------


def test_export_csv_shape(tmp_path):
    samples = [sample(label=2, n=4), sample(label=5, n=3)]
    path = tmp_path / "rows.csv"
    n = export_csv(samples, str(path))
    lines = path.read_text().strip().split("\n")
    assert n == 7
    assert len(lines) == 8  # header + 7 rows
    header = lines[0].split(",")
    assert header[:3] == ["sample_id", "label", "row_index"]
    assert tuple(header[3:]) == FEATURE_NAMES
    first = lines[1].split(",")
    assert first[0] == "0"
    assert first[1] == "2"
    assert first[2] == "0"
