"""Container format: round trips, layout guarantees, and defect detection."""

from __future__ import annotations

import contextlib
import io
import json
import os
import struct
import time
import tracemalloc
import uuid

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from magvlaq import cli, magt
from magvlaq.errors import (
    BadMagicError,
    CorruptContainerError,
    TokenFileError,
    TruncatedFileError,
    UnsupportedVersionError,
)


def _entry(rng, n_tensors=2):
    tensors = {
        f"t{i}": rng.standard_normal(
            (int(rng.integers(1, 5)), int(rng.integers(1, 5)))
        ).astype(np.float32)
        for i in range(n_tensors)
    }
    return magt.ContainerEntry(meta={"id": f"e{rng.integers(1e6)}", "kind": "test"},
                               tensors=tensors)


def test_round_trip_preserves_meta_and_values(tmp_path):
    rng = np.random.default_rng(0)
    entries = [_entry(rng) for _ in range(3)]
    path = tmp_path / "t.magt"
    n = magt.write_container(entries, path)
    assert n == path.stat().st_size
    back = magt.read_container(path)
    assert len(back) == 3
    for orig, got in zip(entries, back):
        assert got.meta == orig.meta
        assert list(got.tensors) == list(orig.tensors)
        for name in orig.tensors:
            np.testing.assert_array_equal(got.tensors[name], orig.tensors[name])
            assert got.tensors[name].dtype == np.float32


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**16), n=st.integers(0, 4))
def test_round_trip_random_shapes(tmp_path_factory, seed, n):
    rng = np.random.default_rng(seed)
    entries = [_entry(rng, n_tensors=int(rng.integers(0, 4))) for _ in range(n)]
    path = tmp_path_factory.mktemp("magt") / "t.magt"
    magt.write_container(entries, path)
    back = magt.read_container(path)
    assert [e.meta for e in back] == [e.meta for e in entries]
    for orig, got in zip(entries, back):
        for name in orig.tensors:
            np.testing.assert_array_equal(got.tensors[name], orig.tensors[name])


def test_write_is_byte_deterministic(tmp_path):
    rng = np.random.default_rng(1)
    entries = [_entry(rng)]
    a, b = tmp_path / "a.magt", tmp_path / "b.magt"
    magt.write_container(entries, a)
    magt.write_container(entries, b)
    assert a.read_bytes() == b.read_bytes()


def test_header_offsets_are_aligned_and_ascending(tmp_path):
    rng = np.random.default_rng(2)
    path = tmp_path / "t.magt"
    magt.write_container([_entry(rng, n_tensors=4)], path)
    data = path.read_bytes()
    _, _, header_len = struct.unpack_from("<4sIQ", data)
    header = json.loads(data[16 : 16 + header_len])
    offsets = [rec["offset"] for rec in header["entries"][0]["tensors"]]
    assert all(off % 4 == 0 for off in offsets)
    assert offsets == sorted(offsets)


def test_write_rejects_non_2d_tensors(tmp_path):
    entry = magt.ContainerEntry(meta={"id": "x"}, tensors={"v": np.zeros(3)})
    with pytest.raises(CorruptContainerError, match="2-D"):
        magt.write_container([entry], tmp_path / "t.magt")


def test_failed_write_leaves_the_previous_file_and_no_partial_file(tmp_path, monkeypatch):
    rng = np.random.default_rng(4)
    path = tmp_path / "t.magt"
    magt.write_container([_entry(rng, n_tensors=3)], path)
    before = path.read_bytes()

    class FailingFile(io.FileIO):
        """Takes the fixed header and the JSON, then fails in the blobs."""

        writes = 0

        def write(self, data):
            FailingFile.writes += 1
            if FailingFile.writes == 3:
                super().write(bytes(memoryview(data).cast("B")[:5]))
                raise OSError(28, "No space left on device")
            return super().write(data)

    monkeypatch.setattr(magt, "open", lambda file, mode: FailingFile(file, mode[0] + "b"),
                        raising=False)
    with pytest.raises(OSError, match="No space"):
        magt.write_container([_entry(rng, n_tensors=3)], path)
    assert FailingFile.writes == 3
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["t.magt"]


def test_write_onto_a_directory_fails_and_leaves_no_partial_file(tmp_path, monkeypatch):
    target = tmp_path / "out"
    target.mkdir()
    opened = []
    monkeypatch.setattr(magt, "open", lambda *args: opened.append(args), raising=False)
    with pytest.raises(IsADirectoryError, match="Is a directory"):
        magt.write_container([_entry(np.random.default_rng(5))], target)
    assert opened == []  # no partial file was ever created
    assert [p.name for p in tmp_path.iterdir()] == ["out"]
    assert not any(target.iterdir())


def test_a_write_deletes_older_partial_files_of_its_target_and_keeps_newer_ones(tmp_path):
    """A killed write leaves a partial file behind; the next write to the
    same target deletes it once done. A newer partial file belongs to a live
    writer, and those of other targets are not this write's to delete."""
    path = tmp_path / "t[1].magt"
    now, hour = time.time_ns(), 3600 * 10**9

    def partial(target: str, mtime: int):
        made = tmp_path / f".{target}.{uuid.uuid4().hex}.partial"
        made.write_bytes(b"killed")
        os.utime(made, ns=(mtime, mtime))
        return made

    stale = partial(path.name, now - hour)
    kept = [
        partial(path.name, now + hour),  # a live writer's
        partial("u.magt", now - hour),  # another target's
        partial("t1.magt", now - hour),  # one that "t[1].magt" matches as a glob
    ]
    magt.write_container([_entry(np.random.default_rng(6))], path)
    assert not stale.exists()
    assert {p.name for p in tmp_path.iterdir()} == {path.name, *(p.name for p in kept)}


def test_writes_to_many_distinct_names_keep_no_memory_per_name(tmp_path):
    """Batch export writes a new name every cycle; finding a target's partial
    files must not compile (and cache) a pattern per name."""
    entry = [magt.ContainerEntry({"id": "x"}, {"t": np.ones((1, 1), np.float32)})]
    for i in range(20):
        magt.write_container(entry, tmp_path / f"warm-{i}.magt")
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for i in range(500):
            magt.write_container(entry, tmp_path / f"export-{i}.magt")
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert grown < 64 * 1024


def _valid_bytes(tmp_path):
    rng = np.random.default_rng(3)
    path = tmp_path / "ok.magt"
    magt.write_container([_entry(rng)], path)
    return bytearray(path.read_bytes())


def test_bad_magic(tmp_path):
    data = _valid_bytes(tmp_path)
    data[:4] = b"NOPE"
    bad = tmp_path / "bad.magt"
    bad.write_bytes(data)
    with pytest.raises(BadMagicError):
        magt.read_container(bad)


def test_unsupported_version(tmp_path):
    data = _valid_bytes(tmp_path)
    struct.pack_into("<I", data, 4, magt.VERSION + 1)
    bad = tmp_path / "bad.magt"
    bad.write_bytes(data)
    with pytest.raises(UnsupportedVersionError):
        magt.read_container(bad)


def test_truncated_file_and_blob(tmp_path):
    data = _valid_bytes(tmp_path)
    for cut in (4, len(data) - 3):
        bad = tmp_path / f"cut{cut}.magt"
        bad.write_bytes(data[:cut])
        with pytest.raises(TruncatedFileError):
            magt.read_container(bad)


def test_corrupt_header_json(tmp_path):
    data = _valid_bytes(tmp_path)
    data[16] = ord("!")
    bad = tmp_path / "bad.magt"
    bad.write_bytes(data)
    with pytest.raises(CorruptContainerError):
        magt.read_container(bad)


def _craft(tmp_path, tensor_records, blob):
    header = json.dumps(
        {"entries": [{"id": "x", "tensors": tensor_records}]}, sort_keys=True
    ).encode()
    path = tmp_path / "crafted.magt"
    path.write_bytes(struct.pack("<4sIQ", magt.MAGIC, magt.VERSION, len(header))
                     + header + blob)
    return path


def test_misaligned_offset_is_rejected(tmp_path):
    path = _craft(
        tmp_path,
        [{"name": "a", "rows": 1, "cols": 1, "offset": 2}],
        b"\x00" * 8,
    )
    with pytest.raises(CorruptContainerError, match="offset"):
        magt.read_container(path)


def test_overlapping_offsets_are_rejected(tmp_path):
    path = _craft(
        tmp_path,
        [
            {"name": "a", "rows": 1, "cols": 2, "offset": 0},
            {"name": "b", "rows": 1, "cols": 1, "offset": 4},
        ],
        b"\x00" * 8,
    )
    with pytest.raises(CorruptContainerError, match="overlap"):
        magt.read_container(path)


def test_duplicate_tensor_name_is_rejected(tmp_path):
    path = _craft(
        tmp_path,
        [
            {"name": "w", "rows": 1, "cols": 1, "offset": 0},
            {"name": "w", "rows": 1, "cols": 1, "offset": 4},
        ],
        b"\x00" * 8,
    )
    with pytest.raises(CorruptContainerError, match="duplicate tensor name 'w'"):
        magt.read_container(path)


@pytest.mark.parametrize("field,value", [
    ("name", [1]), ("name", 7), ("rows", True), ("cols", 1.0), ("offset", "0"),
    ("offset", False),
])
def test_mistyped_tensor_record_is_rejected(tmp_path, field, value):
    record = {"name": "a", "rows": 1, "cols": 1, "offset": 0, field: value}
    path = _craft(tmp_path, [record], b"\x00" * 4)
    with pytest.raises(CorruptContainerError, match="mistyped"):
        magt.read_container(path)


def test_blob_past_end_is_truncation(tmp_path):
    path = _craft(
        tmp_path,
        [{"name": "a", "rows": 10, "cols": 10, "offset": 0}],
        b"\x00" * 16,
    )
    with pytest.raises(TruncatedFileError, match="past end"):
        magt.read_container(path)


def test_missing_file_propagates_os_error(tmp_path):
    with pytest.raises(OSError):
        magt.read_container(tmp_path / "nope.magt")


def test_read_peaks_at_one_buffer_of_the_file(tmp_path):
    """Reading holds one buffer of the blob region and copies no tensor."""
    rng = np.random.default_rng(0)
    tensors = {f"t{i}": rng.standard_normal((256, 1024)).astype(np.float32)
               for i in range(4)}
    path = tmp_path / "big.magt"
    size = magt.write_container(
        [magt.ContainerEntry(meta={"id": "big", "kind": "test"}, tensors=tensors)], path
    )
    tracemalloc.start()
    try:
        back = magt.read_container(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    np.testing.assert_array_equal(back[0].tensors["t3"], tensors["t3"])
    assert peak < 1.05 * size, f"peak {peak / size:.2f}x the file size"


def test_a_keep_filter_buffers_the_kept_tensors_alone_and_summarizes_the_rest(tmp_path):
    rng = np.random.default_rng(6)
    wide = rng.standard_normal((4, magt.READ_BLOCK // 2 + 3)).astype(np.float32)  # 3 blocks
    bad = wide.copy()
    bad[3, -1] = np.inf  # in the last block
    kept = {"keep.a": rng.standard_normal((3, 5)).astype(np.float32),
            "keep.b": rng.standard_normal((2, 7)).astype(np.float32)}
    entries = [
        magt.ContainerEntry(meta={"id": "x"}, tensors={"keep.a": kept["keep.a"],
                                                      "skip.w": wide, "skip.bad": bad}),
        magt.ContainerEntry(meta={"id": "y"}, tensors={"skip.empty": np.zeros((0, 4)),
                                                      "keep.b": kept["keep.b"]}),
    ]
    path = tmp_path / "mixed.magt"
    magt.write_container(entries, path)
    tracemalloc.start()
    try:
        back = magt.read_container(path, keep=lambda name: name.startswith("keep."))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * magt.READ_BLOCK + 2**16, peak  # one scratch, not the 1.5 MiB skipped
    assert [e.meta for e in back] == [{"id": "x"}, {"id": "y"}]
    got = {name: arr for e in back for name, arr in e.tensors.items()}
    assert {name: arr.tobytes() for name, arr in got.items()} == {
        name: arr.tobytes() for name, arr in kept.items()}
    assert got["keep.a"].base is got["keep.b"].base
    assert got["keep.a"].base.nbytes == sum(arr.nbytes for arr in kept.values())
    assert [e.skipped for e in back] == [
        {"skip.w": (wide.shape, True), "skip.bad": (bad.shape, False)},
        {"skip.empty": ((0, 4), True)},
    ]
    full = magt.read_container(path)
    assert all(e.skipped == {} for e in full)
    assert full[0].tensors["skip.bad"].tobytes() == bad.tobytes()


def test_every_header_length_mod_4_round_trips_into_aligned_views(tmp_path):
    rng = np.random.default_rng(4)
    tensors = {"a": rng.standard_normal((3, 5)).astype(np.float32),
               "b": rng.standard_normal((2, 1)).astype(np.float32)}
    residues = set()
    for width in range(1, 5):
        path = tmp_path / f"w{width}.magt"
        entries = [magt.ContainerEntry(meta={"id": "x" * width}, tensors=tensors),
                   magt.ContainerEntry(meta={"id": "y"}, tensors={"c": tensors["a"].T})]
        magt.write_container(entries, path)
        residues.add(struct.unpack_from("<4sIQ", path.read_bytes())[2] % 4)
        back = magt.read_container(path)
        assert [e.meta for e in back] == [e.meta for e in entries]
        views = [arr for entry in back for arr in entry.tensors.values()]
        for orig, got in zip((*tensors.values(), tensors["a"].T), views):
            assert got.tobytes() == np.ascontiguousarray(orig).tobytes()
            assert got.flags.c_contiguous and got.flags.writeable
            assert got.ctypes.data % 4 == 0
        assert views[0].base is not None
        assert all(arr.base is views[0].base for arr in views)
    assert residues == {0, 1, 2, 3}


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_damaged_containers_fail_only_with_token_file_errors(fuzz_dir, data):
    valid = bytes(_valid_bytes(fuzz_dir))
    if data.draw(st.booleans(), label="truncate"):
        damaged = bytearray(valid[: data.draw(st.integers(0, len(valid) - 1))])
    else:
        damaged = bytearray(valid)
        for _ in range(data.draw(st.integers(1, 4))):
            at = data.draw(st.integers(0, len(valid) - 1))
            damaged[at] = data.draw(st.integers(0, 255))
    path = fuzz_dir / "damaged.magt"
    path.write_bytes(damaged)
    try:
        magt.read_container(path)
        expected = 0
    except TokenFileError:
        expected = 3
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        assert cli.main(["inspect", str(path)]) == expected
