import re
import tracemalloc

import numpy as np
import pytest

from ngfreg.fileio import (
    LandmarkFileError,
    MetaImageError,
    read_deformation,
    read_landmarks,
    read_volume,
    read_volume_grid,
    write_deformation,
    write_volume,
)
from ngfreg.geometry import DeformationField, Grid3, Image3, make_identity
from ngfreg.synthetic import smooth_random_field, smooth_random_volume


def _grid(dims, spacing=(1, 1, 1), origin=(0, 0, 0)):
    return Grid3(dims, spacing, origin)


def test_volume_roundtrip_f64(tmp_path):
    g = _grid((5, 4, 3), (0.7, 1.25, 2.5), (-1.5, 0.25, 3.0))
    img = smooth_random_volume(g, seed=1)
    path = str(tmp_path / "vol.mha")
    write_volume(img, path)
    back = read_volume(path)
    assert back.grid == g
    assert np.array_equal(back.values, img.values)


def test_volume_roundtrip_f32(tmp_path):
    g = _grid((4, 4, 4))
    img = Image3(g, np.random.default_rng(0).standard_normal(g.shape).astype(np.float32))
    path = str(tmp_path / "vol32.mha")
    write_volume(img, path)
    back = read_volume(path)
    assert back.values.dtype == np.float32
    assert np.array_equal(back.values, img.values)


def test_short_volume_promoted(tmp_path):
    g = _grid((3, 3, 3), (1, 1, 1), (0, 0, 0))
    vals = np.arange(27, dtype=np.int16).reshape(g.shape) - 13
    path = str(tmp_path / "ct.mha")
    write_volume(Image3(g, vals.astype(np.float64)).astype(np.float64), path)
    # write int16 payload by hand through the writer path
    from ngfreg.fileio import _write_meta

    _write_meta(path, g, vals[..., None], channels=1)
    back = read_volume(path)
    assert back.values.dtype == np.float64
    assert np.array_equal(back.values, vals.astype(np.float64))


def test_deformation_roundtrip(tmp_path):
    g = _grid((4, 5, 3), (2.0, 1.5, 2.5), (1.0, -2.0, 0.0))
    y = smooth_random_field(g, seed=3, amplitude_mm=1.5)
    path = str(tmp_path / "def.mha")
    write_deformation(y, path)
    back = read_deformation(path)
    assert back.grid == g
    assert np.array_equal(back.field, y.field)


def test_external_raw_datafile(tmp_path):
    g = _grid((3, 2, 2))
    vals = np.arange(12, dtype="<f8").reshape(g.shape)
    raw = tmp_path / "vol.raw"
    raw.write_bytes(vals.tobytes())
    mhd = tmp_path / "vol.mhd"
    mhd.write_text(
        "ObjectType = Image\nNDims = 3\nBinaryData = True\n"
        "DimSize = 3 2 2\nElementSpacing = 1 1 1\nOffset = 0 0 0\n"
        "TransformMatrix = 1 0 0 0 1 0 0 0 1\n"
        "ElementType = MET_DOUBLE\nElementDataFile = vol.raw\n"
    )
    back = read_volume(str(mhd))
    assert np.array_equal(back.values, vals)


def test_truncated_payload_rejected(tmp_path):
    g = _grid((4, 4, 4))
    path = str(tmp_path / "t.mha")
    write_volume(smooth_random_volume(g, seed=2), path)
    data = open(path, "rb").read()
    open(path, "wb").write(data[:-16])
    with pytest.raises(MetaImageError, match="truncated"):
        read_volume(path)


def test_headers_the_data_file_cannot_honour_rejected_before_allocating(tmp_path):
    # a channel count below 1, or dimensions whose payload (7 PiB here) the
    # data file cannot hold, fail on the header, before numpy allocates
    g = _grid((24, 24, 24))
    path = tmp_path / "t.mha"
    write_volume(smooth_random_volume(g, seed=2), str(path))
    data = path.read_bytes()
    bad = tmp_path / "bad.mha"
    channels = b"ElementNumberOfChannels = %d\nElementType"
    for old, new, match in (
            (b"ElementType", channels % -1, "ElementNumberOfChannels = -1"),
            (b"ElementType", channels % 0, "ElementNumberOfChannels = 0"),
            (b"DimSize = 24 24 24", b"DimSize = 100000 100000 100000", "truncated payload")):
        bad.write_bytes(data.replace(old, new, 1))
        tracemalloc.start()
        try:
            with pytest.raises(MetaImageError, match=re.escape(f"{bad}: {match}")):
                read_volume(str(bad))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20
    bad.write_bytes(data.replace(b"ElementType", channels % -1, 1))
    with pytest.raises(MetaImageError, match="ElementNumberOfChannels = -1"):
        read_volume_grid(str(bad))


def test_read_volume_reads_into_one_allocation(tmp_path):
    # the payload is read a z-plane at a time into the volume's array: no copy
    # of the file's bytes is held next to it
    g = _grid((96, 96, 96))
    path = str(tmp_path / "big.mha")
    write_volume(smooth_random_volume(g, seed=1), path)
    volume = g.num_points * 8
    tracemalloc.start()
    try:
        assert read_volume(path).values.nbytes == volume
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * volume, f"peak of {peak / volume:.2f} volumes"


def test_writes_hold_at_most_a_plane_copy(tmp_path):
    # the payload is written a z-plane at a time: a scalar volume is written
    # from its own bytes, an interleaved field from one plane's copy
    g = _grid((96, 96, 96))
    img = smooth_random_volume(g, seed=1)
    y = make_identity(g)
    for write, data, size in ((write_volume, img, img.values.nbytes),
                              (write_deformation, y, y.field.nbytes)):
        tracemalloc.start()
        try:
            write(data, str(tmp_path / "out.mha"))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 0.25 * size, f"{write.__name__} peak of {peak / size:.2f} arrays"


def test_volume_grid_is_read_from_the_header(tmp_path):
    g = _grid((5, 4, 3), (0.7, 1.25, 2.5), (-1.5, 0.25, 3.0))
    path = tmp_path / "vol.mha"
    write_volume(smooth_random_volume(g, seed=1), str(path))
    path.write_bytes(path.read_bytes()[:-16])  # a truncated payload is not read
    assert read_volume_grid(str(path)) == g
    write_deformation(make_identity(g), str(path))
    with pytest.raises(MetaImageError, match="channels"):
        read_volume_grid(str(path))


def test_bad_headers_rejected(tmp_path):
    p = tmp_path / "bad.mha"
    p.write_text("ObjectType = Image\nNDims = 2\nElementDataFile = LOCAL\n")
    with pytest.raises(MetaImageError, match="NDims"):
        read_volume(str(p))
    p.write_text("NDims = 3\nDimSize = 1 1 1\nElementType = MET_UCHAR\n"
                 "ElementDataFile = LOCAL\n")
    with pytest.raises(MetaImageError, match="ElementType"):
        read_volume(str(p))
    p.write_text("no equals sign here\n")
    with pytest.raises(MetaImageError):
        read_volume(str(p))
    p.write_text("NDims = 3\nDimSize = 2 2 2\nElementType = MET_FLOAT\n"
                 "CompressedData = True\nElementDataFile = LOCAL\n")
    with pytest.raises(MetaImageError, match="ompressed"):
        read_volume(str(p))
    # direction cosines: anything but the identity would be misread
    for line, match in (("TransformMatrix = 0 1 0 1 0 0 0 0 1", "not the identity"),
                        ("Rotation = -1 0 0 0 1 0 0 0 1", "not the identity"),
                        ("Orientation = 1 0 0 0 0.8 0.6 0 -0.6 0.8", "not the identity"),
                        ("TransformMatrix = 1 0 0 0 1 0", "9 entries"),
                        ("TransformMatrix = 1 0 0 0 x 0 0 0 1", "TransformMatrix")):
        p.write_text("NDims = 3\nDimSize = 2 2 2\nElementType = MET_FLOAT\n"
                     f"{line}\nElementDataFile = LOCAL\n")
        with pytest.raises(MetaImageError, match=match):
            read_volume(str(p))


def test_big_endian_element_byte_order_rejected(tmp_path):
    # ElementByteOrderMSB is MetaIO's other name for BinaryDataByteOrderMSB
    vals = np.arange(8, dtype=">f4")
    p = tmp_path / "be.mha"
    p.write_bytes(b"NDims = 3\nDimSize = 2 2 2\nElementType = MET_FLOAT\n"
                  b"ElementByteOrderMSB = True\nElementDataFile = LOCAL\n" + vals.tobytes())
    with pytest.raises(MetaImageError, match=re.escape(f"{p}: ElementByteOrderMSB")):
        read_volume(str(p))


def test_raw_header_size_rejected(tmp_path):
    # a raw file whose first HeaderSize bytes are a header would read shifted
    vals = np.arange(8, dtype="<f4")
    (tmp_path / "vol.raw").write_bytes(bytes(16) + vals.tobytes())
    mhd = tmp_path / "vol.mhd"
    mhd.write_text("NDims = 3\nDimSize = 2 2 2\nElementType = MET_FLOAT\n"
                   "HeaderSize = 16\nElementDataFile = vol.raw\n")
    with pytest.raises(MetaImageError, match=re.escape(f"{mhd}: HeaderSize")):
        read_volume(str(mhd))


def test_missing_file_raises_metaimage_error(tmp_path):
    with pytest.raises(MetaImageError):
        read_volume(str(tmp_path / "nope.mha"))


def test_scalar_vs_deformation_channel_checks(tmp_path):
    g = _grid((3, 3, 3))
    vol_path = str(tmp_path / "vol.mha")
    def_path = str(tmp_path / "def.mha")
    write_volume(smooth_random_volume(g, seed=4), vol_path)
    write_deformation(make_identity(g), def_path)
    with pytest.raises(MetaImageError, match="channels"):
        read_volume(def_path)
    with pytest.raises(MetaImageError, match="channels"):
        read_deformation(vol_path)


def test_landmarks_index1_dirlab_convention(tmp_path):
    g = _grid((10, 10, 10), (0.97, 0.97, 2.5), (0.0, 0.0, 0.0))
    p = tmp_path / "lm.txt"
    p.write_text("1 1 1\n3 2 5\n\n")
    lm = read_landmarks(str(p), "index1", g)
    assert lm.count == 2
    assert np.allclose(lm.points[0], [0.0, 0.0, 0.0])
    assert np.allclose(lm.points[1], [2 * 0.97, 0.97, 4 * 2.5])


def test_landmarks_index0_and_world(tmp_path):
    g = _grid((5, 5, 5), (2.0, 2.0, 2.0), (1.0, 1.0, 1.0))
    p = tmp_path / "lm.txt"
    p.write_text("1 2 3\n")
    lm0 = read_landmarks(str(p), "index0", g)
    assert np.allclose(lm0.points[0], [3.0, 5.0, 7.0])
    lmw = read_landmarks(str(p), "world", g)
    assert np.allclose(lmw.points[0], [1.0, 2.0, 3.0])
    with pytest.raises(ValueError):
        read_landmarks(str(p), "voxels", g)


def test_landmark_parse_errors(tmp_path):
    g = _grid((4, 4, 4))
    p = tmp_path / "lm.txt"
    p.write_text("1 2\n")
    with pytest.raises(LandmarkFileError, match="expected 3"):
        read_landmarks(str(p), "world", g)
    p.write_text("1 2 x\n")
    with pytest.raises(LandmarkFileError, match="non-numeric"):
        read_landmarks(str(p), "world", g)
    for entry in ("nan", "inf", "-inf"):
        p.write_text(f"1 2 3\n1 {entry} 3\n")
        with pytest.raises(LandmarkFileError, match=re.escape(f"{p}:2: non-finite")):
            read_landmarks(str(p), "world", g)


def test_landmark_file_without_rows_rejected(tmp_path):
    g = _grid((4, 4, 4))
    p = tmp_path / "lm.txt"
    for content in ("", "\n  \n\t\n"):
        p.write_text(content)
        with pytest.raises(LandmarkFileError, match=re.escape(f"{p}: no landmark rows")):
            read_landmarks(str(p), "index1", g)


def test_bad_grid_or_nonfinite_voxels_rejected_naming_the_file(tmp_path):
    # what Grid3, Image3 and DeformationField reject is a malformed file
    g = _grid((3, 3, 3))
    vol_path, def_path = str(tmp_path / "vol.mha"), str(tmp_path / "def.mha")
    write_volume(smooth_random_volume(g, seed=4), vol_path)
    write_deformation(make_identity(g), def_path)
    vol = open(vol_path, "rb").read()
    bad = tmp_path / "bad.mha"
    bad.write_bytes(vol.replace(b"ElementSpacing = 1.0 1.0 1.0", b"ElementSpacing = 1.0 0 1.0"))
    with pytest.raises(MetaImageError, match=re.escape(f"{bad}: all spacings must be positive")):
        read_volume(str(bad))
    bad.write_bytes(vol[:-8] + np.float64(np.nan).tobytes())
    with pytest.raises(MetaImageError, match=re.escape(f"{bad}: values contains non-finite")):
        read_volume(str(bad))
    bad.write_bytes(open(def_path, "rb").read()[:-8] + np.float64(-np.inf).tobytes())
    with pytest.raises(MetaImageError, match=re.escape(f"{bad}: field contains non-finite")):
        read_deformation(str(bad))
