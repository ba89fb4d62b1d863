"""MetaImage volume I/O, deformation serialization and landmark files.

Volumes are MetaImage (.mha single-file preferred, .mhd + raw accepted):
a plain-text header followed by little-endian raw voxels, x-fastest.
Deformations are 3-channel MetaImage volumes storing world coordinates,
channel-interleaved per voxel. Landmark files are whitespace-separated
triples, one landmark per line.
"""

from __future__ import annotations

import os

import numpy as np

from .geometry import DeformationField, Grid3, GridError, Image3
from .evaluation import LandmarkSet

__all__ = [
    "LandmarkFileError",
    "MetaImageError",
    "read_deformation",
    "read_landmarks",
    "read_volume",
    "read_volume_grid",
    "write_deformation",
    "write_volume",
]


class MetaImageError(ValueError):
    """Malformed or unsupported MetaImage file."""


class LandmarkFileError(ValueError):
    """Malformed landmark text file."""


_ELEMENT_TYPES = {
    "MET_SHORT": np.dtype("<i2"),
    "MET_FLOAT": np.dtype("<f4"),
    "MET_DOUBLE": np.dtype("<f8"),
}
_TYPE_NAMES = {dtype: name for name, dtype in _ELEMENT_TYPES.items()}
# Direction cosines, under the three names MetaImage accepts for them. Grids
# here are axis-aligned, so a volume whose axes are rotated or flipped would
# be misread; only the identity (up to formatting noise) is accepted.
_DIRECTION_KEYS = ("TransformMatrix", "Rotation", "Orientation")
_DIRECTION_TOL = 1e-6


def _parse_header(fh, path: str) -> dict:
    """The header fields of fh up to ElementDataFile, leaving fh at the payload."""
    fields = {}
    while True:
        raw = fh.readline()
        if not raw.endswith(b"\n"):
            raise MetaImageError(f"{path}: header has no ElementDataFile line")
        line = raw.decode("ascii", errors="replace").strip()
        if not line:
            continue
        if "=" not in line:
            raise MetaImageError(f"{path}: malformed header line {line!r}")
        key, value = (s.strip() for s in line.split("=", 1))
        fields[key] = value
        if key == "ElementDataFile":
            return fields


def _read_header(path: str):
    """Returns (grid, dtype, channels, data path, payload offset) from the
    header alone."""
    try:
        with open(path, "rb") as fh:
            fields = _parse_header(fh, path)
            offset = fh.tell()
    except OSError as e:
        raise MetaImageError(f"{path}: cannot read file ({e})") from e

    if fields.get("NDims", "3") != "3":
        raise MetaImageError(f"{path}: only NDims = 3 is supported, got {fields.get('NDims')}")
    if fields.get("BinaryData", "True").lower() not in ("true", "1"):
        raise MetaImageError(f"{path}: only binary MetaImage data is supported")
    # MetaIO reads either byte-order key, and skips HeaderSize bytes of a raw file
    for key in ("BinaryDataByteOrderMSB", "ElementByteOrderMSB"):
        if fields.get(key, "False").lower() not in ("false", "0"):
            raise MetaImageError(
                f"{path}: {key} = {fields[key]}: big-endian payloads are not supported")
    if fields.get("HeaderSize", "0") != "0":
        raise MetaImageError(
            f"{path}: HeaderSize = {fields['HeaderSize']}: only HeaderSize = 0 is supported")
    if fields.get("CompressedData", "False").lower() not in ("false", "0"):
        raise MetaImageError(f"{path}: compressed payloads are not supported")

    try:
        dims = tuple(int(v) for v in fields["DimSize"].split())
        spacing = tuple(float(v) for v in fields.get("ElementSpacing", "1 1 1").split())
        origin = tuple(float(v) for v in fields.get("Offset", "0 0 0").split())
        channels = int(fields.get("ElementNumberOfChannels", "1"))
    except (KeyError, ValueError) as e:
        raise MetaImageError(f"{path}: malformed header field ({e})") from e
    if len(dims) != 3 or len(spacing) != 3 or len(origin) != 3:
        raise MetaImageError(f"{path}: DimSize/ElementSpacing/Offset must have 3 entries")
    if channels < 1:
        raise MetaImageError(f"{path}: ElementNumberOfChannels = {channels} must be >= 1")
    for key in _DIRECTION_KEYS:
        if key in fields:
            _check_identity_direction(path, key, fields[key])

    etype = fields.get("ElementType", "")
    if etype not in _ELEMENT_TYPES:
        raise MetaImageError(
            f"{path}: unsupported ElementType {etype!r} "
            f"(supported: {', '.join(sorted(_ELEMENT_TYPES))})"
        )
    datafile, data_path = fields["ElementDataFile"], path
    if datafile.upper() != "LOCAL":
        data_path, offset = os.path.join(os.path.dirname(path) or ".", datafile), 0
    try:
        return Grid3(dims, spacing, origin), _ELEMENT_TYPES[etype], channels, data_path, offset
    except GridError as e:
        raise MetaImageError(f"{path}: {e}") from e


def _read_meta(path: str):
    """Returns (grid, array) where array has shape (channels, nz, ny, nx): the
    channel-interleaved payload is read a z-plane at a time into the array."""
    grid, dtype, channels, data_path, offset = _read_header(path)
    nbytes = channels * grid.num_points * dtype.itemsize
    got = 0
    try:
        with open(data_path, "rb") as fh:
            held = os.fstat(fh.fileno()).st_size - offset
            if held < nbytes:  # before anything the header asks for is allocated
                raise MetaImageError(
                    f"{path}: truncated payload, expected {nbytes} bytes, got {held}")
            arr = np.empty((channels,) + grid.shape, dtype=dtype)
            plane = np.empty(grid.shape[1:] + (channels,), dtype=dtype)
            fh.seek(offset)
            for k in range(grid.shape[0]):
                n = fh.readinto(plane.reshape(-1).view(np.uint8))
                got += n
                if n < plane.nbytes:
                    break
                arr[:, k] = np.moveaxis(plane, -1, 0)
    except OSError as e:
        raise MetaImageError(f"{path}: cannot read data file {data_path} ({e})") from e
    if got < arr.nbytes:  # the file shrank while it was read
        raise MetaImageError(
            f"{path}: truncated payload, expected {arr.nbytes} bytes, got {got}")
    return grid, arr


def _check_identity_direction(path: str, key: str, value: str) -> None:
    try:
        matrix = np.array([float(v) for v in value.split()])
    except ValueError as e:
        raise MetaImageError(f"{path}: malformed header field {key} ({e})") from e
    if matrix.size != 9:
        raise MetaImageError(f"{path}: {key} must have 9 entries, got {matrix.size}")
    if np.max(np.abs(matrix - np.eye(3).ravel())) > _DIRECTION_TOL:
        raise MetaImageError(
            f"{path}: {key} = {value} is not the identity; rotated or flipped "
            "volumes are not supported (grids are axis-aligned)"
        )


def _write_meta(path: str, grid: Grid3, arr: np.ndarray, channels: int) -> None:
    dtype = np.dtype(arr.dtype).newbyteorder("<")
    name = _TYPE_NAMES.get(np.dtype(arr.dtype))
    if name is None:
        raise MetaImageError(f"{path}: unsupported array dtype {arr.dtype} for MetaImage output")
    header = [
        "ObjectType = Image",
        "NDims = 3",
        "BinaryData = True",
        "BinaryDataByteOrderMSB = False",
        "CompressedData = False",
        f"DimSize = {grid.dims[0]} {grid.dims[1]} {grid.dims[2]}",
        f"ElementSpacing = {grid.spacing[0]!r} {grid.spacing[1]!r} {grid.spacing[2]!r}",
        f"Offset = {grid.origin[0]!r} {grid.origin[1]!r} {grid.origin[2]!r}",
    ]
    if channels != 1:
        header.append(f"ElementNumberOfChannels = {channels}")
    header += [f"ElementType = {name}", "ElementDataFile = LOCAL"]
    with open(path, "wb") as fh:
        fh.write(("\n".join(header) + "\n").encode("ascii"))
        for plane in arr:  # a z-plane at a time: at most one plane is copied
            fh.write(np.ascontiguousarray(plane, dtype=dtype))


def read_volume(path: str, promote_dtype=np.float64) -> Image3:
    """Read a scalar MetaImage volume; 16-bit integers are promoted to
    `promote_dtype`, floats keep their native precision."""
    grid, arr = _read_meta(path)
    if len(arr) != 1:
        raise MetaImageError(f"{path}: expected a scalar volume, got {len(arr)} channels")
    values = arr[0]
    if values.dtype.kind == "i":
        values = values.astype(promote_dtype)
    try:
        return Image3(grid, values)
    except GridError as e:
        raise MetaImageError(f"{path}: {e}") from e


def read_volume_grid(path: str) -> Grid3:
    """The grid of a scalar MetaImage volume, read from its header alone."""
    grid, _, channels, _, _ = _read_header(path)
    if channels != 1:
        raise MetaImageError(f"{path}: expected a scalar volume, got {channels} channels")
    return grid


def write_volume(img: Image3, path: str) -> None:
    _write_meta(path, img.grid, img.values[..., None], channels=1)


def write_deformation(y: DeformationField, path: str) -> None:
    arr = np.moveaxis(y.field, 0, -1)  # channel-interleaved per voxel
    _write_meta(path, y.grid, arr, channels=3)


def read_deformation(path: str) -> DeformationField:
    grid, arr = _read_meta(path)
    if len(arr) != 3:
        raise MetaImageError(f"{path}: expected a 3-channel deformation, got {len(arr)} channels")
    if arr.dtype.kind != "f":
        raise MetaImageError(f"{path}: deformation fields must be floating point")
    try:
        return DeformationField(grid, arr)
    except GridError as e:
        raise MetaImageError(f"{path}: {e}") from e


def read_landmarks(path: str, frame: str, image_grid: Grid3) -> LandmarkSet:
    """Load landmarks and convert to world mm.

    frame: 'index1' (1-based voxel indices, DIR-lab convention),
           'index0' (0-based voxel indices) or 'world' (already in mm).
    """
    if frame not in ("index1", "index0", "world"):
        raise ValueError(f"unknown landmark frame {frame!r}")
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
    except UnicodeDecodeError:  # a ValueError, which would read as a numeric failure
        raise LandmarkFileError(f"{path}: not a UTF-8 text file") from None
    rows = []
    for lineno, line in enumerate(lines, 1):
        parts = line.split()
        if not parts:
            continue
        if len(parts) != 3:
            raise LandmarkFileError(f"{path}:{lineno}: expected 3 values, got {len(parts)}")
        try:
            row = [float(p) for p in parts]
        except ValueError:
            raise LandmarkFileError(f"{path}:{lineno}: non-numeric landmark entry") from None
        if not np.all(np.isfinite(row)):
            raise LandmarkFileError(f"{path}:{lineno}: non-finite landmark entry")
        rows.append(row)
    if not rows:  # an error over 0 landmarks would read as a perfect registration
        raise LandmarkFileError(f"{path}: no landmark rows")
    pts = np.array(rows, dtype=np.float64)
    if frame != "world":
        base = 1.0 if frame == "index1" else 0.0
        origin = np.array(image_grid.origin)
        spacing = np.array(image_grid.spacing)
        pts = origin + (pts - base) * spacing
    return LandmarkSet(pts)
