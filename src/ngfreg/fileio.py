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
# Direction cosines, under the three names MetaImage accepts for them. Grids
# here are axis-aligned, so a volume whose axes are rotated or flipped would
# be misread; only the identity (up to formatting noise) is accepted.
_DIRECTION_KEYS = ("TransformMatrix", "Rotation", "Orientation")
_DIRECTION_TOL = 1e-6
_TYPE_NAMES = {np.dtype(np.float32): "MET_FLOAT", np.dtype(np.float64): "MET_DOUBLE",
               np.dtype(np.int16): "MET_SHORT"}


def _parse_header(raw: bytes, path: str):
    """Split header lines until ElementDataFile; returns (fields, payload offset)."""
    fields = {}
    pos = 0
    while True:
        eol = raw.find(b"\n", pos)
        if eol < 0:
            raise MetaImageError(f"{path}: header has no ElementDataFile line")
        line = raw[pos:eol].decode("ascii", errors="replace").strip()
        pos = eol + 1
        if not line:
            continue
        if "=" not in line:
            raise MetaImageError(f"{path}: malformed header line {line!r}")
        key, value = (s.strip() for s in line.split("=", 1))
        fields[key] = value
        if key == "ElementDataFile":
            return fields, pos


def _read_meta(path: str):
    """Returns (grid, array) where array has shape (nz, ny, nx, channels)."""
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as e:
        raise MetaImageError(f"{path}: cannot read file ({e})") from e
    fields, offset = _parse_header(raw, path)

    if fields.get("NDims", "3") != "3":
        raise MetaImageError(f"{path}: only NDims = 3 is supported, got {fields.get('NDims')}")
    if fields.get("BinaryData", "True").lower() not in ("true", "1"):
        raise MetaImageError(f"{path}: only binary MetaImage data is supported")
    if fields.get("BinaryDataByteOrderMSB", "False").lower() not in ("false", "0"):
        raise MetaImageError(f"{path}: big-endian payloads are not supported")
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
    for key in _DIRECTION_KEYS:
        if key in fields:
            _check_identity_direction(path, key, fields[key])

    etype = fields.get("ElementType", "")
    if etype not in _ELEMENT_TYPES:
        raise MetaImageError(
            f"{path}: unsupported ElementType {etype!r} "
            f"(supported: {', '.join(sorted(_ELEMENT_TYPES))})"
        )
    dtype = _ELEMENT_TYPES[etype]

    datafile = fields["ElementDataFile"]
    if datafile.upper() == "LOCAL":
        payload = raw[offset:]
    else:
        data_path = os.path.join(os.path.dirname(path) or ".", datafile)
        try:
            with open(data_path, "rb") as fh:
                payload = fh.read()
        except OSError as e:
            raise MetaImageError(f"{path}: cannot read data file {data_path} ({e})") from e

    expected = dims[0] * dims[1] * dims[2] * channels * dtype.itemsize
    if len(payload) < expected:
        raise MetaImageError(
            f"{path}: truncated payload, expected {expected} bytes, got {len(payload)}"
        )
    arr = np.frombuffer(payload[:expected], dtype=dtype)
    arr = arr.reshape(dims[2], dims[1], dims[0], channels)
    try:
        return Grid3(dims, spacing, origin), arr, channels
    except GridError as e:
        raise MetaImageError(f"{path}: {e}") from e


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
        fh.write(np.ascontiguousarray(arr, dtype=dtype).tobytes())


def read_volume(path: str, promote_dtype=np.float64) -> Image3:
    """Read a scalar MetaImage volume; 16-bit integers are promoted to
    `promote_dtype`, floats keep their native precision."""
    grid, arr, channels = _read_meta(path)
    if channels != 1:
        raise MetaImageError(f"{path}: expected a scalar volume, got {channels} channels")
    values = arr[..., 0]
    if values.dtype.kind == "i":
        values = values.astype(promote_dtype)
    try:
        return Image3(grid, values.copy())
    except GridError as e:
        raise MetaImageError(f"{path}: {e}") from e


def write_volume(img: Image3, path: str) -> None:
    _write_meta(path, img.grid, img.values[..., None], channels=1)


def write_deformation(y: DeformationField, path: str) -> None:
    arr = np.moveaxis(y.field, 0, -1)  # channel-interleaved per voxel
    _write_meta(path, y.grid, arr, channels=3)


def read_deformation(path: str) -> DeformationField:
    grid, arr, channels = _read_meta(path)
    if channels != 3:
        raise MetaImageError(f"{path}: expected a 3-channel deformation, got {channels} channels")
    if arr.dtype.kind != "f":
        raise MetaImageError(f"{path}: deformation fields must be floating point")
    try:
        return DeformationField(grid, np.moveaxis(arr, -1, 0).copy())
    except GridError as e:
        raise MetaImageError(f"{path}: {e}") from e


def read_landmarks(path: str, frame: str, image_grid: Grid3) -> LandmarkSet:
    """Load landmarks and convert to world mm.

    frame: 'index1' (1-based voxel indices, DIR-lab convention),
           'index0' (0-based voxel indices) or 'world' (already in mm).
    """
    if frame not in ("index1", "index0", "world"):
        raise ValueError(f"unknown landmark frame {frame!r}")
    rows = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            parts = line.split()
            if len(parts) != 3:
                raise LandmarkFileError(f"{path}:{lineno}: expected 3 values, got {len(parts)}")
            try:
                row = [float(p) for p in parts]
            except ValueError:
                raise LandmarkFileError(f"{path}:{lineno}: non-numeric landmark entry") from None
            if not np.all(np.isfinite(row)):
                raise LandmarkFileError(f"{path}:{lineno}: non-finite landmark entry")
            rows.append(row)
    pts = np.array(rows, dtype=np.float64).reshape(-1, 3)
    if frame != "world":
        base = 1.0 if frame == "index1" else 0.0
        origin = np.array(image_grid.origin)
        spacing = np.array(image_grid.spacing)
        pts = origin + (pts - base) * spacing
    return LandmarkSet(pts)
