"""Volume data model, raw file format, normalization and patch extraction.

Scalar volumes are 4D ``(nx, ny, nz, nt)`` float32 grids with per-axis
physical spacing (mm for x/y/z, ms or unitless for t). Label volumes are
3D or 4D uint8 grids over the ACDC-2017 classes; :data:`ACDC_SCHEMA` is the
one table of which id is which class (0=BG, 1=RV, 2=MYO, 3=LV).
Voxel storage order is x-fastest throughout: element ``(x, y, z, t)`` sits
at flat index ``x + nx*(y + ny*(z + nz*t))``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np


class VolumeFormatError(ValueError):
    """Malformed header; the message names the offending key."""


class VolumeSizeError(ValueError):
    """Payload byte count does not match the header dimensions."""


_ELEMENT_TYPES = {"FLOAT32": np.dtype("<f4"), "UINT8": np.dtype("u1")}
_HEADER_KEYS = ("NDims", "DimSize", "ElementSpacing", "ElementType", "ElementDataFile")


@dataclass(frozen=True)
class LabelSchema:
    """Ordered (id, name) pairs; id 0 is reserved for background."""

    entries: tuple = ((0, "BG"), (1, "RV"), (2, "MYO"), (3, "LV"))

    def __post_init__(self):
        ids = [i for i, _ in self.entries]
        if len(set(ids)) != len(ids):
            raise ValueError("label ids must be unique")
        if 0 not in ids:
            raise ValueError("label id 0 (background) is required")

    @property
    def ids(self):
        return tuple(i for i, _ in self.entries)

    def id_of(self, name: str) -> int:
        for i, n in self.entries:
            if n == name:
                return i
        raise KeyError(name)

    def name_of(self, label_id: int) -> str:
        for i, n in self.entries:
            if i == label_id:
                return n
        raise KeyError(label_id)

    @property
    def foreground_ids(self):
        return tuple(i for i, _ in self.entries if i != 0)


ACDC_SCHEMA = LabelSchema()


def _locked(arr: np.ndarray, source) -> np.ndarray:
    """Read-only `arr`, copied first only if it shares memory with `source`."""
    if np.may_share_memory(arr, source):
        arr = arr.copy(order="K")  # keep the memory order: files load F-contiguous
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class ScalarVolume:
    """Immutable 4D real-valued grid with physical spacing.

    float32 data is held as float32, in the caller's memory order; any other
    dtype is cast to float64. Consumers compute in float64 at the point of
    use. The caller's array is copied at most once: the float64 cast is the
    copy when it has to convert, and otherwise one explicit copy is made, so
    the volume never aliases the caller's memory.
    """

    data: np.ndarray
    spacing: tuple = (1.0, 1.0, 1.0, 1.0)

    def __post_init__(self):
        data = np.asarray(self.data)
        if data.dtype != np.float32:
            data = np.asarray(data, dtype=np.float64)
        if data.ndim != 4:
            raise ValueError(f"scalar volume must be 4D, got {data.ndim}D")
        if not np.all(np.isfinite(data)):
            raise ValueError("scalar volume contains non-finite values")
        spacing = tuple(float(s) for s in self.spacing)
        if len(spacing) != 4 or any(not 0 < s < math.inf for s in spacing):
            raise ValueError(f"spacing must be 4 positive finite reals, got {self.spacing}")
        object.__setattr__(self, "data", _locked(data, self.data))
        object.__setattr__(self, "spacing", spacing)

    @property
    def dims(self):
        return self.data.shape


@dataclass(frozen=True)
class LabelVolume:
    """Immutable 3D/4D integer label grid whose values are ids of
    :data:`ACDC_SCHEMA`."""

    data: np.ndarray
    spacing: tuple = (1.0, 1.0, 1.0)

    def __post_init__(self):
        data = np.asarray(self.data)
        if data.ndim not in (3, 4):
            raise ValueError(f"label volume must be 3D or 4D, got {data.ndim}D")
        present = np.unique(data)
        bad = [int(v) for v in present if int(v) not in ACDC_SCHEMA.ids]
        if bad:
            raise ValueError(f"labels {bad} are not in the schema {ACDC_SCHEMA.ids}")
        spacing = tuple(float(s) for s in self.spacing)
        if len(spacing) != data.ndim or any(not 0 < s < math.inf for s in spacing):
            raise ValueError(
                f"spacing must be {data.ndim} positive finite reals, got {self.spacing}"
            )
        object.__setattr__(self, "data", _locked(data.astype(np.uint8), self.data))
        object.__setattr__(self, "spacing", spacing)

    @property
    def dims(self):
        return self.data.shape

    def class_mask(self, label_id: int) -> np.ndarray:
        return self.data == label_id


@dataclass(frozen=True)
class Patch:
    """Window extracted from a volume, zero-padded where it exits the grid."""

    data: np.ndarray
    center: tuple
    size: tuple
    spacing: tuple

    def __post_init__(self):
        if self.size[0] <= 0 or self.size[1] <= 0:
            raise ValueError("patch size must be positive")


def _parse_header(raw: bytes, path):
    """Split raw file content into parsed header fields and the payload."""
    sep = raw.find(b"\n\n")
    if sep < 0:
        raise VolumeFormatError(f"{path}: missing blank line terminating the header")
    header_text = raw[:sep].decode("ascii", errors="replace")
    payload = memoryview(raw)[sep + 2:]  # a view: slicing bytes would copy the payload

    fields = {}
    order = []
    for line in header_text.splitlines():
        if not line.strip():
            continue
        if "=" not in line:
            raise VolumeFormatError(f"{path}: header line without '=': {line!r}")
        key, value = line.split("=", 1)
        fields[key.strip()] = value.strip()
        order.append(key.strip())
    if tuple(order) != _HEADER_KEYS:
        expected = ", ".join(_HEADER_KEYS)
        got = ", ".join(order)
        missing = [k for k in _HEADER_KEYS if k not in fields]
        bad = missing[0] if missing else (order + ["?"])[len(_HEADER_KEYS) - 1]
        raise VolumeFormatError(
            f"{path}: header keys must be [{expected}] in order, got [{got}]"
            f" (offending key: {bad})"
        )

    try:
        ndims = int(fields["NDims"])
    except ValueError:
        raise VolumeFormatError(f"{path}: NDims is not an integer: {fields['NDims']!r}")
    if ndims not in (3, 4):
        raise VolumeFormatError(f"{path}: NDims must be 3 or 4, got {ndims}")

    try:
        dims = tuple(int(v) for v in fields["DimSize"].split())
    except ValueError:
        raise VolumeFormatError(f"{path}: DimSize must be integers: {fields['DimSize']!r}")
    if len(dims) != ndims or any(d <= 0 for d in dims):
        raise VolumeFormatError(
            f"{path}: DimSize must be {ndims} positive integers, got {fields['DimSize']!r}"
        )

    try:
        spacing = tuple(float(v) for v in fields["ElementSpacing"].split())
    except ValueError:
        raise VolumeFormatError(
            f"{path}: ElementSpacing must be reals: {fields['ElementSpacing']!r}"
        )
    if len(spacing) != ndims or any(not 0 < s < math.inf for s in spacing):
        raise VolumeFormatError(
            f"{path}: ElementSpacing must be {ndims} positive finite reals,"
            f" got {fields['ElementSpacing']!r}"
        )

    etype = fields["ElementType"]
    if etype not in _ELEMENT_TYPES:
        raise VolumeFormatError(f"{path}: ElementType must be FLOAT32 or UINT8, got {etype!r}")
    if fields["ElementDataFile"] != "LOCAL":
        raise VolumeFormatError(
            f"{path}: ElementDataFile must be LOCAL, got {fields['ElementDataFile']!r}"
        )
    return dims, spacing, etype, payload


def load_volume(path, kind: str):
    """Load a raw volume file as a scalar or label volume.

    ``kind`` selects the returned type: "scalar" requires FLOAT32 payload
    (3D files gain a singleton t axis), "label" requires UINT8.
    """
    if kind not in ("scalar", "label"):
        raise ValueError(f"kind must be 'scalar' or 'label', got {kind!r}")
    path = Path(path)
    raw = path.read_bytes()
    dims, spacing, etype, payload = _parse_header(raw, path)

    dtype = _ELEMENT_TYPES[etype]
    expected = math.prod(dims) * dtype.itemsize  # Python ints: no int64 wrap-around
    if len(payload) != expected:
        raise VolumeSizeError(
            f"{path}: payload holds {len(payload)} bytes, expected {expected}"
            f" for DimSize {' '.join(str(d) for d in dims)} ({etype})"
        )
    data = np.frombuffer(payload, dtype=dtype).reshape(dims, order="F")

    if kind == "scalar":
        if etype != "FLOAT32":
            raise VolumeFormatError(f"{path}: ElementType must be FLOAT32 for scalar volumes")
        if data.ndim == 3:
            data = data[:, :, :, np.newaxis]
            spacing = spacing + (1.0,)
        return ScalarVolume(data=data, spacing=spacing)
    if etype != "UINT8":
        raise VolumeFormatError(f"{path}: ElementType must be UINT8 for label volumes")
    return LabelVolume(data=data, spacing=spacing)


def save_volume(vol, path) -> None:
    """Write a volume in the raw header + little-endian payload format."""
    path = Path(path)
    if isinstance(vol, ScalarVolume):
        data = np.asarray(vol.data, dtype="<f4")
        etype = "FLOAT32"
    elif isinstance(vol, LabelVolume):
        data = np.asarray(vol.data, dtype="u1")
        etype = "UINT8"
    else:
        raise TypeError(f"cannot save object of type {type(vol).__name__}")
    dims = " ".join(str(d) for d in data.shape)
    spacing = " ".join(repr(float(s)) for s in vol.spacing)
    header = (
        f"NDims = {data.ndim}\n"
        f"DimSize = {dims}\n"
        f"ElementSpacing = {spacing}\n"
        f"ElementType = {etype}\n"
        f"ElementDataFile = LOCAL\n"
        f"\n"
    )
    with open(path, "wb") as fh:
        fh.write(header.encode("ascii"))
        fh.write(np.ravel(data, order="F"))  # a view when data is F-contiguous


def normalize_slicewise(v: ScalarVolume) -> ScalarVolume:
    """Rescale every (z, t) slice to [0, 1] by its own min and max.

    A degenerate slice (max == min) maps to all zeros.
    """
    data = v.data.astype(np.float64)
    lo = data.min(axis=(0, 1), keepdims=True)
    hi = data.max(axis=(0, 1), keepdims=True)
    span = hi - lo
    out = np.zeros_like(data)
    np.divide(data - lo, span, out=out, where=span > 0)
    return ScalarVolume(data=out, spacing=v.spacing)


def crop_patch(v, center, size) -> Patch:
    """Extract a (w, h) window centered on an in-plane voxel, for all z/t.

    The center voxel maps to patch index (w//2, h//2); voxels outside the
    source grid are zero-filled (background for label volumes).
    """
    cx, cy = int(center[0]), int(center[1])
    w, h = int(size[0]), int(size[1])
    if w <= 0 or h <= 0:
        raise ValueError(f"patch size must be positive, got {size}")
    nx, ny = v.dims[0], v.dims[1]
    if not (0 <= cx < nx and 0 <= cy < ny):
        raise ValueError(f"center {center} lies outside the {nx}x{ny} grid")

    data = v.data
    if data.ndim == 3:
        data = data[:, :, :, np.newaxis]
    # in the source's memory order, so an x-fastest cine is read in order
    order = "F" if data.flags.f_contiguous else "C"
    out = np.zeros((w, h) + data.shape[2:], dtype=data.dtype, order=order)

    x0, y0 = cx - w // 2, cy - h // 2
    sx0, sx1 = max(x0, 0), min(x0 + w, nx)
    sy0, sy1 = max(y0, 0), min(y0 + h, ny)
    out[sx0 - x0:sx1 - x0, sy0 - y0:sy1 - y0] = data[sx0:sx1, sy0:sy1]
    if v.data.ndim == 3:
        out = out[:, :, :, 0]

    return Patch(data=out, center=(cx, cy), size=(w, h), spacing=v.spacing)


def _resize_axis(data: np.ndarray, axis: int, target: int) -> np.ndarray:
    n = data.shape[axis]
    if target == n:
        return data
    if target > n:
        before = (target - n) // 2
        pad = [(0, 0)] * data.ndim
        pad[axis] = (before, target - n - before)
        return np.pad(data, pad, mode="constant")
    start = (n - target) // 2
    sl = [slice(None)] * data.ndim
    sl[axis] = slice(start, start + target)
    return data[tuple(sl)]


def pad_or_center_crop(v, target):
    """Symmetrically zero-pad or center-crop each slice to (w, h)."""
    w, h = int(target[0]), int(target[1])
    if w <= 0 or h <= 0:
        raise ValueError(f"target size must be positive, got {target}")
    data = _resize_axis(_resize_axis(v.data, 0, w), 1, h)
    if isinstance(v, ScalarVolume):
        return ScalarVolume(data=data, spacing=v.spacing)
    return LabelVolume(data=data, spacing=v.spacing)
