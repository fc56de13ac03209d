"""Volume data model, raw file format, normalization and fixed-size windows.

Scalar volumes are 4D ``(nx, ny, nz, nt)`` float32 grids with per-axis
physical spacing (mm for x/y/z, ms or unitless for t). Label volumes are
3D or 4D uint8 grids over the ACDC-2017 classes; :class:`LabelSchema` is the
fixed table of which id is which class (0=BG, 1=RV, 2=MYO, 3=LV).
:func:`check_spacing` is the one spacing rule of every module.
Voxel storage order is x-fastest throughout: element ``(x, y, z, t)`` sits
at flat index ``x + nx*(y + ny*(z + nz*t))``.
"""

from __future__ import annotations

import math
import os
from dataclasses import InitVar, dataclass
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
    """The fixed ACDC-2017 label table, 0=BG, 1=RV, 2=MYO, 3=LV; it takes no
    arguments. ``id_of`` and ``name_of`` raise ``KeyError`` outside it."""

    ids = (0, 1, 2, 3)
    foreground_ids = (1, 2, 3)
    _names = {0: "BG", 1: "RV", 2: "MYO", 3: "LV"}
    _ids = {name: i for i, name in _names.items()}

    def id_of(self, name: str) -> int:
        return self._ids[name]

    def name_of(self, label_id: int) -> str:
        return self._names[label_id]


ACDC_SCHEMA = LabelSchema()


def check_spacing(spacing, n: int) -> tuple:
    """The ``n`` per-axis voxel spacings as floats, or a ``ValueError`` unless
    each of ``n`` is positive and finite. Volumes, volume headers, Hausdorff
    distances and augmentation all check a spacing here."""
    values = tuple(float(s) for s in spacing)
    if len(values) != n or not all(0 < s < math.inf for s in values):
        raise ValueError(f"spacing must be positive and finite, {n} values, got {tuple(spacing)}")
    return values


def _locked(arr: np.ndarray, source, owned: bool) -> np.ndarray:
    """Read-only `arr`, copied first if it shares memory with `source`,
    unless the caller handed `source` over (`owned`)."""
    if not owned and np.may_share_memory(arr, source):
        arr = arr.copy(order="K")  # keep the memory order: files load F-contiguous
    arr.setflags(write=False)
    return arr


def _all_finite(data: np.ndarray) -> bool:
    """``np.isfinite(data).all()``, one slab of the outermost memory axis at
    a time (a frame of an x-fastest cine), so the temporary is one slab."""
    slabs = data.T if data.flags.f_contiguous else data
    return all(np.isfinite(slab).all() for slab in slabs)


def present_ids(data: np.ndarray) -> np.ndarray:
    """The distinct values of a label array, ascending, as ``np.unique``.

    A uint8 array is scattered into a 256-entry table instead: no temporary
    of its size, and no ``np.unique``, whose first call in a process
    imports ``numpy.ma`` (numpy 2.4).
    """
    if data.dtype != np.uint8:
        return np.unique(data)
    seen = np.zeros(256, dtype=bool)
    seen[data] = True
    return np.flatnonzero(seen)


@dataclass(frozen=True)
class ScalarVolume:
    """Immutable 4D real-valued grid with physical spacing.

    float32 data is held as float32, in the caller's memory order; any other
    dtype is cast to float64. Consumers compute in float64 at the point of
    use. A caller's array is copied at most once: the float64 cast is the
    copy when it has to convert, and otherwise one explicit copy is made, so
    the volume never aliases the caller's memory. A file load is not copied
    at all: ``load_volume`` reads the payload into a fresh array and hands
    it over with ``_owned=True``, and the volume keeps that array, made
    read-only. ``_owned`` is for such arrays, which nothing else refers to.
    """

    data: np.ndarray
    spacing: tuple = (1.0, 1.0, 1.0, 1.0)
    _owned: InitVar[bool] = False

    def __post_init__(self, _owned):
        data = np.asarray(self.data)
        if data.dtype != np.float32:
            data = np.asarray(data, dtype=np.float64)
        if data.ndim != 4:
            raise ValueError(f"scalar volume must be 4D, got {data.ndim}D")
        if not _all_finite(data):
            raise ValueError("scalar volume contains non-finite values")
        spacing = check_spacing(self.spacing, 4)
        object.__setattr__(self, "data", _locked(data, self.data, _owned))
        object.__setattr__(self, "spacing", spacing)

    @property
    def dims(self):
        return self.data.shape


def _only_schema_ids(data: np.ndarray) -> bool:
    """Whether an integer array holds ids of :data:`ACDC_SCHEMA` only. The ids
    are the range 0..3, so one ``min`` and one ``max`` decide, with no
    temporary of the array's size."""
    ids = ACDC_SCHEMA.ids
    return data.dtype.kind in "biu" and (
        data.size == 0 or (min(ids) <= data.min() and data.max() <= max(ids)))


@dataclass(frozen=True)
class LabelVolume:
    """Immutable 3D/4D label grid whose values are ids of :data:`ACDC_SCHEMA`.

    An integer array is checked with one ``min`` and one ``max``; any other
    array value by value, so a non-integral value (1.5, -0.5, nan) is refused,
    never truncated to an id. The refusal names every value outside the
    schema. Held as uint8; the caller's array is copied once, unless handed
    over with ``_owned=True`` as in :class:`ScalarVolume`.
    """

    data: np.ndarray
    spacing: tuple = (1.0, 1.0, 1.0)
    _owned: InitVar[bool] = False

    def __post_init__(self, _owned):
        data = np.asarray(self.data)
        if data.ndim not in (3, 4):
            raise ValueError(f"label volume must be 3D or 4D, got {data.ndim}D")
        if not _only_schema_ids(data):
            bad = [int(v) if float(v).is_integer() else float(v)  # 1.5, nan: as floats
                   for v in present_ids(data) if v not in ACDC_SCHEMA.ids]
            if bad:
                raise ValueError(f"labels {bad} are not in the schema {ACDC_SCHEMA.ids}")
        spacing = check_spacing(self.spacing, data.ndim)
        data = data.astype(np.uint8, copy=False)
        object.__setattr__(self, "data", _locked(data, self.data, _owned))
        object.__setattr__(self, "spacing", spacing)

    @property
    def dims(self):
        return self.data.shape

    def class_mask(self, label_id: int) -> np.ndarray:
        return self.data == label_id


# Bytes read at a time while looking for the blank line that ends a header.
_HEADER_BLOCK = 4096
# Bound on a header (the writer's are about 150 bytes) and on a config file,
# so a file without its terminator is refused before it is read whole.
MAX_HEADER_BYTES = 64 * 1024


def _read_header(fh, path) -> tuple:
    """Read a file up to the blank line that ends its header, a block at a
    time; returns the bytes read and the offset of that blank line."""
    head = bytearray(fh.read(_HEADER_BLOCK))
    sep = head.find(b"\n\n")
    while sep < 0:
        if len(head) >= MAX_HEADER_BYTES:
            raise VolumeFormatError(
                f"{path}: no blank line terminating the header in its first"
                f" {MAX_HEADER_BYTES} bytes"
            )
        block = fh.read(_HEADER_BLOCK)
        if not block:
            raise VolumeFormatError(f"{path}: missing blank line terminating the header")
        head += block
        sep = head.find(b"\n\n", len(head) - len(block) - 1)
    return head, sep


def _parse_header(header, path):
    """Parse header text (without its blank line) into dims, spacing and type."""
    header_text = header.decode("ascii", errors="replace")

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
        spacing = check_spacing(fields["ElementSpacing"].split(), ndims)
    except ValueError as e:  # a value that is not a real, too
        raise VolumeFormatError(f"{path}: ElementSpacing {fields['ElementSpacing']!r}: {e}")

    etype = fields["ElementType"]
    if etype not in _ELEMENT_TYPES:
        raise VolumeFormatError(f"{path}: ElementType must be FLOAT32 or UINT8, got {etype!r}")
    if fields["ElementDataFile"] != "LOCAL":
        raise VolumeFormatError(
            f"{path}: ElementDataFile must be LOCAL, got {fields['ElementDataFile']!r}"
        )
    return dims, spacing, etype


def load_volume(path, kind: str):
    """Load a raw volume file as a scalar or label volume.

    ``kind`` selects the returned type: "scalar" requires FLOAT32 payload
    (3D files gain a singleton t axis), "label" requires UINT8.
    The header is checked, and the file size against its DimSize, before
    the payload is read once, straight into the array the volume keeps.
    """
    if kind not in ("scalar", "label"):
        raise ValueError(f"kind must be 'scalar' or 'label', got {kind!r}")
    path = Path(path)
    with open(path, "rb") as fh:
        head, sep = _read_header(fh, path)
        dims, spacing, etype = _parse_header(head[:sep], path)

        dtype = _ELEMENT_TYPES[etype]
        expected = math.prod(dims) * dtype.itemsize  # Python ints: no int64 wrap-around
        size = os.fstat(fh.fileno()).st_size - (sep + 2)
        if size != expected:
            raise VolumeSizeError(
                f"{path}: payload holds {size} bytes, expected {expected}"
                f" for DimSize {' '.join(str(d) for d in dims)} ({etype})"
            )
        if kind == "scalar" and etype != "FLOAT32":
            raise VolumeFormatError(f"{path}: ElementType must be FLOAT32 for scalar volumes")
        if kind == "label" and etype != "UINT8":
            raise VolumeFormatError(f"{path}: ElementType must be UINT8 for label volumes")

        flat = np.empty(math.prod(dims), dtype=dtype)
        buf = memoryview(flat).cast("B")
        started = len(head) - (sep + 2)  # payload bytes read with the header
        buf[:started] = head[sep + 2:]
        got = started + fh.readinto(buf[started:])
        if got != expected:  # the file shrank after its size was taken
            raise VolumeSizeError(f"{path}: payload holds {got} bytes, expected {expected}")
    data = flat.reshape(dims, order="F")

    if kind == "label":
        return LabelVolume(data=data, spacing=spacing, _owned=True)
    if data.ndim == 3:
        data = data[:, :, :, np.newaxis]
        spacing = spacing + (1.0,)
    return ScalarVolume(data=data, spacing=spacing, _owned=True)


def save_volume(vol, path) -> None:
    """Write a volume in the raw header + little-endian payload format.

    The payload goes out in file order (x fastest) whatever the array's
    memory order: an F-contiguous array is written as a view of itself, and
    any other is copied one y row at a time, all x, z and t of it, into one
    buffer already of the file's element type, so the float32 or uint8 cast
    happens in that copy and the peak is one payload. Each row's copy stays
    in cache, where a whole-array transpose does not. A volume with an
    empty axis is refused before the file is opened: ``load_volume``
    refuses such a file.
    """
    path = Path(path)
    if isinstance(vol, ScalarVolume):
        dtype, etype = "<f4", "FLOAT32"
    elif isinstance(vol, LabelVolume):
        dtype, etype = "u1", "UINT8"
    else:
        raise TypeError(f"cannot save object of type {type(vol).__name__}")
    data = vol.data
    if 0 in data.shape:
        raise ValueError(f"cannot save a volume with an empty axis: shape {data.shape}")
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
    if data.flags.f_contiguous:
        payload = np.ravel(np.asarray(data, dtype), order="F")  # a view without a cast
    else:
        payload = np.empty(data.shape[::-1], dtype)  # C order over reversed axes: file order
        for y in range(data.shape[1]):
            payload[..., y, :] = data[:, y].T
    with open(path, "wb") as fh:
        fh.write(header.encode("ascii"))
        fh.write(payload)


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


def _window(v, origin, size):
    """The (w, h) window of every z/t slice of ``v`` whose first voxel is the
    in-plane voxel ``origin``, zero-filled (background for label volumes)
    where it leaves the grid: a volume of ``v``'s kind and spacing."""
    w, h = int(size[0]), int(size[1])
    if w <= 0 or h <= 0:
        raise ValueError(f"window size must be positive, got {tuple(size)}")
    data = v.data
    # in the source's memory order, so an x-fastest cine is read in order
    order = "F" if data.flags.f_contiguous else "C"
    out = np.zeros((w, h) + data.shape[2:], dtype=data.dtype, order=order)
    x0, y0 = origin
    sx0, sx1 = max(x0, 0), min(x0 + w, data.shape[0])
    sy0, sy1 = max(y0, 0), min(y0 + h, data.shape[1])
    out[sx0 - x0:sx1 - x0, sy0 - y0:sy1 - y0] = data[sx0:sx1, sy0:sy1]
    return type(v)(data=out, spacing=v.spacing, _owned=True)


def crop_patch(v, center, size):
    """The (w, h) window centered on an in-plane voxel, for all z/t, as a
    volume of ``v``'s kind and spacing.

    The center voxel maps to patch index (w//2, h//2); voxels outside the
    source grid are zero-filled (background for label volumes).
    """
    cx, cy = int(center[0]), int(center[1])
    nx, ny = v.dims[0], v.dims[1]
    if not (0 <= cx < nx and 0 <= cy < ny):
        raise ValueError(f"center {center} lies outside the {nx}x{ny} grid")
    return _window(v, (cx - int(size[0]) // 2, cy - int(size[1]) // 2), size)


def pad_or_center_crop(v, target):
    """Symmetrically zero-pad or center-crop each slice to (w, h), as a
    volume of ``v``'s kind and spacing; the odd voxel of an odd difference
    is padded or dropped after the data."""
    size = (int(target[0]), int(target[1]))
    # half the difference, rounded toward zero
    return _window(v, [int((n - t) / 2) for n, t in zip(v.dims, size)], size)
