"""Memory-mapped access to the checkpoint ``arrays.npz`` column store.

``np.savez`` writes an *uncompressed* zip archive whose members are
plain ``.npy`` blobs stored contiguously, so every column can be mapped
straight out of the file instead of decoded into fresh allocations:
:func:`open_columns` locates each member's data offset through the zip
local-file headers and hands back ``np.memmap`` views.  A warm start
then pays one page-cache walk for the columns an experiment actually
touches, not an eager parse of the whole entry — the load-side half of
the columnar-first world representation (DESIGN §13).

Safety mirrors the checkpoint contract: anything unexpected — a
truncated archive, a compressed member, a malformed npy header, a
foreign dtype — logs a warning and falls back to the eager
``np.load`` decode (and if *that* fails too, the caller's corrupt-entry
handling discards the entry).  Mapped and eagerly loaded columns are
bit-identical by construction; ``tests/test_columnar.py`` pins it.
That fallback is also what a filesystem without ``mmap`` gets, so there
is no switch to turn mapping off.
"""

from __future__ import annotations

import gc
import logging
import mmap as _mmap
import struct
import zipfile
from pathlib import Path

import numpy as np

from repro import obs

__all__ = ["ColumnSet", "ColumnWriter", "open_columns"]

log = logging.getLogger(__name__)

#: Zip local-file-header layout (PKZIP appnote 4.3.7): signature,
#: version, flags, method, time, date, crc, csize, usize, namelen, extralen.
_LOCAL_HEADER = struct.Struct("<4s5H3L2H")
_LOCAL_MAGIC = b"PK\x03\x04"


class ColumnSet:
    """A read-only mapping of column name → ndarray.

    Backed either by ``np.memmap`` views over one shared map of the
    archive (``mapped=True``) or by an eagerly decoded ``np.load``
    result.  Views materialise lazily: a consumer that only touches the
    RIB columns never reads the ROA pages.
    """

    def __init__(self, path: Path, members: dict, handle, buffer, mapped: bool):
        self._path = Path(path)
        self._members = members  # name -> (dtype, shape, order, offset) | ndarray
        self._handle = handle
        self._buffer = buffer
        self.mapped = mapped
        self._views: dict[str, np.ndarray] = {}

    def __contains__(self, name: str) -> bool:
        return name in self._members

    def __iter__(self):
        return iter(self._members)

    def keys(self):
        return self._members.keys()

    def __getitem__(self, name: str) -> np.ndarray:
        view = self._views.get(name)
        if view is None:
            member = self._members[name]
            if isinstance(member, np.ndarray):
                view = member
            else:
                dtype, shape, fortran, offset = member
                count = int(np.prod(shape, dtype=np.int64)) if shape else 1
                view = np.frombuffer(
                    self._buffer, dtype=dtype, count=count, offset=offset
                )
                view = view.reshape(shape, order="F" if fortran else "C")
                obs.add("columns.mapped")
            self._views[name] = view
        return view

    def close(self) -> None:
        """Drop views and release the underlying map/handle."""
        self._views.clear()
        self._members = {}
        if self._buffer is not None:
            try:
                self._buffer.close()
            except (BufferError, ValueError):
                pass  # live views still reference the map; the GC reaps it
            self._buffer = None
        if self._handle is not None:
            self._handle.close()
            self._handle = None


class ColumnWriter:
    """Streaming writer for the uncompressed ``arrays.npz`` layout.

    Appends one named column at a time to a ``ZIP_STORED`` archive using
    the same member layout ``np.savez`` produces (``.npy`` members with
    v1/v2 headers, no compression, local headers patched in place on a
    seekable file — no data descriptors), so the finished archive is
    byte-for-byte the shape :func:`_member_layout` maps.  The point is
    save-side memory: the checkpoint writer streams each stage's columns
    into the archive and releases them before the next stage's arrays
    are even built, instead of holding every stage alive for one big
    ``np.savez`` call at the end.
    """

    def __init__(self, path: str | Path):
        self._path = Path(path)
        self._archive = zipfile.ZipFile(
            self._path, mode="w", compression=zipfile.ZIP_STORED
        )
        self._names: set[str] = set()

    def __enter__(self) -> "ColumnWriter":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def write(self, name: str, array: np.ndarray) -> None:
        """Append one column; the array can be released by the caller
        as soon as this returns."""
        if self._archive is None:
            raise ValueError(f"{self._path}: writer is closed")
        array = np.asarray(array)
        if array.dtype.hasobject:
            raise ValueError(f"{name}: object dtype cannot be stored")
        if name in self._names:
            raise ValueError(f"{name}: duplicate column")
        self._names.add(name)
        with self._archive.open(
            name + ".npy", "w", force_zip64=True
        ) as member:
            np.lib.format.write_array(member, array, allow_pickle=False)
        obs.add("columns.streamed")

    def write_all(self, arrays: dict[str, np.ndarray]) -> None:
        """Append every column of one stage, in dict order."""
        for name, array in arrays.items():
            self.write(name, array)

    def close(self) -> None:
        if self._archive is not None:
            self._archive.close()
            self._archive = None


def _member_layout(path: Path) -> dict[str, tuple]:
    """Per-column (dtype, shape, fortran, data offset) from the archive.

    Raises on anything that cannot be mapped verbatim: compressed
    members, truncated headers, pickled/object dtypes.
    """
    members: dict[str, tuple] = {}
    with zipfile.ZipFile(path) as archive, open(path, "rb") as raw:
        for info in archive.infolist():
            if info.compress_type != zipfile.ZIP_STORED:
                raise ValueError(f"{info.filename}: compressed member")
            raw.seek(info.header_offset)
            header = raw.read(_LOCAL_HEADER.size)
            fields = _LOCAL_HEADER.unpack(header)
            if fields[0] != _LOCAL_MAGIC:
                raise ValueError(f"{info.filename}: bad local header")
            name_len, extra_len = fields[9], fields[10]
            data_offset = (
                info.header_offset + _LOCAL_HEADER.size + name_len + extra_len
            )
            raw.seek(data_offset)
            version = np.lib.format.read_magic(raw)
            if version == (1, 0):
                read_header = np.lib.format.read_array_header_1_0
            elif version == (2, 0):
                read_header = np.lib.format.read_array_header_2_0
            else:
                raise ValueError(f"{info.filename}: npy format {version}")
            shape, fortran, dtype = read_header(raw)
            if dtype.hasobject:
                raise ValueError(f"{info.filename}: object dtype")
            name = info.filename
            if name.endswith(".npy"):
                name = name[: -len(".npy")]
            members[name] = (dtype, shape, fortran, raw.tell())
        expected_end = max(
            (
                offset + dtype.itemsize * int(np.prod(shape, dtype=np.int64))
                for dtype, shape, _, offset in members.values()
            ),
            default=0,
        )
    if path.stat().st_size < expected_end:
        raise ValueError("archive truncated below member data")
    return members


def open_columns(path: str | Path, mmap: bool = True) -> ColumnSet:
    """Open one ``arrays.npz`` as a :class:`ColumnSet`.

    Maps the archive unless ``mmap=False`` (the tests' eager reference).
    Any problem establishing the map logs a warning and decodes eagerly
    instead; eager decode errors propagate to the caller's corrupt-entry
    handling.
    """
    path = Path(path)
    columns = None
    if mmap:
        try:
            members = _member_layout(path)
            handle = open(path, "rb")
            buffer = _mmap.mmap(handle.fileno(), 0, access=_mmap.ACCESS_READ)
            obs.add("columns.open.mapped")
            columns = ColumnSet(path, members, handle, buffer, mapped=True)
        except Exception as error:  # noqa: BLE001 - map is an optimisation
            log.warning(
                "cannot memory-map %s (%s); falling back to eager load",
                path,
                error,
            )
            obs.add("columns.open.map_failed")
    if columns is None:
        with np.load(path, allow_pickle=False) as eager:
            members = {name: eager[name] for name in eager.files}
        obs.add("columns.open.eager")
        columns = ColumnSet(path, members, None, None, mapped=False)
    # numpy parses each member's .npy header with ast.literal_eval, whose
    # nested closures leave one small reference cycle per call (≈880
    # objects per entry).  CheckpointStore.load opens the columns under a
    # freezing GC pause, and a frozen cycle is never collected, so reap
    # them now, while the young generations hold little else.
    gc.collect(1)
    return columns
