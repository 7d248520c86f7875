"""File formats: P5 greymap label masks, P6 overlay pixmaps, FPM float maps,
score and report CSVs.

Label masks travel as binary greymaps ("P5", maxval 255) using the display
palette {0 -> 0, 127 -> 1, 255 -> 2}; raw {0, 1, 2} values are also accepted
on read.  Probability maps use a one-line header ``FPM <width> <height>
<channels>`` followed by little-endian float32, row-major and
channel-interleaved.  CSVs use ``\n`` line endings and ``.`` decimals.
JSON config objects map onto parameter dataclasses with strict keys and types.
"""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import io
import os
import sys
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import DimensionMismatchError, FormatError
from .raster import validate_label_mask, validate_prob_map

# display palette for P5 masks; raw {0,1,2} is accepted too
_PALETTE = {0: 0, 127: 1, 255: 2, 1: 1, 2: 2}
_PALETTE_OUT = np.array([0, 127, 255], dtype=np.uint8)
# byte -> label; bytes outside the palette decode to 3, above every label
_DECODE = np.full(256, 3, dtype=np.uint8)
_DECODE[list(_PALETTE)] = list(_PALETTE.values())


@dataclass
class FrameRecord:
    video_id: str
    frame_index: int
    score: Optional[float] = None
    label: Optional[int] = None

    def __post_init__(self):
        if self.frame_index < 0:
            raise ValueError("frame_index must be >= 0")
        if self.score is not None and not (0.0 <= self.score <= 1.0):
            raise ValueError(f"score must lie in [0, 1], got {self.score}")
        if self.label is not None and self.label not in (0, 1):
            raise ValueError(f"label must be 0 or 1, got {self.label}")


def dataclass_from_json(cls, obj):
    """An instance of the dataclass cls from a decoded JSON object.

    Each value must have the type of its field's default: an int field takes
    an int that is not a bool, a float field a finite int or float, and a
    tuple field a list of as many such numbers.  Unknown keys, mistyped values
    and values the class rejects raise FormatError.
    """
    name = cls.__name__
    if not isinstance(obj, dict):
        raise FormatError(f"{name} config must be a JSON object, got {type(obj).__name__}")
    defaults = {f.name: f.default for f in dataclasses.fields(cls)}
    unknown = [k for k in obj if k not in defaults]
    if unknown:
        raise FormatError(f"unknown {name} config key(s): {', '.join(map(str, unknown))}")
    kwargs = {}
    for key, value in obj.items():
        default = defaults[key]
        if not isinstance(default, tuple):
            kwargs[key] = _json_number(f"{name}.{key}", value, type(default))
        elif isinstance(value, (list, tuple)) and len(value) == len(default):
            kwargs[key] = tuple(_json_number(f"{name}.{key}", v, type(d)) for v, d in zip(value, default))
        else:
            raise FormatError(f"{name}.{key} must be a list of {len(default)} numbers, got {value!r}")
    try:
        return cls(**kwargs)
    except ValueError as e:
        raise FormatError(f"{name}: {e}")


def _json_number(key: str, value, kind: type):
    if kind is int:
        ok = isinstance(value, int)
    else:  # a chained comparison is exact for ints and false for nan
        ok = isinstance(value, (int, float)) and -sys.float_info.max <= value <= sys.float_info.max
    if isinstance(value, bool) or not ok:
        raise FormatError(f"{key} must be {'an integer' if kind is int else 'a finite number'}, got {value!r}")
    return kind(value)


def _header_int(token: bytes) -> int:
    """A header field: ASCII decimal digits only, where ``int`` would also take a sign or underscores."""
    if not token.isdigit():
        raise ValueError(f"not a decimal field: {token!r}")
    return int(token)


def _read_pnm_header(data: bytes, magic: bytes):
    """Parse a netpbm-style header; returns (fields, payload offset)."""
    after = data[len(magic) : len(magic) + 1]  # empty at end of file: a truncated header
    if not data.startswith(magic) or after and not after.isspace():
        raise FormatError(f"bad magic, expected {magic.decode()!r}", byte_offset=0)
    fields = []
    i = len(magic)
    n = len(data)
    while len(fields) < 3:
        while i < n and data[i : i + 1].isspace():
            i += 1
        if i < n and data[i : i + 1] == b"#":
            while i < n and data[i : i + 1] != b"\n":
                i += 1
            continue
        start = i
        while i < n and not data[i : i + 1].isspace():
            i += 1
        if start == i:
            raise FormatError("truncated header", byte_offset=i)
        try:
            fields.append(_header_int(data[start:i]))
        except ValueError:
            raise FormatError(f"non-integer header field {data[start:i]!r}", byte_offset=start)
    if i >= n or not data[i : i + 1].isspace():
        raise FormatError("missing whitespace after header", byte_offset=i)
    return fields, i + 1


def _read_p5(path) -> tuple[np.ndarray, int]:
    """Pixels of an 8-bit P5 file as a read-only view of its bytes, and the payload offset."""
    with open(path, "rb") as f:
        data = f.read()
    (width, height, maxval), off = _read_pnm_header(data, b"P5")
    if width < 1 or height < 1:
        raise FormatError(f"bad dimensions {width}x{height}", byte_offset=3)
    if maxval != 255:
        raise FormatError(f"maxval must be 255, got {maxval}")
    expected = width * height
    payload = data[off : off + expected]
    if len(payload) < expected:
        raise FormatError(
            f"truncated payload: expected {expected} bytes, got {len(payload)}",
            byte_offset=off + len(payload),
        )
    return np.frombuffer(payload, dtype=np.uint8).reshape(height, width), off


def read_label_mask(path) -> np.ndarray:
    raw, off = _read_p5(path)
    labels = np.take(_DECODE, raw)
    if labels.max() > 2:
        flat = int(np.argmax(labels.ravel() > 2))
        raise FormatError(
            f"pixel value {int(raw.ravel()[flat])} outside palette {{0,127,255}} / {{0,1,2}}",
            byte_offset=off + flat,
        )
    return labels


def read_greymap(path) -> np.ndarray:
    """Generic 8-bit P5 image (any values 0-255), for raw ultrasound frames."""
    return _read_p5(path)[0].copy()


def _write_netpbm(magic: bytes, img: np.ndarray, path) -> None:
    """An 8-bit netpbm file: the header, then the pixels row-major."""
    height, width = img.shape[:2]
    with open(path, "wb") as f:
        f.write(b"%s\n%d %d\n255\n" % (magic, width, height))
        f.write(np.ascontiguousarray(img))


def write_greymap(img: np.ndarray, path) -> None:
    img = np.asarray(img)
    if img.dtype != np.uint8 or img.ndim != 2:
        raise ValueError(f"greymap pixels must be a 2-D uint8 array, got {img.dtype} {img.shape}")
    _write_netpbm(b"P5", img, path)


def write_ppm(img: np.ndarray, path) -> None:
    """An (H, W, 3) RGB image as a P6 pixmap."""
    _write_netpbm(b"P6", np.asarray(img, dtype=np.uint8), path)


def write_label_mask(mask: np.ndarray, path) -> None:
    write_greymap(np.take(_PALETTE_OUT, validate_label_mask(mask)), path)


# a member strip holds about this many payload bytes: whole rows, at least one
STRIP_BYTES = 256 * 1024


def _read_fpm_header(f) -> tuple[int, int, int]:
    """(height, width, channels) from the header of an open FPM file.

    Checks the geometry, and the payload length against the file size, before
    any payload is read; leaves ``f`` at the payload.
    """
    line = f.readline()
    size = os.fstat(f.fileno()).st_size
    if not line.endswith(b"\n"):
        raise FormatError("missing header line", byte_offset=size)
    header = line[:-1].split()
    if len(header) != 4 or header[0] != b"FPM":
        raise FormatError(f"bad magic/header {line[:-1]!r}", byte_offset=0)
    try:
        width, height, channels = (_header_int(t) for t in header[1:])
    except ValueError:
        raise FormatError(f"non-integer header field in {line[:-1]!r}", byte_offset=4)
    if width < 1 or height < 1 or channels not in (2, 3):
        raise FormatError(f"bad geometry {width}x{height}x{channels}")
    _check_payload(width * height * channels * 4, size - len(line), size)
    return height, width, channels


def _check_payload(expected: int, got: int, end: int) -> None:
    if got < expected:
        raise FormatError(f"truncated payload: expected {expected} bytes, got {got}", byte_offset=end)


def _read_payload(f, out: np.ndarray) -> None:
    """Fill ``out`` from the file; a file that shrank since its header was checked is truncated."""
    got = f.readinto(out)
    _check_payload(out.nbytes, got, f.tell())


def read_prob_map(path) -> np.ndarray:
    """Read and validate an FPM file as a float32 (H, W, C) array."""
    with open(path, "rb") as f:
        p = np.empty(_read_fpm_header(f), "<f4")
        _read_payload(f, p)
    try:
        return validate_prob_map(p)
    except ValueError as e:
        raise FormatError(str(e))


@contextlib.contextmanager
def prob_map_strips(paths):
    """Read FPM files of one shape together, a strip of rows at a time.

    Yields ``(shape, strips)`` once every header and payload length has been
    checked.  ``strips`` yields ``(rows, maps)``: a slice of the frame's rows
    and each file's float32 map of those rows, as read.  The maps are not
    checked here: the caller checks each strip as it combines it (see
    ``ensemble``).  Each file's strip is read into one buffer reused for the
    next strip, so a caller copies out what it keeps.
    """
    with contextlib.ExitStack() as stack:
        files = [stack.enter_context(open(p, "rb")) for p in paths]
        shapes = [_read_fpm_header(f) for f in files]
        for path, shape in zip(paths[1:], shapes[1:]):
            if shape != shapes[0]:
                raise DimensionMismatchError(f"{path} has shape {shape}, expected {shapes[0]}")
        yield shapes[0], _strips(files, shapes[0])


def _strips(files, shape):
    height, width, channels = shape
    rows = max(1, STRIP_BYTES // (width * channels * 4))
    buffers = [np.empty((min(rows, height), width, channels), "<f4") for _ in files]
    for y0 in range(0, height, rows):
        n = min(rows, height - y0)
        for f, buf in zip(files, buffers):
            _read_payload(f, buf[:n])
        yield slice(y0, y0 + n), [buf[:n] for buf in buffers]


def write_prob_map(p: np.ndarray, path) -> None:
    """Write a map as little-endian float32, checked after the cast, so that
    what is written reads back."""
    with np.errstate(over="ignore"):  # a value past the float32 range becomes inf and fails the check
        p = validate_prob_map(np.asarray(p, "<f4"))
    height, width, channels = p.shape
    with open(path, "wb") as f:
        f.write(b"FPM %d %d %d\n" % (width, height, channels))
        f.write(np.ascontiguousarray(p, "<f4"))


REPORT_COLUMNS = (
    "frame",
    "AoP_deg",
    "HSD_px",
    "used_ellipse_ps",
    "used_ellipse_fh",
    "prune_iters_ps",
    "prune_iters_fh",
)


def write_report_csv(rows, path) -> None:
    """Write ``(frame, BiometryResult)`` rows as the report CSV, in order."""
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(REPORT_COLUMNS)
    for frame, r in rows:
        aop, hsd = format(r.aop_deg, ".6g"), format(r.hsd_px, ".6g")
        used = int(r.used_ellipse_ps), int(r.used_ellipse_fh)
        w.writerow([frame, aop, hsd, *used, r.prune_iters_ps, r.prune_iters_fh])
    with open(path, "wb") as f:
        f.write(buf.getvalue().encode())


def read_frame_scores(path) -> list[FrameRecord]:
    with open(path, "rb") as f:
        data = f.read()
    try:
        rows = list(csv.reader(io.StringIO(data.decode(), newline="")))
    except UnicodeDecodeError as e:
        raise FormatError(f"not UTF-8 text: {e.reason}", byte_offset=e.start)
    except csv.Error as e:  # a field past the csv module's size limit, say
        raise FormatError(f"bad CSV: {e}")
    records = []
    for lineno, row in enumerate(rows, start=1):
        if not row:
            continue
        if len(row) not in (3, 4):
            raise FormatError(f"line {lineno}: expected 3 or 4 fields, got {len(row)}")
        try:
            score = float(row[2]) if row[2] != "" else None
            label = int(row[3]) if len(row) == 4 else None
            records.append(FrameRecord(row[0], int(row[1]), score, label))
        except ValueError as e:
            raise FormatError(f"line {lineno}: {e}")
    return records
