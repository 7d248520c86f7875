"""File formats: P5 greymap label masks, P6 overlay pixmaps, FPM float maps,
score and report CSVs.

Label masks travel as binary greymaps ("P5", maxval 255) using the display
palette {0 -> 0, 127 -> 1, 255 -> 2}; raw {0, 1, 2} values are also accepted
on read.  Probability maps use a one-line header ``FPM <width> <height>
<channels>`` followed by little-endian float32, row-major and
channel-interleaved.  CSVs use ``\n`` line endings and ``.`` decimals.
"""

from __future__ import annotations

import contextlib
import csv
import io
import os
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import DimensionMismatchError, FormatError, MemberError
from .raster import validate_label_mask, validate_prob_map

# display palette for P5 masks; raw {0,1,2} is accepted too
_PALETTE = {0: 0, 127: 1, 255: 2, 1: 1, 2: 2}
# byte -> label, as a ``bytes.translate`` table; bytes outside the palette
# decode to 3, above every label
_DECODE = bytes(_PALETTE.get(b, 3) for b in range(256))


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
    # a byte-for-byte table lookup into a writable copy: the labels of the palette, exactly
    labels = np.frombuffer(bytearray(raw).translate(_DECODE), np.uint8).reshape(raw.shape)
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
    labels = validate_label_mask(mask)
    # the display palette 0, 127, 255 as 127 * label, plus 1 for FH: ten
    # times faster than a lookup
    write_greymap(labels * np.uint8(127) + (labels == 2), path)


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

    Yields ``(shape, strips)`` once each file in turn is open and its header,
    payload length and shape pass (else MemberError).  ``strips`` yields
    ``(rows, maps)``: a slice of the frame's rows and an (n, rows, W, C)
    float32 stack of the files' maps of those rows, as read and unchecked:
    the caller checks each strip as it combines it.  Every strip is read
    into one buffer reused for the next strip, so a caller copies out what
    it keeps.
    """
    with contextlib.ExitStack() as stack:
        files, shapes = [], []
        for i, path in enumerate(paths):
            files.append(stack.enter_context(open(path, "rb")))
            try:
                shapes.append(_read_fpm_header(files[-1]))
            except FormatError as e:
                raise MemberError(i, e)
            if shapes[-1] != shapes[0]:
                raise MemberError(i, DimensionMismatchError(f"shape {shapes[-1]}, expected {shapes[0]}"))
        yield shapes[0], _strips(files, shapes[0])


def _strips(files, shape):
    height, width, channels = shape
    rows = max(1, STRIP_BYTES // (width * channels * 4))
    buffer = np.empty((len(files), min(rows, height), width, channels), "<f4")
    for y0 in range(0, height, rows):
        n = min(rows, height - y0)
        for i, f in enumerate(files):
            try:
                _read_payload(f, buffer[i, :n])
            except FormatError as e:
                raise MemberError(i, e)
        yield slice(y0, y0 + n), buffer[:, :n]


def write_prob_map(p: np.ndarray, path, check: bool = True) -> None:
    """Write a map as little-endian float32, checked after the cast, so that
    what is written reads back.  ``check=False`` skips the check, for a map
    that provably passes it (see ``ensemble.passes_with_margin``)."""
    with np.errstate(over="ignore"):  # a value past the float32 range becomes inf and fails the check
        p = np.asarray(p, "<f4")
    if check:
        p = validate_prob_map(p)
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
