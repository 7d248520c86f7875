"""File formats: P5 greymap label masks, FPM float maps, score and report CSVs.

Label masks travel as binary greymaps ("P5", maxval 255) using the display
palette {0 -> 0, 127 -> 1, 255 -> 2}; raw {0, 1, 2} values are also accepted
on read.  Probability maps use a one-line header ``FPM <width> <height>
<channels>`` followed by little-endian float32, row-major and
channel-interleaved.  CSVs use ``\n`` line endings and ``.`` decimals.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import FormatError
from .raster import validate_label_mask, validate_prob_map

# display palette for P5 masks; raw {0,1,2} is accepted too
_PALETTE = {0: 0, 127: 1, 255: 2, 1: 1, 2: 2}
_PALETTE_OUT = np.array([0, 127, 255], dtype=np.uint8)

FPM_READ_SUM_TOL = 1e-3


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


@dataclass
class MeasurementReport:
    frame: str
    aop_deg: float
    hsd_px: float
    used_ellipse_ps: bool
    used_ellipse_fh: bool
    prune_iters_ps: int
    prune_iters_fh: int

    def __post_init__(self):
        if not (0.0 < self.aop_deg <= 180.0):
            raise ValueError(f"AoP must lie in (0, 180], got {self.aop_deg}")
        if self.hsd_px < 0.0:
            raise ValueError("HSD must be >= 0")
        if self.prune_iters_ps < 0 or self.prune_iters_fh < 0:
            raise ValueError("prune iterations must be >= 0")


def _read_pnm_header(data: bytes, magic: bytes):
    """Parse a netpbm-style header; returns (fields, payload offset)."""
    if not data.startswith(magic):
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
            fields.append(int(data[start:i]))
        except ValueError:
            raise FormatError(f"non-integer header field {data[start:i]!r}", byte_offset=start)
    if i >= n or not data[i : i + 1].isspace():
        raise FormatError("missing whitespace after header", byte_offset=i)
    return fields, i + 1


def read_label_mask(path) -> np.ndarray:
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
    raw = np.frombuffer(payload, dtype=np.uint8).reshape(height, width)
    valid = np.isin(raw, list(_PALETTE))
    if not valid.all():
        flat = int(np.flatnonzero(~valid.ravel())[0])
        raise FormatError(
            f"pixel value {int(raw.ravel()[flat])} outside palette {{0,127,255}} / {{0,1,2}}",
            byte_offset=off + flat,
        )
    out = raw.copy()
    out[raw == 127] = 1
    out[raw == 255] = 2
    return validate_label_mask(out)


def read_greymap(path) -> np.ndarray:
    """Generic 8-bit P5 image (any values 0-255), for raw ultrasound frames."""
    with open(path, "rb") as f:
        data = f.read()
    (width, height, maxval), off = _read_pnm_header(data, b"P5")
    if maxval != 255:
        raise FormatError(f"maxval must be 255, got {maxval}")
    expected = width * height
    payload = data[off : off + expected]
    if len(payload) < expected:
        raise FormatError(
            f"truncated payload: expected {expected} bytes, got {len(payload)}",
            byte_offset=off + len(payload),
        )
    return np.frombuffer(payload, dtype=np.uint8).reshape(height, width).copy()


def write_greymap(img: np.ndarray, path) -> None:
    img = np.asarray(img)
    if img.dtype != np.uint8:
        raise ValueError("greymap pixels must be uint8")
    height, width = img.shape
    with open(path, "wb") as f:
        f.write(b"P5\n%d %d\n255\n" % (width, height))
        f.write(img.tobytes())


def write_label_mask(mask: np.ndarray, path) -> None:
    mask = validate_label_mask(mask)
    height, width = mask.shape
    with open(path, "wb") as f:
        f.write(b"P5\n%d %d\n255\n" % (width, height))
        f.write(_PALETTE_OUT[mask].tobytes())


def read_prob_map(path) -> np.ndarray:
    with open(path, "rb") as f:
        data = f.read()
    nl = data.find(b"\n")
    if nl < 0:
        raise FormatError("missing header line", byte_offset=len(data))
    header = data[:nl].split()
    if len(header) != 4 or header[0] != b"FPM":
        raise FormatError(f"bad magic/header {data[:nl]!r}", byte_offset=0)
    try:
        width, height, channels = (int(t) for t in header[1:])
    except ValueError:
        raise FormatError(f"non-integer header field in {data[:nl]!r}", byte_offset=4)
    if width < 1 or height < 1 or channels not in (2, 3):
        raise FormatError(f"bad geometry {width}x{height}x{channels}")
    expected = width * height * channels * 4
    payload = data[nl + 1 : nl + 1 + expected]
    if len(payload) < expected:
        raise FormatError(
            f"truncated payload: expected {expected} bytes, got {len(payload)}",
            byte_offset=nl + 1 + len(payload),
        )
    arr = np.frombuffer(payload, dtype="<f4").reshape(height, width, channels)
    try:
        return validate_prob_map(arr, tol=FPM_READ_SUM_TOL)
    except ValueError as e:
        raise FormatError(str(e))


def write_prob_map(p: np.ndarray, path) -> None:
    p = validate_prob_map(p)
    height, width, channels = p.shape
    with open(path, "wb") as f:
        f.write(b"FPM %d %d %d\n" % (width, height, channels))
        f.write(p.astype("<f4", copy=False).tobytes())


REPORT_COLUMNS = (
    "frame",
    "AoP_deg",
    "HSD_px",
    "used_ellipse_ps",
    "used_ellipse_fh",
    "prune_iters_ps",
    "prune_iters_fh",
)


def _fmt(value: float) -> str:
    return format(value, ".6g")


def report_csv_bytes(rows: list[MeasurementReport]) -> bytes:
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(REPORT_COLUMNS)
    for r in rows:
        w.writerow(
            [
                r.frame,
                _fmt(r.aop_deg),
                _fmt(r.hsd_px),
                int(r.used_ellipse_ps),
                int(r.used_ellipse_fh),
                r.prune_iters_ps,
                r.prune_iters_fh,
            ]
        )
    return buf.getvalue().encode()


def write_report_csv(rows: list[MeasurementReport], path) -> None:
    with open(path, "wb") as f:
        f.write(report_csv_bytes(rows))


def write_frame_scores(records: list[FrameRecord], path) -> None:
    with open(path, "w", newline="") as f:
        w = csv.writer(f, lineterminator="\n")
        for r in records:
            row = [r.video_id, r.frame_index, "" if r.score is None else _fmt(r.score)]
            if r.label is not None:
                row.append(r.label)
            w.writerow(row)


def read_frame_scores(path) -> list[FrameRecord]:
    records = []
    with open(path, newline="") as f:
        for lineno, row in enumerate(csv.reader(f), start=1):
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
