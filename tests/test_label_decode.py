"""P5 label-mask decoding through the lookup table, against the earlier
``np.isin`` decoder kept here as the reference."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from fetalbiometry.errors import FormatError
from fetalbiometry.io_formats import _PALETTE, _read_p5, read_label_mask
from fetalbiometry.raster import validate_label_mask


def ref_read_label_mask(path):
    out, off = _read_p5(path)
    out = out.copy()
    valid = np.isin(out, list(_PALETTE))
    if not valid.all():
        flat = int(np.flatnonzero(~valid.ravel())[0])
        raise FormatError(
            f"pixel value {int(out.ravel()[flat])} outside palette {{0,127,255}} / {{0,1,2}}",
            byte_offset=off + flat,
        )
    out[out == 127] = 1
    out[out == 255] = 2
    return validate_label_mask(out)


def outcome(path):
    """The decoded mask, or the message and offset of the FormatError."""
    try:
        return read_label_mask(path)
    except FormatError as e:
        return str(e), e.byte_offset


def ref_outcome(path):
    try:
        return ref_read_label_mask(path)
    except FormatError as e:
        return str(e), e.byte_offset


def assert_same(got, want):
    if isinstance(want, tuple):
        assert got == want
    else:
        assert isinstance(got, np.ndarray) and got.dtype == want.dtype
        assert np.array_equal(got, want)


def write_p5(path, pixels):
    h, w = pixels.shape
    path.write_bytes(b"P5\n%d %d\n255\n" % (w, h) + pixels.tobytes())


PALETTE_BYTES = np.array(sorted(_PALETTE), dtype=np.uint8)


def test_every_byte_value(tmp_path):
    rng = np.random.default_rng(0)
    path = tmp_path / "m.pgm"
    for value in range(256):
        pixels = rng.choice(PALETTE_BYTES, size=(7, 9))
        for _ in range(int(rng.integers(1, 4))):
            pixels[rng.integers(7), rng.integers(9)] = value
        write_p5(path, pixels)
        assert_same(outcome(path), ref_outcome(path))


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 6), st.integers(1, 6), st.data())
def test_random_payloads(tmp_path_factory, h, w, data):
    byte = st.one_of(st.sampled_from(list(_PALETTE)), st.integers(0, 255))
    pixels = np.array(data.draw(st.lists(byte, min_size=h * w, max_size=h * w)), dtype=np.uint8).reshape(h, w)
    path = tmp_path_factory.mktemp("p5") / "m.pgm"
    write_p5(path, pixels)
    assert_same(outcome(path), ref_outcome(path))


def test_mask_is_writable(tmp_path):
    path = tmp_path / "m.pgm"
    write_p5(path, np.array([[0, 127], [255, 1]], np.uint8))
    mask = read_label_mask(path)
    mask[0, 0] = 2
    assert mask.tolist() == [[2, 1], [2, 1]]
