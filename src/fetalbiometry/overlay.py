"""Overlay rendering of measurement results as RGB images (written by ``io_formats.write_ppm``)."""

from __future__ import annotations

import math

import numpy as np

from .biometry import BiometryResult
from .ellipse import Ellipse
from .raster import FH, PS

_STRUCT_GREY = {0: 0, PS: 90, FH: 170}

RED = (255, 64, 64)
GREEN = (64, 255, 64)
YELLOW = (255, 230, 60)
CYAN = (80, 220, 255)
WHITE = (255, 255, 255)


def _put(img: np.ndarray, x: int, y: int, color) -> None:
    h, w = img.shape[:2]
    if 0 <= x < w and 0 <= y < h:
        img[y, x] = color


def draw_line(img: np.ndarray, p0, p1, color) -> None:
    x0, y0 = int(round(p0[0])), int(round(p0[1]))
    x1, y1 = int(round(p1[0])), int(round(p1[1]))
    dx, dy = abs(x1 - x0), -abs(y1 - y0)
    sx = 1 if x0 < x1 else -1
    sy = 1 if y0 < y1 else -1
    err = dx + dy
    while True:
        _put(img, x0, y0, color)
        if x0 == x1 and y0 == y1:
            return
        e2 = 2 * err
        if e2 >= dy:
            err += dy
            x0 += sx
        if e2 <= dx:
            err += dx
            y0 += sy


def draw_ellipse(img: np.ndarray, e: Ellipse, color) -> None:
    t = np.linspace(0.0, 2 * math.pi, 720, endpoint=False)
    local = np.column_stack([e.a * np.cos(t), e.b * np.sin(t)])
    pts = e.from_local(local)
    for x, y in pts:
        _put(img, int(round(x)), int(round(y)), color)


def render_overlay(labels: np.ndarray, result: BiometryResult, shapes) -> np.ndarray:
    """RGB overlay: structures in grey, the fitted ellipses of the (PS, FH)
    refined ``shapes``, and the result's axis, tangent and HSD lines."""
    h, w = labels.shape
    img = np.zeros((h, w, 3), dtype=np.uint8)
    for cid, g in _STRUCT_GREY.items():
        img[labels == cid] = (g, g, g)
    for shape, color in zip(shapes, (GREEN, RED)):
        if shape.ellipse is not None:
            draw_ellipse(img, shape.ellipse, color)
    draw_line(img, result.ps_proximal, result.ps_apex, YELLOW)
    draw_line(img, result.ps_apex, result.tangent_point, CYAN)
    draw_line(img, result.hsd_apex, result.hsd_head_point, WHITE)
    return img

