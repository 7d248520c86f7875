import math

from fetalbiometry import phantom
from fetalbiometry.biometry import measure_frame_detailed
from fetalbiometry.overlay import WHITE, render_overlay


def _pixel(img, p):
    # draw_line's rounding of an end point
    return tuple(img[int(round(p[1])), int(round(p[0]))].tolist())


def test_hsd_line_drawn_from_the_hsd_apex():
    # one protrusion each: the accepted PS ellipse's apex lies far from the
    # closed mask's apex, which HSD is measured from
    labels = phantom.perturb(phantom.render(phantom.random_scene(3)), phantom.Perturbation(protrusions=1, seed=3))
    result, ps_ref, fh_ref = measure_frame_detailed(labels)
    assert result.used_ellipse_ps
    assert math.dist(result.hsd_apex, result.ps_apex) > 2.0
    img = render_overlay(labels, result, (ps_ref, fh_ref))
    assert _pixel(img, result.hsd_apex) == WHITE
    assert _pixel(img, result.hsd_head_point) == WHITE
