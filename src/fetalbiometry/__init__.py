"""Intrapartum ultrasound biometry pipeline: shape refinement, AoP/HSD
measurement, ensembling, evaluation metrics and synthetic phantom oracles."""

from .biometry import BiometryResult, measure_frame
from .ellipse import Ellipse, fit_ams
from .phantom import PhantomScene, analytic_biometry, random_scene, render
from .refine import RefinedShape, refine

__all__ = [
    "BiometryResult",
    "Ellipse",
    "PhantomScene",
    "RefinedShape",
    "analytic_biometry",
    "fit_ams",
    "measure_frame",
    "random_scene",
    "refine",
    "render",
]

__version__ = "0.1.0"
