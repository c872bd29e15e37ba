"""Exact Shintani cone geometry over totally real cubic fields."""

from .cones import Cone, CoverBox, Geometry, ShintaniSet
from .embedding import RealEmbeddings, SignConfig
from .field import FieldElement, FieldSpec

__all__ = [
    "Cone",
    "CoverBox",
    "FieldElement",
    "FieldSpec",
    "Geometry",
    "RealEmbeddings",
    "ShintaniSet",
    "SignConfig",
]

__version__ = "0.1.0"
