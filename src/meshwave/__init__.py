"""Spectral wavelet descriptors and wavelet graph convolutions on meshes."""

__version__ = "0.1.0"

from .mesh import TriMesh, cotangent_laplacian, load_mesh, lumped_areas, validate_mesh

__all__ = [
    "TriMesh",
    "cotangent_laplacian",
    "load_mesh",
    "lumped_areas",
    "validate_mesh",
    "__version__",
]
