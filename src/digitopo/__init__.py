"""Topological invariants of binary images and voxel volumes.

The package computes hole counts of 2D components and genus, Euler
characteristic, and Betti numbers of 3D components from boundary-local
counting formulas, with slow flood-fill and cell-complex oracles for
cross-checking, repair of pathological voxel configurations, streaming
folds for bounded-memory processing, and PBM/vox3 file formats behind a
command-line interface.

The package exports each module's ``__all__``, plus ``cli_dispatch``.
"""

from . import errors, grid, oracle, pbm, shapes, streaming, topo2d, topo3d, vox3
from .errors import *
from .grid import *
from .oracle import *
from .topo2d import *
from .topo3d import *
from .shapes import *
from .pbm import *
from .vox3 import *
from .streaming import *
from .cli import cli_dispatch

__version__ = "0.1.0"

__all__ = [
    "__version__",
    *errors.__all__,
    *grid.__all__,
    *oracle.__all__,
    *topo2d.__all__,
    *topo3d.__all__,
    *shapes.__all__,
    *pbm.__all__,
    *vox3.__all__,
    *streaming.__all__,
    "cli_dispatch",
]
