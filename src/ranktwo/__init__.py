"""Exact computation with bases of the rank-two free group.

The package ties together four strands of the same combinatorics:
reduced words and automorphisms of the free group on a and b
(``words``, ``morphisms``), braid groups on three and four strands
acting on those automorphisms (``braids``), Christoffel words and their
lattice paths (``christoffel``), and the rotation chains that decide
whether a pair of words is a basis (``chains``).  Everything is integer
exact; there is no floating point anywhere.
"""

from . import braids, chains, christoffel, morphisms, words
from .braids import *
from .chains import *
from .christoffel import *
from .morphisms import *
from .words import *

__version__ = "0.1.0"

__all__ = sorted(braids.__all__ + chains.__all__ + christoffel.__all__ + morphisms.__all__ + words.__all__)
