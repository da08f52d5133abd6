"""Edge-coloured multigraph merges, clique multicomplexes, and GF(2)
Betti numbers along interaction filtrations."""

# each library module's __all__ is its public API; the package republishes them
from .chainlat import *
from .chainparse import *
from .errors import *
from .filtration import *
from .homology import *
from .incremental import *
from .mcomplex import *
from .mgraph import *
from .workspace import *

__version__ = "0.1.0"
