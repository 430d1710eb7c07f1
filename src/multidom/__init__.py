"""Greedy solvers, exact oracles and cost-ledger checks for graph
domination problems: plain domination, k-tuple domination (every vertex
needs k chosen vertices in its closed neighborhood) and k-domination
(every non-chosen vertex needs k chosen neighbors)."""

from . import exact, generators, graph, graphio, harness, ledger, solvers
from .exact import *
from .generators import *
from .graph import *
from .graphio import *
from .harness import *
from .ledger import *
from .solvers import *

__all__ = [
    *exact.__all__,
    *generators.__all__,
    *graph.__all__,
    *graphio.__all__,
    *harness.__all__,
    *ledger.__all__,
    *solvers.__all__,
]

__version__ = "0.1.0"
