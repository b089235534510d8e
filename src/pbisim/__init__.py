"""Probabilistic bisimulation via classification matrices.

Library surface:

* :mod:`pbisim.core` -- labelled probabilistic transition systems and
  state classifications.
* :mod:`pbisim.matrices` -- classification matrices, Moore-Penrose
  pseudo-inverses, lumping and norms.
* :mod:`pbisim.bisim` -- coarsest bisimulation, quotients and two-system
  bisimilarity with witnesses.
* :mod:`pbisim.epsilon` -- approximate bisimilarity: exhaustive and
  search-based minimisation of the lumped-difference norm.
* :mod:`pbisim.galois` -- Kripke structures, simulation relations and
  Galois connection checking.
* :mod:`pbisim.formats`, :mod:`pbisim.generators`, :mod:`pbisim.report`,
  :mod:`pbisim.cli` -- text formats, seeded corpora, run reports and the
  command-line front end.
"""

__version__ = "0.1.0"

from .bisim import BisimWitness, are_bisimilar, coarsest_bisimulation, quotient
from .core import (
    Classification,
    LabelledPTS,
    disjoint_union,
    validate_pts,
)
from .galois import (
    FiniteLattice,
    GaloisSpec,
    KripkeStructure,
    Relation,
    check_abstraction_basis,
    check_galois,
    induced_relation,
    is_simulation,
    largest_simulation,
)
from .generators import gen_planted, gen_random_pts, perturb
from .matrices import (
    classification_matrix,
    is_lumpable,
    lump,
    matrix_norm,
    penrose_check,
    pseudo_inverse,
)

# Loaded on first use: only the ``epsilon`` command needs this module, and
# every other command would otherwise pay for compiling it at start-up.
_EPSILON_NAMES = (
    "EpsilonResult",
    "enumerate_classifications",
    "epsilon_bisim_exact",
    "epsilon_bisim_search",
    "epsilon_distance",
    "stirling2",
)


def __getattr__(name: str):
    if name in _EPSILON_NAMES:
        from . import epsilon

        return getattr(epsilon, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "BisimWitness",
    "Classification",
    "EpsilonResult",
    "FiniteLattice",
    "GaloisSpec",
    "KripkeStructure",
    "LabelledPTS",
    "Relation",
    "are_bisimilar",
    "check_abstraction_basis",
    "check_galois",
    "classification_matrix",
    "coarsest_bisimulation",
    "disjoint_union",
    "enumerate_classifications",
    "epsilon_bisim_exact",
    "epsilon_bisim_search",
    "epsilon_distance",
    "gen_planted",
    "gen_random_pts",
    "induced_relation",
    "is_lumpable",
    "is_simulation",
    "largest_simulation",
    "lump",
    "matrix_norm",
    "penrose_check",
    "perturb",
    "pseudo_inverse",
    "quotient",
    "stirling2",
    "validate_pts",
]
