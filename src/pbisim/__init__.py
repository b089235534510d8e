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

import importlib

# Every public name, by the submodule that defines it.  Nothing is imported
# here: ``__getattr__`` (PEP 562) loads a submodule when one of its names,
# or the submodule itself, is first used, so each command of the
# command-line front end loads only the modules it runs.
_EXPORTS = {
    "bisim": ("BisimWitness", "are_bisimilar", "coarsest_bisimulation", "quotient"),
    "core": ("Classification", "LabelledPTS", "disjoint_union", "validate_pts"),
    "epsilon": (
        "EpsilonResult", "enumerate_classifications", "epsilon_bisim_exact",
        "epsilon_bisim_search", "epsilon_distance", "stirling2",
    ),
    "galois": (
        "FiniteLattice", "GaloisSpec", "KripkeStructure", "Relation",
        "check_abstraction_basis", "check_galois", "is_simulation",
        "largest_simulation",
    ),
    "generators": ("gen_planted", "gen_random_pts", "perturb"),
    "matrices": (
        "classification_matrix", "is_lumpable", "lump", "matrix_norm",
        "penrose_check", "pseudo_inverse",
    ),
}
_SUBMODULES = {"cli", "errors", "formats", "report", *_EXPORTS}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    if name in _MODULE_OF:
        return getattr(importlib.import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
