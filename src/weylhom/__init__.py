"""weylhom: exact Hom spaces between Weyl modules of Schur algebras over GF(p),
with a machine check of the first-row stabilization property and an
independent symmetric-group oracle."""

from . import homspace as _homspace
from . import specht as _specht
from . import tableaux as _tableaux
from . import weyl as _weyl
from .gfp import (
    InconsistentSystemError,
    MatrixGFp,
    NonPrimeModulusError,
    binom_mod,
)
from .homspace import (
    HomElement,
    StabilizationReport,
    hom_dim,
    phi_eval_terms,
    relation_matrix,
    verify_stabilization,
)
from .polyalg import ExpansionLimitError, dprime
from .shapes import FirstRowTooLargeError, all_partitions, composition, parse_partition, partition, stabilize
from .specht import oracle_compare, specht_hom_dim, specht_rep
from .tableaux import Tableau, enumerate_standard, from_row_entries
from .weyl import straighten

__version__ = "0.1.0"


def clear_caches() -> None:
    """Drop all memoized straightening engines, enumerations, Hom results and
    Specht modules.  The cached functions are looked up on their modules at
    call time, so a stand-in that keeps `cache_clear` is cleared too."""
    _weyl._contexts.clear()
    _homspace._hom_cache.clear()
    _tableaux.enumerate_standard.cache_clear()
    _specht.specht_rep.cache_clear()
