"""jordanquad: exact-arithmetic toolkit for the rank-one geometry of
reduced Jordan algebras and the motive bookkeeping of Pfister-multiple
quadrics.

Layers, bottom up: exact scalars (Q and odd F_p), diagonal quadratic forms
with local-global invariants and Witt indices, Cayley-Dickson composition
algebras, reduced Jordan algebras Sym(M_n(C), sigma_b), the degree-2
rank-one birational map with its base loci, formal motive decompositions
with Tate profiles, and root-system dimension checks.  The hot mod-p
kernels, the isotropic-vector search and the two projective sweeps, are
pure Python, in jordanquad._fpcore_py.
"""

from .cayley_dickson import CDAlgebra, CDElem
from .errors import (AlgebraMismatchError, BasePointError, FieldMismatchError,
                     NegativeCoefficientError)
from .jordan import JordanAlgebra, JordanElem
from .motives import (MotiveExpr, Summand, TateProfile,
                      decompose_neighbour_quadric, decompose_pfister_multiple,
                      decompose_xj, decompose_z1, poincare_xj_recursive,
                      verify_blowup, verify_krashen)
from .quadform import (QuadForm, evaluate, hilbert_symbol, invariants,
                       is_isotropic, isotropic_vector_search, perp, pfister,
                       tensor, witt_index, witt_index_by_search)
from .rootsys import RootSystem, check_orbit_dims, dim_g_mod_p, weyl_order
from .scalars import FpElem, PrimeField, Rationals
from .birational import (ProjPointC, ProjPointJ, in_z1, in_z2, projective_eq,
                         q_form, transposition_map, transposition_star,
                         veronese, veronese_inverse)

__version__ = "0.1.0"
