"""Iterated Pieri-rule multiplicities for stable-range orthogonal and
symplectic groups, with the lattice-cone, Hibi-lattice and SAGBI machinery
needed to verify the structure constructively."""

from .algebra import (
    PieriContext,
    StandardCombination,
    StandardTerm,
    decompose_o,
    decompose_sp,
    eta_of,
    highest_weight_check,
    invert_predicted_lm,
    lm_predicted,
    multidegree_of_polynomial,
    multiplicity,
    multiplicity_via_cone,
    subduct,
)
from .cone import (
    BlockKey,
    ConePoint,
    Functionals,
    MultiDegree,
    enumerate_fiber,
    is_member,
    s_of_abc,
    zero_point,
)
from .diagrams import (
    EMPTY,
    SkewShape,
    YoungDiagram,
    as_composition,
    gl_dim,
    gl_iterated_pieri,
    kostka,
    partitions_of,
)
from .hibi import (
    IncreasingSet,
    StandardExpression,
    from_cijz,
    increasing_sets,
    lattice_hasse,
    standard_decomposition,
)
from .poset import Eps, Gamma, GammaPoset, eps_pairs
from .polyring import Polynomial, PolyRing, Variable

__version__ = "0.1.0"
