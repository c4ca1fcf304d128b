"""Iterated Pieri-rule multiplicities for stable-range orthogonal and
symplectic groups, with the lattice-cone, Hibi-lattice and SAGBI machinery
needed to verify the structure constructively."""

from .algebra import (
    PieriContext,
    StandardCombination,
    StandardTerm,
    decompose_o,
    decompose_sp,
    eta_cij,
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
    SkewTableau,
    YoungDiagram,
    as_composition,
    chain_to_tableau,
    enumerate_skew_ssyt,
    gl_dim,
    gl_iterated_pieri,
    interlaces,
    kostka,
    partitions_of,
    tableau_to_chain,
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
