"""Combinatorial invariants of non-wandering surface flows.

The central object is the invariant pair: a multi-saddle connection
diagram (saddles with cyclic rotation words, directed separatrices)
together with a labeled multi-graph whose vertices are quasi-centers,
one-sided periodic orbits, boundary periodic orbits and polycycles, and
whose edges are periodic annuli.  The package validates such models,
decides isomorphism, produces canonical forms, reconstructs the
underlying surface, realizes abstract multi-graphs and enumerates
equivalence classes within size bounds.
"""

from .diagram import (
    IN,
    OUT,
    FaceCycle,
    Saddle,
    SaddleDiagram,
    Separatrix,
    ValidationError,
    Violation,
    diagram_components,
    diagram_multigraph,
    faces_by_component,
    trace_faces,
)
from .enumeration import (
    ClassTable,
    EnumBounds,
    count_classes,
    enumerate_diagrams,
    enumerate_pairs,
)
from .graph import (
    AnnulusEdge,
    Attachment,
    InvariantPair,
    SeparationReport,
    VertexNode,
    assembly_components,
    classify_separation,
    to_extended_poset,
    underlying_multigraph,
    validate_pair,
)
from .isomorphism import (
    ORIENTED,
    REVERSIBLE,
    CanonicalForm,
    IsoMode,
    PairWitness,
    canonical_form,
    cyclic_equivalent,
    pair_isomorphic,
    relabel_pair,
    reverse_pair,
    verify_witness,
)
from .multigraph import Multigraph, multigraph_isomorphic
from .topology import (
    FinPoset,
    FinSpace,
    NotT0Error,
    alexandroff_space,
    separation_axioms,
    specialization_order,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
