"""Cohen-Macaulay testing lab for monomial ideals built from simplicial complexes.

The package decides whether the intersection ideal attached to a pure
simplicial complex and a table of exponents is Cohen-Macaulay.  Fast
combinatorial criteria cover facet graphs that are trees or quasi-trees;
an exact homology-based oracle covers everything else and doubles as the
ground truth for cross-validation.
"""

from .complexes import (
    ExponentOffset,
    MultiplicityAssignment,
    SimplicialComplex,
)
from .errors import CmLabError
from .fixtures import Fixture, fixture_names, get_fixture, problem_json
from .graphs import (
    ROOT,
    FacetLevelGraph,
    facet_graph,
    is_tree,
    relation_trees,
    root_orientation,
    vertex_graph,
)
from .homology import (
    GF2,
    RATIONALS,
    ExactMatrix,
    FieldSpec,
    OracleVerdict,
    boundary_matrix,
    is_cm_complex,
    is_cm_ideal_oracle,
    reduced_homology_ranks,
)
from .ideals import (
    MonomialIdeal,
    expand_ideal,
    irreducible_component,
    render_ideal,
    render_monomial,
    render_splitting,
    splitting_witness,
    stanley_reisner_ideal,
    variable_ideal,
)
from .satisfying import (
    SatisfyingVerdict,
    check_cm_quasitree_sufficient,
    check_cm_tree_case,
    check_cm_uniform_block,
    decompose_into_generators,
    is_general_satisfying,
    is_quasitree_satisfying,
    is_tree_satisfying,
    semigroup_generators,
    uniform_block_assignment,
)
from .structure import (
    ClassificationReport,
    LeafOrder,
    classify,
    find_leaf_order,
    find_shelling,
    free_vertex_of_last,
    is_leaf,
    is_shelling,
)

__version__ = "0.1.0"

__all__ = [
    "CmLabError",
    "ClassificationReport",
    "ExactMatrix",
    "ExponentOffset",
    "FacetLevelGraph",
    "FieldSpec",
    "Fixture",
    "GF2",
    "LeafOrder",
    "MonomialIdeal",
    "MultiplicityAssignment",
    "OracleVerdict",
    "RATIONALS",
    "ROOT",
    "SatisfyingVerdict",
    "SimplicialComplex",
    "boundary_matrix",
    "check_cm_quasitree_sufficient",
    "check_cm_tree_case",
    "check_cm_uniform_block",
    "classify",
    "decompose_into_generators",
    "expand_ideal",
    "facet_graph",
    "find_leaf_order",
    "find_shelling",
    "fixture_names",
    "free_vertex_of_last",
    "get_fixture",
    "irreducible_component",
    "is_cm_complex",
    "is_cm_ideal_oracle",
    "is_general_satisfying",
    "is_leaf",
    "is_quasitree_satisfying",
    "is_shelling",
    "is_tree",
    "is_tree_satisfying",
    "problem_json",
    "reduced_homology_ranks",
    "relation_trees",
    "render_ideal",
    "render_monomial",
    "render_splitting",
    "root_orientation",
    "semigroup_generators",
    "splitting_witness",
    "stanley_reisner_ideal",
    "uniform_block_assignment",
    "variable_ideal",
    "vertex_graph",
]
