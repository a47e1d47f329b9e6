"""Cohen-Macaulay testing lab for monomial ideals built from simplicial complexes.

The package decides whether the intersection ideal attached to a pure
simplicial complex and a table of exponents is Cohen-Macaulay.  Fast
combinatorial criteria cover facet graphs that are trees or quasi-trees;
an exact homology-based oracle covers everything else and doubles as the
ground truth for cross-validation.

Public names load on first access, so ``import cmlab.cli`` and each CLI
request import only the modules they use.
"""

from importlib import import_module

__version__ = "0.1.0"

# The module that defines each public name.
_MODULE_OF = {
    name: module
    for module, names in {
        "complexes": ("ExponentOffset", "MultiplicityAssignment", "SimplicialComplex"),
        "errors": ("CmLabError",),
        "fixtures": ("Fixture", "fixture_names", "get_fixture", "problem_json"),
        "graphs": (
            "ROOT",
            "FacetLevelGraph",
            "facet_graph",
            "is_tree",
            "relation_trees",
            "root_orientation",
            "vertex_graph",
        ),
        "homology": (
            "GF2",
            "RATIONALS",
            "ExactMatrix",
            "FieldSpec",
            "OracleVerdict",
            "boundary_matrix",
            "is_cm_complex",
            "is_cm_ideal_oracle",
            "reduced_homology_ranks",
        ),
        "ideals": (
            "MonomialIdeal",
            "expand_ideal",
            "irreducible_component",
            "render_ideal",
            "render_monomial",
            "render_splitting",
            "splitting_witness",
            "stanley_reisner_ideal",
            "variable_ideal",
        ),
        "satisfying": (
            "SatisfyingVerdict",
            "check_cm_quasitree_sufficient",
            "check_cm_tree_case",
            "check_cm_uniform_block",
            "decompose_into_generators",
            "is_general_satisfying",
            "is_quasitree_satisfying",
            "is_tree_satisfying",
            "semigroup_generators",
            "uniform_block_assignment",
        ),
        "structure": (
            "ClassificationReport",
            "LeafOrder",
            "classify",
            "find_leaf_order",
            "find_shelling",
            "free_vertex_of_last",
            "is_leaf",
            "is_shelling",
        ),
    }.items()
    for name in names
}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    """Import the module that defines a public name on its first access
    and keep the name here, so later accesses are plain lookups."""
    try:
        module = _MODULE_OF[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
