"""Exception hierarchy shared by every module in the package."""


class CmLabError(Exception):
    """Base class for all errors raised by this package."""


class EmptyFacet(CmLabError):
    """A facet in raw input is the empty set."""


class VertexOutOfRange(CmLabError):
    """A vertex label falls outside 1..n."""


class UncoveredVertex(CmLabError):
    """Some vertex of 1..n appears in no facet."""


class FaceNotInComplex(CmLabError):
    """The given vertex set is not a face of the complex."""


class NotPure(CmLabError):
    """Operation requires a pure complex (all facets the same size)."""


class MultiplicityDomainMismatch(CmLabError):
    """Exponent table does not match the complex's (facet, missing vertex) pairs."""


class FacetIndexOutOfRange(CmLabError):
    """A 1-based facet index falls outside 1..m."""


class NotATree(CmLabError):
    """Graph is not a tree (connected and acyclic)."""


class RootNotFound(CmLabError):
    """Requested root is not a node of the graph."""


class NotQuasiTree(CmLabError):
    """Complex is not a strongly connected quasi-tree."""


class RestrictionNotTree(NotATree):
    """Restriction of a tree on the facets to the facets omitting a vertex
    is not a tree: a bug for relation trees, or a vertex in no facet."""


class NotPermutation(CmLabError):
    """Facet order is not a permutation of 1..m."""


class NotShellable(CmLabError):
    """No shelling exists, or a given facet order is not a shelling."""


class DimensionOutOfRange(CmLabError):
    """Requested boundary dimension is outside -1..dim, or a matrix row is
    not int values at ascending columns inside the declared width."""


class VoidComplex(CmLabError):
    """Operation is undefined for the void complex (no faces at all)."""


class AmbientMismatch(CmLabError):
    """Ideals live in polynomial rings with different variable counts."""


class HypothesesViolated(CmLabError):
    """Structural hypotheses of the requested operation do not hold."""


class NotTreeFacetGraph(HypothesesViolated, NotATree):
    """Operation requires a pure complex whose facet graph is a tree."""


class NotCohenMacaulay(HypothesesViolated):
    """Operation requires a Cohen-Macaulay complex over the chosen field."""


class ParseError(CmLabError):
    """Problem file is malformed; message carries field context."""


class UnknownFixture(CmLabError):
    """No built-in fixture with that name."""


class InternalInvariantViolation(CmLabError):
    """A theorem the code relies on failed on concrete input; indicates a bug."""


class InvalidCharacteristic(CmLabError):
    """Field characteristic must be 0 or a prime."""
