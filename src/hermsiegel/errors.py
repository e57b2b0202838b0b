"""Exception hierarchy shared by all modules."""


class HermSiegelError(Exception):
    """Base class for all library errors."""


class NonIntegralElement(HermSiegelError):
    """Reduction mod a uniformizer power applied to an element of negative valuation."""


class DegenerateLattice(HermSiegelError):
    """Gram matrix of a lattice (or restriction to a span) is singular."""


class DegenerateSubspace(HermSiegelError):
    """A subspace required to be nondegenerate carries a singular form."""


class AmbientMismatch(HermSiegelError):
    """Two lattices or vectors do not live in the same ambient hermitian space."""


class NotContained(HermSiegelError):
    """An inclusion of lattices required by an operation does not hold."""


class BudgetExceeded(HermSiegelError):
    """An enumeration or search would exceed the configured work budget."""


class UnsupportedShape(HermSiegelError):
    """The structured oracle has no count for this shape, whatever the budget."""


class EvenValuation(HermSiegelError):
    """Central derivative requested for a lattice of even valuation."""


class OddValuation(HermSiegelError):
    """Almost-self-dual derivative requested for a lattice of odd valuation."""


class PreconditionViolated(HermSiegelError):
    """An operation-specific precondition on its arguments fails."""


class RemainderNonzero(HermSiegelError):
    """An exact polynomial division produced a nonzero remainder."""


class WrongParity(HermSiegelError):
    """Lattice valuation parity incompatible with the requested intersection number."""


class WrongAmbientParity(WrongParity):
    """Ambient space split/nonsplit type incompatible with the operation."""


class NotVertexType3(HermSiegelError):
    """Operation requires a vertex lattice of type 3."""


class NotInVert3(HermSiegelError):
    """Lattice is not among the type-3 vertex overlattices of the given flat."""


class UsageError(HermSiegelError):
    """Bad command-line arguments or malformed input files."""
