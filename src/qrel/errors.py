"""Exception types shared across the package."""


class QrelError(Exception):
    """Base class for all qrel errors."""


class ShapeMismatch(QrelError):
    """A matrix or subspace does not fit the ambient operator space."""


class SortMismatch(QrelError):
    """Two relations or quantum sets do not have compatible sorts."""


class DuplicateLabel(QrelError):
    """Atom labels within a quantum set must be unique, and may not contain
    ``⊗``, which joins the labels of product atoms."""


class ZeroDimension(QrelError):
    """Atoms must be nonzero finite-dimensional spaces."""


class NotAQuantumRelation(QrelError):
    """A global subspace fails the block-commutant bimodule condition."""


class SortError(QrelError):
    """A term or formula is not well sorted."""


class FreeVariableNotInContext(SortError):
    """A formula was interpreted in a context missing one of its free variables."""


class HasFreeVariables(SortError):
    """Truth evaluation requires a sentence (no free variables)."""


class NonClassicalSort(QrelError):
    """Brute-force evaluation only applies to all-classical sorts."""


class InvariantViolation(QrelError):
    """Structured input data violates a documented invariant."""


class FamilyInvariantViolation(InvariantViolation):
    """A metric family is structurally malformed."""


class NotProjections(InvariantViolation):
    """A projection family contains a matrix that is not a projection."""


class UnknownLabel(QrelError):
    """A classical label tuple has the wrong length or names an unknown element."""


class LabelMismatch(QrelError):
    """Row or column labels do not match the declared graphs."""


class ModeRequiresSingleAtom(QrelError):
    """The nilpotent antisymmetry check is only defined on single-atom sets."""


class NotAFunction(QrelError):
    """An operation requires its operand to pass the function checks."""


class TooLarge(QrelError):
    """Requested instance exceeds the supported size."""


class BadParams(QrelError):
    """Random-instance parameters are outside their documented ranges."""
