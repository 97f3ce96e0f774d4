"""Exception types shared across the package."""


class StableSearchError(Exception):
    """Base class for all package-specific errors."""


class ShapeMismatch(StableSearchError):
    """Array dimensions disagree with what the operation requires."""


class DegenerateData(StableSearchError):
    """Data matrix is unusable: zero-variance column or ill-conditioned covariance."""


class ConstraintViolation(StableSearchError):
    """A graph operation would produce an arc the constraint mask forbids."""


class ExtensionCapExceeded(StableSearchError):
    """Equivalence-class enumeration grew past graphs.EXTENSION_CAP members."""


class NoExtension(StableSearchError):
    """A partially directed graph admits no consistent acyclic extension."""


class SearchFailed(StableSearchError):
    """Too many subset searches failed for stability aggregation to proceed."""


class InvalidPrior(StableSearchError):
    """Prior-knowledge input references unknown variables or is malformed."""


class EmptyMultiset(StableSearchError):
    """No causal-effect values could be collected for a requested pair."""
