"""Exception types shared across the package."""


class FactorBoundError(RuntimeError):
    """A cofactor survived trial division by every prime up to
    ``arith.FACTOR_BOUND``, is not probable-prime, and exceeds that bound
    squared.  Raised instead of returning a wrong factorization."""


class ConsistencyError(RuntimeError):
    """An internal cross-check that must always hold has failed.

    This is the loud-abort path: it fires only if a verified identity
    (solution splitting, valuation bookkeeping) is violated by actual data.
    """


class CheckpointError(RuntimeError):
    """A checkpoint file is unreadable, corrupt, or belongs to a different
    search configuration.  The file on disk is never modified."""
