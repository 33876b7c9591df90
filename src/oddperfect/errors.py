"""Exception types shared across the package."""


class FactorBoundError(RuntimeError):
    """A composite cofactor that Pollard-Brent rho could not split within
    its step cap (``arith._RHO_STEPS``) for any of its polynomial constants.
    Raised instead of returning a wrong factorization."""


class ConsistencyError(RuntimeError):
    """An internal cross-check that must always hold has failed.

    This is the loud-abort path: it fires only if a verified identity
    (solution splitting, valuation bookkeeping) is violated by actual data.
    """


class CheckpointError(RuntimeError):
    """A checkpoint file is unreadable, corrupt, or belongs to a different
    search configuration.  The file on disk is never modified."""
