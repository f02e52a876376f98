"""Exception types shared across the package."""


class ValidationError(ValueError):
    """Malformed input: kernel, reaction, config or problem setup."""


class ContractError(ValueError):
    """An operation was called outside its stated preconditions."""


class NoSemiWaveError(ValidationError):
    """The semi-wave problem has no solution because (J1) fails."""


class NoTravelingWaveError(ValidationError):
    """No monotone traveling wave exists because (J2) fails."""


class ConvergenceError(RuntimeError):
    """An iterative solve stagnated before reaching its tolerance, or a run
    left the finite numbers; partial results may be attached."""

    def __init__(self, message, diagnostics=None, partial=None):
        super().__init__(message)
        self.diagnostics = diagnostics or {}
        self.partial = partial


class ResourceError(RuntimeError):
    """A run exceeded its memory/size cap; partial results may be attached."""

    def __init__(self, message, partial=None):
        super().__init__(message)
        self.partial = partial


class InsufficientDataError(ValueError):
    """A fit window holds too few samples to be meaningful."""
