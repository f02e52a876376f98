"""Exception types shared across the package."""


class ValidationError(ValueError):
    """Malformed input: kernel, reaction, config or problem setup."""


class ContractError(ValueError):
    """An operation was called outside its stated preconditions."""


class NoSemiWaveError(ValidationError):
    """The semi-wave problem has no solution because (J1) fails."""


class NoTravelingWaveError(ValidationError):
    """No monotone traveling wave exists because (J2) fails."""


class _RuntimeFailure(RuntimeError):
    """A solve or run that stopped early: ``diagnostics`` says where and why,
    and partial results may be attached."""

    def __init__(self, message, diagnostics=None, partial=None):
        super().__init__(message)
        self.diagnostics = diagnostics or {}
        self.partial = partial


class ConvergenceError(_RuntimeFailure):
    """An iterative solve stagnated before reaching its tolerance, or a run
    left the finite numbers."""


class ResourceError(_RuntimeFailure):
    """A run exceeded its memory/size cap."""


class InsufficientDataError(ValueError):
    """A fit window holds too few samples to be meaningful."""
