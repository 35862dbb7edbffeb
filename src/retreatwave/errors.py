"""Exception hierarchy shared across the package.

The CLI maps these onto exit codes: invalid input is 1, a numerical
failure is 2, and a failed verification is 3.
"""


class InputError(ValueError):
    """A parameter or configuration value violates a precondition."""


class NumericalError(RuntimeError):
    """A numerical procedure failed (integration, bracketing, bounds)."""


class IntegrationError(NumericalError):
    """A trajectory solve did not converge, or its values are not finite."""


class BracketError(NumericalError):
    """A root bracket failed its sign check."""


class PerturbationError(NumericalError):
    """A perturbed reaction lost monostability."""


class SequenceOrderingError(NumericalError):
    """A bracketing sequence violated its monotone ordering."""


class BoundViolationError(NumericalError):
    """A PDE state left its a priori bounds.

    ``diagnostic`` holds a one-line description of the offending state.
    """

    def __init__(self, message: str, diagnostic: str = ""):
        super().__init__(message)
        self.diagnostic = diagnostic or message


class VerificationFailure(RuntimeError):
    """A convergence or consistency check did not meet its threshold."""
