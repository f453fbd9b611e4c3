"""Exception hierarchy shared by all modules.

Exit-code mapping for the CLI:
    1  condition / hypothesis / certificate failures
    2  numeric failures (no convergence, overflow, singular input)
    3  search exhausted
"""


class SpectralCascadeError(Exception):
    exit_code = 1


class ConditionError(SpectralCascadeError):
    """An analytic hypothesis or genericity condition is violated."""

    exit_code = 1


class NumericError(SpectralCascadeError):
    """A numeric routine could not produce a trustworthy result."""

    exit_code = 2


class SingularMatrix(NumericError):
    pass


class IllConditioned(NumericError):
    pass


class ConvergenceFailure(NumericError):
    """An iteration (fixed point, eigenvalues, oracle) exceeded its cap."""


class PowerOverflow(NumericError):
    """A matrix power left the representable range instead of denormalizing."""


class NegativeDeterminant(NumericError):
    """Polar decomposition requested for an orientation-reversing block."""


class DegeneratePolar(ConditionError):
    """Symmetric factor has equal eigenvalues; no positive rotation margin."""


class HypothesisFailure(ConditionError):
    """Dominated-split hypotheses do not hold for the given problem."""


class CertificateFailure(ConditionError):
    """A certified bound failed; ``item`` names the violated item."""

    def __init__(self, message, item=None):
        super().__init__(message)
        self.item = item


class ConditionFailure(ConditionError):
    """A generated instance violates a required genericity condition."""


class EpsilonTooLarge(ConditionError):
    """No positive real-simple rotation margin is achievable at this eps0."""


class StageFailure(SpectralCascadeError):
    """Recursive decomposition failed at a specific level; ``cause`` sets the exit code."""

    def __init__(self, message, stage, cause=None):
        super().__init__(message)
        self.stage = stage
        self.exit_code = getattr(cause, "exit_code", 1)
        self.__cause__ = cause


class IndependenceFailure(ConditionError):
    """Rotation angles fail the bounded-coefficient independence test."""


class PerturbationExhausted(ConditionError):
    """Could not reach a generic matrix within the retry budget."""


class SearchExhausted(SpectralCascadeError):
    """Fewer hits than requested below the scan cap."""

    exit_code = 3

    def __init__(self, message, near_misses=()):
        super().__init__(message)
        self.near_misses = list(near_misses)


class VerificationFailure(ConditionError):
    """Independent re-validation of an artifact found a violated bound."""

