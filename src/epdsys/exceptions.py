"""Exception hierarchy shared across the package."""


class EpdError(Exception):
    """Base class for all package errors."""


class InvalidSpecError(EpdError):
    """Mesh or problem parameters violate an invariant."""


class SingularTimeError(EpdError):
    """An operator was requested at a time level where t <= 0."""


class SolvabilityError(EpdError):
    """A (coupled) Sylvester problem is singular or numerically too close to it.

    Attributes:
        pair: the offending eigenvalue pair (lam, mu) with lam + mu ~ 0, if known.
        branch: 'sum' or 'diff' when raised from the decoupled solver.
        step: the index n of the failing step itself (as in StepReport.n),
            when raised by the stepper's solvability check.
    """

    def __init__(self, message, pair=None, branch=None, step=None):
        super().__init__(message)
        self.pair = pair
        self.branch = branch
        self.step = step


class SizeGuardError(EpdError):
    """Dense Kronecker path refused: the vectorized system would be too large."""


class BlowUpError(EpdError):
    """Trajectory norm exceeded the blow-up cap (observed instability).

    Attributes:
        step: the index of the level whose norm passed the cap, the level
            that step n forms (StepReport.n + 1).
        sup_norm: that level's combined norm ||(U, V)||.
    """

    def __init__(self, message, step=None, sup_norm=None):
        super().__init__(message)
        self.step = step
        self.sup_norm = sup_norm


class DegenerateExactError(EpdError):
    """Relative error undefined: the exact solution has zero norm at some level."""


class ResonanceError(EpdError):
    """Frobenius recurrence blocked: a denominator vanishes at some index."""

    def __init__(self, message, index=None):
        super().__init__(message)
        self.index = index


class SingularPointError(EpdError):
    """Series evaluation requested at a singular point (x = 0 with nu < 0)."""


class BranchError(EpdError):
    """Closed-form family requested with parameters outside the implemented branch."""


class ConfigError(EpdError):
    """Config text could not be parsed.

    Attributes:
        line: 1-based line number of the offending entry, when known.
    """

    def __init__(self, message, line=None):
        super().__init__(message)
        self.line = line
