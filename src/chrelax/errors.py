"""Exception types shared across the package."""


class ChRelaxError(Exception):
    """Base class for all solver errors."""


class InvalidParams(ChRelaxError):
    """Model, scheme or study parameters violate a documented hypothesis."""


class _BudgetExhausted(ChRelaxError):
    """An iteration ran out of its budget; keeps its residual and count."""

    def __init__(self, message, residual=None, iterations=None):
        super().__init__(message)
        self.residual = residual
        self.iterations = iterations


class NewtonDivergence(_BudgetExhausted):
    """A Newton iteration exhausted its budget without meeting tolerance."""


class OutsideSubdifferentialDomain(ChRelaxError):
    """Minimal section requested outside the domain of the subdifferential."""


class CgNoConvergence(_BudgetExhausted):
    """Conjugate gradients exhausted its budget without meeting tolerance."""


class NonFiniteState(ChRelaxError):
    """A substep produced NaN or infinite values."""


class SchemeUnstable(ChRelaxError):
    """A run's iterates grow in a way the scheme cannot recover from."""


class GridMismatch(ChRelaxError):
    """Fields from different grids (or wrong shapes) were combined."""


class ScheduleMismatch(ChRelaxError):
    """Trajectories with different time schedules were compared."""


class DegenerateFit(ChRelaxError):
    """Rate fit requested on a degenerate point set."""


class ConfigIssue:
    """One machine-readable problem found while parsing a config file."""

    __slots__ = ("kind", "key", "line", "message")

    def __init__(self, kind, key, line, message):
        self.kind = kind
        self.key = key
        self.line = line
        self.message = message

    def __str__(self):
        where = f"line {self.line}: " if self.line else ""
        return f"{where}{self.kind}: {self.message}"

    def __repr__(self):
        return f"ConfigIssue({self.kind!r}, {self.key!r}, {self.line!r}, {self.message!r})"


class ConfigError(ChRelaxError):
    """Config text failed to parse; carries the full issue list."""

    def __init__(self, issues):
        self.issues = list(issues)
        super().__init__("; ".join(str(i) for i in self.issues))
