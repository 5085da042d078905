"""Exception types shared across the package."""


class ConfigError(ValueError):
    """A configuration value or file is invalid."""


class ShapeError(ValueError):
    """Operands have incompatible shapes; the message names both."""


class ContractError(ValueError):
    """An input violates a documented precondition (e.g. non-one-hot rows)."""


class BudgetExceededError(RuntimeError):
    """The exact search visited more nodes than its budget allows."""


class TrainingDiverged(RuntimeError):
    """A non-finite loss value was produced during training."""
