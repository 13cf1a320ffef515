"""Exception types shared across the package, and the JSON field reader
that turns malformed input into them."""


class QsvtSimError(Exception):
    """Base class for all library-specific errors."""


class DomainError(QsvtSimError, ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class UnsupportedConversion(QsvtSimError, ValueError):
    """Requested convention conversion pair is not supported."""


class ParityError(QsvtSimError, ValueError):
    """Polynomial coefficients are inconsistent with the declared parity."""


class DegreeCapExceeded(QsvtSimError, RuntimeError):
    """Certification failed at the maximum allowed polynomial degree."""


class ConvergenceError(QsvtSimError, RuntimeError):
    """A root finder failed to bracket or converge."""


class NoConvergence(QsvtSimError, RuntimeError):
    """Phase synthesis stopped above tolerance; the message names the best
    residual and the Newton iterations spent."""


class NotHermitian(QsvtSimError, ValueError):
    """Matrix expected to be Hermitian is not."""


class NotUnitary(QsvtSimError, ValueError):
    """Matrix expected to be unitary is not."""


class NotProjector(QsvtSimError, ValueError):
    """Matrix expected to be an orthogonal projector is not."""


class NotUnit(QsvtSimError, ValueError):
    """Vector expected to have unit norm does not."""


class ScaleTooSmall(QsvtSimError, ValueError):
    """Rescale factor alpha is smaller than the operator norm."""


class ConditionViolated(QsvtSimError, ValueError):
    """Singular values fall outside the promised [1/kappa, 1] range."""


class OrderNotFound(QsvtSimError, RuntimeError):
    """Order finding exhausted its retry budget without a valid order."""


class GiveUp(QsvtSimError, RuntimeError):
    """A repeat-until-success loop hit its iteration cap."""


class EmptyCurve(QsvtSimError, ValueError):
    """An empty curve cannot be rendered."""


def _json_field(payload, name: str, convert, what: str):
    """convert(payload[name]), with a DomainError naming the field when it
    is absent or ``convert`` rejects it; library errors pass unchanged."""
    if not isinstance(payload, dict):
        raise DomainError(f"{what} JSON must be an object")
    if name not in payload:
        raise DomainError(f"{what} JSON is missing the field {name!r}")
    try:
        return convert(payload[name])
    except QsvtSimError:
        raise
    except (TypeError, ValueError) as exc:
        raise DomainError(f"{what} JSON field {name!r} is malformed: {exc}") from None
