"""Exception types shared across the package."""


class QcqpHullError(Exception):
    """Base class for all package-specific errors."""


class ParseError(QcqpHullError):
    """A problem or certificate file could not be parsed."""


class NotSimultaneouslyDiagonalizable(QcqpHullError):
    """The whitened quadratic forms do not commute: a joint eigenbasis
    leaves a form off its diagonal, or spread inside a joint eigenspace.

    Polyhedrality of the dual multiplier set is then not certified and the
    hull machinery stops.
    """


class NoInteriorPoint(QcqpHullError):
    """No multiplier with a positive-definite aggregated Hessian exists."""


class GuardExceeded(QcqpHullError):
    """A combinatorial size guard was hit (too many multipliers or rows)."""


class NotInDsdp(QcqpHullError):
    """The point to decompose is outside the relaxed epigraph."""


class NoDescentDirection(QcqpHullError):
    """The homogeneous direction system on a face has only the zero solution."""


class NoFeasiblePoint(QcqpHullError):
    """Brute-force search found no feasible point in the box."""


class InfeasibleRegion(QcqpHullError):
    """The homogeneous hull constraints have no solution inside the box."""


class VerificationError(QcqpHullError):
    """A certificate failed independent re-verification."""
