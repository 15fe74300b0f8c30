"""Exception types shared across the package."""


class SpinScreenError(Exception):
    """Base class for all spinscreen errors."""


class EmptyScreen(SpinScreenError):
    """Screen ranges are empty or parity-incompatible."""


class ParityError(SpinScreenError):
    """Angular momenta violate an integer/half-integer parity constraint."""


class OutOfRange(SpinScreenError):
    """A lattice point lies outside the screen, or a value outside the
    double range."""


class PatternError(SpinScreenError):
    """Arguments do not match a supported closed-form pattern."""


class ConvergenceFailure(SpinScreenError):
    """An eigensolve, a row solve or a recursion gave no usable result."""


class NegativeRadicand(SpinScreenError):
    """Triangle inequality violated: area radicand is negative."""


class DegenerateFace(SpinScreenError):
    """A face area in a denominator is zero."""


class OutsideDomain(SpinScreenError):
    """Point lies outside the geometric (classical) domain."""


class NoClassicalWindow(SpinScreenError):
    """A row has no classically allowed lattice points."""


class CausticProximityWarning(UserWarning):
    """Semiclassical estimate requested close to a caustic; accuracy degrades."""
