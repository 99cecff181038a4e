"""Exception hierarchy shared by all specband modules."""


class SpecbandError(Exception):
    """Base class for all domain errors raised by this package.

    ``exit_code`` is the command line's exit status: 1 for bad data or an
    unsupported request, 2 for a bad flag, plan or parameter.
    """

    exit_code = 1


class UsageError(SpecbandError):
    """A command-line value that does not parse, such as a grid or entry list."""

    exit_code = 2


class InvalidArgument(SpecbandError, ValueError):
    """A parameter outside its domain, such as p < 1 or an asymmetric kernel table."""

    exit_code = 2


class ParseError(SpecbandError):
    """Malformed CSV input. Carries 1-based (row, col) when known."""

    def __init__(self, message, row=None, col=None):
        super().__init__(message)
        self.row = row
        self.col = col


class InvalidSeries(SpecbandError, ValueError):
    """Series values are not a finite (T, n) array, or overflow in centering or C(u)."""


class MalformedArray(SpecbandError, ValueError):
    """An autocovariance stack or spectral grid has the wrong shape or non-finite entries."""


class InsufficientData(SpecbandError):
    """Too few time points for the requested operation."""


class NotCentered(SpecbandError):
    """Operation requires a centered (or known mean-zero) series."""


class LagOutOfRange(SpecbandError):
    """Requested autocovariance lag is >= T."""


class InvalidBandwidth(InvalidArgument):
    """Bandwidth exponent outside (0, 1), or a constant not finite and positive."""


class UnsupportedModel(SpecbandError):
    """The process model has no closed-form autocovariance/spectrum."""


class InvalidModel(InvalidArgument):
    """Model parameters are malformed, non-finite or not positive definite."""


class NonStationaryModel(SpecbandError):
    """Model parameters violate the stationarity region."""


class UnknownKernel(SpecbandError, KeyError):
    """Kernel name not in the catalog; a KeyError, as for any failed lookup."""

    exit_code = 2
    __str__ = Exception.__str__  # KeyError.__str__ would quote the message


class InvalidLevel(SpecbandError):
    """Confidence level outside (0, 1)."""

    exit_code = 2


class DegenerateSpectrum(SpecbandError):
    """A denominator spectral diagonal is not strictly positive."""

    def __init__(self, message, freq=None):
        super().__init__(message)
        self.freq = freq


class BandUndefined(SpecbandError):
    """Band half-width is undefined: negative under the root, or overflowing."""


class InvalidPlan(SpecbandError):
    """Monte Carlo experiment plan violates its validity constraints."""

    exit_code = 2


class OffGridFrequency(SpecbandError):
    """A requested frequency is not on a grid pi*l/M the estimator evaluates."""


class DecayFitWarning(UserWarning):
    """Geometric decay fit of a dependence profile failed or is unreliable."""
