"""Exception hierarchy shared by all specband modules."""


class SpecbandError(Exception):
    """Base class for all domain errors raised by this package.

    ``exit_code`` is the command line's exit status and names the party at
    fault: 2 the command line (InvalidArgument, InvalidModel), 1 the input
    data or what it estimates (ParseError, InvalidSeries, DegenerateSpectrum,
    BandUndefined)."""

    exit_code = 1


class InvalidArgument(SpecbandError, ValueError):
    """A bad parameter: a flag value that does not parse (a grid, an entry
    list, an integer), a Monte Carlo plan field outside its domain or of the
    wrong type, a bandwidth exponent outside (0, 1) or a constant not finite
    and positive, p < 1, a level outside (0, 1), a lag past T - 1 or the
    computed horizon, a frequency off the grid pi*l/M, a malformed stack or
    grid, an uncentered series, an unknown kernel name, or an asymmetric
    kernel table."""

    exit_code = 2


class ParseError(SpecbandError):
    """Malformed CSV input. Carries 1-based (row, col) when known."""

    def __init__(self, message, row=None, col=None):
        super().__init__(message)
        self.row = row
        self.col = col


class InvalidSeries(SpecbandError, ValueError):
    """Series values are not a finite (T, n) array, have too few time points
    or rows for the operation, or overflow in centering or C(u)."""


class InvalidModel(InvalidArgument):
    """Model parameters are malformed, non-finite, not positive definite or
    outside the stationarity region, or the model has no closed-form
    autocovariance or spectrum for a request that needs one."""


class DegenerateSpectrum(SpecbandError):
    """A denominator spectral diagonal is not strictly positive, or their product underflows."""

    def __init__(self, message, freq=None):
        super().__init__(message)
        self.freq = freq


class BandUndefined(SpecbandError):
    """Band half-width is undefined: negative under the root, or overflowing."""


class DecayFitWarning(UserWarning):
    """Geometric decay fit of a dependence profile failed or is unreliable."""
