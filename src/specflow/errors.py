"""Exception types shared across the toolkit.

Numerical routines distinguish configuration problems (bad inputs,
violated preconditions) from numerical failures (divergence, unresolved
counts).  The CLI maps the former to exit code 2 and the latter to 3.
"""


class SpecflowError(Exception):
    """Base class for all toolkit errors."""


class ConfigurationError(SpecflowError, ValueError):
    """Invalid model/configuration data (CLI exit code 2).

    Also a ValueError, the builtin type for a rejected argument value.
    """


class NumericalError(SpecflowError):
    """A computation failed to resolve (CLI exit code 3)."""


# -- symbol / kernel layer ---------------------------------------------------

class StripViolation(ConfigurationError):
    """Evaluation point or weight outside the declared analyticity strip."""


class QuadratureTail(ConfigurationError):
    """Sampled kernel does not reach its declared decay at truncation."""


# -- root finding ------------------------------------------------------------

class ContourThroughRoot(NumericalError):
    """Contour could not be moved off a characteristic root."""


class InconclusiveCount(NumericalError):
    """Winding number did not round cleanly to an integer."""


class NotARoot(ConfigurationError):
    """Continuation was seeded at a point that is not a root."""


class LostTrack(NumericalError):
    """Root continuation diverged at the minimal step size."""


# -- spectral flow -----------------------------------------------------------

class EndpointNotHyperbolic(ConfigurationError):
    """A parameter path fails hyperbolicity at (or too close to) its ends."""


class CrossingsUnresolved(NumericalError):
    """Root bookkeeping at a crossing did not stabilize under refinement."""


# -- grid oracle -------------------------------------------------------------

class GridTooCoarse(ConfigurationError):
    """Grid step cannot resolve the shift offsets."""


class TailUnresolved(ConfigurationError):
    """Grid half-width does not contain the kernel mass."""


# -- conservation-law application ---------------------------------------------

class NonrealSpectrum(ConfigurationError):
    """Transport matrix has non-real eigenvalues."""


class RepeatedSpeeds(ConfigurationError):
    """Characteristic speeds are not distinct."""


class SingularMatrix(ConfigurationError):
    """A matrix that must be invertible is singular."""


class NewtonDiverged(NumericalError):
    """Newton iteration failed to converge."""


class DegeneracyViolated(ConfigurationError):
    """A pairing required to be nonzero vanishes."""


# -- edge-bifurcation application ---------------------------------------------

class RankMismatch(ConfigurationError):
    """Kernel of the zero-frequency symbol is not one-dimensional."""


class CompatibilityViolated(NumericalError):
    """Edge vectors violate their defining compatibility identities."""


class GenericityViolated(ConfigurationError):
    """The localized perturbation is non-generic (vanishing pairing)."""
