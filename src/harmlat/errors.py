"""Exception hierarchy shared across the package."""


class HarmError(Exception):
    """Base class for all errors raised by this package."""


class DomainTooSmallError(HarmError):
    """An operation needs a larger ball than the function is defined on."""


class InvalidGeneratorError(HarmError):
    """A step vector is not one of the 2d unit generators of Z^d."""


class HarmonicityError(HarmError):
    """A function required to be harmonic is not; ``value`` is the offending Laplacian, or None."""

    def __init__(self, message, value=None):
        super().__init__(message)
        self.value = value


class OutOfRangeError(HarmError):
    """A growth-function argument exceeds the available report length."""


class InvalidParameterError(HarmError):
    """A parameter is outside its documented range."""


class ResourceLimitError(HarmError):
    """A requested computation exceeds the configured cell budget."""


class HypothesisNotMetError(HarmError):
    """A theorem checker was invoked outside the theorem's hypotheses."""


class VanishingHypothesisError(HarmError):
    """The vanishing-ball hypothesis fails; carries a witness point."""

    def __init__(self, message, witness, value):
        super().__init__(message)
        self.witness = witness
        self.value = value


class UsageError(HarmError):
    """Malformed CLI input or configuration."""
