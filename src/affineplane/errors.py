"""Exception hierarchy shared by all modules."""


class AffinePlaneError(Exception):
    """Base class for every error raised by this package."""


class MalformedDocument(AffinePlaneError):
    """The incidence document could not be parsed into a plane."""


class NotVerified(AffinePlaneError):
    """Operation requires a plane whose axioms have been verified."""


class NotPrime(AffinePlaneError):
    """Requested plane order is not a prime number."""


class OrderTooLarge(AffinePlaneError):
    """Requested enumeration exceeds the configured size bound."""


class SizeMismatch(AffinePlaneError):
    """A map's table does not match the size of its carrier, or a group
    self-map's table has an entry outside the group's index range."""


class NotTranslation(AffinePlaneError):
    """Operation requires a translation."""


class NotClosed(AffinePlaneError):
    """The element list for a group build is not a group: a composite or
    an inverse escapes it, or it lists an element twice."""


class MissingIdentity(AffinePlaneError):
    """The element list for a group build does not contain the identity."""


class NotEndomorphism(AffinePlaneError):
    """Operation requires a map already known to be an endomorphism."""
