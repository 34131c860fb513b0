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


class SamePoint(AffinePlaneError):
    """Two distinct points were required."""


class SameLine(AffinePlaneError):
    """Two distinct lines were required."""


class SizeMismatch(AffinePlaneError):
    """A map's table does not match the size of its carrier."""


class NotDilation(AffinePlaneError):
    """Operation requires a dilation or translation."""


class NotTranslation(AffinePlaneError):
    """Operation requires a translation."""


class TraceClassMismatch(AffinePlaneError):
    """Traces of one translation fell into different parallel classes."""


class NotCollineation(AffinePlaneError):
    """A collineation search produced a map that is not a collineation."""


class NotClosed(AffinePlaneError):
    """A composite escaped the element list during group construction."""


class MissingIdentity(AffinePlaneError):
    """The element list for a group build does not contain the identity."""


class NotEndomorphism(AffinePlaneError):
    """Operation requires a map already known to be an endomorphism."""


class IncompleteList(AffinePlaneError):
    """A closure check met a product outside its list that passes the
    predicate: the list is not the whole set the predicate defines."""
