"""Exception hierarchy shared across the package.

Everything raised on bad data derives from :class:`AgreementError`, so the
CLI can separate data problems (exit 1) from usage problems (exit 2).
"""


class AgreementError(Exception):
    """Base class for all data and domain errors.

    Errors raised on input carry the offending line (or JSON record number)
    as ``.line`` and in the message; ``.line`` is None when it is not known.
    """

    def __init__(self, message, line=None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class InvalidInterval(AgreementError):
    """Endpoints are reversed or non-finite."""


class EmptyCollection(AgreementError):
    """An interval collection needs at least one interval."""


class CombinatorialLimit(AgreementError):
    """Brute-force tuple enumeration would exceed the configured bound."""


class InvalidAlpha(AgreementError):
    """Alpha level outside (0, 1]."""


class InvalidDomain(AgreementError):
    """No bounded evaluation window can be derived for the membership function."""


class EmptySet(AgreementError):
    """Operation undefined on an identically-zero membership function."""


class TooFewSources(AgreementError):
    """Fewer sources than the operation requires (agreement needs >= 2)."""


class EmptySupport(AgreementError):
    """All inputs have zero measure, so no length ratios exist."""


class InvalidCuts(AgreementError):
    """Alpha-cut count below 2."""


class ParseError(AgreementError):
    """Malformed survey input; carries the offending line when known."""


class RangeError(AgreementError):
    """A response interval falls outside the declared survey scale."""


class UnknownGroup(AgreementError):
    """Requested stakeholder group is not in the dataset."""


class UnknownTerm(AgreementError):
    """Requested linguistic term is not in the dataset."""
