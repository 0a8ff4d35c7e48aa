"""Exception types shared across the library.

Every error raised on purpose derives from TwistcapError so callers can
catch the library's failures without catching programming mistakes.
"""


class TwistcapError(Exception):
    pass


class CheckFailed(TwistcapError):
    """A check failed while it ran, rather than the input being bad: the CLI
    reports it with a FAIL line and exit 1, not exit 2."""


# -- exact algebra ----------------------------------------------------------

class CertificateFailed(CheckFailed):
    """An isomorphism's inverse certificate did not verify."""


class CompositionNonzero(TwistcapError):
    """d_out @ d_in != 0, so the pair does not define a chain degree."""


class NotChainMap(TwistcapError):
    """A chain-level matrix fails to commute with the stored boundaries."""


# -- simplicial complexes ---------------------------------------------------

class UnknownName(TwistcapError):
    """Requested a built-in complex or cover that does not exist."""


class ComplexFormatError(TwistcapError):
    def __init__(self, line, message):
        super().__init__(f"line {line}: {message}")
        self.line = line


class NotInStar(TwistcapError):
    pass


class DisconnectedStar(TwistcapError):
    pass


class NotClosedPseudomanifold(TwistcapError):
    pass


# -- local systems ----------------------------------------------------------

class SystemFormatError(TwistcapError):
    def __init__(self, line, message):
        super().__init__(f"line {line}: {message}")
        self.line = line


class BaseMismatch(TwistcapError):
    pass


class RingMismatch(TwistcapError):
    pass


class FlatnessViolation(TwistcapError):
    pass


# -- double covers ----------------------------------------------------------

class NotSignSystem(TwistcapError):
    """Double covers need a rank-1 system whose transports are +-identity."""


class IncoherentCover(TwistcapError):
    pass


class TwoIsZero(TwistcapError):
    """The coefficient ring has 2 = 0, so the +-/- splitting is unavailable."""


# -- cap products -----------------------------------------------------------

class BadIndices(TwistcapError):
    pass


class DegreeMismatch(TwistcapError):
    pass


class NotRelativeCocycle(TwistcapError):
    pass


# -- Mayer-Vietoris ---------------------------------------------------------

class NotACover(TwistcapError):
    pass


class ConnectingChainEscapes(CheckFailed):
    """A zig-zag connecting chain does not lie in the intersection."""


class ConnectingImageNotCycle(CheckFailed):
    """A connecting map sent a generator to a chain that is not a cycle (or
    a cochain that is not a cocycle)."""


class CoboundariesDisagree(CheckFailed):
    """The coboundaries of the two halves of a split cochain differ on the
    overlap, so they do not glue."""
