"""Exception hierarchy for the repro package.

Every error raised by the library derives from :class:`ReproError`, so
callers can catch one base class at an API boundary.  Subclasses are grouped
by the subsystem that raises them; modules raise the most specific class
available rather than bare ``ValueError``.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class PrefixError(ReproError, ValueError):
    """An IP prefix string or (value, length) pair is malformed."""


class ASNError(ReproError, ValueError):
    """An AS number is out of range or an AS-path string is malformed."""


class AllocationError(ReproError):
    """The address allocation engine cannot satisfy a request."""


class TopologyError(ReproError):
    """The AS topology is inconsistent (unknown AS, bad relationship...)."""


class RPSLError(ReproError, ValueError):
    """An RPSL object cannot be parsed or serialised."""


class RPKIError(ReproError):
    """An RPKI object (certificate, ROA) is structurally invalid."""


class DatasetError(ReproError):
    """A dataset snapshot is missing, duplicated, or malformed."""


class DeltaError(ReproError):
    """A delta event cannot be applied to the current world state."""
