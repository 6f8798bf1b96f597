"""Shared exception types."""

from __future__ import annotations


class HomogeneityError(ValueError):
    """An element or relation entry fails to be homogeneous."""


class UnstabilizedError(RuntimeError):
    """A directed system did not stabilize within the configured cap.

    Carries enough context to report which object and degree refused, and
    the dimension trajectory seen so far.
    """

    def __init__(self, what: str, degree, trajectory):
        self.what = what
        self.degree = degree
        self.trajectory = list(trajectory)
        super().__init__(
            "%s did not stabilize at degree %s within the cap; "
            "dimension trajectory %s" % (what, degree, self.trajectory)
        )

    def payload(self) -> dict:
        """The refusal as a report record: what, degree, trajectory."""
        return {
            "what": self.what,
            "degree": str(self.degree),
            "trajectory": list(self.trajectory),
        }


class CoarseningRefusal(RuntimeError):
    """A fiber sum could not be certified finite over the given window."""

    def __init__(self, h, reason: str):
        self.h = h
        self.reason = reason
        at = "" if h is None else " at degree %s" % (h,)
        super().__init__("refusing to coarsen%s: %s" % (at, reason))


class ScenarioError(ValueError):
    """Parse or semantic error in a scenario file."""

    def __init__(self, message: str, line: int | None = None, col: int | None = None):
        self.line = line
        self.col = col
        where = ""
        if line is not None:
            where = "line %d" % line
            if col is not None:
                where += ", column %d" % col
            where += ": "
        super().__init__(where + message)
