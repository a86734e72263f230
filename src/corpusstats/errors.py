"""Exception hierarchy shared across the package.

The CLI maps exceptions to process exit codes: usage errors exit 1, data
errors exit 2, and I/O failures (plain OSError, never wrapped here) exit 3.
"""

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_IO = 3


class CorpusStatsError(Exception):
    """Base class for every data-level error raised by this package."""

    exit_code = EXIT_DATA


class UsageError(CorpusStatsError):
    """Invalid flag or argument combination, detected before any work starts."""

    exit_code = EXIT_USAGE


class ParseError(CorpusStatsError):
    """Malformed input file; the message carries the path and 1-based line."""

    def __init__(self, path, line_no, message):
        self.path = str(path)
        self.line_no = int(line_no)
        self.message = message
        super().__init__(f"{self.path}:{self.line_no}: {message}")

    def __reduce__(self):
        # pickle calls the class with self.args, the one formatted string
        return type(self), (self.path, self.line_no, self.message)


class ValidationError(CorpusStatsError):
    """Input violates a documented contract (duplicates, bad ranges, ...)."""


class DegenerateInputError(CorpusStatsError):
    """The requested statistic is undefined for this input."""
