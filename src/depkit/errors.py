"""Exception types shared across the toolkit.

Domain failures that a caller can reasonably handle derive from
``DepkitError``; the CLI maps them to exit code 1.  Checker rejections are
*not* errors (they are verdicts carried by ``CheckOutcome``).
"""

from __future__ import annotations


class DepkitError(Exception):
    """Base class for all domain errors raised by depkit.

    ``pair`` is the (from, to) of the dependency record at fault, when the
    error is about one, so that a caller holding the records' file can name
    the record's line.
    """

    pair: tuple[str, str] | None = None


class ParseError(DepkitError):
    """Malformed micro-article source or edge record, with its position."""

    def __init__(self, message: str, source_file: str, line: int):
        super().__init__(f"{source_file}:{line}: {message}")
        self.source_file = source_file
        self.line = line


class DuplicateNameError(DepkitError):
    """The same item name was introduced twice; ``line`` is the line of the
    second declaration, when known."""

    def __init__(self, name: str, first_file: str, second_file: str, line: int | None = None):
        where = f"{second_file}:{line}: " if line is not None else ""
        super().__init__(
            f"{where}duplicate item name {name!r} (first in {first_file}, again in {second_file})"
        )
        self.name = name
        self.first_file = first_file
        self.second_file = second_file
        self.line = line


class DanglingThenError(DepkitError):
    """A 'then' link has no preceding statement to attach to."""

    def __init__(self, source_file: str, index_in_file: int):
        super().__init__(
            f"{source_file}: item #{index_in_file} starts with 'then' but has no "
            "preceding definition or theorem to link to"
        )
        self.source_file = source_file
        self.index_in_file = index_in_file


class NotVerifiableError(DepkitError):
    """An item fails to check even under its full candidate environment;
    ``source_file`` and ``line`` locate it, when known."""

    def __init__(
        self, item_name: str, reason: str, source_file: str | None = None, line: int | None = None
    ):
        where = f"{source_file}:{line}: " if line is not None else ""
        super().__init__(
            f"{where}item {item_name!r} does not verify under its full environment ({reason})"
        )
        self.item_name = item_name
        self.reason = reason
        self.source_file = source_file
        self.line = line


class CorpusMismatchError(DepkitError):
    """Two artifacts that must describe the same corpus do not."""

    def __init__(self, message: str, pair: tuple[str, str] | None = None):
        super().__init__(message)
        self.pair = pair


class UnknownItemError(DepkitError):
    """A name does not resolve to any known item (or file)."""

    def __init__(self, name: str, pair: tuple[str, str] | None = None):
        super().__init__(f"unknown item: {name!r}")
        self.name = name
        self.pair = pair


class CycleDetectedError(DepkitError):
    """Dependency edges contradict the corpus ordering."""

    def __init__(self, message: str, pair: tuple[str, str] | None = None):
        super().__init__(message)
        self.pair = pair
