"""The two exception types of the workbench."""


class LogcavityError(Exception):
    """An input the workbench rejects; the CLI prints its message and exits 1."""


class TooLarge(LogcavityError):
    """A computation would exceed a cap; the message names the cap."""
