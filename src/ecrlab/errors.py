"""One error hierarchy; ``exit_code`` is the CLI's exit status per class."""


class EcrlabError(Exception):
    """An error ecrlab raises on purpose, a numerical failure by default;
    each subclass also keeps a built-in base. Any other error is a defect."""
    exit_code = 3


class InputError(EcrlabError, ValueError):
    """Malformed or out-of-domain input data; carries a 1-based line number."""
    exit_code = 2

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        super().__init__(message if line is None else f"line {line}: {message}")


class FloatRangeError(EcrlabError, OverflowError):
    """A result lies beyond the floating-point range."""
