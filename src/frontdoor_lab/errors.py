"""The two exception classes of the toolkit, one per exit code.

Every error this package raises is a :class:`FrontdoorLabError`.  The CLI
prints it as ``error: invalid-input: <detail>`` and exits 2, except for its
one subclass :class:`NumericError` (a fit or estimate that the data cannot
support: a singular system, too few distinct values, complete rows or
residuals), which it prints as ``error: numeric-failure: <detail>`` and exits
4.  A library user catches these two names.  ``read_utf8`` turns an input
file that is not UTF-8 text into a :class:`FrontdoorLabError`, and
``parse_file`` makes every error of a file's parser name the file.  An
``OSError`` is not wrapped: ``cli.main`` maps an absent path to exit 3 and
any other OS failure, naming its path, to exit 2.  ``check_type`` rejects a
setting whose type is not exactly the declared one where it enters,
``check_int`` an int setting that is not an exact ``int`` at least its minimum,
``check_real`` a value that is not a finite number, ``check_numbers`` data that
is not a number or an array of numbers, and ``check_vector`` data that is not
a vector of numbers; the last three import numpy when called.
"""

import sys
from pathlib import Path
from typing import get_args, get_origin


class FrontdoorLabError(Exception):
    """Malformed input or a value no stage can use (CLI exit 2)."""


class NumericError(FrontdoorLabError):
    """A numeric failure in a fitting or estimation step (CLI exit 4)."""


def read_utf8(path) -> str:
    """The text of ``path``; a byte that is not UTF-8 raises naming its line."""
    raw = Path(path).read_bytes()
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = raw.count(b"\n", 0, exc.start) + 1
        raise FrontdoorLabError(
            f"{path} line {line}: byte 0x{raw[exc.start]:02x} is not UTF-8 text"
        ) from None


def parse_file(path, parse):
    """``parse`` applied to the text of ``path``.  An error it raises names the
    file: ``<path> line N: …`` for a line it cannot read and ``<path>: …`` for
    content it cannot use."""
    text = read_utf8(path)
    try:
        return parse(text)
    except FrontdoorLabError as exc:
        where = f"{path} " if str(exc).startswith("line ") else f"{path}: "
        raise FrontdoorLabError(where + str(exc)) from None


def check_type(name: str, kind, value) -> None:
    """FrontdoorLabError naming ``name`` unless ``value`` has exactly the type
    ``kind``, part by part for a tuple.  Not isinstance: True is an int, and
    numpy's float64 is a float whose repr is ``np.float64(...)``."""
    if get_origin(kind) is tuple:
        kinds = get_args(kind)
        if type(value) is not tuple or len(value) != len(kinds):
            raise FrontdoorLabError(f"{name} must be {kind}, got {value!r}")
        for index, (part_kind, part) in enumerate(zip(kinds, value)):
            check_type(f"{name}[{index}]", part_kind, part)
    elif type(value) is not kind:
        raise FrontdoorLabError(f"{name} must be {kind.__name__}, got {value!r}")


def check_int(name: str, value, minimum: int | None = None) -> None:
    """``check_type(name, int, value)``, then, when ``minimum`` is given, a
    FrontdoorLabError ``<name> must be >= <minimum>, got <value>`` below it."""
    check_type(name, int, value)
    if minimum is not None and value < minimum:
        raise FrontdoorLabError(f"{name} must be >= {minimum}, got {value}")


def check_real(name: str, value) -> float:
    """``value`` as a float when it is a finite int, float, or numpy integer or
    float scalar or 0-d array.  Otherwise a FrontdoorLabError: ``<name> must be
    a number, got <repr>`` for a bool, str, bytes, None or other array, and
    ``<name> must be finite, got <value>`` for NaN, an infinity or an int past
    the float range."""
    import numpy as np

    # a numpy scalar or 0-d array as the Python value it holds; a long double stays one
    scalar = isinstance(value, (np.ndarray, np.generic)) and value.ndim == 0
    number = value.item() if scalar else value
    if isinstance(number, bool) or not isinstance(number, (int, float, np.floating)):
        raise FrontdoorLabError(f"{name} must be a number, got {value!r}")
    # compared exactly: float() overflows on an int past the float range
    if not abs(number) <= sys.float_info.max:
        shown = "an int past the float range" if isinstance(number, int) else number
        raise FrontdoorLabError(f"{name} must be finite, got {shown}")
    return float(number)


def check_numbers(name: str, values, shape: str = "a number or an array"):
    """``values`` as a float64 array of any shape, the caller's own array when
    it is one; a FrontdoorLabError naming ``name`` unless ``values`` is a
    number or a (nested) sequence or array of numbers, bools counting as 0 and
    1.  ``shape`` names what the caller asks for in the message."""
    import numpy as np

    try:
        array = np.asarray(values)
    except ValueError:  # rows of unequal lengths
        raise FrontdoorLabError(f"{name} must be {shape}, got a ragged sequence") from None
    if array.dtype.kind not in "biuf":
        raise FrontdoorLabError(f"{name} must be {shape} of numbers, got dtype {array.dtype}")
    return array.astype(float, copy=False)


def check_vector(name: str, values):
    """``check_numbers`` for a 1-d sequence of numbers."""
    vector = check_numbers(name, values, "a vector")
    if vector.ndim != 1:
        raise FrontdoorLabError(f"{name} must be a vector, got shape {vector.shape}")
    return vector
