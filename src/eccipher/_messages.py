"""Rendering outside values for error messages."""

from __future__ import annotations

# A rendered value past this many characters is cut to a prefix plus its size,
# so one long input line cannot become an equally long error line.
_LIMIT = 40
_PREFIX = 20


def brief(value: str | int) -> str:
    """`value` as an error message shows it: a str by its repr, an int in
    decimal.  Past _LIMIT characters either is cut to its first _PREFIX
    characters plus its length; an int too long to convert at all is shown
    by its bit length."""
    if isinstance(value, str):
        text = repr(value)
        if len(text) <= _LIMIT:
            return text
        return f"{value[:_PREFIX]!r}... ({len(value)} characters)"
    try:
        text = str(value)
    except ValueError:  # more digits than sys.get_int_max_str_digits() allows
        return f"an integer of {value.bit_length()} bits"
    if len(text) <= _LIMIT:
        return text
    return f"{text[:_PREFIX]}... ({len(text.lstrip('-'))} digits)"
