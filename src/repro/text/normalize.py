"""Text normalization.

All containment checks in the library compare *normalized* text: Unicode
NFKD with combining marks stripped, case-folded, with punctuation mapped
to spaces and runs of whitespace collapsed.  Normalizing once at the
boundary keeps every later comparison a plain string operation.

ASCII text takes a fast path: NFKD and the combining-mark strip leave
it unchanged and ``casefold`` equals ``lower`` on it, so only the
punctuation mapping, lowercasing and whitespace collapse run.
"""

from __future__ import annotations

import unicodedata

_PUNCT_TRANSLATION = {
    ord(ch): " "
    for ch in "!\"#$%&'()*+,-./:;<=>?@[\\]^_`{|}~"
}


def _strip_marks(text: str) -> str:
    decomposed = unicodedata.normalize("NFKD", text)
    return "".join(ch for ch in decomposed if not unicodedata.combining(ch))


def normalize_text(text: str) -> str:
    """Normalize a free-text value for comparison.

    Applies NFKD decomposition, drops combining marks, case-folds, maps
    ASCII punctuation to spaces and collapses whitespace runs.

    >>> normalize_text("  The  Lord of the Rings: The Two Towers ")
    'the lord of the rings the two towers'
    >>> normalize_text("Amélie")
    'amelie'
    """
    if text.isascii():
        return " ".join(text.translate(_PUNCT_TRANSLATION).lower().split())
    spaced = _strip_marks(text).translate(_PUNCT_TRANSLATION)
    return " ".join(spaced.casefold().split())


def normalize_token(token: str) -> str:
    """Normalize a single token (no internal whitespace expected).

    >>> normalize_token("Cafés")
    'cafes'
    """
    if token.isascii():
        return token.lower().strip()
    return _strip_marks(token).casefold().strip()
