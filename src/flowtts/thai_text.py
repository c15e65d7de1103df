"""Thai text normalization for character-error-rate scoring.

ASR output arrives in normalized Thai script; reference text must be pushed
through the same transformations before edit distances mean anything.  The
stages, in order: NFC, transliteration of Latin tokens via a lexicon, Arabic
numerals to Thai number words, mai-yamok (repetition marker) expansion, and
removal of whitespace/punctuation.  The full pipeline is idempotent.
"""

from __future__ import annotations

import logging
import re
import unicodedata
from dataclasses import dataclass, field

from .fileio import read_commented_lines

__all__ = [
    "NormalizationConfig",
    "numerals_to_thai",
    "expand_mai_yamok",
    "normalize",
    "load_lexicon",
    "MAI_YAMOK",
]

logger = logging.getLogger(__name__)

MAI_YAMOK = "ๆ"  # ๆ

DIGIT_WORDS = ["ศูนย์", "หนึ่ง", "สอง", "สาม", "สี่", "ห้า", "หก", "เจ็ด", "แปด", "เก้า"]
PLACE_WORDS = ["", "สิบ", "ร้อย", "พัน", "หมื่น", "แสน"]
MILLION_WORD = "ล้าน"
ONE_FINAL = "เอ็ด"  # units digit 1 after any higher nonzero place
TWENTY = "ยี่สิบ"  # tens digit 2
TEN = "สิบ"  # tens digit 1 reads bare

MAX_NUMERAL_DIGITS = 13

_LATIN_RUN = re.compile(r"[A-Za-z]+")
_DIGIT_RUN = re.compile(r"[0-9]+")


def _read_below_million(n: int, has_higher: bool) -> str:
    parts = []
    for place in range(5, 0, -1):
        digit = (n // 10 ** place) % 10
        if digit == 0:
            continue
        if place == 1:
            if digit == 1:
                parts.append(TEN)
            elif digit == 2:
                parts.append(TWENTY)
            else:
                parts.append(DIGIT_WORDS[digit] + TEN)
        else:
            parts.append(DIGIT_WORDS[digit] + PLACE_WORDS[place])
    units = n % 10
    if units:
        if units == 1 and (has_higher or n >= 10):
            parts.append(ONE_FINAL)
        else:
            parts.append(DIGIT_WORDS[units])
    return "".join(parts)


def _read_number(n: int, has_higher: bool) -> str:
    if n >= 1_000_000:
        head = _read_number(n // 1_000_000, False)
        remainder = n % 1_000_000
        tail = _read_number(remainder, True) if remainder else ""
        return head + MILLION_WORD + tail
    return _read_below_million(n, has_higher)


def numerals_to_thai(digits: str) -> str:
    """Read an ASCII digit string as Thai number words.

    Decimal place reading with the standard irregulars: a final 1 after any
    higher nonzero place reads เอ็ด, tens digit 2 reads ยี่สิบ, tens digit 1
    reads bare สิบ.  Numbers of a million and above group recursively around
    ล้าน, so up to 13 digits (ten-trillion scale) are supported.
    """
    if not digits:
        raise ValueError("numerals_to_thai: empty digit string")
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"numerals_to_thai: non-digit characters in {digits!r}")
    if len(digits) > MAX_NUMERAL_DIGITS:
        raise ValueError(f"numerals_to_thai: more than {MAX_NUMERAL_DIGITS} digits")
    n = int(digits)
    if n == 0:
        return DIGIT_WORDS[0]
    return _read_number(n, False)


def expand_mai_yamok(text: str) -> str:
    """Duplicate the token preceding each ๆ, removing the space before it.

    Tokens are maximal whitespace-delimited runs; a ๆ already in the text
    (an orphan kept verbatim) also ends the token, since a repetition marker
    is not part of a word.  Applied left to right, so an earlier expansion
    feeds a later marker.  A marker with no preceding token is left verbatim
    with a warning.

    Text without a marker comes back unchanged.  Otherwise the work is per
    marker, not per character: the text is split on ๆ, each segment a marker
    follows loses its trailing whitespace before it is appended
    (``str.rstrip`` strips exactly the characters ``str.isspace`` accepts),
    and the output is scanned back over the preceding token only.  The output
    built before a segment always ends in a token or a marker, so stripping
    the segment alone strips everything the marker must not follow.
    """
    if MAI_YAMOK not in text:
        return text
    *marked, last = text.split(MAI_YAMOK)
    out = ""
    for segment in marked:
        out += segment.rstrip()
        start = len(out)
        while start and not out[start - 1].isspace() and out[start - 1] != MAI_YAMOK:
            start -= 1
        if start == len(out):
            logger.warning("repetition marker %s with no preceding token left verbatim", MAI_YAMOK)
            out += MAI_YAMOK
        else:
            out += out[start:]
    return out + last


@dataclass
class NormalizationConfig:
    """The transliteration lexicon of the normalization pipeline."""

    lexicon: dict[str, str] = field(default_factory=dict)

    def __post_init__(self):
        normalized = {}
        for key, value in self.lexicon.items():
            if not key or not _LATIN_RUN.fullmatch(key):
                raise ValueError(f"lexicon key {key!r} must be a nonempty Latin-script token")
            normalized[key.lower()] = unicodedata.normalize("NFC", value)
        self.lexicon = normalized


def load_lexicon(path) -> dict[str, str]:
    """Load a transliteration lexicon: UTF-8 TSV `latin<TAB>thai` (BOM allowed), '#' comments."""
    lexicon: dict[str, str] = {}
    for lineno, line in read_commented_lines(path):
        parts = line.split("\t")
        if len(parts) != 2:
            raise ValueError(f"lexicon line {lineno}: expected `latin<TAB>thai`, got {line!r}")
        lexicon[parts[0]] = parts[1]
    return lexicon


class _SeparatorTable(dict):
    """``str.translate`` table that deletes Unicode categories P and Z.

    Filled lazily, one ``unicodedata.category`` lookup per code point on its
    first use: None (delete) for punctuation and separators, the code point
    itself otherwise.  Each entry depends only on its key, so concurrent
    fills store the same value, and the table holds one entry per distinct
    code point seen.
    """

    def __missing__(self, code_point: int) -> int | None:
        kept = None if unicodedata.category(chr(code_point))[0] in "PZ" else code_point
        self[code_point] = kept
        return kept


_SEPARATORS = _SeparatorTable()


def _strip_separators(text: str) -> str:
    """Delete every character of Unicode category P or Z in one ``translate`` pass."""
    return text.translate(_SEPARATORS)


def normalize(text, config: NormalizationConfig | None = None) -> str:
    """Run the full normalization pipeline over raw text; every stage runs.

    Stage order: NFC, transliteration of maximal Latin runs (case-insensitive;
    unknown tokens kept verbatim with a warning), digit runs to Thai number
    words, mai-yamok expansion, then removal of all whitespace and punctuation
    (Unicode categories Z and P).  The result is canonicalized to NFC, since
    expansion and stripping can juxtapose combining marks out of canonical
    order; this keeps the pipeline idempotent.
    """
    if config is None:
        config = NormalizationConfig()
    if isinstance(text, bytes):
        text = text.decode("utf-8")  # raises UnicodeDecodeError on invalid input
    text = unicodedata.normalize("NFC", text)

    def replace_latin(match: re.Match) -> str:
        token = match.group()
        thai = config.lexicon.get(token.lower())
        if thai is None:
            logger.warning("no transliteration for %r; kept verbatim", token)
            return token
        return thai

    text = _LATIN_RUN.sub(replace_latin, text)
    text = _DIGIT_RUN.sub(lambda m: numerals_to_thai(m.group()), text)
    text = expand_mai_yamok(text)
    text = _strip_separators(text)
    return unicodedata.normalize("NFC", text)
