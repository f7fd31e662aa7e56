"""The streamed reader of `--format json` input.

A JSON array of records is read in fixed chunks and decoded one element
at a time, so only the unread rest of a chunk and the element being read
are held, and each record is yielded as soon as it is decoded.  It is a
module of its own so that CSV runs never compile it: io.parse_records
imports it for JSON input alone.
"""

from __future__ import annotations

import json
from collections.abc import Iterator
from typing import TextIO

from .errors import ParseError
from .inputs import FIELD_ORDER, InputParameters

# JSON input is read in chunks of this many characters
_CHUNK_SIZE = 64 * 1024
_skip_whitespace = json.decoder.WHITESPACE.match
_decode_value = json.JSONDecoder().raw_decode
# the keys a JSON record must have, and those it may have
_REQUIRED_KEYS = frozenset(FIELD_ORDER)
_ALLOWED_KEYS = _REQUIRED_KEYS | {"date"}
# a token cut by the buffer's end fails within this many characters of it
_LONGEST_TOKEN = len("-Infinity")


def _json_elements(stream: TextIO) -> Iterator[tuple[int, object]]:
    """Yield (row_number, element) for each element of a JSON array.

    The stream is read _CHUNK_SIZE characters at a time and each element
    decoded where it starts, so only the unread rest of a chunk and the
    element being read are held.  A syntax error is reported as soon as
    more input cannot mend it.  A number element cut by a chunk's end
    decodes short: records are objects, so the caller rejects a number
    element whatever its value.  Input that is not an array is refused
    at its first character that is not whitespace.
    """
    # buffer[index] is the input's character number offset + index
    buffer, index, offset, eof = "", 0, 0, False

    def refill() -> None:
        # read at least as much as is pending, so that an element n
        # characters long is decoded afresh O(log n) times
        nonlocal buffer, index, offset, eof
        chunk = stream.read(max(_CHUNK_SIZE, len(buffer) - index))
        buffer, offset, index = buffer[index:] + chunk, offset + index, 0
        eof = not chunk

    def next_character() -> str:
        """The next character that is not whitespace; "" at the end."""
        nonlocal index
        while True:
            index = _skip_whitespace(buffer, index).end()
            if index < len(buffer) or eof:
                return buffer[index:index + 1]
            refill()

    def syntax_error(row: int, message: str, at: int) -> ParseError:
        return ParseError(row, f"not valid JSON: {message} "
                               f"(char {offset + at})")

    character = next_character()
    if not character:  # whitespace-only input is an empty batch
        return
    if character != "[":
        raise ParseError(0, "top level must be an array of records")
    index += 1
    row = 0
    character = next_character()
    while character != "]":
        if row:
            if character != ",":
                raise syntax_error(row + 1, "Expecting ',' delimiter", index)
            index += 1
        row += 1
        while True:
            index = _skip_whitespace(buffer, index).end()
            try:
                element, end = _decode_value(buffer, index)
                break
            except json.JSONDecodeError as exc:
                # the element may go on in the next chunk only if the
                # decode ran into the buffer's end: an open string, or
                # a token cut short
                if eof or not (
                        exc.msg.startswith("Unterminated string")
                        or exc.pos >= len(buffer) - _LONGEST_TOKEN):
                    raise syntax_error(row, exc.msg, exc.pos) from None
            except (ValueError, RecursionError) as exc:
                # past the digit limit or nested too deep: more input
                # cannot mend it
                raise ParseError(row, f"not valid JSON: {exc}") from None
            refill()
        yield row, element
        index = _skip_whitespace(buffer, end).end()
        character = buffer[index:index + 1] or next_character()
    index += 1
    if next_character():
        raise syntax_error(0, "Extra data", index)


def parse_json(stream: TextIO) -> Iterator[tuple[int, InputParameters]]:
    # streamed: each element is checked as soon as it is decoded, and a
    # syntax error only ends the batch at the element that holds it
    for row_number, entry in _json_elements(stream):
        if not isinstance(entry, dict):
            raise ParseError(row_number, "record must be an object")
        keys = entry.keys()
        if not (keys <= _ALLOWED_KEYS and keys >= _REQUIRED_KEYS):
            unknown = keys - _ALLOWED_KEYS
            if unknown:
                raise ParseError(row_number,
                                 f"unexpected fields: {sorted(unknown)}")
            raise ParseError(row_number, "missing fields: "
                             f"{sorted(_REQUIRED_KEYS - keys)}")
        date = entry.get("date")
        if isinstance(date, str):
            date = date.strip() or None  # as a CSV date is read
        elif date is not None:
            raise ParseError(row_number, "date must be a string or null")
        numbers = []
        for name in FIELD_ORDER:
            value = entry[name]
            # json gives numbers as exactly int or float; a bool is neither
            kind = type(value)
            if kind is not float:
                if kind is not int:
                    raise ParseError(row_number, f"field {name!r} is not "
                                                 f"a number: {value!r}")
                try:
                    value = float(value)
                except OverflowError:
                    pass  # past the double range: validate reports it
            numbers.append(value)
        yield row_number, InputParameters(*numbers, date)
