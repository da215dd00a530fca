"""JSON text of the command outputs without the json module.

dumps(payload) is json.dumps(payload, indent=2, sort_keys=True) for the
values the commands print: dicts with string keys, lists and tuples,
strings, ints, bools and None.  It escapes strings as json's ASCII encoder
does: the two-character escapes for '"', '\\' and five control characters,
\\u00XX for the other characters outside ' '..'~', and a surrogate pair for
a character outside the Basic Multilingual Plane.  No command loads json:
importing it costs a call about 2 ms, and with an indent json encodes in
pure Python too, no faster than this.
"""

from __future__ import annotations

_SHORT = {'\\': '\\\\', '"': '\\"', '\b': '\\b', '\f': '\\f', '\n': '\\n', '\r': '\\r',
          '\t': '\\t'}
_CONSTANTS = {True: "true", False: "false", None: "null"}


def _quoted(text: str) -> str:
    """text as a JSON string literal, escaped as json's ASCII encoder does."""
    if text.isascii() and text.isprintable() and '"' not in text and "\\" not in text:
        return '"' + text + '"'
    return '"' + "".join(map(_escaped, text)) + '"'


def _escaped(char: str) -> str:
    short = _SHORT.get(char)
    if short is not None:
        return short
    if " " <= char <= "~":
        return char
    code = ord(char)
    if code < 0x10000:
        return f"\\u{code:04x}"
    code -= 0x10000
    return f"\\u{0xd800 | code >> 10:04x}\\u{0xdc00 | code & 0x3ff:04x}"


def dumps(payload) -> str:
    """json.dumps(payload, indent=2, sort_keys=True)."""
    out: list[str] = []
    strings: dict[str, str] = {}  # each distinct string escaped once

    def scalar(value) -> str | None:
        """The text of a string, int, bool or None; None for a container."""
        cls = value.__class__
        if cls is int:
            return int.__repr__(value)
        if isinstance(value, str):
            text = strings.get(value)
            if text is None:
                text = strings[value] = _quoted(value)
            return text
        if value is None or cls is bool:
            return _CONSTANTS[value]
        if isinstance(value, int):  # a subclass of int other than bool
            return int.__repr__(value)
        if isinstance(value, (list, tuple, dict)):
            return None
        raise TypeError(f"Object of type {cls.__name__} is not JSON serializable")

    def write(value, newline: str) -> None:
        """Append the text of a container whose lines after the first start
        with newline (a line break and the indent of the container)."""
        inner = newline + "  "
        if isinstance(value, dict):
            if not value:
                out.append("{}")
                return
            for k, key in enumerate(sorted(value)):
                if not isinstance(key, str):
                    raise TypeError(f"keys must be str, not {key.__class__.__name__}")
                out.append(("," if k else "{") + inner + scalar(key) + ": ")
                item = value[key]
                text = scalar(item)
                if text is None:
                    write(item, inner)
                else:
                    out.append(text)
            out.append(newline + "}")
            return
        if not value:
            out.append("[]")
            return
        for k, item in enumerate(value):
            text = scalar(item)
            if text is None:
                out.append(("," if k else "[") + inner)
                write(item, inner)
            else:
                out.append(("," if k else "[") + inner + text)
        out.append(newline + "]")

    text = scalar(payload)
    if text is not None:
        return text
    write(payload, "\n")
    return "".join(out)
