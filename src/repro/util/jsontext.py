"""Assemble ``json.dumps(..., indent=2, sort_keys=True)`` text from parts.

Canonical payloads are compared byte for byte, and CPython's C encoder
does not run when ``indent`` is set, so rendering a multi-megabyte payload
through :func:`json.dumps` walks it in pure Python.  These helpers let a
caller render the small parts with :func:`json.dumps` and the bulky,
fixed-shape parts with ``%`` templates, then join them into exactly the
text :func:`json.dumps` would have produced for the whole payload.

Every part is rendered *at* the indentation of the container that holds
it: ``pad`` is the whitespace in front of the part's closing bracket.
"""

from __future__ import annotations

import json
from typing import Dict, List


def dumps_at(value: object, pad: str) -> str:
    """``json.dumps(value, indent=2, sort_keys=True)`` nested at ``pad``.

    Re-indenting by newline replacement is exact: ``ensure_ascii`` output
    escapes every newline inside strings, so each raw newline is a line
    break of the layout.
    """
    return json.dumps(value, indent=2, sort_keys=True).replace(
        "\n", "\n" + pad
    )


def render_object(members: Dict[str, str], pad: str) -> str:
    """A JSON object from already-rendered member texts, keys sorted."""
    if not members:
        return "{}"
    inner = "\n" + pad + "  "
    return (
        "{"
        + ",".join(
            inner + json.dumps(key) + ": " + members[key]
            for key in sorted(members)
        )
        + "\n"
        + pad
        + "}"
    )


def render_array(items: List[str], pad: str) -> str:
    """A JSON array from already-rendered item texts."""
    if not items:
        return "[]"
    inner = "\n" + pad + "  "
    return "[" + inner + ("," + inner).join(items) + "\n" + pad + "]"


def json_nonfinite(text: str) -> str:
    """Spell ``%s``-formatted non-finite floats the way JSON does.

    ``"%s" % float("nan")`` is ``nan`` where :func:`json.dumps` writes
    ``NaN`` (and ``inf`` for ``Infinity``).  Only for template output
    whose other text cannot contain those letters: numbers, hex strings
    and keys without ``nan``/``inf`` in them.
    """
    if "nan" in text:
        text = text.replace("nan", "NaN")
    if "inf" in text:
        text = text.replace("inf", "Infinity")
    return text


def document_bytes(members: Dict[str, str]) -> bytes:
    """A top-level object plus the trailing newline, as UTF-8 bytes."""
    return (render_object(members, "") + "\n").encode("utf-8")
