"""Canonical JSON form: one serialization per value, so digests are stable.

A digest is the sha256 of the compact form, which the stdlib's C encoder
writes.  A written file is the stdlib's canonical ``indent=2`` form,
``json.dumps(obj, sort_keys=True, indent=2, ensure_ascii=False) + "\\n"``,
byte for byte, but ``write_json`` streams it to the file instead of
building the whole text.  The stdlib uses its C encoder only without an
indent; with one, its pure-Python encoder holds every chunk until the
final join, so its time and peak memory follow the file size.  The
writer here escapes strings with the C ``encode_basestring``, builds each
depth's separators once, and writes out what it holds after any item
that brings it to ``_CHUNK`` pieces, in flat and nested containers
alike, so it never holds more than that and one item's few pieces.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import tempfile
from json.encoder import encode_basestring
from pathlib import Path

from .errors import ParameterError

_CHUNK = 4096  # pieces held before they are written out
_INF = float("inf")


def compact_dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), ensure_ascii=False)


def digest(obj) -> str:
    """sha256 hex of the compact canonical form."""
    return hashlib.sha256(compact_dumps(obj).encode("utf-8")).hexdigest()


def _float(x: float) -> str:
    if x != x:
        return "NaN"
    if x == _INF:
        return "Infinity"
    if x == -_INF:
        return "-Infinity"
    return float.__repr__(x)


def _key(k) -> str:
    """A dict key as the stdlib writes it: str, float, bool, None and int."""
    if isinstance(k, str):
        return encode_basestring(k)
    if isinstance(k, float):
        return f'"{_float(k)}"'
    if k is True:
        return '"true"'
    if k is False:
        return '"false"'
    if k is None:
        return '"null"'
    if isinstance(k, int):
        return f'"{int.__repr__(k)}"'
    raise TypeError(f"keys must be str, int, float, bool or None, not {k.__class__.__name__}")


def _scalar(x) -> str | None:
    """The text of a non-container value, None for a list, tuple or dict."""
    if isinstance(x, str):
        return encode_basestring(x)
    if x is None:
        return "null"
    if x is True:
        return "true"
    if x is False:
        return "false"
    if isinstance(x, int):
        return int.__repr__(x)
    if isinstance(x, float):
        return _float(x)
    if isinstance(x, (list, tuple, dict)):
        return None
    raise TypeError(f"Object of type {x.__class__.__name__} is not JSON serializable")


def _stream(obj, write) -> None:
    """Hand the canonical text of obj, with its final newline, to write in chunks."""
    out: list[str] = []
    put = out.append
    # indents[d]: the newline and indent that open depth d; seps[d]: "," before it
    indents = ["\n"]
    seps = [",\n"]

    def container(x, d: int) -> None:
        """Put the text of the list, tuple or dict x, which sits at depth d."""
        if not x:
            put("{}" if isinstance(x, dict) else "[]")
            return
        d += 1
        if d == len(indents):
            indents.append(indents[-1] + "  ")
            seps.append(seps[-1] + "  ")
        sep = seps[d]
        is_dict = isinstance(x, dict)
        put("{" if is_dict else "[")
        before = indents[d]  # what goes before the first item; sep before the rest
        for k in sorted(x) if is_dict else x:
            put(before)
            before = sep
            if is_dict:
                put(encode_basestring(k) if k.__class__ is str else _key(k))
                put(": ")
                v = x[k]
            else:
                v = k
            cls = v.__class__
            if cls is int:
                put(int.__repr__(v))
            elif cls is dict or cls is list:
                container(v, d)
            elif cls is bool:
                put("true" if v else "false")
            elif cls is str:
                put(encode_basestring(v))
            else:
                text = _scalar(v)
                if text is None:
                    container(v, d)
                else:
                    put(text)
            if len(out) >= _CHUNK:
                write("".join(out))
                out.clear()
        put(indents[d - 1])
        put("}" if is_dict else "]")

    text = _scalar(obj)
    if text is None:
        container(obj, 0)
    else:
        put(text)
    put("\n")
    write("".join(out))


def write_json(path, obj) -> None:
    """Write obj's canonical text to path; if obj cannot be encoded, path is untouched.

    The text is streamed to an anonymous temporary file, and only once it
    is complete is path opened for writing, as a plain ``open`` would, and
    the text copied into it.  So a regular file keeps its inode, mode and
    links, and a symlink, a pipe or ``/dev/stdout`` is written through.
    """
    with tempfile.TemporaryFile() as tmp:
        _stream(obj, lambda text: tmp.write(text.encode("utf-8")))
        tmp.seek(0)
        with open(path, "wb") as fh:
            shutil.copyfileobj(tmp, fh)


def read_json(path):
    """The value in the JSON file at path.

    Text that does not decode (not UTF-8, not JSON, an integer literal past
    Python's digit limit, or nesting past the recursion limit) is a
    ParameterError; an unreadable file stays an OSError.
    """
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except (ValueError, RecursionError) as exc:
        raise ParameterError(f"{path}: not a JSON file: {exc}") from None
