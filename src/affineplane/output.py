"""What a command writes: the report, as json.dumps(indent=2, sort_keys=True)
writes it, to --out or stdout, and the notes on stderr.

The text comes from a small writer (_chunks) whose keys and scalars are
written by _scalar: a str by _json's encode_basestring_ascii, which
json.dumps runs too, the three literals, an exact int by int.__repr__
and an empty container as [] or {}.  Only a value of any other type,
such as a float, imports json, so a report of the commands loads none;
on an interpreter with no _json, output takes json's own encoder, which
json.dumps then runs.

A report, help or version text that stdout does not take is an output
error (_OutputError, exit 2).  A stderr that fails or was closed loses
its notes and changes nothing else.  A stream closed at start-up is None
in sys, and print(file=None) would write to stdout.
"""

import errno
import os
import sys
from contextlib import nullcontext, suppress
from itertools import chain

try:
    from _json import encode_basestring_ascii
except ImportError:
    from json.encoder import encode_basestring_ascii

from . import __version__

WRITE_BATCH = 1 << 14


def _report(command, plane_summary, results, status):
    return {"tool_version": __version__, "command": command, "plane_summary": plane_summary,
            "results": results, "status": status}


class _Numerals(dict):
    """int -> its JSON numeral, and (id, line break) -> the text of a list or
    tuple of exact ints at that depth, each built once per report.  The
    document holds every row until its text is written, so no id is reused."""

    def __missing__(self, i):
        self[i] = text = int.__repr__(i)
        return text


def _scalar(o):
    """json.dumps(o) for a str, a bool, None, an int, an empty list, tuple or
    dict, and anything else, which json.dumps itself writes."""
    if isinstance(o, str):
        return encode_basestring_ascii(o)
    if o is None:
        return "null"
    if o is True:
        return "true"
    if o is False:
        return "false"
    if type(o) is int:
        return int.__repr__(o)
    if isinstance(o, (list, tuple, dict)) and not o:
        return "{}" if isinstance(o, dict) else "[]"
    from json import dumps

    return dumps(o)


def _chunks(o, newline, numerals):
    """The text of json.dumps(o, indent=2, sort_keys=True) at the depth whose
    line break is newline (dict keys are str), in chunks: one per key, scalar
    and bracket, and one per non-empty list or tuple of exact ints, kept by
    id and depth: a row the report holds twice, such as a translation's
    image that is also its Cayley row, is joined once."""
    inner = newline + "  "
    if (text := numerals.get((id(o), newline))) is not None:
        yield text
    elif isinstance(o, (list, tuple)) and set(map(type, o)) == {int}:  # bool is no exact int
        numerals[id(o), newline] = text = (
            f"[{inner}{(',' + inner).join(map(numerals.__getitem__, o))}{newline}]")
        yield text
    elif isinstance(o, dict) and o:
        opener = "{"
        for key in sorted(o):
            yield f"{opener}{inner}{encode_basestring_ascii(key)}: "
            yield from _chunks(o[key], inner, numerals)
            opener = ","
        yield newline + "}"
    elif isinstance(o, (list, tuple)) and o:
        opener = "["
        for item in o:
            yield opener + inner
            yield from _chunks(item, inner, numerals)
            opener = ","
        yield newline + "]"
    else:  # a scalar, {}, [] or ()
        yield _scalar(o)


def _text(document):
    return chain(_chunks(document, "\n", _Numerals()), ("\n",))


def render_report(command, plane_summary, results, status):
    """The report text that cli._finish writes."""
    return "".join(_text(_report(command, plane_summary, results, status)))


class _OutputError(Exception):
    """The OSError that writing a report, help or version raised: exit 2, but no input error."""


def _stdout():
    """sys.stdout, or the OSError of a stdout closed at start-up, which Python sets to None."""
    if sys.stdout is None:
        raise OSError(errno.EBADF, os.strerror(errno.EBADF))
    return sys.stdout


def _emit(text):
    """Write text to stdout and flush it, raising the OSError of a stdout that fails."""
    out = _stdout()
    out.write(text)
    out.flush()


def _note(text, end="\n"):
    """Write text to stderr if it takes it: a stderr that fails or was closed
    loses the note and changes nothing else."""
    if sys.stderr is not None:
        with suppress(OSError):
            sys.stderr.write(text + end)


def _write(document, out_path):
    """Write the text of document to out_path, or stdout when None, in writes of
    about WRITE_BATCH characters (-u and PYTHONUNBUFFERED make stdout write-through)."""
    try:
        with nullcontext(_stdout()) if out_path is None else open(out_path, "w") as fh:
            batch, size = [], 0
            for chunk in _text(document):
                batch.append(chunk)
                size += len(chunk)
                if size >= WRITE_BATCH:
                    fh.write("".join(batch))
                    batch, size = [], 0
            fh.write("".join(batch))
            fh.flush()  # a stdout that fails fails here, not at exit
    except OSError as exc:
        if out_path is None:  # drop what stdout holds, so that no later flush fails again
            with suppress(AttributeError, OSError):  # None, or closing flushes and fails
                sys.stdout.close()
        raise _OutputError(exc) from exc
