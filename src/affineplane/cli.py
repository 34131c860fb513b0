"""Command-line front end.

Subcommands: build, check, groups, endo, verify-all.  Each emits one
structured JSON report on stdout (or to --out) and a short human summary
on stderr.  Exit codes: 0 every check passed, 1 a mathematical check
failed, 2 usage, input or output error.

parse_args reads the command line from the COMMANDS and FLAGS tables:
_exact reads a line that names a command and its flags in full, as every
line of the tests, CI, the benchmark and the README does, and --version;
every other line goes to the argparse parser of affineplane.usage.
_decode reads a document with the scanner of _json that json.loads runs,
and affineplane.output writes the report and the notes, so json is
imported only for a document that is no JSON text.  build and check are
handled here; groups, endo and verify-all by affineplane.cmd_groups,
cmd_endo and cmd_verify_all, each loaded for its own command only.
"""

import errno
import os
import sys
from contextlib import suppress
from types import SimpleNamespace

from . import __version__, _forward
from .errors import AffinePlaneError, MalformedDocument, OrderTooLarge
from .output import _emit, _note, _OutputError, _report, _write
from .output import render_report  # the benchmark's traced replay calls cli.render_report

# The handlers of groups, endo and verify-all live in a module each, which
# cli loads only for its command (a module __getattr__, PEP 562), and each
# command imports the stages it runs in its body: only `build` loads builder,
# and no incidence, `check` no stage module, `groups` no endo, `endo` no
# conjugation pass, and --help, --version and usage errors no incidence.
__getattr__ = _forward(__name__, {
    "cmd_groups": "cmd_groups", "cmd_endo": "cmd_endo", "cmd_verify_all": "cmd_verify_all",
})

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_ERROR = 2
# The one input-size bound; |Tr| divides q^2, so it bounds End and TP; the library takes none
DEFAULT_MAX_ORDER = 13
# endo --dump lists |End| tables of |Tr| entries each: at most this many entries
# (AG(2,4) lists 65,536 x 16); the order-9 planes' 3^16 x 81 would exhaust memory
MAX_DUMP_ENTRIES = 1 << 22


def _check_out(path):
    """Raise, before any work, the OSError open(path, "w") gives for an
    empty path, a directory path or a missing parent directory."""
    parent = os.path.dirname(path) or "."
    if not path:
        code = errno.ENOENT
    elif os.path.isdir(path):
        code = errno.EISDIR
    elif not os.path.isdir(parent):
        code = errno.ENOTDIR if os.path.exists(parent) else errno.ENOENT
    else:
        return
    raise OSError(code, os.strerror(code), path)


JSON_WHITESPACE = " \t\n\r"


def _decode(text):
    """The mapping json.loads(text) gives, read by the scanner json.loads
    runs, or the text itself, for the caller to give to json.loads, when
    it holds no mapping or is no JSON document.

    json.loads skips JSON whitespace, scans one value with the C scanner
    of _json under its default context (strict, no hooks, float and int,
    and its NaN and Infinity constants), and accepts only whitespace
    after it.  So does this.  Where the scanner fails or leaves anything
    else, json.loads(text) reads the text again and raises json's own
    error, word for word, so json is imported only for such a text.  The
    scanner's own errors are not passed on: before Python 3.12 it cannot
    make a JSONDecodeError unless json.decoder is loaded, and raises
    SystemError instead.  Also before 3.12, Python frames count against
    the recursion limit, and this scan sits fewer frames deep than the
    scan of json.loads, so it decodes a value nested within a few levels
    of that limit where json.loads raises RecursionError.  A value that
    is no mapping, which load_plane would reject, is handed back as text,
    so a list nested that deep still gets json.loads' RecursionError; a
    mapping that holds one still decodes here, and load_plane rejects it.
    On an interpreter with no _json every text goes to json.loads.
    """
    inf = float("inf")
    constants = {"-Infinity": -inf, "Infinity": inf, "NaN": float("nan")}
    try:
        from _json import make_scanner

        scan = make_scanner(SimpleNamespace(
            strict=True, object_hook=None, object_pairs_hook=None, parse_float=float,
            parse_int=int, parse_constant=constants.__getitem__))
        value, end = scan(text, len(text) - len(text.lstrip(JSON_WHITESPACE)))
    except (ImportError, StopIteration, RecursionError, SystemError, ValueError):
        return text
    return value if type(value) is dict and not text[end:].strip(JSON_WHITESPACE) else text


def _load_verified_summary(path):
    """(plane, report, summary): the document at path as an IncidencePlane,
    its AxiomReport and the report's plane summary, a dict."""
    from .incidence import load_plane, parallel_partition, verify_axioms

    with open(path, encoding="utf-8") as fh:
        try:
            document = _decode(text := fh.read())
            if document is text:  # json.loads at the frame depth where check always ran it
                import json

                document = json.loads(text)
            plane = load_plane(document)
        except (RecursionError, ValueError, UserWarning) as exc:
            # ValueError covers bad JSON, bad UTF-8 and an integer literal
            # over the int-to-str digit limit; RecursionError, deep nesting;
            # UserWarning, load_plane's warning of an unknown field under -W error
            raise MalformedDocument(str(exc)) from exc
    report = verify_axioms(plane)
    summary = {"points": plane.num_points, "lines": plane.num_lines}
    if plane.verified:
        summary["parallel_classes"] = parallel_partition(plane).num_classes
    return plane, report, summary


def _translation_group(plane, max_order):
    """The stage shared by groups, endo and verify-all: Dil_0, the coset
    representatives (dilation_cosets), |Dil| and Tr, which is the
    translations among them."""
    from .collineation import dilation_cosets
    from .transgroup import build_group

    order = len(plane.lines[0])
    if order > max_order:
        raise OrderTooLarge(f"dilation enumeration bounded to order {max_order}, plane has {order}")
    stabiliser, representatives = dilation_cosets(plane)
    translations = [f for f in stabiliser + representatives if f.kind == "translation"]
    num_dilations = len(stabiliser) * (1 + len(representatives))
    return stabiliser, representatives, num_dilations, build_group(plane, translations)


def _check_dump(num_endomorphisms, group_order):
    """Raise OrderTooLarge when endo --dump would list more than
    MAX_DUMP_ENTRIES table entries."""
    if num_endomorphisms * group_order > MAX_DUMP_ENTRIES:
        raise OrderTooLarge(
            f"endomorphism listing bounded to {MAX_DUMP_ENTRIES} table entries, "
            f"got {num_endomorphisms} endomorphisms of group order {group_order}"
        )


def _finish(args, summary, results, passed, note):
    """Write the report to --out or stdout, then the stderr note with {status} filled in."""
    status = "pass" if passed else "fail"
    _write(_report(args.command, summary, results, status), args.out)
    _note(note.format(status=status))
    return EXIT_PASS if passed else EXIT_FAIL


def cmd_build(args):
    from .builder import prime_plane_document

    try:
        if args.order > args.max_order:  # first: trial division of a large order would not end
            raise OrderTooLarge(f"order {args.order} exceeds the bound {args.max_order}")
        document = prime_plane_document(args.order)
    except AffinePlaneError as exc:
        _note(f"build failed: {exc}")
        return EXIT_ERROR
    _write(document, args.out)
    _note(f"AG(2,{args.order}): {document['points']} points, {len(document['lines'])} lines")
    return EXIT_PASS


def cmd_check(args):
    _, report, summary = _load_verified_summary(args.plane)
    results = {"axioms": report.to_dict()}
    return _finish(args, summary, results, report.all_pass, "axioms: {status}")


REQUIRED = object()  # the default of a flag that its commands require

# flag -> (metavar, help, default).  A flag with no metavar is a switch, False
# unless given; an INT flag takes an integer, and the bound --max-order a
# non-negative one.
FLAGS = {
    "--out": ("PATH", "write the report to a file instead of stdout", None),
    "--order": ("INT", "the prime order p of the plane", REQUIRED),
    "--max-order": ("INT", f"largest plane order (default: {DEFAULT_MAX_ORDER})", DEFAULT_MAX_ORDER),
    "--dilations": (None, "include dilation maps in the report", False),
    "--translations": (None, "include translations and Cayley table", False),
    "--check-abelian": (None, "check that Tr is abelian", False),
    "--check-normal": (None, "check that Tr is normal in Dil", False),
    "--check-directions": (None, "check that conjugation and composition keep directions",
                           False),
    "--trace-preserving": (None, "count the trace-preserving endomorphisms", False),
    "--check-ring": (None, "check the ring axioms (implies --trace-preserving)", False),
    "--dump": (None, "include serialized tables", False),
}

# command -> (its handler's name in cli, help, takes the plane, flags); a handler
# takes the parsed arguments and returns the exit code
COMMANDS = {
    "build": ("cmd_build", "write the incidence document for AG(2,p)", False,
              ("--out", "--max-order", "--order")),
    "check": ("cmd_check", "verify the affine plane axioms", True, ("--out",)),
    "groups": ("cmd_groups", "enumerate dilations and check group theorems", True,
               ("--out", "--max-order", "--dilations", "--translations", "--check-abelian",
                "--check-normal", "--check-directions")),
    "endo": ("cmd_endo", "enumerate endomorphisms of the translation group", True,
             ("--out", "--max-order", "--trace-preserving", "--check-ring", "--dump")),
    "verify-all": ("cmd_verify_all", "run every check in dependency order", True,
                   ("--out", "--max-order")),
}
VERSION = "--version"


def _handler(command):
    """The handler of command, read from this module: under `python -m
    affineplane.cli` that is __main__, not a second copy of cli."""
    return getattr(sys.modules[__name__], COMMANDS[command][0])


def _exact(argv):
    """The arguments of a line that spells out a command and then only its
    own flags, each by its full name, and the plane once if the command
    takes one; no value may start with "-", even after spaces, and an INT
    value must be an int.  argparse reads such a line to the same
    arguments.  ["--version"] writes the version and exits 0.  Any other
    line gives None."""
    if argv == [VERSION]:
        _emit(__version__ + "\n")
        raise SystemExit(EXIT_PASS)
    if not argv or argv[0] not in COMMANDS:
        return None
    _, _, takes_plane, flags = COMMANDS[argv[0]]
    values, planes = {flag: FLAGS[flag][2] for flag in flags}, []
    tokens = iter(argv[1:])
    for token in tokens:
        if token in flags and FLAGS[token][0] is None:
            values[token] = True
        elif token in flags:
            text = next(tokens, "-")
            if text.lstrip().startswith("-"):
                return None
            if FLAGS[token][0] == "INT":
                try:
                    text = int(text)
                except ValueError:
                    return None
            values[token] = text
        elif token.startswith("-"):
            return None
        else:
            planes.append(token)
    if len(planes) != takes_plane or REQUIRED in values.values():
        return None
    args = SimpleNamespace(command=argv[0], func=_handler(argv[0]), **{
        flag[2:].replace("-", "_"): value for flag, value in values.items()})
    if takes_plane:
        args.plane = planes[0]
    return args


def parse_args(argv):
    """The command line read by COMMANDS and FLAGS: a namespace with the
    command, its handler (func), its flags by name and the plane.  A line
    _exact does not read goes to argparse (usage.parse), which gives the
    same namespace less the handler, or writes --help and exits 0, or
    writes the usage and an error to stderr and exits 2.  Help or version
    text that stdout does not take raises _OutputError."""
    argv = list(argv)
    try:
        args = _exact(argv)
        if args is None:
            from .usage import parse

            args = parse(argv)
            args.func = _handler(args.command)
    except OSError as exc:
        raise _OutputError(exc) from exc
    return args


def main(argv=None):
    """The exit code of the command line argv, sys.argv[1:] when None."""
    try:
        args = parse_args(sys.argv[1:] if argv is None else argv)
        if args.out is not None:
            _check_out(args.out)
        return args.func(args)
    except _OutputError as exc:
        _note(f"output error: {exc}")
        return EXIT_ERROR
    except (MalformedDocument, OSError) as exc:
        _note(f"input error: {exc}")
        return EXIT_ERROR
    except AffinePlaneError as exc:
        _note(f"error: {exc}")
        return EXIT_ERROR


def run():
    """The process entry: main() with the collector off, then os._exit with its code.

    A command makes few cyclic objects, and the OS takes its memory back
    when it ends, so the collector's passes during the imports and the
    work, and the interpreter's teardown, which frees every module and
    object and collects once more, only cost time.  A SystemExit code is
    read as the interpreter reads it: None is 0, an int stays, anything
    else is printed to stderr and gives 1.  Every report, help and version
    text is flushed where it is written, and a failure there is an output
    error; run() flushes both streams once more, because os._exit does not.
    Nothing registers atexit work, and every --out file is closed by its
    with.  main() leaves the collector alone, so a caller in process keeps
    its own.
    """
    import gc

    gc.disable()
    try:
        code = main()
    except SystemExit as exc:  # --help, --version and usage errors
        code = exc.code
    if code is None:
        code = EXIT_PASS
    elif not isinstance(code, int):
        _note(str(code))
        code = EXIT_FAIL
    for stream in (sys.stdout, sys.stderr):
        with suppress(AttributeError, OSError, ValueError):  # None, failing or closed
            stream.flush()
    os._exit(code)


if __name__ == "__main__":
    # Under `python -m affineplane.cli` this module runs as __main__; the
    # handler modules and usage import affineplane.cli, which is then this
    # module, not a second copy compiled again.
    sys.modules.setdefault("affineplane.cli", sys.modules[__name__])
    run()
