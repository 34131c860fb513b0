"""The help and usage text of the command line, laid out from the COMMANDS
and FLAGS tables of cli.

Only --help and usage errors load this module.  A command that writes no
bytecode cache compiles cli from source on every run, and this layout
code would add about 0.6 ms and 0.25 MB of peak memory to each one.
"""

from __future__ import annotations

from .cli import COMMANDS, FLAGS, REQUIRED, VERSION

DESCRIPTION = ("Construct finite affine planes and verify their translation-group and\n"
               "endomorphism-ring structure.")


def usage(command: str | None) -> str:
    """The usage lines of a command, or of the program for None, at most 79 columns wide."""
    if command is None:
        head = "usage: affineplane"
        words = ["[-h]", "[--version]", f"{{{','.join(COMMANDS)}}}", "..."]
    else:
        *_, takes_plane, flags = COMMANDS[command]
        head, words = f"usage: affineplane {command}", ["[-h]"]
        for flag in flags:
            metavar, _, default = FLAGS[flag]
            word = f"{flag} {metavar}" if metavar else flag
            words.append(word if default is REQUIRED else f"[{word}]")
        words += ["plane"] * takes_plane
    lines = [head]
    for word in words:
        if len(lines[-1]) + 1 + len(word) > 79:
            lines.append(" " * len(head))
        lines[-1] += " " + word
    return "\n".join(lines) + "\n"


def help_text(command: str | None) -> str:
    """The --help text of a command, or of the program for None."""
    options = [("-h, --help", "show this help message and exit")]
    if command is None:
        text = DESCRIPTION
        sections = [("commands", [(name, spec[1]) for name, spec in COMMANDS.items()]),
                    ("options", [*options, (VERSION, "show the version number and exit")])]
    else:
        _, text, takes_plane, flags = COMMANDS[command]
        for flag in flags:
            metavar, flag_help, _ = FLAGS[flag]
            options.append((f"{flag} {metavar}" if metavar else flag, flag_help))
        plane = ("arguments", [("plane", "the plane's incidence document (JSON)")])
        sections = [plane] * takes_plane + [("options", options)]
    width = max(len(name) for _, rows in sections for name, _ in rows)
    lines = [usage(command), text]
    for title, rows in sections:
        lines += ["", f"{title}:"]
        lines += [f"  {name:<{width}}  {row}" for name, row in rows]
    return "\n".join(lines) + "\n"
