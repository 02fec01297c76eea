"""Every ``raise`` in ``src/omnipipe`` is reached by a golden case or listed
as library-only.

A site is keyed by module, function and message, not by line: the message is
the exception's first argument, an f-string shown with each field's
expression in braces. A bare ``raise`` passes an exception on and is not a
site of its own.

The golden corpus (``test_golden.cases()``) is run once. The exception that
ends a case is kept: the one ``cli.main`` prints as an ``error:`` line, or
the one argparse is handling when it exits with a usage error. Its
``__context__`` chain leads from the re-raise in ``cli._Input.__exit__`` (and
any other ``raise ... from None``) back to the first error. The innermost
frame of each traceback in the chain is a reached site when it stands on a
``raise`` in ``src/omnipipe``. No line is traced, so the run costs what the
corpus costs.

``library_only_raises.json`` maps each site that no CLI input reaches to one
line saying why. The test fails when a site is neither reached nor listed,
when a listed site no longer exists, and when a listed site is reached.
"""

from __future__ import annotations

import argparse
import ast
import json
import sys
from pathlib import Path
from unittest import mock

import omnipipe
from omnipipe import cli

from test_golden import CASES, run_case, write_inputs

SRC = Path(omnipipe.__file__).parent
LIBRARY_ONLY = Path(__file__).with_name("library_only_raises.json")


def _message(exc: ast.expr) -> str:
    arg = exc.args[0] if isinstance(exc, ast.Call) and exc.args else exc
    if isinstance(arg, ast.Constant):
        return str(arg.value)
    if isinstance(arg, ast.JoinedStr):
        return "".join(part.value if isinstance(part, ast.Constant)
                       else "{" + ast.unparse(part.value) + "}" for part in arg.values)
    return "{" + ast.unparse(arg) + "}"


def raise_sites() -> tuple[dict[tuple[str, int], str], int]:
    """The site key of every line a ``raise`` statement spans, by (file
    name, line), and the number of statements."""
    lines, count = {}, 0

    def visit(path: Path, node: ast.AST, scope: str) -> None:
        nonlocal count
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                visit(path, child, f"{scope}.{child.name}" if scope else child.name)
                continue
            if isinstance(child, ast.Raise) and child.exc is not None:
                key = f"{path.stem}.{scope or '<module>'}: {_message(child.exc)}"
                for line in range(child.lineno, child.end_lineno + 1):
                    lines[path.name, line] = key
                count += 1
            visit(path, child, scope)

    for path in sorted(SRC.glob("*.py")):
        visit(path, ast.parse(path.read_text(encoding="utf-8")), "")
    return lines, count


def reached_sites(exc: BaseException | None, sites: dict) -> set[str]:
    """The sites of exc and of every exception in its context chain."""
    found = set()
    while exc is not None:
        tb = exc.__traceback__
        while tb is not None and tb.tb_next is not None:
            tb = tb.tb_next
        path = Path(tb.tb_frame.f_code.co_filename) if tb is not None else None
        if path is not None and path.parent == SRC and (path.name, tb.tb_lineno) in sites:
            found.add(sites[path.name, tb.tb_lineno])
        exc = exc.__context__
    return found


def test_every_raise_is_reached_by_a_case_or_listed_library_only(tmp_path):
    sites, count = raise_sites()
    keys = set(sites.values())
    assert len(keys) == count, "two raise statements share a module, function and message"
    raised = []

    def keep(call):
        def kept(*args, **kwargs):  # called while the error it reports is handled
            raised.append(sys.exc_info()[1])
            return call(*args, **kwargs)
        return kept

    shared, reached = write_inputs(tmp_path), set()
    with mock.patch.object(cli, "print", keep(print), create=True), \
            mock.patch.object(argparse.ArgumentParser, "exit", keep(argparse.ArgumentParser.exit)):
        for name, (argv, files) in CASES.items():
            run_case(tmp_path, shared, name, argv, files)
            # the exceptions hold their frames; keep only their sites
            reached.update(*(reached_sites(exc, sites) for exc in raised))
            raised.clear()
    listed = json.loads(LIBRARY_ONLY.read_text(encoding="utf-8"))
    assert sorted(keys - reached - set(listed)) == [], (
        f"raise sites no golden case reaches: add a case, or list them in {LIBRARY_ONLY.name} "
        "with the reason no CLI input reaches them")
    assert sorted(set(listed) - keys) == [], f"{LIBRARY_ONLY.name} lists sites that no longer exist"
    assert sorted(set(listed) & reached) == [], f"{LIBRARY_ONLY.name} lists sites a case reaches"
