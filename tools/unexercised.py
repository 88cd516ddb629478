"""List the statements of ``src/distnav`` that no run of ``tools/runlog_digest.py`` executes.

    python3 tools/unexercised.py

Runs ``runlog_digest.digests()`` (every closed-loop run, the human-baseline
replay, the benchmark's oracle solve and ``evolve1d --compare-sampler``, at
``--jobs 1``, so all in this process) under ``sys.settrace``, tracing only
code whose file lies in ``src/distnav``, module imports included. Then it
prints, per module, each statement that never ran, as ``line: source``, and
a count per module and in total. Docstrings and ``raise`` statements are not
counted: a check on outside input is meant to stay unexercised by valid runs.

A simple statement ran when a line event fired anywhere in its span; a
compound one (``if``, ``for``, ``def``, ...) when one fired on its header,
decorators included. The digest's own output is suppressed.
"""

import ast
import contextlib
import io
import sys
from pathlib import Path

TOOLS = Path(__file__).resolve().parent
PACKAGE = TOOLS.parent / "src" / "distnav"


def statements(path: Path) -> list:
    """(first line, lines that show it ran) of every counted statement of a module file."""
    out = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        for name in ("body", "orelse", "finalbody"):
            block = getattr(node, name, None)
            if not isinstance(block, list):
                continue
            for k, stmt in enumerate(block):
                docstring = (name == "body" and k == 0 and isinstance(stmt, ast.Expr)
                             and isinstance(stmt.value, ast.Constant) and isinstance(stmt.value.value, str))
                if docstring or isinstance(stmt, ast.Raise):
                    continue
                inner = getattr(stmt, "body", None)
                if isinstance(inner, list):  # compound: its header, decorators included
                    start = min([d.lineno for d in getattr(stmt, "decorator_list", [])] + [stmt.lineno])
                    span = range(start, max(inner[0].lineno, stmt.lineno + 1))
                else:
                    span = range(stmt.lineno, stmt.end_lineno + 1)
                out.append((stmt.lineno, span))
    return out


def missed(path: Path, lines: set) -> list:
    """First lines of the counted statements of a module file that none of ``lines`` shows ran."""
    return sorted(first for first, span in statements(path) if lines.isdisjoint(span))


def traced_lines(run, folder: Path) -> dict:
    """Call ``run()`` and return, per file under ``folder``, the lines on which line events fired."""
    root = str(folder) + "/"
    hit: dict = {}

    def local(frame, event, arg):
        if event == "line":
            hit.setdefault(frame.f_code.co_filename, set()).add(frame.f_lineno)
        return local

    def tracer(frame, event, arg):
        return local if frame.f_code.co_filename.startswith(root) else None

    sys.settrace(tracer)
    try:
        run()
    finally:
        sys.settrace(None)
    return hit


def main() -> int:
    def run():
        sys.path.insert(0, str(TOOLS))
        import runlog_digest  # imports distnav, so its module code is traced too

        with contextlib.redirect_stdout(io.StringIO()):
            runlog_digest.digests()

    hit = traced_lines(run, PACKAGE)
    total = 0
    for path in sorted(PACKAGE.glob("*.py")):
        firsts = missed(path, hit.get(str(path), set()))
        source = path.read_text().splitlines()
        print(f"{path.relative_to(PACKAGE.parent).as_posix()}: {len(firsts)}")
        for first in firsts:
            print(f"  {first}: {source[first - 1].strip()}")
        total += len(firsts)
    print(f"total: {total}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
