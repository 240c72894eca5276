"""Line-coverage gate for src/usdsep, from the standard library alone.

Enable it with ``python -m pytest -p tests.coverage_gate``.  A sys.settrace
hook records each line of src/usdsep that runs; at the end of the session
every executable line no test reached is listed, and the session fails
when one lies outside EXCLUDED.  Recording pauses while tracemalloc traces,
so that the tests which measure a peak see none of the hook's allocations.
"""

import ast
import pathlib
import sys
import threading
import tracemalloc
import types

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "usdsep"
# Blocks that no in-process test can reach, with the reason: "module:name"
# for a function or the __main__ guard, "module:name | line" for a
# statement inside a function, named by the text of its first line.
EXCLUDED = {
    "cli:entry": "the installed usdsep script's entry; the CLI tests call main",
    "cli:__main__": "runs only as python -m usdsep.cli, in another process",
}
_hits = {str(path): set() for path in SRC.glob("*.py")}


def _local(frame, event, arg):
    if not tracemalloc.is_tracing():
        _hits[frame.f_code.co_filename].add(frame.f_lineno)
    return _local


def _global(frame, event, arg):
    return _local if frame.f_code.co_filename in _hits else None


def _executable(code) -> set:
    """The lines of a code object and of every code object nested in it."""
    out = {line for _, _, line in code.co_lines() if line}
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            out |= _executable(const)
    return out


def _excluded(module: str, source: str) -> set:
    """The lines of the blocks EXCLUDED names in one module."""
    lines, out = source.splitlines(), set()

    def visit(node, scope: str) -> None:
        for child in (c for c in ast.iter_child_nodes(node) if isinstance(c, ast.stmt)):
            name = getattr(child, "name", None)
            if isinstance(child, ast.If) and ast.unparse(child.test) == "__name__ == '__main__'":
                name = "__main__"
            inner = ".".join(filter(None, [scope, name]))
            keys = {f"{module}:{inner}", f"{module}:{scope} | {lines[child.lineno - 1].strip()}"}
            if keys & EXCLUDED.keys():
                out.update(range(child.lineno, child.end_lineno + 1))
            visit(child, inner)

    visit(ast.parse(source), "")
    return out


def unreached() -> tuple[int, list[tuple[str, bool]]]:
    """The executable lines of src/usdsep, and ("file:line", excluded) for each no test ran."""
    total, found = 0, []
    for path in sorted(SRC.glob("*.py")):
        source = path.read_text()
        lines = _executable(compile(source, str(path), "exec"))
        excluded = _excluded(path.stem, source)
        total += len(lines)
        found += [(f"{path.name}:{n}", n in excluded) for n in sorted(lines - _hits[str(path)])]
    return total, found


def pytest_configure(config):
    threading.settrace(_global)
    sys.settrace(_global)


def pytest_sessionfinish(session, exitstatus):
    sys.settrace(None)
    threading.settrace(None)
    _, found = session.config.coverage_gate = unreached()
    if not all(excluded for _, excluded in found):
        session.exitstatus = 1


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    total, found = config.coverage_gate
    terminalreporter.section("coverage gate")
    for where, excluded in found:
        terminalreporter.write_line(f"{where} {'excluded' if excluded else 'UNREACHED'}")
    gated = sum(not excluded for _, excluded in found)
    terminalreporter.write_line(
        f"{total - len(found)} of {total} executable lines reached; "
        f"{gated} unreached outside EXCLUDED"
    )
