"""Every function in the package runs on some command-line path.

Under `sys.setprofile`, `cli.main` runs each subcommand on a small fixed
input, and every function defined in `src/rigidspec` must have been
called, apart from ALLOWED and dunder methods.  A function that only the
tests call belongs in `tests/oracles.py`.
"""
import contextlib
import inspect
import io
import sys
from pathlib import Path

import rigidspec
from rigidspec import Graph, complete_split_graph, linked_cliques, write_graph6
from rigidspec.cli import main as cli_main

PACKAGE = Path(rigidspec.__file__).resolve().parent

# the builders of the paper's two extremal families: documented API,
# whether or not a subcommand runs them
ALLOWED = {"complete_split_graph", "linked_cliques"}

# seeding stalls on the trap graph: the shortest path 0-1-3-4 blocks both
# disjoint paths 0-1-5-6-4 and 0-2-7-3-4, so connectivity runs the residual
# search over the adjacency masks
TRAP = Graph(8, [(0, 1), (0, 2), (1, 3), (3, 4), (1, 5), (5, 6), (6, 4),
                 (2, 7), (7, 3)])


def _functions(code):
    """(file, line, qualified name) of the functions and lambdas nested in
    a code object, comprehensions, class bodies and dunders aside."""
    for const in code.co_consts:
        if hasattr(const, "co_qualname"):
            name = const.co_name
            if (const.co_flags & inspect.CO_NEWLOCALS
                    and (name == "<lambda>" or not name.startswith("<"))
                    and not name.endswith("__")):
                yield Path(const.co_filename).name, const.co_firstlineno, \
                    const.co_qualname
            yield from _functions(const)


def test_every_function_runs_on_a_cli_path(tmp_path):
    # an earlier test may have filled the caches, so that the cached
    # functions' own frames would never run here
    rigidspec.verify._threshold.cache_clear()
    rigidspec.verify._encoded_key.cache_clear()
    rigidspec.graphcore._member_table.cache_clear()
    good, bad = tmp_path / "good.g6", tmp_path / "bad.g6"
    good.write_text("".join(write_graph6(g) + "\n" for g in [
        Graph(1), Graph(2, [(0, 1)]), Graph(4, [(0, 1), (2, 3)]),
        complete_split_graph(6),  # its threshold has equal cliques
        linked_cliques(16, 7, 2), linked_cliques(16, 7, 3), TRAP]))
    # K2, then an empty graph, a short body and a non-ASCII byte
    bad.write_bytes(b"A_\n?\nA_x\nB\xe9\n")
    runs = [(["analyze", str(good)], 0),
            (["analyze", str(good), "--format", "csv"], 0),
            (["analyze", str(bad)], 2),
            (["laman-extremal", "--nmin", "3", "--nmax", "6"], 0),
            (["family-sweep", "--clique-max", "5", "--nmax", "14"], 0),
            (["extremal", "--delta", "6", "--nmax", "16"], 0)]
    called = set()

    def profile(frame, event, arg):
        if event == "call":
            called.add(frame.f_code)

    for argv, expected in runs:
        out = io.StringIO()
        with contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(io.StringIO()):
            sys.setprofile(profile)
            try:
                code = cli_main(argv)
            finally:
                sys.setprofile(None)
        assert code == expected and out.getvalue(), argv
    reached = {(Path(c.co_filename).name, c.co_firstlineno, c.co_qualname)
               for c in called
               if Path(c.co_filename).resolve().parent == PACKAGE}
    defined = {f for path in PACKAGE.glob("*.py") for f in _functions(
        compile(path.read_text(), str(path), "exec"))}
    never = sorted(f"{f}:{line} {name}" for f, line, name in defined - reached
                   if name not in ALLOWED)
    assert not never, "functions no subcommand runs:\n" + "\n".join(never)
    assert ALLOWED <= {name for _, _, name in defined}


def test_package_exports_every_public_function_and_class():
    # the command-line module is the entry point, not part of the API
    public = {name for path in PACKAGE.glob("*.py")
              if path.stem not in ("__init__", "cli")
              for name, obj in vars(getattr(rigidspec, path.stem)).items()
              if (inspect.isfunction(obj) or inspect.isclass(obj))
              and not name.startswith("_")
              and obj.__module__ == f"rigidspec.{path.stem}"}
    exported = {name for name in rigidspec.__all__
                if inspect.isfunction(getattr(rigidspec, name))
                or inspect.isclass(getattr(rigidspec, name))}
    assert exported == public
