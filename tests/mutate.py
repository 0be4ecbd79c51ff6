"""Mutation testing of one module of src/cpulse: a count of the ways to
break the code that the tests do not notice.

Usage: python tests/mutate.py MODULE [TEST ...] [--full]

Each mutant changes one site of src/cpulse/MODULE.py: it swaps < with <=,
> with >=, == with !=, + with -, * with /, or `and` with `or`; it bumps a
number (an int by 1, a float by 2x, 0 to 1); or it drops a unary minus.
The mutated tree is written back with ast.unparse into one of the worker
copies of the repository, one per CPU this process may run on, and
`pytest -x -q` runs the given tests there (default: the whole suite).  A
mutant is killed when the tests fail, survives when they pass, and times
out past 5x the unmutated run.  With --full every survivor runs again on
the whole suite.  The script prints the counts, then each survivor by
site, with its reason where EQUIVALENT lists it, and exits 1 if a survivor
is not listed.  The worker copies live under the system's temporary
directory (TMPDIR) and are removed at the end.

It is not part of the test suite or of CI: one module takes minutes.
"""

import argparse
import ast
import collections
import os
import queue
import shutil
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SWAPS = {ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt,
         ast.Eq: ast.NotEq, ast.NotEq: ast.Eq, ast.Add: ast.Sub, ast.Sub: ast.Add,
         ast.Mult: ast.Div, ast.Div: ast.Mult, ast.And: ast.Or, ast.Or: ast.And}
SYMBOLS = {ast.Lt: "<", ast.LtE: "<=", ast.Gt: ">", ast.GtE: ">=", ast.Eq: "==",
           ast.NotEq: "!=", ast.Add: "+", ast.Sub: "-", ast.Mult: "*", ast.Div: "/",
           ast.And: "and", ast.Or: "or"}

# (module, stripped first source line of the site, mutation; "#2" marks the second
# site of one mutation on a line) -> why no test can tell the mutant apart
SCAN = ("ok = all(constraint_checks(0.0, res, target.theta + 2 * math.tau)[1][1] "
        "== (g == math.pi)")
GUARD = "if ((args.eps_max - args.eps_min) / (args.eps_count - 1) <= DISTINCT_STEP"
EQUIVALENT = {
    ("cli", "SWEEP_BLOCK = 256", "256 -> 257"):
        "the block size only groups rows into writes; the bytes written are the same",
    ("cli", "if len(results) > 1:", "1 -> 2"):
        "designs return 1, 6 or 12 branches (p, q, r <= 4 at 199 targets), never 2",
    ("cli", '_count(getattr(args, name, 1), "--" + name)', "1 -> 2"):
        "only table1 lacks the count flags, and _count passes 2 as it passes 1",
    ("cli", 'if len(out) > 1 and len(out[-2]) > 2 and token.startswith("-") and any(', "1 -> 2"):
        "with two tokens the first is the command, never a prefix of a joined flag",
    ("cli", SCAN, "0.0 -> 1"):
        "the scan reads only the derivative verdict, never the identity argument",
    ("cli", SCAN, "2 -> 3"):
        "every row but the flat one reads at least 2.3e10 u: a larger total passes none",
    ("cli", SCAN, "* -> /"):
        "the flat row read at most 11.3 u in 600 scans, inside 16 u per radian of theta + 1/pi",
    ("cli", 'checks += [("order", abs(report.order - 6.0) <= 0.05, "%.4f" % report.order),',
     "<= -> <"):
        "no double lies exactly 0.05 from 6: both ends round off the edge",
    ("cli", GUARD, "- -> + #2"):
        "a smaller step estimate walks more grids, and a walk finds only repeats that exist",
    ("cli", GUARD, "<= -> <"):
        "at a step of exactly DISTINCT_STEP neighbours differ by 3.3e-16 or more: no repeat",
    ("bch", "sign, shift = -sign, shift + 2.0 * sign * p.phase", "* -> /"):
        "sign is 1.0 or -1.0, so 2.0 / sign is 2.0 * sign",
    ("bch", "return 0.5 * (w0 * w0 + w1 * w1 + w2 * w2)", "+ -> - #2"):
        "row 3 lies in the XY plane, so w2 is 0",
}


class Mutator(ast.NodeTransformer):
    """Walks a module in one fixed order, recording every site as (line,
    mutation); with target set, applies the site of that index."""

    def __init__(self, target=None):
        self.target, self.sites = target, []

    def _site(self, node, mutation) -> bool:
        self.sites.append((node.lineno, mutation))
        return len(self.sites) - 1 == self.target

    def _swap(self, node, op):
        new = SWAPS[type(op)]
        return self._site(node, f"{SYMBOLS[type(op)]} -> {SYMBOLS[new]}") and new()

    def visit_Compare(self, node):
        self.generic_visit(node)
        for i, op in enumerate(node.ops):
            if type(op) in SWAPS and (new := self._swap(node, op)):
                node.ops[i] = new
        return node

    def visit_BinOp(self, node):
        self.generic_visit(node)
        if type(node.op) in SWAPS and (new := self._swap(node, node.op)):
            node.op = new
        return node

    visit_AugAssign = visit_BoolOp = visit_BinOp

    def visit_UnaryOp(self, node):
        self.generic_visit(node)
        if isinstance(node.op, ast.USub) and self._site(node, "drop unary -"):
            return node.operand
        return node

    def visit_Constant(self, node):
        value = node.value
        if type(value) not in (int, float):
            return node
        bumped = 1 if value == 0 else value + 1 if type(value) is int else value * 2.0
        if self._site(node, f"{value!r} -> {bumped!r}"):
            return ast.copy_location(ast.Constant(type(value)(bumped)), node)
        return node


def mutant(source: str, index=None):
    """(unparsed source with site `index` mutated, or none mutated; every site)."""
    mutator = Mutator(index)
    tree = ast.fix_missing_locations(mutator.visit(ast.parse(source)))
    return ast.unparse(tree), mutator.sites


def run_tests(copy: Path, tests, timeout=None):
    """'killed', 'survived' or 'timed out' for the suite run in one copy."""
    env = dict(os.environ, PYTHONPATH="src", PYTHONDONTWRITEBYTECODE="1")
    try:
        done = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests],
            cwd=copy, env=env, timeout=timeout,
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    except subprocess.TimeoutExpired:
        return "timed out"
    return "survived" if done.returncode == 0 else "killed"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("module", help="module name under src/cpulse, e.g. cli")
    parser.add_argument("tests", nargs="*", help="test paths (default: the whole suite)")
    parser.add_argument("--full", action="store_true",
                        help="run each survivor again on the whole suite")
    args = parser.parse_args(argv)
    relative = Path("src", "cpulse", args.module + ".py")
    source = (ROOT / relative).read_text()
    lines = source.splitlines()
    unmutated, sites = mutant(source)
    seen, keys = collections.Counter(), []
    for line, mutation in sites:
        seen[line, mutation] += 1
        nth = seen[line, mutation]
        keys.append((args.module, lines[line - 1].strip(),
                     mutation if nth == 1 else f"{mutation} #{nth}"))
    workers = len(os.sched_getaffinity(0))
    workdir = Path(tempfile.mkdtemp(prefix="mutate-"))
    copies = queue.Queue()
    try:
        for i in range(workers):
            copy = workdir / f"copy{i}"
            shutil.copytree(ROOT, copy, ignore=shutil.ignore_patterns(
                ".git", "__pycache__", ".hypothesis", ".pytest_cache"))
            (copy / relative).write_text(unmutated)
            copies.put(copy)
        start = time.monotonic()

        def limit(tests):
            """5x the unmutated run of tests, which must pass."""
            copy = copies.get()
            try:
                (copy / relative).write_text(unmutated)
                begin = time.monotonic()
                outcome = run_tests(copy, tests)
            finally:
                copies.put(copy)
            if outcome != "survived":
                raise SystemExit("the tests fail on the unmutated module; nothing to measure")
            return 5 * (time.monotonic() - begin)

        def judge(index, tests, timeout):
            copy = copies.get()
            try:
                (copy / relative).write_text(mutant(source, index)[0])
                outcome = run_tests(copy, tests, timeout)
            finally:
                copies.put(copy)
            print(f"mutant {index}: {outcome}", file=sys.stderr, flush=True)
            return outcome

        with ThreadPoolExecutor(workers) as pool:
            timeout = limit(args.tests)
            outcomes = list(pool.map(lambda i: judge(i, args.tests, timeout), range(len(sites))))
            if args.full:
                survivors = [i for i, o in enumerate(outcomes) if o == "survived"]
                timeout = limit([])
                for i, outcome in zip(survivors, pool.map(lambda i: judge(i, [], timeout),
                                                          survivors)):
                    outcomes[i] = outcome
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    counts = {name: outcomes.count(name) for name in ("killed", "survived", "timed out")}
    print(f"{relative.name}: {len(sites)} mutants, {counts['killed']} killed, "
          f"{counts['survived']} survived, {counts['timed out']} timed out "
          f"({time.monotonic() - start:.0f} s, {workers} workers"
          f"{', survivors on the whole suite' if args.full else ''})")
    unexplained = 0
    for (line, _), key, outcome in zip(sites, keys, outcomes):
        if outcome != "killed":
            reason = EQUIVALENT.get(key)
            unexplained += reason is None
            print(f"  {outcome}: {relative.name}:{line} {key[2]}   {key[1]}")
            if reason:
                print(f"    equivalent: {reason}")
    return 1 if unexplained else 0


if __name__ == "__main__":
    raise SystemExit(main())
