"""Rebuild the CLI and demo golden files in this directory from the code under src/.

    python tests/data/capture.py           # rewrite all four files
    python tests/data/capture.py --check   # print each changed leaf; exit 1 on any

``compare_builtins.json`` maps each built-in to the exit code and stdout
of ``wormsim compare`` on it, ``cli_variants.json`` maps each case of
``VARIANTS`` to its report.json (less the environment block) and its
compare output, and ``report_values.json`` maps each built-in to the
report.json (less the environment block) of ``wormsim run`` with the
arguments and seed behind ``perfbench/reference.json``'s digests, and
``demo_outputs.json`` maps each script in ``demos/`` to its stdout.  All
are built with the same helpers and arguments that ``tests/test_cli.py``
and ``tests/test_demos.py`` assert with, so a rebuild at an unchanged
tree writes the same bytes.  Re-pin a golden only for a deliberate change,
and show that change with ``--check`` first: it prints each changed leaf's
path, old and new value, and for a number its relative change.
"""

import argparse
import contextlib
import io
import json
import os
import sys
import tempfile
import types

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "tests")]

import test_cli  # noqa: E402  (found through the path above)
import test_demos  # noqa: E402


class _Capture:
    """The part of pytest's capsys that ``_variant_outputs`` reads."""

    def __init__(self):
        self.buffer = io.StringIO()

    def readouterr(self):
        out = self.buffer.getvalue()
        self.buffer.seek(0)
        self.buffer.truncate()
        return types.SimpleNamespace(out=out)


def compare_builtins(capsys) -> dict:
    golden = {}
    for name in test_cli.builtin_names():
        code = test_cli.main(test_cli._compare_argv(name))
        golden[name] = {"exit": code, "stdout": capsys.readouterr().out}
    return golden


def cli_variants(capsys) -> dict:
    with tempfile.TemporaryDirectory() as tmp:
        return {case: test_cli._variant_outputs(config, sets, os.path.join(tmp, case), capsys)
                for case, config, sets in test_cli.VARIANTS}


def report_values(capsys) -> dict:
    with tempfile.TemporaryDirectory() as tmp:
        return {name: test_cli._builtin_report_values(name, os.path.join(tmp, name))
                for name in test_cli.builtin_names()}


def demo_outputs(capsys) -> dict:
    with tempfile.TemporaryDirectory() as tmp:
        return {demo.stem: test_demos.demo_stdout(demo, tmp) for demo in test_demos.DEMOS}


GOLDENS = {
    test_cli.COMPARE_GOLDEN: compare_builtins,
    test_cli.VARIANTS_GOLDEN: cli_variants,
    test_cli.VALUES_GOLDEN: report_values,
    test_demos.DEMO_GOLDEN: demo_outputs,
}


def leaves(node, path: str = "") -> dict:
    """{path: JSON text} of each leaf of a golden (an empty mapping is one), so
    that 1 and 1.0 differ."""
    if not isinstance(node, dict) or not node:
        return {path: json.dumps(node)}
    out = {}
    for key, child in node.items():
        out.update(leaves(child, f"{path}/{key}"))
    return out


def _number(text: str):
    """The number a leaf's JSON text holds, or None for any other leaf."""
    try:
        value = json.loads(text)
    except ValueError:  # "(absent)"
        return None
    return None if isinstance(value, bool) or not isinstance(value, (int, float)) else value


def changed_leaves(name: str, old_text: str, new_text: str) -> list:
    """One line "<name><path>: <old> -> <new>" per leaf that differs between two
    texts of a golden; a number that was not 0 also gets its relative change
    (new - old) / |old|."""
    old, new = leaves(json.loads(old_text)), leaves(json.loads(new_text))
    lines = []
    for path in sorted(set(old) | set(new)):
        before, after = old.get(path, "(absent)"), new.get(path, "(absent)")
        if before == after:
            continue
        line = f"{name}{path}: {before} -> {after}"
        a, b = _number(before), _number(after)
        if a and b is not None:
            line += f" (relative change {(b - a) / abs(a):+.3g})"
        lines.append(line)
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true",
                        help="write nothing; print each changed leaf and exit 1 on any")
    args = parser.parse_args(argv)
    capsys = _Capture()
    changed = 0
    for path, build in GOLDENS.items():
        with contextlib.redirect_stdout(capsys.buffer):
            text = json.dumps(build(capsys), indent=2, sort_keys=True) + "\n"
        name = os.path.basename(path)
        with open(path, encoding="utf-8") as fh:
            old_text = fh.read()
        if text == old_text:
            print(f"{name}: unchanged")
            continue
        changed += 1
        if not args.check:
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
            print(f"{name}: rewritten")
            continue
        lines = changed_leaves(name, old_text, text)
        for line in lines:
            print(line)
        print(f"{name}: {len(lines)} changed leaves" if lines
              else f"{name}: same leaves, different bytes")
    return 1 if args.check and changed else 0


if __name__ == "__main__":
    sys.exit(main())
