"""Compare the CLI output of the working tree with that of a git revision.

    python tests/compare_corpus.py REV

Checks REV out with `git worktree` into a temporary directory, runs every
command of corpus.ORDINARY in process on that checkout and on the working
tree, one child interpreter per tree, and prints each command whose stdout,
stderr or exit code differs, `lo`/`hi` endpoints included.  The worktree is
removed afterwards.  Exits 0 when nothing differs and 1 otherwise.  pytest
does not collect this file.
"""

import io
import json
import subprocess
import sys
import tempfile
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_commands(argvs):
    """(exit code, stdout, stderr) of each command, run by cli.main in this
    process; a traceback is reported with the exit code "traceback"."""
    from salemtori import cli

    results = []
    for argv in argvs:
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            try:
                code = cli.main(list(argv))
            except SystemExit as exc:
                code = exc.code
            except Exception:
                code = "traceback"
                traceback.print_exc()
        results.append((code, out.getvalue(), err.getvalue()))
    return results


def _run_tree(tree: Path, argvs):
    started = time.perf_counter()
    child = subprocess.run(
        [sys.executable, __file__, "--child", str(tree / "src")],
        input=json.dumps(argvs),
        capture_output=True,
        text=True,
        check=True,
    )
    print(f"{tree}: {len(argvs)} commands in {time.perf_counter() - started:.1f} s", file=sys.stderr)
    return json.loads(child.stdout)


def _clip(text: str) -> str:
    return text if len(text) <= 400 else text[:400] + f"... ({len(text)} characters)"


def main(rev: str) -> int:
    sys.path.insert(0, str(ROOT / "src"))
    from corpus import ORDINARY

    argvs = [list(argv) for argv in ORDINARY]
    with tempfile.TemporaryDirectory() as tmp:
        tree = Path(tmp) / "rev"
        git = ["git", "-C", str(ROOT), "worktree"]
        subprocess.run([*git, "add", "--detach", str(tree), rev], stdout=sys.stderr, check=True)
        try:
            theirs = _run_tree(tree, argvs)
        finally:
            subprocess.run([*git, "remove", "--force", str(tree)], stdout=sys.stderr, check=True)
    ours = _run_tree(ROOT, argvs)
    differ = 0
    for argv, a, b in zip(argvs, theirs, ours):
        for name, x, y in zip(("exit", "stdout", "stderr"), a, b):
            if x != y:
                differ += 1
                print(f"{' '.join(argv)}: {name} differs")
                print(f"  {rev}: {_clip(str(x))!r}\n  working tree: {_clip(str(y))!r}")
    print(f"{len(argvs)} commands, {differ} differences")
    return 1 if differ else 0


if __name__ == "__main__":
    if sys.argv[1:2] == ["--child"]:
        sys.path.insert(0, sys.argv[2])
        json.dump(run_commands(json.load(sys.stdin)), sys.stdout)
    elif len(sys.argv) == 2:
        sys.exit(main(sys.argv[1]))
    else:
        sys.exit("usage: python tests/compare_corpus.py REV")
