"""Apply each mutant of mutants/cases.py alone and run the tests that must catch it.

    python3 mutants/run.py

src/, tests/ and pyproject.toml are copied once into a temporary directory.
The mutants' node ids must first pass there unmutated, so that a mistyped id
cannot pass for a catch.  Then each mutant replaces its old text in the copy
of its file, only its node ids run (python -m pytest -x), and the file is
put back.  A mutant is caught when pytest reports a failure or runs past
TIMEOUT_S, which is how a hang counts.  The EQUIVALENT mutants are listed and
not run.  Exits 1 naming every survivor, 0 when every mutant is caught.
"""
from __future__ import annotations

import os
import shutil
import signal
import subprocess
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from cases import CASES, EQUIVALENT  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
#: Seconds per pytest run: well past the 60 s a hung helper test waits for its child
TIMEOUT_S = 240
#: pytest's exit codes for "no such test" and "usage error": never a catch
_NOT_RUN = (4, 5)


def _pytest(tree: Path, ids) -> int | None:
    """pytest's exit code for ids in tree, or None when it ran past TIMEOUT_S.

    It runs in its own process group, so a timeout also stops what it started.
    """
    env = {**os.environ, "PYTHONPATH": str(tree / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    argv = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *ids]
    child = subprocess.Popen(argv, cwd=tree, env=env, stdout=subprocess.DEVNULL,
                             stderr=subprocess.DEVNULL, start_new_session=True)
    try:
        return child.wait(timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return None
    finally:
        # the tests' own helpers and children go with the group
        try:
            os.killpg(child.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        child.wait()


def main() -> int:
    for case in EQUIVALENT:
        print(f"equivalent  {case.name}: {case.reason}")
    with tempfile.TemporaryDirectory(prefix="mutants-") as tmp:
        tree = Path(tmp)
        ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
        for name in ("src", "tests"):
            shutil.copytree(ROOT / name, tree / name, ignore=ignore)
        shutil.copy(ROOT / "pyproject.toml", tree)
        ids = sorted({node for case in CASES for node in case.catch})
        if _pytest(tree, ids) != 0:
            print("the unmutated tree fails the mutants' node ids: nothing run")
            return 1
        survivors = []
        for case in CASES:
            path = tree / case.file
            original = path.read_text(encoding="utf-8")
            if original.count(case.old) != 1:
                caught, verdict = False, "old text not found exactly once"
            else:
                path.write_text(original.replace(case.old, case.new), encoding="utf-8")
                try:
                    code = _pytest(tree, case.catch)
                finally:
                    path.write_text(original, encoding="utf-8")
                caught = code is None or (code != 0 and code not in _NOT_RUN)
                verdict = "timed out" if code is None else f"pytest exit {code}"
            print(f"{'caught' if caught else 'SURVIVED'}  {case.name} ({verdict})", flush=True)
            if not caught:
                survivors.append(case.name)
    if survivors:
        print(f"{len(survivors)} of {len(CASES)} mutants survived: {', '.join(survivors)}")
        return 1
    print(f"all {len(CASES)} mutants caught")
    return 0


if __name__ == "__main__":
    sys.exit(main())
