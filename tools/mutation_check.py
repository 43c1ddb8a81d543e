"""Check that the tests catch each seeded source mutant of ``tests/mutant_patches.py``.

    python3 tools/mutation_check.py            # every entry
    python3 tools/mutation_check.py NAME ...   # the named entries

For each entry this copies ``src/`` and ``tests/`` to a temporary directory,
applies the entry's patch there and runs ``pytest -x -q`` on its selection.
The mutant is caught when pytest reports a failing test (exit status 1).
The entry fails the check when its selection passes, when pytest ends in
any other way (a selection that collects nothing, say), or when its patch
text does not occur exactly once in its file.  The checkout is never
modified.  One line is printed per entry; the exit status is 0 when every
mutant is caught and 1 otherwise.  Needs the standard library and pytest.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tests"))

from mutant_patches import PATCHES  # noqa: E402


def check(patch) -> str | None:
    """None when the mutant is caught, else why the entry fails."""
    source = (ROOT / "src" / patch.path).read_text(encoding="utf-8")
    count = source.count(patch.text)
    if count != 1:
        return f"patch text occurs {count} times in src/{patch.path}, not once"
    with tempfile.TemporaryDirectory(prefix="hvkit-mutant-") as tmp:
        work = Path(tmp)
        skip = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, work / part, ignore=skip)
        shutil.copy2(ROOT / "pyproject.toml", work)
        (work / "src" / patch.path).write_text(source.replace(patch.text, patch.replacement), encoding="utf-8")
        env = {**os.environ, "PYTHONPATH": str(work / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
        command = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *patch.selection]
        run = subprocess.run(command, cwd=work, env=env, capture_output=True, text=True)
    if run.returncode == 1:
        return None
    if run.returncode == 0:
        return "survived: its selection passes"
    last = (run.stdout.strip().splitlines() or ["no output"])[-1]
    return f"pytest exited with status {run.returncode}: {last}"


def main(argv=None) -> int:
    names = sys.argv[1:] if argv is None else argv
    unknown = set(names) - {patch.name for patch in PATCHES}
    if unknown:
        print(f"unknown mutant: {', '.join(sorted(unknown))}", file=sys.stderr)
        return 2
    failed = 0
    for patch in PATCHES:
        if names and patch.name not in names:
            continue
        why = check(patch)
        failed += why is not None
        print(f"{'caught' if why is None else 'FAILED'}  {patch.name}" + ("" if why is None else f": {why}"))
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
