"""Golden CLI outputs: each case of tests/golden/cases.json runs in-process
through `ncstein.cli.main`, and its exit code, stderr, report and witness file
must equal tests/golden/expected/<name>.txt byte for byte.

A case is a config (a JSON object, or raw text for configs that are not strict
JSON), the command and extra command-line arguments, environment overrides,
and files to write first: raw `files` or an `edit` of an earlier case's
witness. Paths read `{tmp}`, which becomes a scratch directory, and the
outputs read `{tmp}` back. Cases run in file order, so a replay follows the
search that wrote its witness.

After a change that is meant to move the outputs, regenerate the expected
files with

    PYTHONPATH=src python tests/test_golden.py

and review the diff; it prints the name of every expected file it changed.
"""

import contextlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

from ncstein.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"
TMP = "{tmp}"


def _load_cases() -> list[dict]:
    return json.loads((GOLDEN / "cases.json").read_text(encoding="utf-8"))


def _expected_path(case: dict) -> Path:
    return GOLDEN / "expected" / f"{case['name']}.txt"


def _in(tmp: Path, value):
    """value with every {tmp} placeholder of its strings pointing into tmp."""
    if isinstance(value, str):
        return value.replace(TMP, str(tmp))
    if isinstance(value, list):
        return [_in(tmp, item) for item in value]
    if isinstance(value, dict):
        return {key: _in(tmp, item) for key, item in value.items()}
    return value


@contextlib.contextmanager
def _environ(overrides: dict):
    saved = {key: os.environ.get(key) for key in overrides}
    os.environ.update(overrides)
    try:
        yield
    finally:
        for key, value in saved.items():
            if value is None:
                os.environ.pop(key, None)
            else:
                os.environ[key] = value


def run_case(case: dict, tmp: Path) -> str:
    """The rendered outcome of one case: exit code, stderr, stdout and, for a
    search with witness_out, the witness file."""
    for path, text in case.get("files", {}).items():
        Path(_in(tmp, path)).write_text(text, encoding="utf-8")
    if "edit" in case:
        edit = _in(tmp, case["edit"])
        payload = json.loads(Path(edit["from"]).read_text(encoding="utf-8"))
        Path(edit["to"]).write_text(json.dumps({**payload, **edit["set"]}), encoding="utf-8")
    config = _in(tmp, case["config"])
    config_path = tmp / f"{case['name']}.config.json"
    config_path.write_text(config if isinstance(config, str) else json.dumps(config),
                           encoding="utf-8")
    argv = [case["command"], "--config", str(config_path), *_in(tmp, case.get("args", []))]
    out, err = io.StringIO(), io.StringIO()
    with _environ(case.get("env", {})), contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(err):
        try:
            main(argv)
            code = 0
        except SystemExit as exc:
            code = exc.code
    if isinstance(code, str):  # the interpreter prints a string exit code and exits 1
        err.write(code + "\n")
        code = 1
    parts = [f"exit {code}\n", "--- stderr\n", err.getvalue(), "--- stdout\n", out.getvalue()]
    if isinstance(config, dict) and config.get("witness_out"):
        parts += ["--- witness\n", Path(config["witness_out"]).read_text(encoding="utf-8")]
    return "".join(parts).replace(str(tmp), TMP)


def test_golden_reports_are_unchanged(tmp_path):
    cases = _load_cases()
    assert len({case["name"] for case in cases}) == len(cases)
    changed = [case["name"] for case in cases
               if run_case(case, tmp_path) != _expected_path(case).read_text(encoding="utf-8")]
    assert not changed, f"{len(changed)} golden outputs changed: {changed}"


def regenerate() -> None:
    """Rewrite every expected file from the current code, drop stale ones, and
    print the name of each file whose contents changed (the drift list)."""
    cases = _load_cases()
    expected = GOLDEN / "expected"
    expected.mkdir(exist_ok=True)
    for stale in sorted(set(expected.glob("*.txt")) - {_expected_path(case) for case in cases}):
        stale.unlink()
        print(f"removed {stale.name}")
    with tempfile.TemporaryDirectory() as tmp:
        for case in cases:
            path, text = _expected_path(case), run_case(case, Path(tmp))
            if not path.exists() or path.read_text(encoding="utf-8") != text:
                path.write_text(text, encoding="utf-8")
                print(f"changed {path.name}")
    print(f"checked {len(cases)} expected files in {expected}", file=sys.stderr)


if __name__ == "__main__":
    regenerate()
