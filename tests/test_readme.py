"""The README's library sketch runs as written, and its stated bounds hold."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_readme_library_sketch_runs():
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    block = text[text.index("```python\n") + len("```python\n"):]
    block = block[:block.index("```")]
    lines = block.splitlines()
    namespace, claims = {}, 0
    for node in ast.parse(block).body:
        if not isinstance(node, ast.Expr):
            exec(compile(ast.Module([node], []), "README.md", "exec"), namespace)
            continue
        value = eval(compile(ast.Expression(node.value), "README.md", "eval"), namespace)
        # a trailing comment such as `# <= 2 + 1e-6` is a claim about the value
        comment = lines[node.end_lineno - 1].partition("#")[2].strip()
        if comment.startswith(("<=", ">=")):
            claims += 1
            assert eval(f"value {comment}", {"value": value}), (lines[node.lineno - 1], value)
    assert claims
