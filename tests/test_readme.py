"""The README's library quick tour runs, and every value it shows is the one computed."""

import ast
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def quick_tour() -> str:
    text = README.read_text(encoding="utf-8")
    return text.split("```python\n", 1)[1].split("```", 1)[0]


def test_quick_tour_runs_and_shows_its_values():
    source = quick_tour()
    lines = source.splitlines()
    namespace: dict = {}
    shown = 0
    for stmt in ast.parse(source).body:
        # an expression followed by a `# value` line must evaluate to that value
        after = lines[stmt.end_lineno] if stmt.end_lineno < len(lines) else ""
        if isinstance(stmt, ast.Expr) and after.startswith("# "):
            value = eval(compile(ast.Expression(stmt.value), "README.md", "eval"), namespace)
            assert value == ast.literal_eval(after[2:]), ast.unparse(stmt)
            shown += 1
        else:
            exec(compile(ast.Module([stmt], []), "README.md", "exec"), namespace)
    assert shown == 2
    assert {"oracle_table", "gf_count", "recursion_table"} <= namespace.keys()
