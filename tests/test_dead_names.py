"""No dead names: every top-level function and class of the library is
referenced somewhere in the library, its tests or its benchmark, outside its
own definition."""
import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
LIBRARY = ROOT / "src" / "symkit"


def _references(tree: ast.AST) -> Counter:
    """Each identifier read as a name, an attribute or an imported name."""
    refs: Counter = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            refs[node.id] += 1
        elif isinstance(node, ast.Attribute):
            refs[node.attr] += 1
        elif isinstance(node, ast.alias):
            refs[node.name.rpartition(".")[2]] += 1
    return refs


def test_every_top_level_name_is_referenced():
    trees = {path: ast.parse(path.read_text())
             for folder in ("src", "tests", "bench")
             for path in sorted((ROOT / folder).rglob("*.py"))}
    refs = sum((_references(tree) for tree in trees.values()), Counter())
    dead = []
    for path in sorted(LIBRARY.glob("*.py")):
        for node in trees[path].body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if refs[node.name] == _references(node)[node.name]:
                    dead.append(f"{path.name}:{node.lineno} {node.name}")
    assert not dead
