"""Every public module-level function in `src/amprl` has a reference in `src/`
outside its own definition, or an entry in the allowlist saying why not.

A reference is a name, an attribute or an import of that name, so a function
re-exported by its package's `__init__` counts as referenced.
"""
import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "amprl"

# "<module>.<function>": why it stays without a caller in src/
ALLOWED = {
    "alignment.identity_global": "the benchmark's cluster check recomputes identities with it",
    "alignment.align_local": "the benchmark's novelty check recomputes the best hits with it",
    "policy.sequence_log_probs": "the benchmark's sample_rescore check rescores sampled peptides with it",
}


def _names(node):
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr
        elif isinstance(sub, ast.alias):
            yield sub.asname or sub.name


def _unreferenced():
    trees = {path: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(SRC.rglob("*.py"))}
    # names used by each top-level statement of each module
    used = [(stmt, set(_names(stmt))) for tree in trees.values() for stmt in tree.body]
    out = []
    for path, tree in trees.items():
        for stmt in tree.body:
            if isinstance(stmt, ast.FunctionDef) and not stmt.name.startswith("_"):
                if not any(stmt.name in names for other, names in used if other is not stmt):
                    out.append(".".join(path.relative_to(SRC).with_suffix("").parts + (stmt.name,)))
    return out


def test_every_public_function_has_a_caller_in_src():
    dead = [name for name in _unreferenced() if name not in ALLOWED]
    assert not dead, f"public functions with no reference in src/: {dead}"


def test_allowlist_holds_only_unreferenced_functions():
    assert sorted(ALLOWED) == sorted(name for name in _unreferenced() if name in ALLOWED)
