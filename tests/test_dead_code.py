"""Every public module-level function in `src/amprl` has a reference in `src/`
outside its own definition, or an entry in the allowlist saying why not.

A reference is a use that resolves to the module defining the name: a bare
name defined in or imported into the using module, or an attribute of a name
bound to a module of the package. Imports are followed through package
`__init__` re-exports; `src/` imports its own modules relatively. The
re-export itself is not a use, and neither is an attribute of any other
object (`np.tanh` does not reference a `tanh` of the package).
"""
import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "amprl"

# "<module>.<function>": why it stays without a caller in src/
ALLOWED = {
    "alignment.identity_global": "the benchmark's cluster check recomputes identities with it",
    "alignment.align_local": "the benchmark's novelty check recomputes the best hits with it",
    "policy.sequence_log_probs": "the benchmark's sample_rescore check rescores sampled peptides with it",
    "numerics.tensor.softmax": "benchmarks/tracing.py wraps it by name, and it goes with ROADMAP item 2",
}


def _modules(root):
    """Module name (relative to the package, "" for its root) -> (AST, is a package)."""
    out = {}
    for path in sorted(root.rglob("*.py")):
        parts = path.relative_to(root).with_suffix("").parts
        is_package = parts[-1] == "__init__"
        name = ".".join(parts[:-1] if is_package else parts)
        out[name] = (ast.parse(path.read_text(encoding="utf-8")), is_package)
    return out


def _join(*parts):
    return ".".join(p for p in parts if p)


def _bindings(module, tree, is_package, modules):
    """Local name -> ("module", name) or ("name", (module, name)) for each relative import."""
    package = module if is_package else module.rpartition(".")[0]
    out = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            base = package
            for _ in range(node.level - 1):
                base = base.rpartition(".")[0]
            source = _join(base, node.module)
            for alias in node.names:
                sub = _join(source, alias.name)
                out[alias.asname or alias.name] = ("module", sub) if sub in modules else ("name", (source, alias.name))
    return out


def _unreferenced(root=SRC):
    modules = _modules(root)
    defs = {m: {s.name for s in tree.body if isinstance(s, ast.FunctionDef)} for m, (tree, _) in modules.items()}
    binds = {m: _bindings(m, tree, pkg, modules) for m, (tree, pkg) in modules.items()}

    def resolve(module, name, depth=0):
        """(module, name) of the definition that `name` looked up in `module` reaches."""
        if name in defs.get(module, ()):
            return module, name
        kind, target = binds.get(module, {}).get(name, (None, None))
        if kind == "name" and depth < 10:
            return resolve(*target, depth + 1)
        return None

    def module_of(node, module):
        """The package module an expression names, if it names one."""
        if isinstance(node, ast.Name):
            kind, target = binds[module].get(node.id, (None, None))
            return target if kind == "module" else None
        if isinstance(node, ast.Attribute):
            parent = module_of(node.value, module)
            return _join(parent, node.attr) if parent is not None and _join(parent, node.attr) in modules else None
        return None

    used = set()
    for module, (tree, _) in modules.items():
        for stmt in tree.body:
            for sub in ast.walk(stmt):
                if isinstance(sub, ast.Name):
                    target = resolve(module, sub.id)
                elif isinstance(sub, ast.Attribute):
                    owner = module_of(sub.value, module)
                    target = None if owner is None else resolve(owner, sub.attr)
                else:
                    continue
                # a function's own body does not keep it alive
                if target is not None and not (
                    isinstance(stmt, ast.FunctionDef) and target == (module, stmt.name)
                ):
                    used.add(target)
    return sorted(
        _join(module, name)
        for module, names in defs.items()
        for name in names
        if not name.startswith("_") and (module, name) not in used
    )


def test_every_public_function_has_a_caller_in_src():
    dead = [name for name in _unreferenced() if name not in ALLOWED]
    assert not dead, f"public functions with no reference in src/: {dead}"


def test_allowlist_holds_only_unreferenced_functions():
    assert sorted(ALLOWED) == sorted(name for name in _unreferenced() if name in ALLOWED)


def test_reexports_and_foreign_attributes_do_not_count_as_references(tmp_path):
    ops = tmp_path / "ops"
    ops.mkdir()
    (ops / "__init__.py").write_text("from .core import tanh, used\n")
    (ops / "core.py").write_text("def tanh(a):\n    return a\n\n\ndef used(a):\n    return a\n")
    (tmp_path / "model.py").write_text(
        "import numpy as np\n\nfrom . import ops as nm\n\n\n"
        "def run(x):\n    return nm.used(np.tanh(x))\n\n\nENTRY = run\n"
    )
    assert _unreferenced(tmp_path) == ["ops.core.tanh"]
