"""Every public module-level function and every public method of a class in
`src/amprl` has a reference in `src/` outside its own definition, or an entry
in the allowlist saying why not.

For a function, a reference is a use that resolves to the module defining the
name: a bare name defined in or imported into the using module, or an
attribute of a name bound to a module of the package. Imports are followed
through package `__init__` re-exports; `src/` imports its own modules
relatively. The re-export itself is not a use, and neither is an attribute of
any other object (`np.tanh` does not reference a `tanh` of the package).

For a method, a reference is any attribute access with its name (`x.name`)
outside the method's own body. Types are not resolved, so an access on an
object of another class, or of another library, counts too.

Each field of a config section's dataclass is read the same way: an
attribute access with its name outside its own class. A knob that only its
own range check reads fails, as an uncalled function does.

Every allowlist entry stays only while a top-level module of `benchmarks/`
still names it as a whole word, so a name the benchmark stops using has to
leave `src/`.
"""
import ast
import re
from pathlib import Path

from amprl.config import SECTIONS

SRC = Path(__file__).resolve().parent.parent / "src" / "amprl"
BENCHMARKS = SRC.parent.parent / "benchmarks"

# "<module>.<function>" or "<module>.<class>.<method>": why it stays without a caller in src/
ALLOWED = {
    "alignment.identity_global": "the benchmark's cluster check recomputes identities with it",
    "alignment.align_local": "the benchmark's novelty check recomputes the best hits with it",
    "policy.sequence_log_probs": "the benchmark's sample_rescore check rescores sampled peptides with it",
    "numerics.tensor.softmax": "benchmarks/tracing.py wraps it by name, and it goes with ROADMAP item 2",
    "mic.MicModel.score": "benchmarks/tracing.py wraps it by name, and it goes with ROADMAP item 2",
    "mic.Embedder.embed": "benchmarks/tracing.py wraps it by name, and it goes with ROADMAP item 2",
    "config.mic_config": "the benchmark builds its classifier's config section with it",
    "config.screen_config": "the benchmark's novelty check reads the screen section with it",
    "physchem.descriptor_vector": "benchmarks/tracing.py wraps it by name; src/ computes descriptors per set",
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


def _unreferenced_methods(root=SRC):
    """Public methods of module-level classes whose name no attribute access outside their body uses."""
    methods = {}  # "<module>.<class>.<method>" -> method name
    owners = {}  # attribute name -> the methods (or None outside any method) whose body accesses it
    for module, (tree, _) in _modules(root).items():
        for stmt in tree.body:
            scopes = [(stmt, None)]
            if isinstance(stmt, ast.ClassDef):
                scopes = [(item, None) for item in stmt.body if not isinstance(item, ast.FunctionDef)]
                for item in stmt.body:
                    if isinstance(item, ast.FunctionDef):
                        qualified = _join(module, stmt.name, item.name)
                        if not item.name.startswith("_"):
                            methods[qualified] = item.name
                        scopes.append((item, qualified))
            for node, owner in scopes:
                for sub in ast.walk(node):
                    if isinstance(sub, ast.Attribute):
                        owners.setdefault(sub.attr, set()).add(owner)
    return sorted(q for q, name in methods.items() if not owners.get(name, set()) - {q})


def _unread_fields(classes, root=SRC):
    """Fields of the named module-level classes that no attribute access outside their class reads."""
    fields = {}  # "<module>.<class>.<field>" -> (class, field)
    owners = {}  # attribute name -> the classes of `classes` (or None outside them) whose body accesses it
    for module, (tree, _) in _modules(root).items():
        for stmt in tree.body:
            owner = stmt.name if isinstance(stmt, ast.ClassDef) and stmt.name in classes else None
            if owner is not None:
                for item in stmt.body:
                    if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                        fields[_join(module, owner, item.target.id)] = (owner, item.target.id)
            for sub in ast.walk(stmt):
                if isinstance(sub, ast.Attribute):
                    owners.setdefault(sub.attr, set()).add(owner)
    return sorted(q for q, (owner, name) in fields.items() if not owners.get(name, set()) - {owner})


SECTION_CLASSES = {cls.__name__ for cls in SECTIONS.values()}


def test_every_public_function_has_a_caller_in_src():
    dead = [name for name in _unreferenced() if name not in ALLOWED]
    assert not dead, f"public functions with no reference in src/: {dead}"


def test_every_public_method_has_a_reference_in_src():
    dead = [name for name in _unreferenced_methods() if name not in ALLOWED]
    assert not dead, f"public methods with no reference in src/: {dead}"


def test_every_config_field_is_read_in_src():
    dead = [name for name in _unread_fields(SECTION_CLASSES) if name not in ALLOWED]
    assert not dead, f"config fields nothing in src/ reads: {dead}"


def test_allowlist_holds_only_unreferenced_functions():
    unreferenced = _unreferenced() + _unreferenced_methods() + _unread_fields(SECTION_CLASSES)
    assert sorted(ALLOWED) == sorted(name for name in unreferenced if name in ALLOWED)


def _stale_allowances(allowed, benchmarks=BENCHMARKS, root=SRC):
    """Allowlist entries whose name, after its module, no top-level benchmark module holds as a whole word."""
    modules = [m for m in _modules(root) if m]
    text = "\n".join(path.read_text(encoding="utf-8") for path in sorted(benchmarks.glob("*.py")))
    stale = []
    for entry in allowed:
        module = max((m for m in modules if entry.startswith(m + ".")), key=len)
        if not re.search(rf"\b{re.escape(entry[len(module) + 1 :])}\b", text):
            stale.append(entry)
    return sorted(stale)


def test_every_allowance_is_still_named_by_the_benchmark():
    stale = _stale_allowances(ALLOWED)
    assert not stale, f"allowlist entries benchmarks/ no longer names: {stale}"


def test_an_allowance_expires_when_the_benchmark_stops_naming_it(tmp_path):
    src, bench = tmp_path / "pkg", tmp_path / "bench"
    src.mkdir(), bench.mkdir()
    (src / "model.py").write_text("class Model:\n    def score(self):\n        return 1\n\n\ndef fit():\n    return 0\n")
    (bench / "trace.py").write_text('TRACED = ["Model.score_many", "fit"]\n')
    allowed = {"model.Model.score": "traced", "model.fit": "traced"}
    assert _stale_allowances(allowed, bench, src) == ["model.Model.score"]


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


def test_a_module_level_namespace_references_its_functions_and_a_parameter_does_not(tmp_path):
    # why `policy._TENSOR_OPS` names the ops `_trunk` reaches through its `ops` parameter
    ops = tmp_path / "ops"
    ops.mkdir()
    (ops / "__init__.py").write_text("from .core import gelu, layer_norm\n")
    (ops / "core.py").write_text("def gelu(a):\n    return a\n\n\ndef layer_norm(a):\n    return a\n")
    (tmp_path / "model.py").write_text(
        "from types import SimpleNamespace\n\nfrom . import ops as nm\n\n"
        "TENSOR_OPS = SimpleNamespace(gelu=nm.gelu)\n\n\n"
        "def trunk(x, ops):\n    return ops.layer_norm(ops.gelu(x))\n\n\n"
        "def run(x):\n    return trunk(x, TENSOR_OPS)\n\n\nENTRY = run\n"
    )
    assert _unreferenced(tmp_path) == ["ops.core.layer_norm"]


def test_a_method_needs_an_attribute_access_outside_its_own_body(tmp_path):
    (tmp_path / "model.py").write_text(
        "class Model:\n"
        "    def fit(self):\n        return self.fit()\n\n"
        "    def score(self):\n        return 1\n\n"
        "    def run(self):\n        return self.score()\n\n"
        "    def _private(self):\n        return 0\n\n\n"
        "def main(m):\n    return m.run()\n"
    )
    assert _unreferenced_methods(tmp_path) == ["model.Model.fit"]


def test_a_config_field_needs_a_read_outside_its_own_class(tmp_path):
    (tmp_path / "knobs.py").write_text(
        "from dataclasses import dataclass\n\n\n"
        "@dataclass(frozen=True)\n"
        "class Knobs:\n    used: int = 1\n    checked: int = 2\n    cutoff: float = 0.4\n\n"
        "    def __post_init__(self):\n        assert self.checked > 0\n\n\n"
        "class Other:\n    cutoff: float = 0.5\n\n\n"
        "def run(k):\n    return k.used\n"
    )
    assert _unread_fields({"Knobs"}, tmp_path) == ["knobs.Knobs.checked", "knobs.Knobs.cutoff"]
