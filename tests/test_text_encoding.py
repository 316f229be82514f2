"""Every text read or write in `src/amprl` names its encoding.

Every writer writes UTF-8, so a reader that falls back to the locale's
encoding fails on a non-ASCII byte under a C locale. A `read_text` or
`write_text` call, and an `open` call whose mode is not a binary one, must
pass `encoding="utf-8"`. A mode counts as binary only when it is a string
literal holding "b".
"""
import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "amprl"


def _mode(call):
    """The mode argument of an `open` call, or None when it is left at its default."""
    for kw in call.keywords:
        if kw.arg == "mode":
            return kw.value
    # open(file, mode) as a builtin; path.open(mode) as a method
    index = 1 if isinstance(call.func, ast.Name) else 0
    return call.args[index] if len(call.args) > index else None


def _is_text_io(call):
    func = call.func
    name = func.id if isinstance(func, ast.Name) else func.attr if isinstance(func, ast.Attribute) else None
    if name in ("read_text", "write_text"):
        return isinstance(func, ast.Attribute)
    if name != "open":
        return False
    mode = _mode(call)
    return not (isinstance(mode, ast.Constant) and isinstance(mode.value, str) and "b" in mode.value)


def _names_utf8(call):
    return any(
        kw.arg == "encoding" and isinstance(kw.value, ast.Constant) and kw.value.value == "utf-8"
        for kw in call.keywords
    )


def _unencoded(root=SRC):
    """"<file>:<line>" of each text read or write under `root` that does not pass encoding="utf-8"."""
    out = []
    for path in sorted(root.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and _is_text_io(node) and not _names_utf8(node):
                out.append(f"{path.relative_to(root)}:{node.lineno}")
    return out


def test_every_text_read_and_write_in_src_is_utf8():
    bare = _unencoded()
    assert not bare, f"text I/O without encoding=\"utf-8\": {bare}"


def test_the_check_flags_each_kind_of_call(tmp_path):
    (tmp_path / "mod.py").write_text(
        "\n".join(
            [
                "p.read_text()",  # 1
                "p.write_text(t)",  # 2
                "open(p)",  # 3
                "open(p, 'w')",  # 4
                "p.open(mode='a')",  # 5
                "p.read_text(encoding='latin-1')",  # 6
                "open(p, 'w', encoding=enc)",  # 7
                "open(p, m)",  # 8: a mode that is not a literal may be a text one
                "p.read_text(encoding='utf-8')",
                "p.write_text(t, encoding='utf-8')",
                "open(p, 'r', encoding='utf-8')",
                "open(p, 'rb')",
                "open(p, mode='wb')",
                "p.open('rb')",
                "read_text(p)",  # not a method, so not Path.read_text
            ]
        )
        + "\n"
    )
    assert _unencoded(tmp_path) == [f"mod.py:{n}" for n in range(1, 9)]
