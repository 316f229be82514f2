"""No `<ufunc>.at(` call in `src/amprl`.

An unbuffered `ufunc.at` scatter runs element by element: `np.add.at`
scattering 830 rows of 64 took about 1 ms against 0.1 ms for one
`np.bincount` over the same cells, which sums each cell in the same order.
Any call of a method named `at` counts.
"""
import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "amprl"


def _ufunc_at_calls(root=SRC):
    """"<file>:<line>" of each `.at(` call under `root`."""
    out = []
    for path in sorted(root.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr == "at":
                out.append(f"{path.relative_to(root)}:{node.lineno}")
    return out


def test_src_makes_no_ufunc_at_call():
    calls = _ufunc_at_calls()
    assert not calls, f"ufunc.at calls: {calls}"


def test_the_check_flags_a_planted_call(tmp_path):
    (tmp_path / "mod.py").write_text(
        "\n".join(
            [
                "np.add.at(a, i, b)",  # 1
                "numpy.maximum.at(a, i, b)",  # 2
                "add.at(a, i)",  # 3
                "getattr(np, 'subtract').at(a, i, b)",  # 4
                "np.add(a, b)",
                "np.bincount(i, weights=w)",
                "at(a, i)",
                "scatter = table.at",
                "'np.add.at(a, i, b)'",
            ]
        )
        + "\n"
    )
    assert _ufunc_at_calls(tmp_path) == [f"mod.py:{n}" for n in range(1, 5)]
