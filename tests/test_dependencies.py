"""The package depends on the standard library and numpy only, and only graphs.py reads packed graph rows."""

import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "marketrec"


def test_package_imports_only_stdlib_and_numpy():
    sources = sorted(PACKAGE.glob("*.py"))
    assert sources
    outside = []
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                modules = [node.module]
            else:
                continue
            for module in modules:
                top = module.partition(".")[0]
                if top not in sys.stdlib_module_names and top != "numpy":
                    outside.append(f"{path.name}:{node.lineno} imports {module}")
    assert outside == []


# packed rows are graphs.py's format: other modules ask an InteractionGraph, never read its rows
PACKED_ROW_NAMES = {"unpackbits", "packbits", "row_slices", "CHUNK_BYTES"}


def test_only_graphs_reads_packed_rows():
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "graphs.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
            # an EvalReport's ``report.rows`` is its table of report rows, not a graph's
            if isinstance(node, ast.Attribute) and ast.unparse(node) != "report.rows":
                names = {node.attr} & (PACKED_ROW_NAMES | {"rows"})
            elif isinstance(node, ast.Name):
                names = {node.id} & PACKED_ROW_NAMES
            elif isinstance(node, ast.ImportFrom):
                names = {alias.name for alias in node.names} & PACKED_ROW_NAMES
            else:
                continue
            found += [f"{path.name}:{node.lineno} uses {name}" for name in sorted(names)]
    assert found == []
