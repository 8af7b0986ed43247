"""The package depends on the standard library and numpy only; only graphs.py reads packed graph rows and light
neighbour lists, and only simfeatures.py reads the entity index of an EntitySets, which only __init__ and keep_cf_sums
assign. The count kernels return every user's entry and leave k-NN's cut to SimilarityContext._scores. No package
line is wider than MAX_LINE, so its line count cannot fall by packing more onto a line."""

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


MAX_LINE = 120


def test_package_lines_fit_the_width():
    sources = sorted(PACKAGE.glob("*.py"))
    assert sources
    wide = [
        f"{path.name}:{number} is {len(line)} characters"
        for path in sources
        for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
        if len(line) > MAX_LINE
    ]
    assert wide == []


# packed rows are graphs.py's format: other modules ask an InteractionGraph, never read its rows
PACKED_ROW_NAMES = {"unpackbits", "packbits", "row_slices", "CHUNK_BYTES"}
# so are the light rows' neighbour lists
LIGHT_LIST_NAMES = {"light", "list_starts", "list_positions"}


def graph_attributes() -> set[str]:
    """Every attribute that graphs.InteractionGraph assigns on self."""
    tree = ast.parse((PACKAGE / "graphs.py").read_text(encoding="utf-8"))
    cls = next(node for node in tree.body if isinstance(node, ast.ClassDef) and node.name == "InteractionGraph")
    return {
        node.attr for node in ast.walk(cls)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store) and ast.unparse(node.value) == "self"
    }


def test_only_graphs_reads_packed_rows():
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "graphs.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
            # an EvalReport's ``report.rows`` is its table of report rows, not a graph's
            if isinstance(node, ast.Attribute) and ast.unparse(node) != "report.rows":
                names = {node.attr} & (PACKED_ROW_NAMES | LIGHT_LIST_NAMES | {"rows"})
            elif isinstance(node, ast.Name):
                names = {node.id} & PACKED_ROW_NAMES
            elif isinstance(node, ast.ImportFrom):
                names = {alias.name for alias in node.names} & PACKED_ROW_NAMES
            else:
                continue
            found += [f"{path.name}:{node.lineno} uses {name}" for name in sorted(names)]
    assert found == []
    assert LIGHT_LIST_NAMES | {"rows"} <= graph_attributes()  # the check knows the containers it guards


# the entity index is simfeatures.py's format: other modules ask an EntitySets for these, never read its index or memo
ENTITY_SETS_API = {"users", "ids", "degrees", "shared_counts", "cf_sums", "keep_cf_sums", "codes"}
CSR_NAMES = {"indptr", "indices"}


def entity_sets_attributes() -> set[str]:
    """Every attribute that simfeatures.EntitySets defines: its methods and properties, and what it assigns on self."""
    tree = ast.parse((PACKAGE / "simfeatures.py").read_text(encoding="utf-8"))
    cls = next(node for node in tree.body if isinstance(node, ast.ClassDef) and node.name == "EntitySets")
    names = {node.name for node in cls.body if isinstance(node, ast.FunctionDef)} - {"__init__"}
    for node in ast.walk(cls):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store) and ast.unparse(node.value) == "self":
            names.add(node.attr)
    return names


def test_only_simfeatures_reads_the_entity_index():
    attributes = entity_sets_attributes()
    internal = attributes - ENTITY_SETS_API
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "simfeatures.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
            if isinstance(node, ast.Attribute):
                # an object sets its own attributes: a graph's ``self.degrees`` is not an EntitySets'
                if not isinstance(node.ctx, ast.Load) and node.attr in attributes and ast.unparse(node.value) != "self":
                    found.append(f"{path.name}:{node.lineno} assigns .{node.attr}")
                names = {node.attr} & (internal | CSR_NAMES)
            elif isinstance(node, ast.Name):
                names = {node.id} & CSR_NAMES
            elif isinstance(node, ast.arg):
                names = {node.arg} & CSR_NAMES
            else:
                continue
            found += [f"{path.name}:{node.lineno} uses {name}" for name in sorted(names)]
    assert found == []
    assert {"csr", "holders"} <= internal and ENTITY_SETS_API <= attributes  # the check knows the index it guards



# past __init__, only keep_cf_sums changes an EntitySets' attributes: it publishes a finished block whole, at once
ENTITY_SETS_WRITERS = {"__init__", "keep_cf_sums"}


def test_only_init_and_keep_cf_sums_assign_entity_set_attributes():
    tree = ast.parse((PACKAGE / "simfeatures.py").read_text(encoding="utf-8"))
    cls = next(node for node in tree.body if isinstance(node, ast.ClassDef) and node.name == "EntitySets")
    methods = {node.name: node for node in cls.body if isinstance(node, ast.FunctionDef)}
    assigned = {name: [] for name in methods}
    for name, method in methods.items():
        for node in ast.walk(method):
            stored = isinstance(node, ast.Attribute) and not isinstance(node.ctx, ast.Load)
            if stored and ast.unparse(node.value) == "self":
                assigned[name].append(f"{name}:{node.lineno} assigns .{node.attr}")
            elif isinstance(node, ast.Call) and ast.unparse(node.func) in {"setattr", "delattr", "vars"}:
                assigned[name].append(f"{name}:{node.lineno} calls {ast.unparse(node.func)}")
    assert [line for name in sorted(methods.keys() - ENTITY_SETS_WRITERS) for line in assigned[name]] == []
    assert len(assigned["keep_cf_sums"]) == 1  # one assignment replaces the memo whole
    assert ENTITY_SETS_WRITERS <= methods.keys()  # the check knows the methods it exempts


# k-NN's one cut of the positive entries is SimilarityContext._scores': the count kernels return every user's entry
COUNT_KERNELS = {("graphs.py", "InteractionGraph"): {"shared_counts", "adamic_adar"},
                 ("simfeatures.py", "EntitySets"): {"shared_counts"}}
CUT_NAMES = {"nonzero_except", "flatnonzero", "nonzero"}


def test_count_kernels_leave_the_cut_to_scores():
    found, checked = [], set()
    for (module, class_name), kernels in COUNT_KERNELS.items():
        tree = ast.parse((PACKAGE / module).read_text(encoding="utf-8"))
        cls = next(node for node in tree.body if isinstance(node, ast.ClassDef) and node.name == class_name)
        for method in cls.body:
            if isinstance(method, ast.FunctionDef) and method.name in kernels:
                checked.add((class_name, method.name))
                for node in ast.walk(method):
                    name = node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", None)
                    if name in CUT_NAMES:
                        found.append(f"{module}:{node.lineno} {class_name}.{method.name} uses {name}")
    assert found == []
    assert checked == {(c, k) for (_, c), kernels in COUNT_KERNELS.items() for k in kernels}  # the kernels exist
