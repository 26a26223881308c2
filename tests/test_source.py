"""Static checks of the package source: what a deletion leaves behind."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted((ROOT / "src" / "hopquant").glob("*.py"))


def _parse(path):
    return ast.parse(path.read_text(), str(path.relative_to(ROOT)))


def test_no_module_imports_a_name_it_never_uses():
    # deleting a feature leaves its imports behind
    unused = []
    for path in MODULES:
        if path.name == "__init__.py":  # its imports are the package's re-exports
            continue
        tree = _parse(path)
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = (alias.asname or alias.name).split(".")[0]
                    if name not in used:
                        unused.append(f"{path.relative_to(ROOT)}:{node.lineno}: {name}")
    assert not unused, "these imported names are never used:\n" + "\n".join(unused)


def test_no_private_module_level_name_is_never_read():
    # deleting a caller leaves its private helpers behind
    trees = {path: _parse(path) for path in MODULES}
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
    unread = []
    for path, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            else:
                continue
            unread += [f"{path.relative_to(ROOT)}:{node.lineno}: {name}" for name in names
                       if name.startswith("_") and not name.startswith("__")
                       and name not in read]
    assert not unread, ("these private module-level names are never read in "
                        "src/hopquant:\n" + "\n".join(unread))


def test_no_module_but_linop_imports_scipy():
    # op.matrix, and the CSR kernels' fallback, in linop.py are the package's one scipy import
    imports = []
    for path in MODULES:
        if path.name == "linop.py":
            continue
        for node in ast.walk(_parse(path)):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            imports += [f"{path.relative_to(ROOT)}:{node.lineno}: {name}" for name in names
                        if name.split(".")[0] == "scipy"]
    assert not imports, "scipy is imported outside src/hopquant/linop.py:\n" + "\n".join(imports)


def test_no_module_but_linop_calls_an_eigensolver():
    # eigs_extremal in linop.py is the package's one eigenpair solver, and the
    # flat-translation blocks' definiteness test is there too
    solvers = {"eigh", "eigvalsh", "eig", "eigvals", "cholesky", "cholesky_lo"}
    calls = []
    for path in MODULES:
        if path.name == "linop.py":
            continue
        for node in ast.walk(_parse(path)):
            if isinstance(node, ast.Attribute):
                names = [node.attr]
            elif isinstance(node, ast.Name):
                names = [node.id]
            elif isinstance(node, ast.ImportFrom):
                names = [alias.name for alias in node.names]
            else:
                continue
            calls += [f"{path.relative_to(ROOT)}:{node.lineno}: {name}" for name in names
                      if name in solvers]
    assert not calls, "an eigensolver is named outside src/hopquant/linop.py:\n" + "\n".join(calls)


def test_no_module_but_linop_reads_an_operators_columns():
    # the assembler's slot record is the one description of H's layout outside
    # linop.py, so no other module reads an operator's CSR columns; np.indices is exempt
    reads = []
    for path in MODULES:
        if path.name == "linop.py":
            continue
        for node in ast.walk(_parse(path)):
            if (isinstance(node, ast.Attribute) and node.attr in ("indices", "indptr")
                    and not (isinstance(node.value, ast.Name) and node.value.id == "np")):
                reads.append(f"{path.relative_to(ROOT)}:{node.lineno}: .{node.attr}")
    assert not reads, ("an operator's CSR columns are read outside src/hopquant/linop.py:\n"
                       + "\n".join(reads))
