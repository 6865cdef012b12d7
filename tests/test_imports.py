"""No module of the package imports a name it never uses.

A name counts as used when the module reads it anywhere, at any depth, or
lists it in __all__. An attribute chain such as np.full reads its root
name, so `import numpy as np` is used by it.
"""

import ast
import pkgutil
from pathlib import Path

import trigrid


def imported_names(tree):
    """(name bound, line) of every import in the module, at any depth."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.partition(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def used_names(tree):
    names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            names |= set(ast.literal_eval(node.value))
    return names


def test_no_module_imports_a_name_it_never_uses():
    package = Path(trigrid.__file__).parent
    modules = [package / f"{info.name}.py" for info in pkgutil.iter_modules([str(package)])]
    modules.append(package / "__init__.py")
    unused = []
    for path in modules:
        tree = ast.parse(path.read_text(), str(path))
        used = used_names(tree)
        unused += [f"{path.name}:{line} {name}" for name, line in imported_names(tree) if name not in used]
    assert len(modules) >= 8
    assert unused == []
