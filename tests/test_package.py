import ast
from pathlib import Path

import linkgraph


def test_star_import_binds_exactly_the_imported_public_names():
    namespace = {}
    exec("from linkgraph import *", namespace)
    assert all(name in namespace for name in linkgraph.__all__)
    # a name deleted from the package but left in one of the two lists fails here
    tree = ast.parse(Path(linkgraph.__file__).read_text(encoding="utf-8"))
    imported = [
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
        if not (alias.asname or alias.name).startswith("_")
    ]
    assert sorted(linkgraph.__all__) == sorted(imported)
