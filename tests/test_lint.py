"""Lint checks written against the standard library alone.

Every imported name in a ``tailica`` module is used, every private
top-level name is referenced in the package besides its definition, every
name a module exports in ``__all__`` exists and ``tailica`` exports exactly
those names, and the package imports nothing beyond the standard library
and numpy, and no module that starts threads or processes.  The one
``open()`` is in ``panel._open_text`` and names its encoding, ``cli``
imports no ``csv``, and no ``*_from_csv`` reader outside ``panel`` calls
``float``.  Every benchmark record ``BENCH_<n>.json`` that the
documents or the package cite is committed.
The solver calls ``np.linalg.svd`` only in the helper that retries it.
"""

import ast
import importlib
import json
import pathlib
import re
import sys

import tailica

SRC = pathlib.Path(tailica.__file__).parent
MODULES = sorted(path for path in SRC.glob("*.py") if path.name != "__init__.py")
ROOT = SRC.parents[1]


def test_no_unused_imports():
    unused = []
    for path in MODULES:
        tree = ast.parse(path.read_text())
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    imported[alias.asname or alias.name.split(".")[0]] = node.lineno
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                for alias in node.names:
                    imported[alias.asname or alias.name] = node.lineno
        # an attribute chain such as np.linalg.svd is rooted in a Name node
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{path.name}:{line} {name}" for name, line in imported.items() if name not in used]
    assert not unused, "unused imports: " + ", ".join(unused)


def test_every_private_name_is_used_in_the_package():
    # a private helper that only tests call is API that exists for its tests
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    unused = []
    for stem, tree in trees.items():
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        for other in trees.values():
            for node in ast.walk(other):
                if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module == stem:
                    used.update(alias.name for alias in node.names)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                names = [n.id for n in ast.walk(node) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)]
            else:
                continue
            private = [name for name in names if name.startswith("_") and not name.startswith("__")]
            unused += [f"{stem}.py:{node.lineno} {name}" for name in private if name not in used]
    assert not unused, "private names nothing in the package uses: " + ", ".join(unused)


def test_all_entries_resolve():
    modules = [tailica] + [importlib.import_module(f"tailica.{path.stem}") for path in MODULES]
    missing = [
        f"{module.__name__}.{name}"
        for module in modules
        for name in getattr(module, "__all__", ())
        if not hasattr(module, name)
    ]
    assert not missing, "stale __all__ entries: " + ", ".join(missing)


def test_package_exports_each_library_modules_all():
    # each module's __all__ is the one declaration of the public API; errors.py,
    # which has none, exports its public classes, and cli.py is the entry point
    exported = {"__version__"}
    for path in MODULES:
        if path.stem != "cli":
            module = importlib.import_module(f"tailica.{path.stem}")
            exported.update(getattr(module, "__all__", [name for name in vars(module) if not name.startswith("_")]))
    assert set(tailica.__all__) == exported


def test_runtime_imports_only_the_standard_library_and_numpy():
    allowed = set(sys.stdlib_module_names) | {"numpy"}
    foreign = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            top = {name.split(".")[0] for name in names}
            foreign += [f"{path.name}:{node.lineno} {name}" for name in sorted(top - allowed)]
    assert not foreign, "imports outside the standard library and numpy: " + ", ".join(foreign)


def test_no_module_imports_a_thread_or_process_pool():
    # BLAS threads are the package's only parallelism
    banned = {"threading", "concurrent", "multiprocessing", "_thread"}
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            found += [f"{path.name}:{node.lineno} {name}" for name in names if name.split(".")[0] in banned]
    assert not found, "thread or process imports: " + ", ".join(found)


def test_every_open_names_an_encoding():
    # without one, file text follows the machine's locale; panel._open_text is
    # the one open(), so every file keeps its UTF-8, byte-order-mark, newline
    # and decode-error rule
    tree = ast.parse((SRC / "panel.py").read_text(encoding="utf-8"))
    (helper,) = [node for node in tree.body if isinstance(node, ast.FunctionDef) and node.name == "_open_text"]
    inside = {id(node) for node in ast.walk(helper)}
    bare, outside = [], []
    for path in sorted(SRC.glob("*.py")):
        nodes = ast.walk(tree) if path.name == "panel.py" else ast.walk(ast.parse(path.read_text()))
        for node in nodes:
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "open":
                if not any(keyword.arg == "encoding" for keyword in node.keywords):
                    bare.append(f"{path.name}:{node.lineno}")
                if id(node) not in inside:
                    outside.append(f"{path.name}:{node.lineno}")
    assert not bare, "open() without encoding=: " + ", ".join(bare)
    assert not outside, "open() outside panel._open_text: " + ", ".join(outside)


def test_the_cli_leaves_csv_to_the_panel_module():
    # panel turns every file's text into records: one tokenizer for the package
    importers = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = [alias.name for node in ast.walk(tree) if isinstance(node, ast.Import) for alias in node.names]
        imported += [node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) and not node.level]
        if "csv" in imported:
            importers.append(path.name)
    assert importers == ["panel.py"]


def test_no_reader_outside_panel_parses_a_float():
    # panel._floats checks a record's field count, then names the column of a bad field;
    # a bare name counts too, so map(float, row) is found
    found = []
    for path in MODULES:
        if path.name == "panel.py":
            continue
        for reader in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(reader, ast.FunctionDef) and reader.name.endswith("_from_csv"):
                names = (node for statement in reader.body for node in ast.walk(statement))
                found += [f"{path.name}:{node.lineno}" for node in names if isinstance(node, ast.Name) and node.id == "float"]
    assert not found, "float in a reader outside panel: " + ", ".join(found)


def test_every_cited_benchmark_record_exists_and_loads():
    # a speed claim counts only if the record it cites is committed
    texts = [ROOT / name for name in ("README.md", "ROADMAP.md", "CHANGES.md")]
    texts += sorted(SRC.glob("*.py"))
    cited = {name for path in texts for name in re.findall(r"BENCH_\d+\.json", path.read_text(encoding="utf-8"))}
    assert cited, "no benchmark record cited"
    broken = []
    for name in sorted(cited):
        try:
            json.loads((ROOT / name).read_text(encoding="utf-8"))
        except (OSError, ValueError) as exc:
            broken.append(f"{name} ({type(exc).__name__})")
    assert not broken, "cited benchmark records missing or not JSON: " + ", ".join(broken)


def test_ica_calls_the_svd_only_through_its_retrying_helper():
    # a later decomposition in the solver cannot skip the retry on the transpose
    tree = ast.parse((SRC / "ica.py").read_text(encoding="utf-8"))
    (helper,) = [node for node in tree.body if isinstance(node, ast.FunctionDef) and node.name == "_svd"]
    inside = {id(node) for node in ast.walk(helper)}
    calls = [
        node for node in ast.walk(tree)
        if (isinstance(node, ast.Attribute) and node.attr == "svd") or (isinstance(node, ast.Name) and node.id == "svd")
    ]  # fmt: skip
    outside = [f"ica.py:{node.lineno}" for node in calls if id(node) not in inside]
    assert not outside, "np.linalg.svd outside ica._svd: " + ", ".join(outside)
    assert len(calls) == 2, "ica._svd no longer calls np.linalg.svd on the matrix and its transpose"
