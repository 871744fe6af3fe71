import ast
import pathlib
import types

import etrcast


def test_the_root_defines_only_its_version():
    """The modules are the interface: ``from etrcast import cli, dataio, model``.

    The package root holds ``__version__`` and, once imported, its submodules;
    it re-exports no name of theirs.
    """
    public = {name: value for name, value in vars(etrcast).items() if not name.startswith("_")}
    others = sorted(
        name
        for name, value in public.items()
        if not (isinstance(value, types.ModuleType) and value.__name__ == f"etrcast.{name}")
    )
    assert others == []
    assert not hasattr(etrcast, "__all__")
    assert isinstance(etrcast.__version__, str)


def test_only_the_reference_modules_name_the_event_reference():
    """One data model: columns. ``EventRef`` serves the benchmark set-up alone.

    Only ``data`` (which defines it), ``dataio`` (``Dataset.split_events``) and
    ``training`` (``encode_events``) may name it, and no module may define a
    per-revision class again. This test goes with ``EventRef``, once the
    benchmark harness reads ``Dataset.split_tables()``.
    """
    naming, per_revision = set(), []
    for path in sorted(pathlib.Path(etrcast.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            # a Name's id, an Attribute's attr, an import alias's or a definition's name
            if "EventRef" in {getattr(node, key, None) for key in ("id", "attr", "name")}:
                naming.add(path.name)
            if isinstance(node, ast.ClassDef):
                fields = {
                    item.target.id
                    for item in node.body
                    if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)
                }
                if "Revision" in node.name or "timestamp" in fields:
                    per_revision.append(f"{path.name}:{node.name}")
    assert naming == {"data.py", "dataio.py", "training.py"}
    assert per_revision == []


def test_no_module_uses_assert():
    # python -O strips assert statements, so a check written as one would vanish
    asserts = [
        f"{path.name}:{node.lineno}"
        for path in sorted(pathlib.Path(etrcast.__file__).parent.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert asserts == []


def test_only_cli_run_writes_the_run_manifest():
    """One run record: commands note what they did, and ``cli.run`` writes the manifest.

    No command reads the wall clock either; the record holds the start time.
    """
    calls = {}  # "<module>.<function>" -> the names it calls
    for path in sorted(pathlib.Path(etrcast.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.FunctionDef):
                called = {ast.unparse(c.func) for c in ast.walk(node) if isinstance(c, ast.Call)}
                calls[f"{path.stem}.{node.name}"] = called
    manifest_writers = {"write_run_manifest", "cli.write_run_manifest"}
    assert [name for name, called in calls.items() if called & manifest_writers] == ["cli.run"]
    clocked = [name for name, called in calls.items() if ".cmd_" in name and "time.time" in called]
    assert clocked == []


def test_only_token_batch_builds_a_sequence_batch():
    """One batch builder: ``model.token_batch`` holds the only ``SequenceBatch(`` call."""
    builds = lambda node: (
        isinstance(node, ast.Call) and ast.unparse(node.func).split(".")[-1] == "SequenceBatch"
    )
    calls, builders = 0, []
    for path in sorted(pathlib.Path(etrcast.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        calls += sum(map(builds, ast.walk(tree)))
        builders += [
            f"{path.stem}.{node.name}"
            for node in ast.walk(tree)
            if isinstance(node, ast.FunctionDef) and any(map(builds, ast.walk(node)))
        ]
    assert (calls, builders) == (1, ["model.token_batch"])
