import ast
import pathlib

import etrcast


def test_every_export_resolves():
    # an export left behind by a deletion otherwise fails only under `import *`
    missing = [name for name in etrcast.__all__ if not hasattr(etrcast, name)]
    assert missing == []


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
    assert not {"EventRef", "EventSeries", "Revision"} & set(etrcast.__all__)
