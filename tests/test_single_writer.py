"""The package writes files through one module and makes directories in one
place.

Every CSV and JSON file goes through `csvio`; the device YAML written by
`device.save_device_spec` is the one other file writer.  Only the run
recorder, `manifest.Run.output`, creates a directory, so no command can
leave an output directory that its manifest does not describe.  These tests
parse the package with `ast`, without importing it.
"""
import ast

from package_ast import calls


def callee(node: ast.Call) -> str:
    return ast.unparse(node.func)


def opens_for_writing(node: ast.Call) -> bool:
    if callee(node) != "open":
        return False
    mode = node.args[1] if len(node.args) > 1 else next(
        (kw.value for kw in node.keywords if kw.arg == "mode"), None)
    if mode is None:
        return False
    # a mode that is not a literal could write
    return not isinstance(mode, ast.Constant) or any(c in mode.value for c in "wax+")


def test_files_are_written_only_by_csvio():
    writers = [(module, scope, callee(node)) for module, scope, node in calls()
               if opens_for_writing(node)
               or callee(node) == "json.dump"
               or callee(node).endswith((".write_text", ".write_bytes"))]
    assert sorted(writers) == [("csvio", "write_csv", "open"),
                               ("csvio", "write_json", "json.dump"),
                               ("csvio", "write_json", "open"),
                               ("device", "save_device_spec", "open")]


def test_directories_are_made_only_by_the_run_recorder():
    found = [(module, scope) for module, scope, node in calls()
             if callee(node).endswith(".mkdir") or callee(node) in (
                 "os.mkdir", "os.makedirs")]
    assert found == [("manifest", "output")]
