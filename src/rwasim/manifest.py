"""Run records: parameter echo plus input and output inventory for
reproducibility, in the one module that knows the record's format.

A run records its command, its argv without any form of --out, the SHA-256
of every input file it read, its params, seed and outputs, and the rwasim
version.  `replay_argv` gives the argv that re-runs it, byte for byte on the
same numpy and OpenBLAS kernels, and refuses with a ValueError a manifest of
another version, one whose inputs have changed, and a file that is not a
manifest: no JSON object, inputs or argv of the wrong shape, or an argv
that is itself a replay.
"""
from __future__ import annotations

import hashlib
import json
from pathlib import Path

from . import __version__
from .csvio import write_json

MANIFEST_NAME = "manifest.json"
OUT_FLAG = "--out"


class Run:
    """What one command reads and writes, recorded as it happens.

    The output directory is created by the first `output`, so a command
    that fails before writing leaves none behind.
    """

    def __init__(self, out, argv: list[str]):
        self.out = Path(out)
        self.argv = _without_out(argv)  # CLI tokens, output directory excluded
        self.inputs: dict[str, str] = {}  # input file path -> SHA-256 of its bytes
        self.outputs: list[str] = []  # file names relative to the output directory

    def input(self, path: str) -> None:
        self.inputs[path] = file_sha256(path)

    def output(self, name: str) -> Path:
        """Create the output directory if need be, record `name`, return its path."""
        self.out.mkdir(parents=True, exist_ok=True)
        self.outputs.append(name)
        return self.out / name

    def write(self, command: str, params: dict, seed: int | None) -> None:
        """Write manifest.json, which lists the outputs recorded before it."""
        doc = {"command": command, "argv": self.argv, "inputs": self.inputs,
               "params": params, "seed": seed, "outputs": list(self.outputs),
               "version": __version__}
        write_json(self.output(MANIFEST_NAME), doc)


def _without_out(argv: list[str]) -> list[str]:
    """`argv` less every token argparse takes for --out: the flag or a prefix
    of it from `--o`, which no other flag shares, with its value joined by
    `=` or in the next token."""
    kept = []
    tokens = iter(argv)
    for tok in tokens:
        flag, eq, _ = tok.partition("=")
        if len(flag) < 3 or not OUT_FLAG.startswith(flag):
            kept.append(tok)
        elif not eq:
            next(tokens, None)
    return kept


def read_manifest(path) -> dict:
    """The record at `path`, which must hold a JSON object."""
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except (ValueError, RecursionError) as exc:  # bad UTF-8 or JSON, or too deep
            raise _not_a_manifest(path, str(exc)) from exc
    if not isinstance(doc, dict):
        raise _not_a_manifest(path, "it holds no JSON object")
    return doc


def replay_argv(path, out) -> list[str]:
    """The argv that re-runs the manifest at `path` into the directory `out`."""
    doc = read_manifest(path)
    version = doc.get("version", "unknown")
    inputs, argv = doc.get("inputs"), doc.get("argv")
    if version != __version__:  # before the shape, which older versions lack
        raise ValueError(f"{path} was written by rwasim {version}; "
                         f"this is rwasim {__version__}, whose outputs may differ. "
                         "Refusing to replay.")
    if not (isinstance(inputs, dict) and isinstance(argv, list) and argv
            and all(isinstance(text, str) for text in [*inputs.values(), *argv])):
        raise _not_a_manifest(path, "it needs inputs that map paths to SHA-256 "
                                    "digests and an argv of strings")
    if argv[0] == "replay":  # which would re-run itself without end
        raise _not_a_manifest(path, "its argv is a replay, not a command")
    for input_path, digest in inputs.items():
        if file_sha256(input_path) != digest:
            raise ValueError(f"input {input_path} has changed since the recorded run "
                             "(SHA-256 differs). Refusing to replay.")
    return argv + [OUT_FLAG, str(out)]


def _not_a_manifest(path, reason: str) -> ValueError:
    return ValueError(f"{path} is not an rwasim manifest: {reason}. Refusing to replay.")


def file_sha256(path) -> str:
    """Hex SHA-256 of a file's bytes."""
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()
