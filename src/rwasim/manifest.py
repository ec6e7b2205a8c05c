"""Run records: parameter echo plus input and output inventory for
reproducibility.

Every CLI command records the exact argument vector (minus the output
directory) and the SHA-256 of every input file it read, so `rwasim replay`
can regenerate byte-identical numeric outputs on the same numpy and OpenBLAS
kernels, or refuse when an input has changed.
"""
from __future__ import annotations

import hashlib
import json
from pathlib import Path

from . import __version__
from .csvio import write_json

MANIFEST_NAME = "manifest.json"


class Run:
    """What one command reads and writes, recorded as it happens.

    The output directory is created by the first `output`, so a command
    that fails before writing leaves none behind.
    """

    def __init__(self, out, argv: list[str]):
        self.out = Path(out)
        self.argv = argv  # CLI tokens, output directory excluded
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


def read_manifest(path) -> dict:
    with open(path) as fh:
        doc = json.load(fh)
    doc.setdefault("inputs", {})
    doc.setdefault("version", "unknown")
    return doc


def file_sha256(path) -> str:
    """Hex SHA-256 of a file's bytes."""
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()
