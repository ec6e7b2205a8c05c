"""Run manifests: parameter echo plus output inventory for reproducibility.

Every CLI command records the exact argument vector (minus the output
directory) and the SHA-256 of every input file it read, so `rwasim replay`
can regenerate byte-identical numeric outputs anywhere, or refuse when an
input has changed.
"""
from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

from . import __version__

MANIFEST_NAME = "manifest.json"


@dataclass(frozen=True)
class RunManifest:
    command: str
    argv: tuple[str, ...]  # CLI tokens, output directory excluded
    inputs: dict[str, str]  # input file path -> SHA-256 of its bytes
    params: dict
    seed: int | None
    outputs: tuple[str, ...]  # file names relative to the output directory
    version: str = __version__

    def to_dict(self) -> dict:
        return {
            "command": self.command,
            "argv": list(self.argv),
            "inputs": self.inputs,
            "params": self.params,
            "seed": self.seed,
            "outputs": list(self.outputs),
            "version": self.version,
        }

    def write(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_dict(), fh, indent=2)
            fh.write("\n")


def read_manifest(path) -> RunManifest:
    with open(path) as fh:
        doc = json.load(fh)
    return RunManifest(
        command=doc["command"],
        argv=tuple(doc["argv"]),
        inputs=doc.get("inputs", {}),
        params=doc.get("params", {}),
        seed=doc.get("seed"),
        outputs=tuple(doc.get("outputs", ())),
        version=doc.get("version", "unknown"),
    )


def file_sha256(path) -> str:
    """Hex SHA-256 of a file's bytes."""
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()
