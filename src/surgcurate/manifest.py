"""Run manifests: the full provenance record of one pipeline invocation.

A run manifest carries the resolved config (defaults materialized), the
root and derived stage seeds, and SHA-256 fingerprints of every input and
output file. Re-running a command with the recorded config and inputs
reproduces byte-identical outputs; the manifest itself is the only file
that carries wall-clock timestamps.

A fingerprint is of the bytes the command read or wrote. The layer that
reads or writes a whole file hashes it in the same pass and notes that
digest (artifact.note_digest); the manifest's inputs and outputs are the
digests noted while the command ran (artifact.noted_digests), so no file
is read again to fill them. verify_inputs hashes each input again.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, field
from datetime import datetime, timezone
from pathlib import Path

from . import __version__
from .artifact import SurgcurateError, read_json, write_atomic


class RunManifestError(SurgcurateError):
    """A run manifest file could not be decoded."""


def fingerprint_file(path: str | Path) -> str:
    hasher = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            hasher.update(chunk)
    return hasher.hexdigest()


def utc_now() -> str:
    return datetime.now(timezone.utc).isoformat(timespec="seconds")


@dataclass
class RunManifest:
    command: str
    config: dict
    seeds: dict[str, int] = field(default_factory=dict)
    inputs: dict[str, str] = field(default_factory=dict)
    outputs: dict[str, str] = field(default_factory=dict)
    tool_version: str = __version__
    started_at: str = ""
    finished_at: str = ""

    def verify_inputs(self) -> list[str]:
        """Paths whose current contents no longer match the recorded hash;
        every input is hashed again."""
        stale = []
        for path, digest in self.inputs.items():
            if not Path(path).exists() or fingerprint_file(path) != digest:
                stale.append(path)
        return stale

    def to_json_text(self) -> str:
        return json.dumps(asdict(self), sort_keys=True, indent=2)

    def save(self, path: str | Path) -> Path:
        return write_atomic(path, [self.to_json_text() + "\n"])

    @classmethod
    def load(cls, path: str | Path) -> "RunManifest":
        return read_json(path, RunManifestError, lambda doc: cls(**doc))


def manifest_path_for(output: str | Path) -> Path:
    """Conventional sidecar location: <output>.run.json."""
    output = Path(output)
    return output.with_name(output.name + ".run.json")
