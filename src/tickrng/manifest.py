"""Run manifests.

Every file produced by the CLI is accompanied by a JSON run manifest
(``<file>.manifest.json``) recording the exact command, parameters and
random generator, so any output can be reproduced bit-exactly with
``tickrng replay``.  Manifests are kept apart from the event and bit
formats, so a command that writes only text and its manifest
(``protocol``, ``eve``, ``bias``) does not compile their readers.
"""

from __future__ import annotations

import json
from dataclasses import MISSING, asdict, dataclass, field, fields
from pathlib import Path

from . import __version__
from .errors import DataError

__all__ = ["RunManifest", "manifest_path_for", "write_manifest", "read_manifest"]


@dataclass
class RunManifest:
    """Everything needed to reproduce one CLI output bit-exactly."""

    subcommand: str
    argv: list[str]
    parameters: dict
    outputs: list[str]
    generator: dict | None = None
    conventions: dict = field(default_factory=dict)
    version: str = __version__

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2, sort_keys=True) + "\n"


def manifest_path_for(output_path) -> Path:
    return Path(str(output_path) + ".manifest.json")


def write_manifest(manifest: RunManifest, output_path) -> Path:
    target = manifest_path_for(output_path)
    target.write_text(manifest.to_json())
    return target


def read_manifest(path) -> RunManifest:
    try:
        raw = json.loads(Path(path).read_text())
    except UnicodeDecodeError as exc:
        raise DataError(f"manifest is not UTF-8 text: {exc}") from None
    except json.JSONDecodeError as exc:
        raise DataError(f"manifest is not valid JSON: {exc}") from None
    if not isinstance(raw, dict):
        raise DataError("manifest must be a JSON object")
    for name in ("parameters", "conventions"):
        if not isinstance(raw.get(name, {}), dict):
            raise DataError(f"manifest {name} must be a JSON object")
    for f in fields(RunManifest):
        if f.name not in raw and f.default is MISSING and f.default_factory is MISSING:
            raise DataError(f"manifest is missing required field: {f.name!r}")
    manifest = RunManifest(**{f.name: raw[f.name] for f in fields(RunManifest) if f.name in raw})
    if not (_is_str_list(manifest.argv) and manifest.argv[:1] == [manifest.subcommand]):
        raise DataError("manifest argv must be a list of strings that starts with its subcommand")
    if not _is_str_list(manifest.outputs):
        raise DataError("manifest outputs must be a list of strings")
    return manifest


def _is_str_list(value) -> bool:
    return isinstance(value, list) and all(isinstance(item, str) for item in value)
