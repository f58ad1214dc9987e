"""Deterministic result-payload codec for the campaign DB.

Campaign results must round-trip through sqlite and come back as the
objects the rest of the tooling expects (:class:`FigureResult`,
:class:`CampaignReport`, :class:`LeakReport`, ...), and two runs of the
same task must serialise to *byte-identical* text so serial-vs-parallel
determinism can be asserted on the stored payloads directly.  JSON with
sorted keys and explicit markers for the few non-JSON shapes we care
about (dataclasses, enums, tuples, bytes) gives both properties without
resorting to pickle — payloads stay greppable and diffable.

Decoding only reconstructs types defined inside the ``repro`` package:
a campaign DB is an artifact that may travel between machines, and it
should never be able to instantiate arbitrary classes.
"""

from __future__ import annotations

import dataclasses
import enum
import importlib
import json
from typing import Any

#: Reserved marker key; a plain payload dict may not use it.
_MARK = "__repro__"


class PayloadError(TypeError):
    """A result value the codec cannot (de)serialise."""


def _type_path(cls: type) -> str:
    return f"{cls.__module__}:{cls.__qualname__}"


def _resolve(path: str) -> type:
    module_name, _, qualname = path.partition(":")
    if not module_name.startswith("repro"):
        raise PayloadError(f"refusing to resolve non-repro type {path!r}")
    obj: Any = importlib.import_module(module_name)
    for part in qualname.split("."):
        obj = getattr(obj, part)
    if not isinstance(obj, type):
        raise PayloadError(f"{path!r} did not resolve to a class")
    return obj


def _encode(obj: Any) -> Any:
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, float):
        if obj != obj or obj in (float("inf"), float("-inf")):
            return {_MARK: "float", "repr": repr(obj)}
        return obj
    if isinstance(obj, enum.Enum):
        return {
            _MARK: "enum",
            "type": _type_path(type(obj)),
            "value": _encode(obj.value),
        }
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {
            _MARK: "dataclass",
            "type": _type_path(type(obj)),
            "fields": {
                field.name: _encode(getattr(obj, field.name))
                for field in dataclasses.fields(obj)
            },
        }
    if isinstance(obj, tuple):
        return {_MARK: "tuple", "items": [_encode(item) for item in obj]}
    if isinstance(obj, bytes):
        return {_MARK: "bytes", "hex": obj.hex()}
    if isinstance(obj, list):
        return [_encode(item) for item in obj]
    if isinstance(obj, dict):
        if _MARK in obj:
            raise PayloadError(f"payload dict uses reserved key {_MARK!r}")
        out = {}
        for key, value in obj.items():
            if not isinstance(key, str):
                raise PayloadError(
                    f"payload dict keys must be strings, got {key!r}"
                )
            out[key] = _encode(value)
        return out
    raise PayloadError(
        f"cannot serialise {type(obj).__name__!r} result for the campaign DB"
    )


def _decode(obj: Any) -> Any:
    if isinstance(obj, list):
        return [_decode(item) for item in obj]
    if not isinstance(obj, dict):
        return obj
    mark = obj.get(_MARK)
    if mark is None:
        return {key: _decode(value) for key, value in obj.items()}
    if mark == "float":
        return float(obj["repr"])
    if mark == "tuple":
        return tuple(_decode(item) for item in obj["items"])
    if mark == "bytes":
        return bytes.fromhex(obj["hex"])
    if mark == "enum":
        return _resolve(obj["type"])(_decode(obj["value"]))
    if mark == "dataclass":
        cls = _resolve(obj["type"])
        if not dataclasses.is_dataclass(cls):
            raise PayloadError(f"{obj['type']!r} is not a dataclass")
        fields = {
            name: _decode(value) for name, value in obj["fields"].items()
        }
        return cls(**fields)
    raise PayloadError(f"unknown payload marker {mark!r}")


def encode_payload(obj: Any) -> str:
    """Serialise a task result to canonical (byte-stable) JSON text."""
    return json.dumps(
        _encode(obj), sort_keys=True, separators=(",", ":"), allow_nan=False
    )


def decode_payload(text: str) -> Any:
    """Reconstruct a task result from :func:`encode_payload` text.

    Raises :class:`PayloadError` for any text that does not decode: bad
    JSON, a missing key, a type that is gone or outside ``repro``, or a
    dataclass whose fields changed since the text was written.
    """
    try:
        return _decode(json.loads(text))
    except PayloadError:
        raise
    except (ValueError, KeyError, TypeError, AttributeError,
            ImportError) as error:
        raise PayloadError(f"payload does not decode: {error!r}") from error
