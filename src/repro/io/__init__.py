"""Serialization: lossless JSON plus a columnar binary instance block.

JSON (:mod:`.json_io`) is the interchange format — readable, generic,
and lossless for every built-in region class.  The array codec
(:mod:`.array_io`) flattens closed-form instances into one buffer whose
coordinate block is a single int64 array; the segment store embeds it
as the instance block of a record (:mod:`repro.store.codec`).
"""

from .array_io import instance_from_buffer, instance_to_buffer
from .json_io import (
    instance_from_json,
    instance_to_json,
    invariant_from_json,
    invariant_to_json,
)

__all__ = [
    "instance_from_buffer",
    "instance_to_buffer",
    "instance_from_json",
    "instance_to_json",
    "invariant_from_json",
    "invariant_to_json",
]
