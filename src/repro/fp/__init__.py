"""Software IEEE-754 floating point with exact x64 (SSE/MXCSR) semantics.

This package is the lowest layer of the FPSpy reproduction: a bit-exact
software FPU.  Everything FPSpy observes -- condition codes, sticky status
flags, unmasked exceptions -- is *defined* by the behavior implemented here.

Modules
-------
``formats``
    Binary interchange format descriptions (binary32, binary64) and
    bit-level encode/decode helpers.
``flags``
    The six x64 floating point condition codes (events) and their MXCSR
    bit positions.
``softfloat``
    Correctly-rounded arithmetic (add, sub, mul, div, sqrt, fma, min, max,
    compare, conversions) on integer mantissas, returning both the result
    bits and the exact flag set the operation raises.
``mxcsr``
    The ``%mxcsr`` control/status register model: sticky status flags,
    exception masks, rounding control, FTZ/DAZ.
"""

from repro.fp.flags import (
    Flag,
    FLAG_NAMES,
    ALL_FLAGS,
    flags_to_events,
)
from repro.fp.formats import (
    BinaryFormat,
    BINARY32,
    BINARY64,
    float_to_bits64,
    bits64_to_float,
    float_to_bits32,
    bits32_to_float,
)
from repro.fp.rounding import RoundingMode
from repro.fp.mxcsr import MXCSR
from repro.fp.softfloat import FPContext, SoftFPU, OpResult

__all__ = [
    "Flag",
    "FLAG_NAMES",
    "ALL_FLAGS",
    "flags_to_events",
    "BinaryFormat",
    "BINARY32",
    "BINARY64",
    "float_to_bits64",
    "bits64_to_float",
    "float_to_bits32",
    "bits32_to_float",
    "RoundingMode",
    "MXCSR",
    "FPContext",
    "SoftFPU",
    "OpResult",
]
