"""Binary container format, firmware images, and unpacking.

Models the artefact layer of the paper's pipeline: compiled binaries (with
symbol tables that release firmware strips), firmware images packed by IoT
vendors, and a ``binwalk``-style scanner that recovers binaries from images
(and fails on unrecognised formats, as the paper notes real binwalk does).
"""

from repro.binformat.binary import (
    BinaryFile,
    FunctionRecord,
    SymbolEntry,
    assemble_binary,
)
from repro.binformat.encoding import encode_function, EncodingError
from repro.binformat.firmware import FirmwareImage, pack_firmware
from repro.binformat.binwalk import scan_firmware, unpack_firmware, UnpackError

__all__ = [
    "BinaryFile",
    "FunctionRecord",
    "SymbolEntry",
    "assemble_binary",
    "encode_function",
    "EncodingError",
    "FirmwareImage",
    "pack_firmware",
    "scan_firmware",
    "unpack_firmware",
    "UnpackError",
]
