"""IBM 8b/10b encoder / decoder with running-disparity tracking.

Short-distance serial standards (InfiniBand, the paper's target application)
use 8b/10b coding: it reduces the effective data rate by 20 % but guarantees a
transition-rich stream with at most **five consecutive identical digits
(CID)** — the worst case the paper's jitter/frequency accumulation analysis is
built around (section 2.3).

The implementation follows the classic Widmer/Franaszek construction: the byte
is split into a 5-bit block (EDCBA, encoded to abcdei by the 5b/6b table) and a
3-bit block (HGF, encoded to fghj by the 3b/4b table), with running disparity
(RD) selecting between complementary encodings.  The twelve K control
characters (K28.x, K23.7, K27.7, K29.7, K30.7) are supported, including the
comma character K28.5 used for byte alignment.

Bit transmission order is ``abcdeifghj`` (LSB of the 5b/6b group first), which
is what goes onto the serial line and therefore what the CID statistics see.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache

import numpy as np

__all__ = [
    "Encoder8b10b",
    "Decoder8b10b",
    "EncodingError",
    "DecodingError",
    "encode_bytes",
    "decode_symbols",
    "symbol_name",
    "K28_5",
    "CONTROL_CODES",
    "max_run_length",
]


class EncodingError(ValueError):
    """Raised when a byte/control combination cannot be encoded."""


class DecodingError(ValueError):
    """Raised when a 10-bit symbol is not a valid 8b/10b code group."""


# ---------------------------------------------------------------------------
# Code tables.
#
# The tables map the 5-bit (resp. 3-bit) input value to the 6-bit (resp.
# 4-bit) output used when the current running disparity is NEGATIVE (RD-).
# When the encoding is disparity-neutral and "alternate" is False the same
# code is used for RD+; otherwise the RD+ code is the bitwise complement.
# Bits are written in transmission order: 'abcdei' and 'fghj'.
# ---------------------------------------------------------------------------

# 5b/6b table, RD- column (Dx notation), transmission order abcdei.
_5B6B_RD_NEG: dict[int, str] = {
    0: "100111", 1: "011101", 2: "101101", 3: "110001",
    4: "110101", 5: "101001", 6: "011001", 7: "111000",
    8: "111001", 9: "100101", 10: "010101", 11: "110100",
    12: "001101", 13: "101100", 14: "011100", 15: "010111",
    16: "011011", 17: "100011", 18: "010011", 19: "110010",
    20: "001011", 21: "101010", 22: "011010", 23: "111010",
    24: "110011", 25: "100110", 26: "010110", 27: "110110",
    28: "001110", 29: "101110", 30: "011110", 31: "101011",
}

# 3b/4b table, RD- column (x.y notation), transmission order fghj.
# Key: the 3-bit value 0..7.  D.x.7 has a primary (P7) and alternate (A7) form;
# the alternate is used to avoid runs of five across the 6b/4b boundary.
_3B4B_RD_NEG: dict[int, str] = {
    0: "1011", 1: "1001", 2: "0101", 3: "1100",
    4: "1101", 5: "1010", 6: "0110", 7: "1110",  # primary D.x.7
}
_3B4B_RD_NEG_ALT7 = "0111"  # alternate D.x.A7 for RD-

# Control (K) characters: 10-bit codes for RD- in transmission order.
_K_CODES_RD_NEG: dict[int, str] = {
    0x1C: "0011110100",  # K28.0
    0x3C: "0011111001",  # K28.1
    0x5C: "0011110101",  # K28.2
    0x7C: "0011110011",  # K28.3
    0x9C: "0011110010",  # K28.4
    0xBC: "0011111010",  # K28.5 (comma)
    0xDC: "0011110110",  # K28.6
    0xFC: "0011111000",  # K28.7
    0xF7: "1110101000",  # K23.7
    0xFB: "1101101000",  # K27.7
    0xFD: "1011101000",  # K29.7
    0xFE: "0111101000",  # K30.7
}

#: The comma control character used for byte alignment.
K28_5 = 0xBC

#: All valid control-character byte values.
CONTROL_CODES = tuple(sorted(_K_CODES_RD_NEG))


def _bits_from_string(code: str) -> tuple[int, ...]:
    return tuple(int(c) for c in code)


def _complement(code: str) -> str:
    return "".join("1" if c == "0" else "0" for c in code)


def _disparity(code: str) -> int:
    """Return (#ones - #zeros) of a code string."""
    ones = code.count("1")
    return ones - (len(code) - ones)


def symbol_name(byte_value: int, control: bool = False) -> str:
    """Return the D.x.y / K.x.y name of an 8-bit value (e.g. ``'D21.5'``)."""
    if not 0 <= byte_value <= 0xFF:
        raise ValueError(f"byte value must be in [0, 255], got {byte_value!r}")
    prefix = "K" if control else "D"
    return f"{prefix}{byte_value & 0x1F}.{(byte_value >> 5) & 0x7}"


@dataclass
class Encoder8b10b:
    """Stateful 8b/10b encoder with running-disparity tracking.

    The encoder starts with negative running disparity (RD-), the conventional
    reset state.
    """

    #: Current running disparity: -1 (RD-) or +1 (RD+).
    running_disparity: int = -1

    def __post_init__(self) -> None:
        if self.running_disparity not in (-1, 1):
            raise ValueError("running_disparity must be -1 or +1")

    def encode_symbol(self, byte_value: int, control: bool = False) -> np.ndarray:
        """Encode one byte (or control code) into 10 bits in transmission order.

        Returns a uint8 array of length 10 (``abcdeifghj``) and updates the
        running disparity.
        """
        if not 0 <= int(byte_value) <= 0xFF:
            raise EncodingError(f"byte value must be in [0, 255], got {byte_value!r}")
        byte_value = int(byte_value)

        if control:
            if byte_value not in _K_CODES_RD_NEG:
                raise EncodingError(
                    f"{symbol_name(byte_value, control=True)} is not a valid "
                    "control character"
                )
            code = _K_CODES_RD_NEG[byte_value]
            if self.running_disparity > 0:
                code = _complement(code)
            self._update_rd(code)
            return np.array(_bits_from_string(code), dtype=np.uint8)

        value5 = byte_value & 0x1F
        value3 = (byte_value >> 5) & 0x7

        # --- 5b/6b block ---
        code6 = _5B6B_RD_NEG[value5]
        disp6 = _disparity(code6)
        rd = self.running_disparity
        if disp6 == 0:
            # Balanced codes D.3, D.7(!) etc.  D.7 (000111 / 111000) is the
            # only balanced code with two forms, chosen to avoid long runs.
            if value5 == 7 and rd > 0:
                code6 = _complement(code6)
            rd_after6 = rd
        else:
            if rd > 0:
                code6 = _complement(code6)
                disp6 = -disp6
            rd_after6 = 1 if rd + disp6 > 0 else -1

        # --- 3b/4b block ---
        use_alt7 = False
        if value3 == 7:
            # Alternate encoding A7 prevents a run of five identical bits at
            # the 6b/4b boundary.  Rule: use A7 when (RD- and x in 17,18,20)
            # or (RD+ and x in 11,13,14).
            if (rd_after6 < 0 and value5 in (17, 18, 20)) or (
                rd_after6 > 0 and value5 in (11, 13, 14)
            ):
                use_alt7 = True

        if value3 == 7 and use_alt7:
            code4 = _3B4B_RD_NEG_ALT7
        else:
            code4 = _3B4B_RD_NEG[value3]
        disp4 = _disparity(code4)
        if disp4 == 0:
            # Balanced 3b/4b codes: D.x.3 uses 1100/0011 based on disparity to
            # limit run length; the classic table transmits 1100 for RD- and
            # 0011 for RD+.
            if value3 == 3 and rd_after6 > 0:
                code4 = _complement(code4)
            rd_after4 = rd_after6
        else:
            if rd_after6 > 0:
                code4 = _complement(code4)
                disp4 = -disp4
            rd_after4 = 1 if rd_after6 + disp4 > 0 else -1

        self.running_disparity = rd_after4
        return np.array(_bits_from_string(code6 + code4), dtype=np.uint8)

    def _update_rd(self, code: str) -> None:
        disparity = _disparity(code)
        if disparity != 0:
            self.running_disparity = 1 if disparity > 0 else -1

    def encode(self, data: bytes | list[int] | np.ndarray,
               controls: set[int] | None = None) -> np.ndarray:
        """Encode a byte sequence into a serial bit stream.

        Parameters
        ----------
        data:
            Byte values (0..255).
        controls:
            Optional set of *positions* in *data* to encode as control
            characters instead of data characters.
        """
        controls = controls or set()
        chunks: list[np.ndarray] = []
        for index, byte_value in enumerate(data):
            chunks.append(self.encode_symbol(int(byte_value), control=index in controls))
        if not chunks:
            return np.zeros(0, dtype=np.uint8)
        return np.concatenate(chunks)

    def reset(self) -> None:
        """Reset the running disparity to RD-."""
        self.running_disparity = -1


@cache
def _decode_tables() -> tuple[dict[str, tuple[int, bool]], dict[str, int]]:
    """Build (code10 -> byte) lookup for data and control symbols, once.

    Returns a dict keyed on the 10-bit string for data symbols (both disparity
    forms) and a dict for control symbols.  Built on the first decode, not at
    import: encoding alone never needs them.
    """
    data_table: dict[str, tuple[int, bool]] = {}
    control_table: dict[str, int] = {}

    for byte_value in range(256):
        for start_rd in (-1, 1):
            encoder = Encoder8b10b(running_disparity=start_rd)
            bits = encoder.encode_symbol(byte_value)
            key = "".join(str(int(b)) for b in bits)
            existing = data_table.get(key)
            if existing is not None and existing[0] != byte_value:
                # Table construction sanity check: two different bytes must
                # never map to the same 10-bit code.
                raise AssertionError(
                    f"8b/10b table collision: {key} -> {existing[0]} and {byte_value}"
                )
            data_table[key] = (byte_value, False)

    for byte_value, code in _K_CODES_RD_NEG.items():
        control_table[code] = byte_value
        control_table[_complement(code)] = byte_value

    return data_table, control_table


@dataclass
class Decoder8b10b:
    """Stateful 8b/10b decoder.

    Decodes 10-bit symbols back to ``(byte, is_control)`` pairs and checks the
    running disparity for line-error detection.
    """

    running_disparity: int = -1
    #: Number of disparity errors observed since construction / reset.
    disparity_errors: int = field(default=0)

    def decode_symbol(self, bits: np.ndarray | list[int]) -> tuple[int, bool]:
        """Decode one 10-bit symbol (transmission order ``abcdeifghj``)."""
        bit_list = [int(b) for b in bits]
        if len(bit_list) != 10 or any(b not in (0, 1) for b in bit_list):
            raise DecodingError(f"expected 10 binary values, got {bits!r}")
        key = "".join(str(b) for b in bit_list)

        disparity = _disparity(key)
        if disparity not in (-2, 0, 2):
            self.disparity_errors += 1
            raise DecodingError(f"invalid code-group disparity for symbol {key}")

        data_decode, control_decode = _decode_tables()
        if key in control_decode:
            result = (control_decode[key], True)
        elif key in data_decode:
            result = (data_decode[key][0], False)
        else:
            raise DecodingError(f"not a valid 8b/10b code group: {key}")

        if disparity != 0:
            expected_rd = -1 if disparity > 0 else 1
            if self.running_disparity != expected_rd:
                self.disparity_errors += 1
            self.running_disparity = 1 if disparity > 0 else -1
        return result

    def decode(self, bits: np.ndarray | list[int]) -> list[tuple[int, bool]]:
        """Decode a bit stream whose length is a multiple of 10."""
        bit_array = np.asarray(bits)
        if bit_array.size % 10 != 0:
            raise DecodingError(
                f"bit stream length must be a multiple of 10, got {bit_array.size}"
            )
        symbols: list[tuple[int, bool]] = []
        for offset in range(0, bit_array.size, 10):
            symbols.append(self.decode_symbol(bit_array[offset:offset + 10]))
        return symbols

    def reset(self) -> None:
        """Reset disparity state and error counters."""
        self.running_disparity = -1
        self.disparity_errors = 0


def encode_bytes(data: bytes | list[int], *, start_disparity: int = -1) -> np.ndarray:
    """Encode *data* bytes to a serial 8b/10b bit stream (convenience wrapper)."""
    encoder = Encoder8b10b(running_disparity=start_disparity)
    return encoder.encode(data)


def decode_symbols(bits: np.ndarray | list[int], *, start_disparity: int = -1
                   ) -> list[tuple[int, bool]]:
    """Decode a serial 8b/10b bit stream to ``(byte, is_control)`` tuples."""
    decoder = Decoder8b10b(running_disparity=start_disparity)
    return decoder.decode(bits)


def max_run_length(bits: np.ndarray | list[int]) -> int:
    """Return the longest run of consecutive identical bits in *bits*.

    A correct 8b/10b stream never exceeds 5 — the CID bound the paper's
    frequency-tolerance analysis relies on.
    """
    bit_array = np.asarray(bits).astype(np.int64)
    if bit_array.size == 0:
        return 0
    change_points = np.flatnonzero(np.diff(bit_array) != 0)
    boundaries = np.concatenate(([-1], change_points, [bit_array.size - 1]))
    return int(np.max(np.diff(boundaries)))
