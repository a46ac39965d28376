"""Crypto substrate: OpenSSL-style table-based AES."""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.crypto.aes import (
        AESError,
        TableAccess,
        decrypt_block,
        decrypt_block_traced,
        encrypt_block,
        expand_decrypt_key,
        expand_key,
        first_round_accesses,
        lines_touched,
        rounds_for_key,
    )
    from repro.crypto.aes_tables import (
        ENTRIES_PER_LINE,
        ENTRY_BYTES,
        LINES_PER_TABLE,
        TABLE_ENTRIES,
        entries_on_line,
        inv_sbox,
        line_of_entry,
        sbox,
        td_tables,
        te_tables,
    )
    from repro.crypto.gf import ginv, gmul, gpow, xtime
    from repro.crypto.keyschedule import invert_aes128_schedule, round_key_words

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.crypto.aes": (
        "AESError", "TableAccess", "decrypt_block", "decrypt_block_traced",
        "encrypt_block", "expand_decrypt_key", "expand_key",
        "first_round_accesses", "lines_touched", "rounds_for_key"),
    "repro.crypto.aes_tables": (
        "ENTRIES_PER_LINE", "ENTRY_BYTES", "LINES_PER_TABLE", "TABLE_ENTRIES",
        "entries_on_line", "inv_sbox", "line_of_entry", "sbox", "td_tables",
        "te_tables"),
    "repro.crypto.gf": ("ginv", "gmul", "gpow", "xtime"),
    "repro.crypto.keyschedule": ("invert_aes128_schedule", "round_key_words"),
})

__all__ = [
    "AESError",
    "TableAccess",
    "decrypt_block",
    "decrypt_block_traced",
    "encrypt_block",
    "expand_decrypt_key",
    "expand_key",
    "first_round_accesses",
    "lines_touched",
    "rounds_for_key",
    "ENTRIES_PER_LINE",
    "ENTRY_BYTES",
    "LINES_PER_TABLE",
    "TABLE_ENTRIES",
    "entries_on_line",
    "inv_sbox",
    "line_of_entry",
    "sbox",
    "td_tables",
    "te_tables",
    "ginv",
    "gmul",
    "gpow",
    "xtime",
    "invert_aes128_schedule",
    "round_key_words",
]
