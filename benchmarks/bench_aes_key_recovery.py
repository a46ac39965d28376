"""Extension experiment: AES key material recovered end-to-end from
MicroScope's own probe windows.

The paper stops at extracting the accessed Td lines (Fig. 11); this
bench carries the pipeline to its cryptographic conclusion.  The §4.4
stepper's fault-window probes are attributed to individual round-1
statements by window differencing, each attributed line pins the high
nibble of one byte of the first decryption round key (= last
encryption round key), and candidate sets intersect across blocks.

At 64-byte line granularity the information-theoretic yield is exactly
the high nibbles — 64 of the 128 round-key bits — which the attack
recovers completely from a handful of single-run extractions.
"""

from repro.core.attacks.aes_key_recovery import AESKeyRecoveryAttack
from repro.crypto.aes import encrypt_block
from repro.harness import FaultPolicy, default_workers

from conftest import emit, render_table

KEY = bytes.fromhex("2b7e151628aed2a6abf7158809cf4f3c")
PLAINTEXTS = [b"sixteen byte msg", b"another message!",
              b"third ciphertext", b"fourth plaintext"]


def test_key_recovery_from_attack_windows(once):
    ciphertexts = [encrypt_block(KEY, p) for p in PLAINTEXTS]

    def experiment():
        # Blocks are independent victim runs: extract each once, in
        # parallel, then intersect prefixes to chart recovery vs
        # block count (the sweep is order-deterministic, so worker
        # count never changes the table).
        attack = AESKeyRecoveryAttack(KEY)
        workers = min(default_workers(), len(ciphertexts))
        attributions = attack.extract_blocks(
            ciphertexts, workers=workers,
            policy=FaultPolicy(max_attempts=2))
        return [(count, attack.combine(attributions[:count]))
                for count in range(1, len(attributions) + 1)]

    per_block = once(experiment)
    rows = []
    for count, result in per_block:
        mean_acc = sum(a.accuracy_against(KEY)
                       for a in result.attributions) / count
        rows.append([count, f"{mean_acc:.2f}",
                     result.bytes_recovered,
                     result.bits_recovered,
                     "yes" if result.all_correct else "NO"])
    table = render_table(
        "AES round-key high-nibble recovery vs blocks attacked "
        "(attack-observed windows only)",
        ["blocks", "attribution accuracy", "nibbles pinned (of 16)",
         "key bits recovered", "all correct"],
        rows)
    table += ("\n\nline granularity yields exactly the high nibbles; "
              "an entry-granularity channel (MemJam-style, equally "
              "denoisable by MicroScope) completes the key via "
              "schedule inversion — see tests/core/test_analysis.py")
    emit("aes_key_recovery", table)
    final = per_block[-1][1]
    assert final.bytes_recovered == 16 and final.all_correct
