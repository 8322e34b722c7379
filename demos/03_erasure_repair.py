"""Local and global erasure repair on the [8, 4] two-class code.

Small erasure bursts inside one group are determined by that group's MDS
layer and count as repaired locally; every decode solves the message and its
codeword from k received symbols of F_q-independent points, and a pattern
whose received points span less than k is undecodable.  Run with
`python3 demos/03_erasure_repair.py`.
"""

import random

from udlrc import (
    ErasurePattern,
    LocalityClass,
    LocalitySpec,
    Undecodable,
    build_code,
    decode_erasures,
    encode,
    erank,
    erasure_decodable,
    validate_spec,
)

spec = LocalitySpec(
    classes=(LocalityClass.from_groups(2, 3, 1), LocalityClass.from_groups(3, 2, 1)),
    k=4,
    q=5,
    t=5,
)
inst = build_code(validate_spec(spec))
rng = random.Random(42)
message = [inst.field.random_element(rng) for _ in range(spec.k)]
codeword = encode(inst, message)


def attempt(erased):
    pattern = ErasurePattern.from_erased(spec.n, erased)
    received = {i: codeword[i] for i in pattern.remaining}
    print(f"\nerase {sorted(erased)}: remaining point rank = {erank(inst, pattern.remaining)}")
    print("  recoverable?", erasure_decodable(inst, pattern))
    try:
        result = decode_erasures(inst, received, pattern)
    except Undecodable as exc:
        print(f"  decode failed as expected: {exc}")
        return
    print(f"  decoded via {result.phase} phase, locally repaired {result.repaired_locally or '-'}")
    print("  message recovered:", result.message == tuple(message))


# delta - 1 = 2 erasures inside the first group: pure local repair
attempt({0, 2})

# one erasure per group: each group fixes its own symbol
attempt({1, 5})

# two erasures in the second group exceed its delta - 1 = 1 budget,
# so recovery goes through interpolation
attempt({4, 5})

# wiping most of the second group starves the point rank: unrecoverable
attempt({5, 6, 7})
