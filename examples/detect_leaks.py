"""Leak detection: the FlowTracker-style interprocedural taint analysis.

The paper assumes every input of a crypto routine is sensitive but points
at FlowTracker for separating secret from public inputs.  This example runs
the built-in taint engine on an AES-like S-box kernel and on a lookup
routine with mixed public/secret inputs, reporting exactly *which* branches
and memory accesses leak, and what the repair can and cannot fix.

Run:  python examples/detect_leaks.py
"""

from repro import compile_minic
from repro.analysis import classify_data_consistency
from repro.statics.interproc import analyze_module_taint

SOURCE = """
const u8 sbox[16] = {12, 5, 6, 11, 9, 0, 10, 13, 3, 14, 15, 8, 4, 7, 1, 2};

// A toy round: XOR the key in, substitute through the S-box.  The S-box
// index depends on the secret key: a classic cache side channel.
uint substitute(secret u8 *state, secret u8 *key) {
  for (uint i = 0; i < 4; i = i + 1) {
    state[i] = sbox[(state[i] ^ key[i]) & 15];
  }
  return 0;
}

// Branching on the secret: a classic timing side channel.
uint has_weak_byte(secret u8 *key) {
  for (uint i = 0; i < 4; i = i + 1) {
    if (key[i] == 0) {
      return 1;
    }
  }
  return 0;
}

// Mixed sensitivity: `mask` is public configuration, `key` is secret.
// Branching on the mask is fine; the routine is constant-time w.r.t. key.
uint masked_sum(uint mask, secret u8 *key) {
  uint acc = 0;
  for (uint i = 0; i < 4; i = i + 1) {
    acc = acc + (key[i] & mask);
  }
  if (mask == 0) {
    return 0;
  }
  return acc;
}
"""


def report(module, name: str) -> None:
    function = module.function(name)
    secrets = list(function.sensitive_params) or function.param_names()
    taint = analyze_module_taint(
        module, {name: secrets}, include_unreached=False
    ).functions[name]
    consistency = classify_data_consistency(module, name, secrets)

    print(f"\n@{name} (secrets: {', '.join(secrets) or '-'})")
    if not (taint.branch_leaks or taint.index_leaks):
        print("  no leaks: already isochronous with respect to the secrets")
    for leak in taint.branch_leaks:
        print(f"  TIMING LEAK    {leak} — repair will linearise this")
    for leak in taint.index_leaks:
        print(f"  CACHE LEAK     {leak} — inherent: repair cannot remove a "
              "secret-indexed access, only guarantee operation invariance")
    verdict = (
        "fully isochronous"
        if consistency.repaired_data_invariant
        else "operation invariant + memory safe (data invariance impossible)"
    )
    print(f"  after repair: {verdict}")


def main() -> None:
    module = compile_minic(SOURCE, name="leaks")
    for name in ("substitute", "has_weak_byte", "masked_sum"):
        report(module, name)


if __name__ == "__main__":
    main()
