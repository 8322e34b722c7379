"""Every bound in the package, checked against the brute-force oracle.

The distance ceiling for unequal disjoint localities is tight for these
constructions: the oracle meets it exactly, the greedy worst-case erasure
pattern shows why, and the cover chains certify the counting behind the
ceiling.  Run with `python3 demos/04_bounds_and_certification.py`.
"""

from udlrc import (
    LocalityClass,
    LocalitySpec,
    build_code,
    certify_distance_optimal,
    check_cover_trace,
    class_cover_trace,
    dimension_bound,
    distance_bound_rdelta,
    distance_bound_udlrc,
    erank,
    min_distance_oracle,
    permuted_tightest_bound,
    rank_deficiency_witness,
    tightness_budget_size,
    validate_spec,
    worst_case_pattern,
)

spec = LocalitySpec(
    classes=(LocalityClass.from_groups(2, 3, 1), LocalityClass.from_groups(3, 2, 1)),
    k=4,
    q=5,
    t=5,
)
inst = build_code(validate_spec(spec))

print("dimension cap       :", dimension_bound(spec))
cap = distance_bound_udlrc(spec)
print("distance cap        :", cap.value, f"(pivot class {cap.pivot}, terms {cap.per_class_terms})")
print("permuted minimum    :", permuted_tightest_bound(spec).value)
# Every symbol has (r_max, delta_min) locality, so that classical cap holds;
# a class's own (r, delta) gives a ceiling only when every symbol has it.
r_max, delta_min = max(c.r for c in spec.classes), min(c.delta for c in spec.classes)
print("classical cap       :", distance_bound_rdelta(spec.n, spec.k, r_max, delta_min), f"(r={r_max}, delta={delta_min})")
for j, c in enumerate(spec.classes, 1):
    print(f"classical, class {j} :", distance_bound_rdelta(spec.n, spec.k, c.r, c.delta), "(comparison, not a ceiling)")

cert = min_distance_oracle(inst.gen)
print("\noracle distance     :", cert.d)
print("largest deficient set:", cert.witness, "rank", cert.witness_rank)

# The greedy worst-case pattern at the critical size tau keeps exactly rank k,
# which is why every tau-subset decodes and the ceiling is met with equality.
tau = tightness_budget_size(inst)
greedy = worst_case_pattern(inst.layout, spec.n - tau)
print("\ncritical size tau   :", tau)
print("greedy remaining set:", greedy.remaining, "rank", erank(inst, greedy.remaining))
print("certified optimal   :", certify_distance_optimal(inst))

# Cover chains: group-sized steps whose rank and size growth prove the caps.
print("\ncover chains:")
for j, c in enumerate(spec.classes, 1):
    trace = class_cover_trace(inst, j)
    ok = not check_cover_trace(trace, c.r, c.delta)
    print(f"  class {j}: steps={trace.steps} ranks={trace.granks} sizes={trace.sizes} claims-ok={ok}")

witness = rank_deficiency_witness(inst)
print("\ndeficiency witness  :", witness, "(rank stays below k, bounding d from above)")
