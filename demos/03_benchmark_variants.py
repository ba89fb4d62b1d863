"""Benchmark the transfer variants and the registration pipeline.

The harness refuses to publish timings unless the three P^T variants agree
numerically on the same inputs first -- a broken-but-fast kernel should
never look like a win. Checksums in the table make determinism visible
at a glance: for the variants the README table lists as bit-identical for
any worker count (gather and redblack, and the operations built on gather),
identical checksum means identical bits across runs and worker counts.
scatter adds under a lock in thread order, so its checksums can differ
between worker counts and between runs; it is only guaranteed to agree
with gather up to floating-point reassociation, which the gate checks.
"""

from ngfreg import format_table, run_benchmark

# worker counts: 1 and every core (run_benchmark's default)
records = run_benchmark(
    dims=(32, 32, 32),
    precisions=("f64", "f32"),
    variants=("gather", "scatter", "redblack"),
    reps=5,
    register_max_iter=5,
)

print(format_table(records))

print()
for variant in ("gather", "redblack"):
    per_precision = {}
    for r in records:
        if r.operation == "apply_Pt" and r.variant == variant:
            per_precision.setdefault(r.precision, set()).add(r.checksum)
    for precision, sums in sorted(per_precision.items()):
        print(f"{variant} P^T checksums across worker counts ({precision}): "
              f"{'identical' if len(sums) == 1 else 'DIFFERENT'}")
