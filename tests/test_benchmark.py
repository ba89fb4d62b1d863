import numpy as np
import pytest

from ngfreg.benchmark import (
    BenchmarkRecord,
    VariantDisagreement,
    format_table,
    run_benchmark,
    verify_variant_agreement,
)


def test_verify_variant_agreement_passes_on_small_volume():
    verify_variant_agreement((12, 10, 8))


def test_verify_variant_agreement_detects_a_broken_variant(monkeypatch):
    import ngfreg.benchmark as bm

    apply_Pt = bm.apply_Pt

    def broken(r, plan, variant="gather", workers=1):
        out = apply_Pt(r, plan, variant, workers)
        if variant == "scatter":
            out.field[0, 0, 0, 0] += 1.0
        return out

    monkeypatch.setattr(bm, "apply_Pt", broken)
    with pytest.raises(VariantDisagreement, match="scatter"):
        verify_variant_agreement((12, 10, 8))


def test_verify_variant_agreement_checks_every_worker_count(monkeypatch):
    import ngfreg.benchmark as bm

    apply_Pt = bm.apply_Pt

    def broken_when_threaded(r, plan, variant="gather", workers=1):
        out = apply_Pt(r, plan, variant, workers)
        if variant == "scatter" and workers > 1:
            out.field[0, 0, 0, 0] += 1e-9 * (np.abs(out.field).max() + 1.0)
        return out

    monkeypatch.setattr(bm, "apply_Pt", broken_when_threaded)
    verify_variant_agreement((12, 10, 8))
    with pytest.raises(VariantDisagreement, match="scatter with 2 workers"):
        verify_variant_agreement((12, 10, 8), workers_list=(1, 2))


def test_run_benchmark_smoke_and_checksums():
    records = run_benchmark(dims=(10, 10, 10), workers_list=(1, 2),
                            precisions=("f64",), variants=("gather", "scatter", "redblack"),
                            reps=3, register_max_iter=2)
    ops = {r.operation for r in records}
    assert ops == {"apply_P", "apply_Pt", "ngf_value_grad", "register"}
    # Worker count must not change any result, at the strength each P^T
    # variant documents (README table). gather and redblack are bit-identical
    # for any worker count, and so are P, the NGF gradient and register, which
    # run on gather: their checksums must match across worker counts.
    # scatter's lock order fixes no summation order, so its bytes may change
    # with the thread schedule; run_benchmark has already checked it against
    # gather to 1e-12 x scale at every count in workers_list (it raises
    # VariantDisagreement otherwise).
    assert {r.workers for r in records if r.variant == "scatter"} == {1, 2}
    by_key = {}
    for r in records:
        if r.variant != "scatter":
            by_key.setdefault((r.operation, r.variant, r.precision), set()).add(r.checksum)
    assert {key[1] for key in by_key if key[0] == "apply_Pt"} == {"gather", "redblack"}
    for key, sums in by_key.items():
        assert len(sums) == 1, f"{key} not deterministic across workers: {sums}"


def test_run_benchmark_rejects_too_few_reps():
    with pytest.raises(ValueError):
        run_benchmark(dims=(8, 8, 8), reps=2)


def test_format_table():
    rec = BenchmarkRecord("apply_P", "-", "f64", 1, (8, 8, 8), 3, 0.001, 0.002, "abcd")
    table = format_table([rec])
    lines = table.splitlines()
    assert lines[0].startswith("operation\t")
    assert "8x8x8" in lines[1] and "abcd" in lines[1]
