import pytest

from ngfreg.benchmark import (
    BenchmarkRecord,
    VariantDisagreement,
    format_table,
    run_benchmark,
    verify_variant_agreement,
)

from conftest import default_chunks


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


def test_run_benchmark_smoke_and_checksums(one_plane_chunks):
    case = dict(dims=(10, 10, 10), precisions=("f64",),
                variants=("gather", "scatter", "redblack"), reps=3, register_max_iter=2)
    with default_chunks():  # the whole grid in one chunk
        whole = run_benchmark(workers_list=(1,), **case)
    records = run_benchmark(workers_list=(1, 2), **case)
    ops = {r.operation for r in records}
    assert ops == {"apply_P", "apply_Pt", "ngf_value_grad", "register"}
    # P and P^T run on the caller: timed once per precision, at 1 worker
    assert {r.workers for r in records if r.operation.startswith("apply_")} == {1}
    # Worker count must not change any result (README table): every P^T
    # variant, P, the NGF gradient and register are bit-identical for any
    # worker count and chunk size, so their checksums must match across the
    # worker counts and the whole-grid run.
    by_key = {}
    for r in whole + records:
        by_key.setdefault((r.operation, r.variant, r.precision), set()).add(r.checksum)
    assert {key[1] for key in by_key if key[0] == "apply_Pt"} == {"gather", "scatter", "redblack"}
    for key, sums in by_key.items():
        assert len(sums) == 1, f"{key} not deterministic across workers: {sums}"
    assert max(one_plane_chunks) >= 2


def test_run_benchmark_rejects_too_few_reps():
    with pytest.raises(ValueError):
        run_benchmark(dims=(8, 8, 8), reps=2)


def test_format_table():
    rec = BenchmarkRecord("apply_P", "-", "f64", 1, (8, 8, 8), 3, 0.001, 0.002, "abcd")
    table = format_table([rec])
    lines = table.splitlines()
    assert lines[0].startswith("operation\t")
    assert "8x8x8" in lines[1] and "abcd" in lines[1]
