"""Table 3 — linking time on growing random subsets (Section 3.3).

Paper: subsets of 200..7,132 PlanetMath entries on a 2006 Mac Mini; the
time-per-link "quickly falls off and then hovers around a constant
value", i.e. total linking time is sublinear in overhead and linear in
productive output.

Expected shape: seconds-per-link at the largest size is not much worse
than at mid sizes (flat tail), and far below the smallest size's value
once amortized — absolute numbers differ (Python vs Perl, 2026 container
vs 2006 laptop).
"""

from conftest import emit


def test_table3_scalability_sweep(table3_sweep):
    result = table3_sweep
    emit("Table 3 (paper: time/link falls then flattens)", result.format())

    rows = result.rows
    assert len(rows) >= 2
    # Total time grows with corpus size (sanity).
    assert rows[-1].total_seconds > rows[0].total_seconds
    # The flat tail: time-per-link at the largest size stays within 3x of
    # the best observed value (the paper's hover-around-a-constant).
    best = min(row.seconds_per_link for row in rows)
    assert rows[-1].seconds_per_link < 3.0 * best


def test_linking_throughput_single_pass(bench_corpus, benchmark):
    """Steady-state throughput: link one mid-corpus entry repeatedly."""
    from repro.eval.experiments import build_linker

    linker = build_linker(bench_corpus, with_policies=True)
    target = bench_corpus.objects[len(bench_corpus.objects) // 2].object_id

    document = benchmark(lambda: linker.link_object(target))
    assert document.link_count >= 0
