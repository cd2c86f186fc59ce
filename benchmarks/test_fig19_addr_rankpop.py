"""Figure 19: rank-popularity of rounding instruction addresses.

Paper shape: in the most extreme case <5000 static instructions account
for all rounding; more commonly <2000; and the distribution is so skewed
that a small head of sites covers >99% of rounding events.
"""

from benchmarks.conftest import paper_frame


def test_fig19_addr_rankpop(benchmark, study):
    frame = paper_frame(benchmark, "fig19_addr_rankpop", study.context())
    stats = {r["code"]: r for r in frame.rows}
    assert stats

    # Bounded site counts (scaled: our binaries have hundreds of static
    # FP sites where the real ones have thousands).
    assert max(s["n_addresses"] for s in stats.values()) < 5000

    # Heavy skew: for most codes, a small head of sites covers >99% of
    # the rounding events -- the trap-and-emulate feasibility property.
    rank99 = {c: s["rank99"] for c, s in stats.items()}
    n_sites = {c: s["n_addresses"] for c, s in stats.items()}
    headed = sum(
        1 for c in rank99
        if rank99[c] <= max(10, 0.5 * n_sites[c])
    )
    assert headed >= 0.7 * len(rank99)
