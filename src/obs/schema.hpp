/// \file
/// Schema-v2 name registry for the trace JSONL export.
///
/// Every name that can appear in a trace record — record "type"
/// discriminators, counter names, phase names, cache names, strategy
/// names — is declared here exactly once. The writer (`obs/trace.cpp`,
/// `obs/report.cpp`) draws display names from these tables, the
/// validator (`validate_trace_line`) rejects records whose names are not
/// registered, and `tools/ficon_lint` rule F002 cross-checks that every
/// name literal emitted from `src/obs/` is present in this file.
///
/// Extending the schema therefore always starts here: add the name to
/// the right table (append — the counter table is indexed by the
/// `Counter` enum), then use it from the writer. A name used anywhere
/// else first is a compile error (counters, via static_assert) or a
/// lint/validator failure (everything else).
///
/// This header is deliberately standalone (no includes) so the registry
/// can be consumed by constexpr contexts and parsed trivially by
/// `ficon_lint`.
#pragma once

namespace ficon::obs::schema {

/// Bump when a record shape or name table changes incompatibly.
/// v2: added the "hist" record type (log-bucketed latency / accept-ratio
/// histograms) and the `kHistNames` table.
inline constexpr int kVersion = 2;

/// Record "type" discriminators, in the order the writer emits them.
inline constexpr const char* kRecordTypes[] = {
    "meta",
    "counter",
    "phase",
    "hist",
    "cache",
    "strategy",
    "thread_pool",
    "anneal_temperature",
    "anneal_summary",
    "solution",
};

/// Counter names, indexed by `ficon::obs::Counter`. `obs/trace.cpp`
/// static_asserts that this table and the enum stay the same length.
inline constexpr const char* kCounterNames[] = {
    // Annealer.
    "anneal_runs",
    "anneal_temperatures",
    "anneal_moves_proposed",
    "anneal_moves_accepted",
    "anneal_uphill_accepted",
    "anneal_stall_temperatures",
    // Incremental-pipeline caches.
    "score_memo_hits",
    "score_memo_misses",
    "score_memo_evictions",
    "pack_cache_incremental",
    "pack_cache_full_rebuilds",
    "pack_cache_nodes_recomputed",
    "pack_cache_nodes_total",
    "decompose_calls",
    "decompose_nets_reused",
    "decompose_nets_recomputed",
    // Irregular-grid congestion model.
    "ir_evaluations",
    "ir_nets_scored",
    "ir_nets_degenerate",
    "ir_regions_theorem1",
    "ir_regions_exact",
    "ir_regions_banded",
    "ir_regions_certain",
    "ir_theorem1_exact_fallbacks",
    "ir_band_steps",
    // Fixed-grid (judging) congestion model.
    "fixed_evaluations",
    "fixed_nets_scored",
    // Thread pool.
    "pool_jobs",
    "pool_blocks",
    "pool_inline_blocks",
    "pool_tasks",
    "pool_queue_wait_ns",
};

/// Facade phases, indexed by `ficon::obs::Phase`.
inline constexpr const char* kPhaseNames[] = {
    "pack",
    "decompose",
    "congestion",
};

/// Histogram names, indexed by `ficon::obs::Hist`. `obs/trace.cpp`
/// static_asserts that this table and the enum stay the same length.
/// The first three mirror the facade phases (per-call latency in ns);
/// `accept_ratio_ppm` samples each temperature's accepted/proposed ratio
/// in parts per million so the log buckets resolve [0, 1] usefully.
inline constexpr const char* kHistNames[] = {
    "repack_latency_ns",
    "decompose_latency_ns",
    "congestion_latency_ns",
    "accept_ratio_ppm",
};

/// Cache rows of the "cache" record.
inline constexpr const char* kCacheNames[] = {
    "score_memo",
    "pack_cached",
    "decomposer",
};

/// Region-strategy rows of the "strategy" record.
inline constexpr const char* kStrategyNames[] = {
    "theorem1",
    "exact_per_region",
    "banded_exact",
    "degenerate",
};

}  // namespace ficon::obs::schema
