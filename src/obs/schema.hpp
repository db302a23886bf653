/// \file
/// Schema-v4 name registry for the trace JSONL export.
///
/// Every name that can appear in a trace record — record "type"
/// discriminators, counter names, phase names — is declared here exactly
/// once. The writer (`obs/trace.cpp`, `obs/report.cpp`) draws display
/// names from these tables, the validator (`validate_trace_line`) rejects
/// records whose names are not registered, and `tools/ficon_lint` rule
/// F002 cross-checks that every record type the writer emits or the
/// validator declares is present in this file.
///
/// Extending the schema therefore always starts here: add the name to
/// the right table (append — each table is indexed by its enum), then
/// use it from the writer. A counter or phase added on one side only is
/// a compile error (static_assert); an unregistered record type is a
/// lint/validator failure.
///
/// This header is deliberately standalone (no includes) so the registry
/// can be consumed by constexpr contexts and parsed trivially by
/// `ficon_lint`.
#pragma once

namespace ficon::obs::schema {

/// Bump when a record shape or name table changes incompatibly.
/// v2: added the "hist" record type (log-bucketed latency / accept-ratio
/// histograms) and the `kHistNames` table.
/// v3: a "phase" record carries its latency buckets; the phase-mirroring
/// hists and the "cache", "strategy" and "anneal_summary" records, which
/// restated other records, are gone.
/// v4: the "hist" record type and its table, the annealer counters that
/// summed the "anneal_temperature" records, and "pool_tasks", which
/// restated "pool_blocks", are gone.
inline constexpr int kVersion = 4;

/// Record "type" discriminators, in the order the writer emits them.
inline constexpr const char* kRecordTypes[] = {
    "meta",
    "counter",
    "phase",
    "thread_pool",
    "anneal_temperature",
    "solution",
};

/// Counter names, indexed by `ficon::obs::Counter`. `obs/trace.cpp`
/// static_asserts that this table and the enum stay the same length.
inline constexpr const char* kCounterNames[] = {
    // Annealer.
    "anneal_runs",
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
    "pool_queue_wait_ns",
};

/// Facade phases, indexed by `ficon::obs::Phase`; each is exported with
/// its per-call latency buckets (nanoseconds).
inline constexpr const char* kPhaseNames[] = {
    "pack",
    "decompose",
    "congestion",
};

}  // namespace ficon::obs::schema
