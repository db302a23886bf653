// Umbrella header for the FICON library.
//
// Pulls in the public surface in dependency order: geometry and circuit
// types, the floorplan representations, the congestion models behind the
// CongestionModel interface, the annealing-based Floorplanner facade, the
// experiment/reporting helpers, and the observability layer. Examples and
// downstream tools should include this instead of reaching into the
// per-subsystem headers; the internal headers remain available for code
// that wants a narrower include (e.g. translation-unit-heavy builds).
#pragma once

// Geometry primitives.
#include "geom/point.hpp"      // IWYU pragma: export
#include "geom/rect.hpp"       // IWYU pragma: export

// Circuits: netlist model, flat SoA view, YAL parser, MCNC benchmark
// loader, and the scalable synthetic benchmark generator.
#include "circuit/mcnc.hpp"        // IWYU pragma: export
#include "circuit/netlist.hpp"     // IWYU pragma: export
#include "circuit/netlist_soa.hpp" // IWYU pragma: export
#include "circuit/parser.hpp"      // IWYU pragma: export
#include "gen/scale.hpp"           // IWYU pragma: export

// Floorplan representations and packing.
#include "floorplan/polish.hpp"         // IWYU pragma: export
#include "floorplan/sequence_pair.hpp"  // IWYU pragma: export
#include "floorplan/shape.hpp"          // IWYU pragma: export
#include "floorplan/slicing.hpp"        // IWYU pragma: export

// Net decomposition and the probabilistic global router.
#include "route/two_pin.hpp"          // IWYU pragma: export
#include "router/global_router.hpp"   // IWYU pragma: export

// Congestion models: shared flow-field base, the CongestionModel
// interface + factory, the two concrete models from the paper, and the
// in-loop probability policy ProbKernel, which transitively exposes the
// exact PathProbability and the scalar ApproxRegionProbability reference.
// Their own headers (congestion/path_prob.hpp, congestion/approx.hpp) are
// internal outside src/congestion/ and the tests; ficon_lint rule F008
// enforces the boundary.
#include "congestion/congestion_map.hpp"  // IWYU pragma: export
#include "congestion/field.hpp"           // IWYU pragma: export
#include "congestion/fixed_grid.hpp"      // IWYU pragma: export
#include "congestion/grid_spec.hpp"       // IWYU pragma: export
#include "congestion/irregular_grid.hpp"  // IWYU pragma: export
#include "congestion/model.hpp"           // IWYU pragma: export
#include "congestion/prob_kernel.hpp"     // IWYU pragma: export
#include "numeric/kernel.hpp"             // IWYU pragma: export

// Annealing engine and the Floorplanner facade.
#include "anneal/annealer.hpp"    // IWYU pragma: export
#include "core/floorplanner.hpp"  // IWYU pragma: export

// Service layer: the EngineSession batch API and the ficond wire
// protocol (length-prefixed JSON frames).
#include "service/protocol.hpp"  // IWYU pragma: export
#include "service/session.hpp"   // IWYU pragma: export

// Experiments, SVG and heat-map output.
#include "exp/experiment.hpp"  // IWYU pragma: export
#include "exp/heatmap.hpp"     // IWYU pragma: export
#include "exp/svg.hpp"         // IWYU pragma: export

// Observability: counters, span timers, JSONL trace reports.
#include "obs/report.hpp"  // IWYU pragma: export
#include "obs/trace.hpp"   // IWYU pragma: export

// Small utilities used throughout the public API.
#include "util/env.hpp"          // IWYU pragma: export
#include "util/rng.hpp"          // IWYU pragma: export
#include "util/stats.hpp"        // IWYU pragma: export
#include "util/stopwatch.hpp"    // IWYU pragma: export
#include "util/table.hpp"        // IWYU pragma: export
#include "util/thread_pool.hpp"  // IWYU pragma: export
