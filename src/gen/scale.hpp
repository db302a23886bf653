// Scalable synthetic benchmark generator (the generated scale tiers).
//
// The MCNC-like substrate (src/circuit/mcnc.hpp) tops out at ami49-class
// sizes; nothing there pins behavior at production scale. This module
// generates netlists from ~100 modules (GSRC n100/n300 flavoured soft-block
// circuits) up to ~100k modules / ~1M pins (scaled `ami49xN` tiers): module
// statistics follow the published aggregate numbers of the base circuit,
// and connectivity is *tiled* — modules are grouped into ami49-sized tiles,
// every net has a home tile and draws most of its pins there, some from
// the neighboring tile and a few uniformly — so routing-range size
// distributions stay realistic as the circuit grows instead of degrading
// into a uniform random graph.
//
// Generation is strictly linear in the pin count, single-threaded, and
// deterministic per (spec, seed): the same inputs produce byte-identical
// netlists on every platform and under every FICON_THREADS setting
// (pinned by tests/gen_test.cpp via netlist_fingerprint()).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "circuit/netlist.hpp"

namespace ficon {

/// Aggregate statistics of one synthetic scale tier.
struct ScaleTierSpec {
  std::string name;
  int modules = 0;
  int nets = 0;
  int pins = 0;       ///< total pin count, terminal pins included
  int terminals = 0;  ///< I/O pads on the chip outline
  double total_area_um2 = 0.0;
  int tile_modules = 49;  ///< locality tile size (ami49-sized by default)
  bool soft = false;      ///< soft blocks (GSRC style) vs hard macros
};

/// GSRC-flavoured soft-block tier ("n100", "n300", ...): aggregate
/// statistics approximating the published GSRC hard-block suite numbers
/// (n100: 885 nets / 1873 pins; interpolated for other sizes).
ScaleTierSpec gsrc_style_spec(int modules);

/// Scaled-MCNC tier ("ami49x4", ...): `copies` tiles of ami49's published
/// statistics (49 modules, 408 nets, 953 pins, 35.4 mm^2 per tile), with
/// terminal count growing with the chip perimeter (~sqrt(copies)).
ScaleTierSpec ami49x_spec(int copies);

/// @brief Parse a tier token: "n<modules>" (GSRC style), "ami49x<N>"
/// (scaled MCNC), or a plain module count (mapped to the ami49x tier with
/// at least that many modules). Throws std::invalid_argument otherwise.
ScaleTierSpec parse_scale_tier(const std::string& token);

/// @brief Generate the tier's netlist. Linear time and memory in
/// spec.pins; deterministic per (spec, seed).
Netlist make_scale_netlist(const ScaleTierSpec& spec,
                           std::uint64_t seed = 7);

/// @brief Order-sensitive FNV-1a fingerprint of every field of the netlist
/// (names, dimensions, soft ranges, terminals, pins). Two netlists with
/// equal fingerprints are byte-identical for all practical purposes; used
/// by the determinism tests and as provenance in BENCH_*.json files.
std::uint64_t netlist_fingerprint(const Netlist& netlist);

}  // namespace ficon
