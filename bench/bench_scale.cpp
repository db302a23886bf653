// Workload-axis scaling bench (ROADMAP item 2): the synthetic tier ladder.
//
// The reproduction benches pin quality on MCNC circuits; this one pins
// *throughput at scale*. Per tier of the synthetic ladder (src/gen) it
// measures the full evaluation pipeline on a single deterministic
// floorplan plus an annealing-style move stream:
//
//   * gen        — netlist synthesis (linear in pins; fingerprint printed
//                  so runs are comparable across machines),
//   * pack       — one from-scratch slicing pack of the initial Polish
//                  expression,
//   * decompose  — from-scratch MST decomposition, in nets/sec,
//   * IR eval    — one IrregularGridModel::evaluate, with the merged
//                  IR-cell count and nets/sec,
//   * move loop  — incremental pack_cached_ref + caching decompose +
//                  wirelength over a random move stream, in moves/sec,
//   * peak RSS   — VmHWM high-water mark (measure tiers smallest-first).
//
// The decompose / IR-eval workload runs on a deterministic O(m) shelf
// placement, not on the random initial slicing tree: a random Polish
// expression packs with deadspace that grows with the module count, which
// would inflate the chip — and with it the cut-line count — until the
// bench measures packing garbage instead of evaluator throughput. The IR
// fine pitch holds the paper's RELATIVE resolution constant: 30 um on
// ami49 is ~200 fine columns across the chip, so each tier uses
// max(30 um, chip extent / 200) and the per-net cost model stays
// comparable across four decades of circuit size.
//
// Results go to stdout (TextTable) and BENCH_scale.json ("ficon-bench-v1",
// see docs/BENCHMARKS.md; tools/bench_diff --lint validates the structure).
//
// Knobs: FICON_SCALE_TIERS (comma list of tier tokens — "n<modules>",
// "ami49x<N>" or a plain module count; default
// n100,n300,ami49x20,ami49x80,ami49x240 — roughly 100 to 12k modules; go
// up to ami49x2048 for the ~100k-module regime), FICON_SCALE_MOVES (move
// stream length per tier, default 200), FICON_SEED, FICON_BENCH_OUT.
#include <cmath>
#include <iostream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "ficon.hpp"

using namespace ficon;

namespace {

/// Deterministic O(m) shelf packing in module-index order. The generator
/// numbers modules tile by tile, so index order keeps each locality tile
/// spatially contiguous and net routing ranges realistically small; 15%
/// deadspace stands in for a packed floorplan's overhead.
Placement shelf_placement(const Netlist& netlist) {
  const double shelf_w = std::sqrt(1.15 * netlist.total_module_area());
  Placement p;
  p.module_rects.reserve(netlist.module_count());
  p.rotated.assign(netlist.module_count(), false);
  double x = 0.0, y = 0.0, row_h = 0.0, xmax = 0.0;
  for (const Module& m : netlist.modules()) {
    if (x > 0.0 && x + m.width > shelf_w) {
      x = 0.0;
      y += row_h;
      row_h = 0.0;
    }
    p.module_rects.push_back(Rect::from_size({x, y}, m.width, m.height));
    x += m.width;
    row_h = std::max(row_h, m.height);
    xmax = std::max(xmax, x);
  }
  p.chip = Rect{0.0, 0.0, xmax, y + row_h};
  return p;
}

}  // namespace

int main() {
  const std::vector<std::string> tiers = env_list(
      "FICON_SCALE_TIERS", {"n100", "n300", "ami49x20", "ami49x80",
                            "ami49x240"});
  const int moves = std::max(1, env_int("FICON_SCALE_MOVES", 200));
  const auto seed = static_cast<std::uint64_t>(env_int("FICON_SEED", 7));

  std::cout << "Workload scaling — synthetic tier ladder (src/gen), seed "
            << seed << ", " << moves << " moves per tier\n";

  bench::BenchReport report("scale");
  std::string tier_list;
  for (const std::string& token : tiers) {
    if (!tier_list.empty()) tier_list += ',';
    tier_list += token;
  }
  report.manifest("tiers", tier_list);
  report.meta("seed", static_cast<long long>(seed));
  report.meta("moves", static_cast<long long>(moves));

  TextTable table({"tier", "modules", "2-pin nets", "gen (ms)", "pack (ms)",
                   "dec knets/s", "IR cells", "IR knets/s", "moves/s",
                   "RSS (MiB)"});
  for (const std::string& token : tiers) {
    const ScaleTierSpec spec = parse_scale_tier(token);

    Stopwatch sw;
    const Netlist netlist = make_scale_netlist(spec, seed);
    const double gen_ms = sw.milliseconds();
    const std::uint64_t fingerprint = netlist_fingerprint(netlist);

    const PolishExpression expr =
        PolishExpression::initial(static_cast<int>(netlist.module_count()));
    SlicingPacker packer(netlist);
    sw = Stopwatch();
    const SlicingResult initial = packer.pack(expr);
    const double pack_ms = sw.milliseconds();

    const Placement shelf = shelf_placement(netlist);
    TwoPinDecomposer decomposer;
    sw = Stopwatch();
    const std::span<const TwoPinNet> nets =
        decomposer.decompose(netlist, shelf);
    const double decompose_ms = sw.milliseconds();
    const double two_pin = static_cast<double>(nets.size());
    const double decompose_nps = two_pin / (decompose_ms / 1e3);

    const double extent = std::max(shelf.chip.width(), shelf.chip.height());
    IrregularGridParams ir_params;
    ir_params.grid_w = ir_params.grid_h = std::max(30.0, extent / 200.0);
    const IrregularGridModel ir(ir_params);
    sw = Stopwatch();
    const long long ir_cells = ir.evaluate(nets, shelf.chip).cell_count();
    const double ir_ms = sw.milliseconds();
    const double ir_nps = two_pin / (ir_ms / 1e3);

    // Annealing-style move stream through the incremental pipeline:
    // random Polish move -> cached re-pack -> caching decompose ->
    // wirelength. Same Rng(7)-stream idiom as bench_incremental.
    PolishExpression moving = expr;
    Rng rng(7);
    double wirelength = 0.0;
    sw = Stopwatch();
    for (int i = 0; i < moves; ++i) {
      moving.random_move(rng);
      const SlicingResult& packed = packer.pack_cached_ref(moving);
      wirelength +=
          total_length(decomposer.decompose(netlist, packed.placement));
    }
    const double moves_per_s = moves / sw.seconds();
    const std::optional<double> rss = bench::peak_rss_mib();

    table.add_row({spec.name, std::to_string(spec.modules),
                   fmt_fixed(two_pin, 0), fmt_fixed(gen_ms, 1),
                   fmt_fixed(pack_ms, 1), fmt_fixed(decompose_nps / 1e3, 1),
                   std::to_string(ir_cells), fmt_fixed(ir_nps / 1e3, 1),
                   fmt_fixed(moves_per_s, 1),
                   rss ? fmt_fixed(*rss, 1) : "n/a"});

    report.begin_row();
    report.value("tier", spec.name);
    report.value("modules", static_cast<long long>(spec.modules));
    report.value("nets", static_cast<long long>(spec.nets));
    report.value("pins", static_cast<long long>(spec.pins));
    report.value("two_pin_nets", static_cast<long long>(nets.size()));
    report.value("fingerprint", std::to_string(fingerprint));
    report.value("gen_ms", gen_ms);
    report.value("pack_ms", pack_ms);
    report.value("decompose_ms", decompose_ms);
    report.value("decompose_nets_per_s", decompose_nps);
    report.value("ir_pitch_um", ir_params.grid_w);
    report.value("ir_eval_ms", ir_ms);
    report.value("ir_cells", ir_cells);
    report.value("ir_nets_per_s", ir_nps);
    report.value("moves_per_s", moves_per_s);
    report.value("stream_wirelength_um", wirelength);
    // Omitted (not null, not 0.0) when the platform cannot report VmHWM;
    // bench_diff (compare and --lint) treats the key as optional.
    if (rss) report.value("peak_rss_mib", *rss);
  }

  table.print(std::cout);
  const std::string path = report.write_file();
  std::cout << "# wrote " << path << " (" << report.row_count()
            << " tiers; schema ficon-bench-v1)\n";
  return 0;
}
