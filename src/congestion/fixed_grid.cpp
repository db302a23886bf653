#include "congestion/fixed_grid.hpp"

#include <cmath>

#include "congestion/prob_kernel.hpp"
#include "obs/trace.hpp"
#include "util/thread_pool.hpp"

namespace ficon {

namespace {

/// Accumulate one net's cell-crossing probabilities (Formula 2) into a
/// partial grid (row-major like CongestionMap::values()).
void accumulate_net(const TwoPinNet& net, const GridSpec& grid,
                    ProbKernel& kernel, std::vector<double>& flow) {
  const auto add = [&](int cx, int cy, double p) {
    flow[static_cast<std::size_t>(cy) * static_cast<std::size_t>(grid.nx()) +
         static_cast<std::size_t>(cx)] += p;
  };
  const SpannedNet s = span_net(grid, net);
  const int g1 = s.shape.g1;
  const int g2 = s.shape.g2;

  if (s.shape.degenerate()) {
    // Point or line routing range: the single possible route crosses
    // every covered cell with probability 1.
    for (int ly = 0; ly < g2; ++ly) {
      for (int lx = 0; lx < g1; ++lx) {
        add(s.origin.x + lx, s.origin.y + ly, 1.0);
      }
    }
    return;
  }

  // Work in the canonical type I frame (source cell (0,0), sink
  // (g1-1,g2-1)); a type II net is accumulated with its y mirrored. The
  // kernel advances P(x,y) along each row by the exact multiplicative
  // recurrence (multiplication-only inner loop — this is what makes the
  // 10 um judging model affordable on mm-scale chips) and hands back one
  // contiguous row of Formula 2 values at a time.
  const NetGridShape canonical{g1, g2, false};
  kernel.for_each_cell_row(canonical, [&](int ly, std::span<const double> row) {
    const int gy = s.origin.y + (s.shape.type2 ? (g2 - 1 - ly) : ly);
    for (int lx = 0; lx < g1; ++lx) {
      add(s.origin.x + lx, gy, row[static_cast<std::size_t>(lx)]);
    }
  });
}

}  // namespace

CongestionMap FixedGridModel::evaluate(std::span<const TwoPinNet> nets,
                                       const Rect& chip) const {
  obs::count(obs::Counter::kFixedEvaluations);
  obs::count(obs::Counter::kFixedNetsScored,
             static_cast<long long>(nets.size()));
  const GridSpec grid =
      GridSpec::from_pitch(chip, params_.grid_w, params_.grid_h);
  std::vector<double> flow(static_cast<std::size_t>(grid.cell_count()), 0.0);

  // Parallel per-net accumulation: blocks of nets (boundaries depend only
  // on the net count) fill partial grids that fold_blocks() adds into the
  // map in block order — bit-identical for every FICON_THREADS setting.
  // The partials are freed on return: at the 10 um judging pitch each is a
  // whole map, and the map plus one partial is what one pool thread holds.
  const int blocks = deterministic_block_count(nets.size());
  std::vector<std::vector<double>> partials;
  fold_blocks(blocks, flow, partials,
              [&](int b, std::vector<double>& partial) {
                thread_local LogFactorialTable table;  // race-free cache
                ProbKernel kernel(PathProbability(table), {});
                const BlockRange range = block_range(nets.size(), blocks, b);
                for (std::size_t i = range.begin; i < range.end; ++i) {
                  accumulate_net(nets[i], grid, kernel, partial);
                }
              });
  return CongestionMap(grid, std::move(flow));
}

}  // namespace ficon
