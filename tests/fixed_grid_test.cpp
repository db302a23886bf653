// Fixed-size-grid congestion model tests (the section 3 baseline and the
// judging model).
#include <algorithm>
#include <sstream>

#include <gtest/gtest.h>

#include "congestion/fixed_grid.hpp"
#include "congestion/path_prob.hpp"
#include "util/rng.hpp"

namespace ficon {
namespace {

const Rect kChip{0, 0, 100, 100};

TEST(FixedGrid, SingleNetMatchesCellProbabilities) {
  // One type I net spanning cells (0,0)..(7,4): every grid cell's
  // accumulated value must equal Formula 2 directly.
  const FixedGridModel model(FixedGridParams{10, 10, 0.10});
  const std::vector<TwoPinNet> nets{{Point{5, 5}, Point{75, 45}, 0}};
  const CongestionMap map = model.evaluate(nets, kChip);

  LogFactorialTable table;
  const PathProbability prob(table);
  const NetGridShape shape{8, 5, false};
  for (int y = 0; y < 10; ++y) {
    for (int x = 0; x < 10; ++x) {
      const double expected =
          (x < 8 && y < 5) ? prob.cell_probability(shape, x, y) : 0.0;
      EXPECT_NEAR(map.at(x, y), expected, 1e-9) << "cell " << x << ',' << y;
    }
  }
}

TEST(FixedGrid, TypeTwoNetAccumulatesMirrored) {
  const FixedGridModel model(FixedGridParams{10, 10, 0.10});
  const std::vector<TwoPinNet> nets{{Point{5, 45}, Point{75, 5}, 0}};
  const CongestionMap map = model.evaluate(nets, kChip);
  LogFactorialTable table;
  const PathProbability prob(table);
  const NetGridShape shape{8, 5, true};
  for (int y = 0; y < 5; ++y) {
    for (int x = 0; x < 8; ++x) {
      EXPECT_NEAR(map.at(x, y), prob.cell_probability(shape, x, y), 1e-9)
          << "cell " << x << ',' << y;
    }
  }
  // Pins sit in (0,4) and (7,0): both must read probability 1.
  EXPECT_NEAR(map.at(0, 4), 1.0, 1e-12);
  EXPECT_NEAR(map.at(7, 0), 1.0, 1e-12);
}

TEST(FixedGrid, RowConservationPerNet) {
  // Summing f over any anti-diagonal of a single net's span gives exactly 1
  // (each route crosses it once) — the map must inherit that. The 800 x
  // 800-cell nets' rows start at P(0, ly) = C(1598 - ly, 799 - ly) /
  // C(1598, 799), which underflows to 0 for most rows; each row now starts
  // at its first normal cell instead of losing the whole row.
  struct Case {
    int cells;  ///< the net spans cells x 0..cells-1 and y 0..cells-1
    bool type2;
  };
  for (const Case c : {Case{10, false}, Case{800, false}, Case{800, true}}) {
    SCOPED_TRACE(::testing::Message()
                 << c.cells << " cells" << (c.type2 ? " type II" : ""));
    const double extent = 10.0 * c.cells;
    const FixedGridModel model(FixedGridParams{10, 10, 0.10});
    const double top = extent - 5;
    const std::vector<TwoPinNet> nets{{Point{5, c.type2 ? top : 5},
                                       Point{top, c.type2 ? 5 : top}, 0}};
    const CongestionMap map = model.evaluate(nets, Rect{0, 0, extent, extent});
    ASSERT_EQ(map.nx(), c.cells);
    ASSERT_EQ(map.ny(), c.cells);
    const int last = c.cells - 1;
    for (int d = 0; d <= 2 * last; ++d) {
      double sum = 0.0;
      for (int x = std::max(0, d - last); x <= std::min(d, last); ++x) {
        // A type II route steps right or down, so its diagonals run from
        // the top row.
        const int y = c.type2 ? last - (d - x) : d - x;
        sum += map.at(x, y);
      }
      EXPECT_NEAR(sum, 1.0, 1e-9) << "diagonal " << d;
    }
  }
}

TEST(FixedGrid, DegenerateNetsCountOnce) {
  const FixedGridModel model(FixedGridParams{10, 10, 0.10});
  const std::vector<TwoPinNet> nets{
      {Point{15, 15}, Point{15, 15}, 0},  // point
      {Point{5, 55}, Point{95, 55}, 1},   // horizontal line
  };
  const CongestionMap map = model.evaluate(nets, kChip);
  EXPECT_DOUBLE_EQ(map.at(1, 1), 1.0);
  for (int x = 0; x < 10; ++x) {
    EXPECT_DOUBLE_EQ(map.at(x, 5), 1.0);
  }
  EXPECT_DOUBLE_EQ(map.at(0, 9), 0.0);
}

TEST(FixedGrid, SuperpositionOverNets) {
  const FixedGridModel model(FixedGridParams{10, 10, 0.10});
  const std::vector<TwoPinNet> a{{Point{5, 5}, Point{45, 45}, 0}};
  const std::vector<TwoPinNet> b{{Point{25, 5}, Point{65, 75}, 1}};
  std::vector<TwoPinNet> both = a;
  both.insert(both.end(), b.begin(), b.end());
  const CongestionMap ma = model.evaluate(a, kChip);
  const CongestionMap mb = model.evaluate(b, kChip);
  const CongestionMap mboth = model.evaluate(both, kChip);
  for (int y = 0; y < 10; ++y) {
    for (int x = 0; x < 10; ++x) {
      EXPECT_NEAR(mboth.at(x, y), ma.at(x, y) + mb.at(x, y), 1e-9);
    }
  }
}

TEST(FixedGrid, IncrementalRatioMatchesDirectFormula) {
  // The production evaluator advances P along rows with a multiplicative
  // recurrence; verify against direct per-cell evaluation on a larger span.
  const FixedGridModel model(FixedGridParams{2, 2, 0.10});
  const std::vector<TwoPinNet> nets{{Point{1, 1}, Point{79, 59}, 0}};
  const CongestionMap map = model.evaluate(nets, kChip);
  LogFactorialTable table;
  const PathProbability prob(table);
  const NetGridShape shape{40, 30, false};
  for (int y = 0; y < 30; y += 3) {
    for (int x = 0; x < 40; x += 3) {
      EXPECT_NEAR(map.at(x, y), prob.cell_probability(shape, x, y), 1e-9);
    }
  }
}

TEST(FixedGrid, CostIsTopTenPercentMean) {
  const FixedGridModel model(FixedGridParams{50, 50, 0.10});
  // 2x2 grid on a 100x100 chip: top 10% of 4 cells = the single hottest.
  const std::vector<TwoPinNet> nets{{Point{10, 10}, Point{90, 90}, 0}};
  const CongestionMap map = model.evaluate(nets, kChip);
  EXPECT_DOUBLE_EQ(model.cost(nets, kChip), map.top_fraction_cost(0.10));
  double peak = 0.0;
  for (int y = 0; y < 2; ++y) {
    for (int x = 0; x < 2; ++x) peak = std::max(peak, map.at(x, y));
  }
  EXPECT_DOUBLE_EQ(map.top_fraction_cost(0.10), peak);
}

TEST(FixedGrid, JudgingModelUsesTenMicronPitch) {
  const FixedGridModel judge = make_judging_model();
  EXPECT_DOUBLE_EQ(judge.params().grid_w, 10.0);
  EXPECT_DOUBLE_EQ(judge.params().grid_h, 10.0);
}

TEST(FixedGrid, GridSizeChangesEstimate) {
  // The motivating defect of the fixed model (Figures 3/4): the same
  // workload scores differently under different pitches.
  std::vector<TwoPinNet> nets;
  Rng rng(17);
  for (int i = 0; i < 30; ++i) {
    nets.push_back(TwoPinNet{Point{rng.uniform(50, 100), rng.uniform(0, 50)},
                             Point{rng.uniform(50, 100), rng.uniform(50, 100)},
                             i});
  }
  const double cost_coarse =
      FixedGridModel(FixedGridParams{25, 25, 0.10}).cost(nets, kChip);
  const double cost_fine =
      FixedGridModel(FixedGridParams{5, 5, 0.10}).cost(nets, kChip);
  EXPECT_GT(cost_coarse, 0.0);
  EXPECT_GT(cost_fine, 0.0);
  EXPECT_NE(cost_coarse, cost_fine);
}

TEST(CongestionMap, CsvAndAsciiOutputs) {
  const FixedGridModel model(FixedGridParams{50, 50, 0.10});
  const std::vector<TwoPinNet> nets{{Point{10, 10}, Point{90, 90}, 0}};
  const CongestionMap map = model.evaluate(nets, kChip);
  std::ostringstream csv;
  map.write_csv(csv);
  const std::string text = csv.str();
  EXPECT_NE(text.find("x,y,congestion"), std::string::npos);
  // Header + 4 cells.
  EXPECT_EQ(std::count(text.begin(), text.end(), '\n'), 5);
  std::ostringstream art;
  map.write_ascii(art);
  EXPECT_FALSE(art.str().empty());
}

TEST(FixedGrid, RejectsNonPositivePitch) {
  EXPECT_THROW(FixedGridModel(FixedGridParams{0, 10, 0.1}),
               std::invalid_argument);
}

}  // namespace
}  // namespace ficon
