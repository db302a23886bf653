#include "floorplan/sequence_pair.hpp"

#include <algorithm>
#include <numeric>

#include "util/check.hpp"

namespace ficon {

SequencePair SequencePair::initial(int module_count) {
  FICON_REQUIRE(module_count >= 1, "need at least one module");
  std::vector<int> seq(static_cast<std::size_t>(module_count));
  std::iota(seq.begin(), seq.end(), 0);
  return SequencePair(seq, seq,
                      std::vector<bool>(static_cast<std::size_t>(module_count),
                                        false));
}

SequencePair::SequencePair(std::vector<int> positive, std::vector<int> negative,
                           std::vector<bool> rotated)
    : positive_(std::move(positive)),
      negative_(std::move(negative)),
      rotated_(std::move(rotated)) {
  FICON_REQUIRE(is_valid(positive_, negative_), "invalid sequence pair");
  FICON_REQUIRE(rotated_.size() == positive_.size(),
                "rotation flags do not match module count");
}

bool SequencePair::is_valid(const std::vector<int>& positive,
                            const std::vector<int>& negative) {
  if (positive.empty() || positive.size() != negative.size()) return false;
  const auto is_permutation = [](const std::vector<int>& seq) {
    std::vector<bool> seen(seq.size(), false);
    for (const int m : seq) {
      if (m < 0 || static_cast<std::size_t>(m) >= seq.size() ||
          seen[static_cast<std::size_t>(m)]) {
        return false;
      }
      seen[static_cast<std::size_t>(m)] = true;
    }
    return true;
  };
  return is_permutation(positive) && is_permutation(negative);
}

int SequencePair::random_move(Rng& rng) {
  const std::size_t n = positive_.size();
  if (n == 1) return 0;
  const int kind = rng.uniform_int(1, 3);
  switch (kind) {
    case 1: {
      const std::size_t i = rng.index(n);
      std::size_t j = rng.index(n - 1);
      if (j >= i) ++j;
      std::swap(positive_[i], positive_[j]);
      return 1;
    }
    case 2: {
      // Swap the same two MODULES in both sequences (positions differ).
      const int a = static_cast<int>(rng.index(n));
      int b = static_cast<int>(rng.index(n - 1));
      if (b >= a) ++b;
      const auto swap_in = [&](std::vector<int>& seq) {
        const auto ia = std::find(seq.begin(), seq.end(), a);
        const auto ib = std::find(seq.begin(), seq.end(), b);
        std::iter_swap(ia, ib);
      };
      swap_in(positive_);
      swap_in(negative_);
      return 2;
    }
    default: {
      const std::size_t m = rng.index(n);
      rotated_[m] = !rotated_[m];
      return 3;
    }
  }
}

std::string SequencePair::to_string() const {
  std::string out = "(";
  for (std::size_t i = 0; i < positive_.size(); ++i) {
    if (i > 0) out += ' ';
    out += std::to_string(positive_[i]);
  }
  out += " | ";
  for (std::size_t i = 0; i < negative_.size(); ++i) {
    if (i > 0) out += ' ';
    out += std::to_string(negative_[i]);
  }
  out += " | ";
  for (std::size_t i = 0; i < rotated_.size(); ++i) {
    out += rotated_[i] ? 'R' : '.';
  }
  out += ')';
  return out;
}

SequencePairPacker::SequencePairPacker(const Netlist& netlist) {
  widths_.reserve(netlist.module_count());
  heights_.reserve(netlist.module_count());
  for (const Module& m : netlist.modules()) {
    widths_.push_back(m.width);
    heights_.push_back(m.height);
  }
  FICON_REQUIRE(!widths_.empty(), "netlist has no modules");
}

SlicingResult SequencePairPacker::pack(const SequencePair& pair) const {
  const std::size_t n = widths_.size();
  FICON_REQUIRE(static_cast<std::size_t>(pair.module_count()) == n,
                "sequence pair does not match netlist module count");

  // Position of each module in each sequence.
  std::vector<int> pos_p(n), pos_n(n);
  for (std::size_t i = 0; i < n; ++i) {
    pos_p[static_cast<std::size_t>(pair.positive()[i])] = static_cast<int>(i);
    pos_n[static_cast<std::size_t>(pair.negative()[i])] = static_cast<int>(i);
  }
  const auto dim = [&](std::size_t m, bool height) {
    const bool rot = pair.rotated()[m];
    return height == rot ? widths_[m] : heights_[m];
  };

  // Longest-path DP in G- order. For x: module a is left of b iff a
  // precedes b in BOTH sequences; processing in G- order guarantees all
  // left-neighbours are placed. For y: a is below b iff a follows b in G+
  // but precedes it in G-.
  SlicingResult result;
  result.placement.module_rects.resize(n);
  result.placement.rotated.assign(pair.rotated().begin(),
                                  pair.rotated().end());
  std::vector<double> x(n, 0.0), y(n, 0.0);
  for (const int bi : pair.negative()) {
    const auto b = static_cast<std::size_t>(bi);
    double bx = 0.0, by = 0.0;
    for (std::size_t a = 0; a < n; ++a) {
      if (a == b || pos_n[a] > pos_n[b]) continue;  // a must precede in G-
      if (pos_p[a] < pos_p[b]) {
        bx = std::max(bx, x[a] + dim(a, false));  // a left of b
      } else {
        by = std::max(by, y[a] + dim(a, true));   // a below b
      }
    }
    x[b] = bx;
    y[b] = by;
    result.placement.module_rects[b] =
        Rect::from_size(Point{bx, by}, dim(b, false), dim(b, true));
    result.width = std::max(result.width, bx + dim(b, false));
    result.height = std::max(result.height, by + dim(b, true));
  }
  result.area = result.width * result.height;
  result.placement.chip = Rect{0.0, 0.0, result.width, result.height};
  return result;
}

}  // namespace ficon
