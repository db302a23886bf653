// Sequence-pair floorplan representation (Murata et al., ICCAD'95).
//
// The paper positions its congestion model as embeddable "into any general
// floorplanners"; this second, non-slicing representation demonstrates
// that. A sequence pair (G+, G-) of module permutations encodes relative
// positions: module b is RIGHT of a iff a precedes b in both sequences,
// and ABOVE a iff a follows b... more precisely, with pa/na the positions
// of a in G+/G-:
//   pa < pb and na < nb  =>  a left of b,
//   pa > pb and na < nb  =>  a below b.
// Coordinates follow from longest weighted paths in the implied constraint
// graphs (computed here with the O(n^2) DP — n <= 50 for MCNC).
#pragma once

#include <string>
#include <vector>

#include "circuit/netlist.hpp"
#include "floorplan/slicing.hpp"
#include "util/rng.hpp"

namespace ficon {

/// The annealing state: two permutations plus per-module rotation flags.
class SequencePair {
 public:
  /// Identity pair: both sequences 0..n-1 (a single row), nothing rotated.
  static SequencePair initial(int module_count);

  SequencePair(std::vector<int> positive, std::vector<int> negative,
               std::vector<bool> rotated);

  const std::vector<int>& positive() const { return positive_; }
  const std::vector<int>& negative() const { return negative_; }
  const std::vector<bool>& rotated() const { return rotated_; }
  int module_count() const { return static_cast<int>(positive_.size()); }

  /// Apply a random move: 1 = swap two modules in G+ only, 2 = swap two
  /// modules in both sequences, 3 = toggle a module's rotation. Returns the
  /// move kind, or 0 for a single-module pair.
  int random_move(Rng& rng);

  /// True iff both sequences are permutations of 0..n-1 of equal length.
  static bool is_valid(const std::vector<int>& positive,
                       const std::vector<int>& negative);

  std::string to_string() const;

  friend bool operator==(const SequencePair&, const SequencePair&) = default;

 private:
  std::vector<int> positive_;
  std::vector<int> negative_;
  std::vector<bool> rotated_;
};

/// Packs sequence pairs for one netlist; pack() is called per SA move.
class SequencePairPacker {
 public:
  explicit SequencePairPacker(const Netlist& netlist);

  /// Compute the placement implied by the pair (lower-left compaction),
  /// in the slicing packer's result type.
  SlicingResult pack(const SequencePair& pair) const;

  std::size_t module_count() const { return widths_.size(); }

 private:
  std::vector<double> widths_;
  std::vector<double> heights_;
};

}  // namespace ficon
