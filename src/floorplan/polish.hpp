// Normalized Polish expressions (Wong & Liu, DAC'86) — the floorplan
// representation used by the paper's host simulated-annealing floorplanner.
//
// A slicing floorplan of m modules is a postfix expression over operand
// tokens 0..m-1 and the cut operators H and V:
//   * V ("vertical cut")  : left child placed left of right child —
//                           widths add, heights max,
//   * H ("horizontal cut"): left child placed below right child —
//                           heights add, widths max.
//
// An expression is *normalized* iff no two consecutive operators are equal
// (skewed slicing tree), which makes the representation of each slicing
// structure unique. Validity additionally requires the balloting property:
// every prefix contains strictly more operands than operators.
//
// The three neighbourhood moves of Wong-Liu:
//   M1 — swap two operands adjacent in the operand subsequence,
//   M2 — complement every operator in a maximal operator chain,
//   M3 — swap an adjacent operand/operator pair (kept only if the result
//        is still a valid normalized expression).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "util/rng.hpp"

namespace ficon {

/// One token of a Polish expression.
struct PolishToken {
  // value >= 0: operand (module index). kH / kV: operators.
  static constexpr int kH = -1;
  static constexpr int kV = -2;
  int value = 0;

  bool is_operand() const { return value >= 0; }
  bool is_operator() const { return value < 0; }
  friend bool operator==(const PolishToken&, const PolishToken&) = default;
};

class PolishExpression {
 public:
  PolishExpression() = default;

  /// Initial expression for m modules: modules joined by alternating V/H
  /// operators ("0 1 V 2 H 3 V ...") — a roughly square spiral packing.
  static PolishExpression initial(int module_count);

  /// Build from explicit tokens; throws if invalid or non-normalized.
  explicit PolishExpression(std::vector<PolishToken> tokens);

  const std::vector<PolishToken>& tokens() const { return tokens_; }
  int module_count() const { return operand_count_; }

  /// True iff tokens form a valid postfix expression (balloting property,
  /// exactly n-1 operators for n operands) over each module exactly once.
  static bool is_valid(const std::vector<PolishToken>& tokens);

  /// True iff additionally no two consecutive operators are equal.
  static bool is_normalized(const std::vector<PolishToken>& tokens);

  /// Apply a uniformly chosen M1/M2/M3 move. M3 candidates that would break
  /// validity are rejected and resampled (bounded retries); returns the
  /// move kind applied (1..3) or 0 if no move was possible.
  int random_move(Rng& rng);

  /// Individual moves, exposed for tests. Each returns false (and leaves
  /// the expression unchanged) if the specific candidate is inapplicable.
  bool move_swap_operands(std::size_t operand_pos, Rng* = nullptr);
  bool move_complement_chain(std::size_t chain_index);
  bool move_swap_operand_operator(std::size_t token_index);

  /// Number of maximal operator chains (M2 candidates).
  std::size_t chain_count() const;

  /// Module indices and H/V operators separated by single spaces.
  std::string to_string() const;

  /// The inverse of to_string(): whitespace-separated tokens, each "H",
  /// "V" or a decimal module index (an optional sign, then digits whose
  /// value is in [0, INT_MAX]). Throws std::invalid_argument on any other
  /// token and on an invalid or non-normalized expression.
  static PolishExpression parse(const std::string& text);

  friend bool operator==(const PolishExpression&,
                         const PolishExpression&) = default;

 private:
  void rebuild_index();

  std::vector<PolishToken> tokens_;
  std::vector<std::size_t> operand_positions_;
  int operand_count_ = 0;
};

}  // namespace ficon
