// Normalized Polish expression invariants and moves (Wong-Liu).
#include <set>
#include <stdexcept>

#include <gtest/gtest.h>

#include "floorplan/polish.hpp"

namespace ficon {
namespace {

std::vector<PolishToken> toks(std::initializer_list<int> vals) {
  std::vector<PolishToken> out;
  for (const int v : vals) out.push_back(PolishToken{v});
  return out;
}
constexpr int H = PolishToken::kH;
constexpr int V = PolishToken::kV;

TEST(Polish, InitialExpressionIsValidAndNormalized) {
  for (int m = 1; m <= 40; ++m) {
    const PolishExpression e = PolishExpression::initial(m);
    EXPECT_EQ(e.module_count(), m);
    EXPECT_EQ(e.tokens().size(), static_cast<std::size_t>(2 * m - 1));
    EXPECT_TRUE(PolishExpression::is_valid(e.tokens()));
    EXPECT_TRUE(PolishExpression::is_normalized(e.tokens()));
  }
}

TEST(Polish, ValidityChecks) {
  EXPECT_TRUE(PolishExpression::is_valid(toks({0, 1, V})));
  EXPECT_TRUE(PolishExpression::is_valid(toks({0, 1, V, 2, H})));
  EXPECT_FALSE(PolishExpression::is_valid(toks({})));
  EXPECT_FALSE(PolishExpression::is_valid(toks({0, 1})));        // missing op
  EXPECT_FALSE(PolishExpression::is_valid(toks({0, V, 1})));     // balloting
  EXPECT_FALSE(PolishExpression::is_valid(toks({V, 0, 1})));     // balloting
  EXPECT_FALSE(PolishExpression::is_valid(toks({0, 0, V})));     // repeat
  EXPECT_FALSE(PolishExpression::is_valid(toks({0, 2, V})));     // gap in ids
  EXPECT_FALSE(PolishExpression::is_valid(toks({0, 1, V, V})));  // extra op
}

TEST(Polish, NormalizationChecks) {
  EXPECT_TRUE(PolishExpression::is_normalized(toks({0, 1, V, 2, H})));
  EXPECT_FALSE(PolishExpression::is_normalized(toks({0, 1, 2, V, V})));
  EXPECT_TRUE(PolishExpression::is_normalized(toks({0, 1, 2, V, H})));
}

TEST(Polish, ConstructorRejectsBadExpressions) {
  EXPECT_THROW(PolishExpression(toks({0, 1})), std::invalid_argument);
  EXPECT_THROW(PolishExpression(toks({0, 1, 2, V, V})), std::invalid_argument);
}

TEST(Polish, ToStringReadable) {
  const PolishExpression e(toks({0, 1, V, 2, H}));
  EXPECT_EQ(e.to_string(), "0 1 V 2 H");
}

TEST(Polish, ParsePolishExpressionRoundTrips) {
  const PolishExpression expr = PolishExpression::parse("0 1 V 2 H");
  EXPECT_EQ(expr.to_string(), "0 1 V 2 H");
  EXPECT_EQ(expr.module_count(), 3);
  EXPECT_THROW(PolishExpression::parse("0 1 X"), std::invalid_argument);
  EXPECT_THROW(PolishExpression::parse("0 1"),
               std::invalid_argument);  // missing operator
  EXPECT_THROW(PolishExpression::parse(""), std::invalid_argument);
  // Any whitespace separates tokens, and an index may carry a sign.
  EXPECT_EQ(PolishExpression::parse(" 0\t+1 V\n+0002 H "), expr);
  EXPECT_EQ(PolishExpression::parse("-0"), PolishExpression::initial(1));
  for (const char* bad : {"0 -1 V", "0 1x V", "0 2147483648 V", "0 1 v"}) {
    EXPECT_THROW(PolishExpression::parse(bad), std::invalid_argument) << bad;
  }
}

TEST(Polish, M1SwapsAdjacentOperands) {
  PolishExpression e(toks({0, 1, V, 2, H}));
  ASSERT_TRUE(e.move_swap_operands(1));  // swap operands '1' and '2'
  EXPECT_EQ(e.to_string(), "0 2 V 1 H");
  EXPECT_TRUE(PolishExpression::is_valid(e.tokens()));
  EXPECT_FALSE(e.move_swap_operands(2));  // no operand after the last
}

TEST(Polish, M2ComplementsChains) {
  PolishExpression e(toks({0, 1, V, 2, H, 3, V}));
  EXPECT_EQ(e.chain_count(), 3u);
  ASSERT_TRUE(e.move_complement_chain(1));
  EXPECT_EQ(e.to_string(), "0 1 V 2 V 3 V");
  ASSERT_TRUE(e.move_complement_chain(0));
  EXPECT_EQ(e.to_string(), "0 1 H 2 V 3 V");
  EXPECT_FALSE(e.move_complement_chain(99));
}

TEST(Polish, M2ComplementsWholeMultiOperatorChain) {
  PolishExpression e(toks({0, 1, 2, V, H, 3, V}));
  EXPECT_EQ(e.chain_count(), 2u);
  ASSERT_TRUE(e.move_complement_chain(0));
  EXPECT_EQ(e.to_string(), "0 1 2 H V 3 V");
  EXPECT_TRUE(PolishExpression::is_normalized(e.tokens()));
}

TEST(Polish, M3KeepsExpressionsValid) {
  PolishExpression e(toks({0, 1, V, 2, H}));
  // Swapping "V 2" -> "2 V" gives 0 1 2 V H: valid and normalized.
  ASSERT_TRUE(e.move_swap_operand_operator(2));
  EXPECT_EQ(e.to_string(), "0 1 2 V H");
  // Swapping back.
  ASSERT_TRUE(e.move_swap_operand_operator(2));
  EXPECT_EQ(e.to_string(), "0 1 V 2 H");
}

TEST(Polish, M3RejectsBallotingViolations) {
  PolishExpression e(toks({0, 1, V, 2, H}));
  // Swapping "1 V" would give "0 V 1 2 H": balloting violation.
  EXPECT_FALSE(e.move_swap_operand_operator(1));
  EXPECT_EQ(e.to_string(), "0 1 V 2 H");  // unchanged
}

TEST(Polish, M3RejectsDenormalization) {
  PolishExpression e(toks({0, 1, 2, V, H, 3, V}));
  // Swapping "2 V" gives "0 1 V 2 H 3 V"? No: "0 1 V 2 H 3 V" is fine;
  // instead check a swap creating "V V": swapping tokens 3,4 is op-op and
  // must be rejected outright.
  EXPECT_FALSE(e.move_swap_operand_operator(3));
}

TEST(Polish, RandomMovePreservesInvariantsLongRun) {
  Rng rng(99);
  PolishExpression e = PolishExpression::initial(12);
  std::set<int> kinds_seen;
  for (int i = 0; i < 3000; ++i) {
    const int kind = e.random_move(rng);
    ASSERT_GE(kind, 1);
    ASSERT_LE(kind, 3);
    kinds_seen.insert(kind);
    ASSERT_TRUE(PolishExpression::is_valid(e.tokens())) << "iter " << i;
    ASSERT_TRUE(PolishExpression::is_normalized(e.tokens())) << "iter " << i;
  }
  // All three move kinds must actually occur.
  EXPECT_EQ(kinds_seen.size(), 3u);
}

TEST(Polish, RandomMoveIsDeterministicPerSeed) {
  Rng r1(5), r2(5);
  PolishExpression a = PolishExpression::initial(9);
  PolishExpression b = PolishExpression::initial(9);
  for (int i = 0; i < 200; ++i) {
    a.random_move(r1);
    b.random_move(r2);
    ASSERT_EQ(a.to_string(), b.to_string());
  }
}

TEST(Polish, SingleModuleHasNoMoves) {
  Rng rng(1);
  PolishExpression e = PolishExpression::initial(1);
  EXPECT_EQ(e.random_move(rng), 0);
  EXPECT_EQ(e.to_string(), "0");
}

TEST(Polish, IsValidRejectsHostileOperandValuesCheaply) {
  // Regression (found by fuzz/polish_fuzz): an operand value near INT_MAX
  // used to drive seen.resize(value+1) — a multi-hundred-MB allocation —
  // before the expression was rejected. Any operand >= the token count
  // must be rejected up front.
  using Tok = PolishToken;
  EXPECT_FALSE(PolishExpression::is_valid(
      {Tok{0}, Tok{0x7fffff42}, Tok{Tok::kV}}));
  EXPECT_FALSE(PolishExpression::is_valid(
      {Tok{2147483647}, Tok{1}, Tok{Tok::kH}}));
  // Operand == token count is just as invalid (indices are 0..n-1).
  EXPECT_FALSE(
      PolishExpression::is_valid({Tok{0}, Tok{3}, Tok{Tok::kV}}));
  // And the boundary that IS legal still passes: indices {0,1}, 3 tokens.
  EXPECT_TRUE(
      PolishExpression::is_valid({Tok{0}, Tok{1}, Tok{Tok::kV}}));
}

TEST(Polish, ValidatorsHandleFuzzedTokenSoup) {
  // Byte-soup shapes the fuzzer exercises: all operators, duplicate
  // operands, junk negatives. None may crash; all must be invalid.
  using Tok = PolishToken;
  EXPECT_FALSE(PolishExpression::is_valid({Tok{Tok::kH}, Tok{Tok::kV}}));
  EXPECT_FALSE(
      PolishExpression::is_valid({Tok{0}, Tok{0}, Tok{Tok::kV}}));
  EXPECT_FALSE(PolishExpression::is_valid({Tok{0}, Tok{1}, Tok{-17}}));
  EXPECT_FALSE(PolishExpression::is_valid({}));
  // is_normalized is independent of validity and must tolerate the same.
  EXPECT_TRUE(PolishExpression::is_normalized({Tok{Tok::kH}, Tok{Tok::kV}}));
  EXPECT_FALSE(
      PolishExpression::is_normalized({Tok{Tok::kH}, Tok{Tok::kH}}));
}

TEST(Polish, MovesReachManyDistinctStructures) {
  // The move set should explore the solution space, not cycle among a few
  // states: 500 moves on 8 modules must visit >100 distinct expressions.
  Rng rng(3);
  PolishExpression e = PolishExpression::initial(8);
  std::set<std::string> seen;
  for (int i = 0; i < 500; ++i) {
    e.random_move(rng);
    seen.insert(e.to_string());
  }
  EXPECT_GT(seen.size(), 100u);
}

}  // namespace
}  // namespace ficon
