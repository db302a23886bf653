// Fuzz harness for the Polish-expression layer: feeds the raw bytes to the
// text parser, then decodes them into a token vector plus a move script
// and checks the invariants the annealer and the daemon rely on:
//
//   * PolishExpression::parse, which reads the daemon protocol's untrusted
//     "expression" field, throws nothing but std::invalid_argument;
//   * is_valid / is_normalized never crash or allocate absurdly, whatever
//     the token values (including operands near INT_MAX);
//   * an expression accepted by the validating constructor survives any
//     sequence of M1/M2/M3 moves with validity and normalization intact,
//     and module_count() never drifts;
//   * parse(e.to_string()) == e for every valid expression e built here.
//
// Input layout after the parser: byte 0 = module count seed, byte 1..8 =
// RNG seed, the rest alternates between raw token bytes (first half) and
// move selectors (second half). Built as a libFuzzer target under clang
// (-fsanitize=fuzzer); under gcc the shared standalone driver
// (standalone_main.cpp) replays files given on the command line, or runs
// a smoke loop over random bytes when run without arguments.
#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <string>
#include <vector>

#include "harness.hpp"
#include "floorplan/polish.hpp"
#include "util/rng.hpp"

using ficon::PolishExpression;
using ficon::PolishToken;

namespace {

/// Map one byte to a token: small values become operands (biased toward
/// the valid range), high bits select operators or extreme operands.
PolishToken decode_token(std::uint8_t b, int module_count) {
  switch (b & 0x07) {
    case 0: return PolishToken{PolishToken::kH};
    case 1: return PolishToken{PolishToken::kV};
    case 2: return PolishToken{(b >> 3) - 17};          // junk negatives
    case 3: return PolishToken{0x7fffff00 + (b >> 3)};  // near INT_MAX
    default:
      return PolishToken{module_count > 0 ? (b >> 3) % module_count
                                          : (b >> 3)};
  }
}

void check_round_trip(const PolishExpression& e) {
  fuzz_check(PolishExpression::parse(e.to_string()) == e,
             "parse(to_string()) changed the expression");
}

void run_one(const std::uint8_t* data, std::size_t size) {
  // Phase 0: the bytes as text through the parser.
  try {
    check_round_trip(PolishExpression::parse(
        std::string(reinterpret_cast<const char*>(data), size)));
  } catch (const std::invalid_argument&) {
  }
  if (size < 10) return;
  const int module_count = data[0] % 24 + 1;
  std::uint64_t seed = 0;
  std::memcpy(&seed, data + 1, 8);
  const std::uint8_t* payload = data + 9;
  const std::size_t payload_size = size - 9;

  // Phase 1: arbitrary token soup through the validators. Must not crash
  // and must agree with the validating constructor.
  std::vector<PolishToken> tokens;
  tokens.reserve(payload_size / 2);
  for (std::size_t i = 0; i < payload_size / 2; ++i) {
    tokens.push_back(decode_token(payload[i], module_count));
  }
  const bool valid = PolishExpression::is_valid(tokens);
  const bool normalized = PolishExpression::is_normalized(tokens);
  if (valid && normalized) {
    const PolishExpression parsed(tokens);  // must not throw
    fuzz_check(parsed.tokens() == tokens, "constructor altered tokens");
    check_round_trip(parsed);
  }

  // Phase 2: a known-good expression through a fuzz-chosen move script.
  PolishExpression expr = PolishExpression::initial(module_count);
  ficon::Rng rng(seed);
  for (std::size_t i = payload_size / 2; i < payload_size; ++i) {
    const std::uint8_t op = payload[i];
    switch (op & 0x03) {
      case 0:
        expr.move_swap_operands(op >> 2);
        break;
      case 1:
        expr.move_complement_chain(op >> 2);
        break;
      case 2:
        expr.move_swap_operand_operator(op >> 2);
        break;
      default:
        expr.random_move(rng);
        break;
    }
    fuzz_check(PolishExpression::is_valid(expr.tokens()),
               "move produced an invalid expression");
    fuzz_check(PolishExpression::is_normalized(expr.tokens()),
               "move produced a non-normalized expression");
    fuzz_check(expr.module_count() == module_count,
               "move changed the module count");
    check_round_trip(expr);
  }
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  run_one(data, size);
  return 0;
}

void fuzz_smoke_input(ficon::SplitMix64& gen, std::vector<std::uint8_t>& data) {
  data.resize(10 + gen.next() % 120);
  // Every other input is text over the parser's alphabet, so that the
  // smoke loop reaches its token rules and not only its first rejection.
  static constexpr char kText[] = "0123456789 HV+-\t";
  const bool text = gen.next() % 2 == 0;
  for (std::uint8_t& b : data) {
    const auto r = static_cast<std::uint8_t>(gen.next());
    b = text ? static_cast<std::uint8_t>(kText[r % (sizeof kText - 1)]) : r;
  }
}
