#include "floorplan/polish.hpp"

#include <algorithm>
#include <exception>
#include <sstream>

#include "util/check.hpp"

namespace ficon {

PolishExpression PolishExpression::initial(int module_count) {
  FICON_REQUIRE(module_count >= 1, "need at least one module");
  std::vector<PolishToken> tokens;
  tokens.reserve(static_cast<std::size_t>(2 * module_count - 1));
  tokens.push_back(PolishToken{0});
  for (int m = 1; m < module_count; ++m) {
    tokens.push_back(PolishToken{m});
    tokens.push_back(PolishToken{m % 2 == 1 ? PolishToken::kV : PolishToken::kH});
  }
  return PolishExpression(std::move(tokens));
}

PolishExpression::PolishExpression(std::vector<PolishToken> tokens)
    : tokens_(std::move(tokens)) {
  FICON_REQUIRE(is_valid(tokens_), "invalid Polish expression");
  FICON_REQUIRE(is_normalized(tokens_), "expression not normalized");
  rebuild_index();
}

void PolishExpression::rebuild_index() {
  operand_positions_.clear();
  for (std::size_t i = 0; i < tokens_.size(); ++i) {
    if (tokens_[i].is_operand()) operand_positions_.push_back(i);
  }
  operand_count_ = static_cast<int>(operand_positions_.size());
}

bool PolishExpression::is_valid(const std::vector<PolishToken>& tokens) {
  if (tokens.empty()) return false;
  int operands = 0;
  int operators = 0;
  std::vector<bool> seen;
  for (const PolishToken& t : tokens) {
    if (t.is_operand()) {
      // A valid expression uses each module index 0..n-1 exactly once, so
      // any operand >= the token count is invalid. Rejecting it *before*
      // the resize keeps hostile inputs (e.g. a fuzzer feeding INT_MAX)
      // from requesting a gigabyte-sized scratch vector.
      if (static_cast<std::size_t>(t.value) >= tokens.size()) return false;
      if (t.value >= static_cast<int>(seen.size())) {
        seen.resize(static_cast<std::size_t>(t.value) + 1, false);
      }
      if (seen[static_cast<std::size_t>(t.value)]) return false;  // repeat
      seen[static_cast<std::size_t>(t.value)] = true;
      ++operands;
    } else {
      if (t.value != PolishToken::kH && t.value != PolishToken::kV) return false;
      ++operators;
      // Balloting property: operators < operands at every prefix.
      if (operators >= operands) return false;
    }
  }
  if (operators != operands - 1) return false;
  // Every module index 0..n-1 must appear exactly once.
  return static_cast<int>(seen.size()) == operands &&
         std::all_of(seen.begin(), seen.end(), [](bool b) { return b; });
}

bool PolishExpression::is_normalized(const std::vector<PolishToken>& tokens) {
  for (std::size_t i = 1; i < tokens.size(); ++i) {
    if (tokens[i].is_operator() && tokens[i - 1].is_operator() &&
        tokens[i].value == tokens[i - 1].value) {
      return false;
    }
  }
  return true;
}

bool PolishExpression::move_swap_operands(std::size_t operand_pos, Rng*) {
  if (operand_pos + 1 >= operand_positions_.size()) return false;
  std::swap(tokens_[operand_positions_[operand_pos]],
            tokens_[operand_positions_[operand_pos + 1]]);
  return true;  // M1 preserves structure: always valid and normalized
}

std::size_t PolishExpression::chain_count() const {
  std::size_t chains = 0;
  bool in_chain = false;
  for (const PolishToken& t : tokens_) {
    if (t.is_operator()) {
      if (!in_chain) ++chains;
      in_chain = true;
    } else {
      in_chain = false;
    }
  }
  return chains;
}

bool PolishExpression::move_complement_chain(std::size_t chain_index) {
  std::size_t chains = 0;
  bool in_chain = false;
  for (std::size_t i = 0; i < tokens_.size(); ++i) {
    if (tokens_[i].is_operator()) {
      if (!in_chain) {
        if (chains == chain_index) {
          // Complement the maximal chain starting here. A normalized chain
          // alternates H/V, so its complement alternates too.
          for (std::size_t j = i; j < tokens_.size() && tokens_[j].is_operator();
               ++j) {
            tokens_[j].value = tokens_[j].value == PolishToken::kH
                                   ? PolishToken::kV
                                   : PolishToken::kH;
          }
          return true;
        }
        ++chains;
      }
      in_chain = true;
    } else {
      in_chain = false;
    }
  }
  return false;
}

bool PolishExpression::move_swap_operand_operator(std::size_t token_index) {
  if (token_index + 1 >= tokens_.size()) return false;
  const bool pair_mixed = tokens_[token_index].is_operand() !=
                          tokens_[token_index + 1].is_operand();
  if (!pair_mixed) return false;
  std::swap(tokens_[token_index], tokens_[token_index + 1]);
  if (is_valid(tokens_) && is_normalized(tokens_)) {
    rebuild_index();
    return true;
  }
  std::swap(tokens_[token_index], tokens_[token_index + 1]);  // undo
  return false;
}

int PolishExpression::random_move(Rng& rng) {
  FICON_ASSERT(operand_count_ >= 1, "empty expression");
  if (operand_count_ == 1) return 0;  // single module: no moves exist
  for (int attempt = 0; attempt < 16; ++attempt) {
    const int kind = rng.uniform_int(1, 3);
    switch (kind) {
      case 1: {
        const std::size_t pos = rng.index(operand_positions_.size() - 1);
        if (move_swap_operands(pos)) return 1;
        break;
      }
      case 2: {
        const std::size_t chains = chain_count();
        if (chains > 0 && move_complement_chain(rng.index(chains))) return 2;
        break;
      }
      case 3: {
        const std::size_t idx = rng.index(tokens_.size() - 1);
        if (move_swap_operand_operator(idx)) return 3;
        break;
      }
      default:
        break;
    }
  }
  // Fall back to the always-applicable M1 so SA never stalls.
  const std::size_t pos = rng.index(operand_positions_.size() - 1);
  move_swap_operands(pos);
  return 1;
}

std::string PolishExpression::to_string() const {
  std::string out;
  out.reserve(tokens_.size() * 3);
  for (const PolishToken& t : tokens_) {
    if (!out.empty()) out += ' ';
    if (t.is_operand()) {
      out += std::to_string(t.value);
    } else {
      out += t.value == PolishToken::kH ? 'H' : 'V';
    }
  }
  return out;
}

PolishExpression PolishExpression::parse(const std::string& text) {
  std::istringstream in(text);
  std::vector<PolishToken> tokens;
  std::string token;
  while (in >> token) {
    if (token == "H") {
      tokens.push_back(PolishToken{PolishToken::kH});
    } else if (token == "V") {
      tokens.push_back(PolishToken{PolishToken::kV});
    } else {
      std::size_t used = 0;
      int value = -1;
      try {
        value = std::stoi(token, &used);
      } catch (const std::exception&) {
        used = 0;
      }
      FICON_REQUIRE(used == token.size() && value >= 0,
                    "bad Polish token '" + token + "'");
      tokens.push_back(PolishToken{value});
    }
  }
  // The constructor rejects invalid and non-normalized token streams.
  return PolishExpression(std::move(tokens));
}

}  // namespace ficon
