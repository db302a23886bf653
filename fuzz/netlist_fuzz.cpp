// Fuzz harness for the netlist parsers (src/circuit/parser.hpp). The first
// input byte picks the format: even bytes send the rest to parse_netlist
// (native text); odd bytes split the rest at its first two NUL bytes into a
// GSRC .blocks, .nets and optional .pl text for parse_gsrc. Invariants:
//
//   * a parse returns a Netlist or throws std::invalid_argument; any other
//     exception, or a crash, is a finding;
//   * a native netlist survives save_netlist -> parse_netlist field for
//     field, with doubles bit for bit (the contract in parser.hpp);
//   * a GSRC netlist has finite, positive module sizes, and a soft module
//     has 0 < min_aspect <= max_aspect.
//
// Built as a libFuzzer target under clang (-fsanitize=fuzzer); under gcc
// the shared standalone driver (standalone_main.cpp) replays files given
// on the command line, or runs a smoke loop over mutated save_netlist
// output of the five built-in circuits and mutated GSRC text.
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <iterator>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "circuit/mcnc.hpp"
#include "circuit/parser.hpp"
#include "harness.hpp"
#include "util/rng.hpp"

using ficon::Module;
using ficon::Net;
using ficon::Netlist;
using ficon::Pin;
using ficon::Terminal;

namespace {

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

bool same_module(const Module& a, const Module& b) {
  return a.name == b.name && same_bits(a.width, b.width) &&
         same_bits(a.height, b.height) && a.soft == b.soft &&
         same_bits(a.min_aspect, b.min_aspect) &&
         same_bits(a.max_aspect, b.max_aspect);
}

bool same_terminal(const Terminal& a, const Terminal& b) {
  return a.name == b.name && same_bits(a.fx, b.fx) && same_bits(a.fy, b.fy);
}

bool same_pin(const Pin& a, const Pin& b) {
  return a.module == b.module && a.terminal == b.terminal &&
         same_bits(a.fx, b.fx) && same_bits(a.fy, b.fy);
}

bool same_net(const Net& a, const Net& b) {
  if (a.name != b.name || a.pins.size() != b.pins.size()) return false;
  for (std::size_t i = 0; i < a.pins.size(); ++i) {
    if (!same_pin(a.pins[i], b.pins[i])) return false;
  }
  return true;
}

template <class T, class Same>
bool same_all(const std::vector<T>& a, const std::vector<T>& b, Same same) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (!same(a[i], b[i])) return false;
  }
  return true;
}

void check_native(const std::string& text) {
  std::istringstream in(text);
  Netlist parsed;
  try {
    parsed = ficon::parse_netlist(in);
  } catch (const std::invalid_argument&) {
    return;
  }
  std::ostringstream saved;
  ficon::save_netlist(parsed, saved);
  std::istringstream again_in(saved.str());
  Netlist again;
  try {
    again = ficon::parse_netlist(again_in);
  } catch (const std::invalid_argument&) {
    fuzz_check(false, "saved netlist does not parse");
  }
  fuzz_check(again.name() == parsed.name() &&
                 same_all(again.modules(), parsed.modules(), same_module) &&
                 same_all(again.terminals(), parsed.terminals(),
                          same_terminal) &&
                 same_all(again.nets(), parsed.nets(), same_net),
             "netlist changed in a save/parse round trip");
}

void check_gsrc(const std::string& text) {
  const std::size_t first = text.find('\0');
  const std::size_t second =
      first == std::string::npos ? first : text.find('\0', first + 1);
  std::istringstream blocks(text.substr(0, first));
  std::istringstream nets(first == std::string::npos
                              ? std::string()
                              : text.substr(first + 1, second - first - 1));
  std::istringstream pl(second == std::string::npos ? std::string()
                                                    : text.substr(second + 1));
  Netlist parsed;
  try {
    parsed = ficon::parse_gsrc(blocks, nets,
                               second == std::string::npos ? nullptr : &pl,
                               "fuzz");
  } catch (const std::invalid_argument&) {
    return;
  }
  for (const Module& m : parsed.modules()) {
    fuzz_check(std::isfinite(m.width) && std::isfinite(m.height) &&
                   m.width > 0.0 && m.height > 0.0,
               "GSRC module size not finite and positive");
    if (m.soft) {
      fuzz_check(m.min_aspect > 0.0 && m.min_aspect <= m.max_aspect,
                 "GSRC soft module aspect range empty");
    }
  }
}

/// Texts the smoke loop mutates: the native save of every built-in
/// circuit, cut after the line that crosses 6 KiB so that an input parses
/// in about a millisecond under ASan (every line kind is still in it),
/// and the GSRC fixture of tests/netlist_test.cpp, with and without a .pl.
const std::vector<std::string>& smoke_texts() {
  static const std::vector<std::string> texts = [] {
    std::vector<std::string> out;
    for (const char* name : {"apte", "xerox", "hp", "ami33", "ami49"}) {
      std::ostringstream native;
      ficon::save_netlist(ficon::make_mcnc(name), native);
      const std::string text = native.str();
      out.push_back(std::string(1, '\0') +
                    text.substr(0, text.find('\n', 6 * 1024) + 1));
    }
    const std::string blocks =
        "UCSC blocks 1.0\n"
        "# created by hand\n"
        "NumSoftRectangularBlocks : 1\n"
        "NumHardRectilinearBlocks : 3\n"
        "NumTerminals : 2\n"
        "sb0 hardrectilinear 4 (0, 0) (0, 133) (126, 133) (126, 0)\n"
        "sb1 hardrectilinear 4 (0, 0) (0, 50) (100, 50) (100, 0)\n"
        "sb2 hardrectilinear 4 (0, 0) (0, 20) (30, 20) (30, 0)\n"
        "sb3 softrectangular 400 0.5 2.0\n"
        "p1 terminal\n"
        "p2 terminal\n";
    const std::string nets =
        "UCLA nets 1.0\n"
        "NumNets : 3\n"
        "NumPins : 8\n"
        "NetDegree : 2\n"
        "sb0 B\n"
        "sb1 B 10 -20\n"
        "NetDegree : 4\n"
        "sb1 B\n"
        "sb2 B\n"
        "sb3 B\n"
        "p1 B\n"
        "NetDegree : 2\n"
        "p1 B\n"
        "p2 B\n";
    const std::string pl =
        "UCLA pl 1.0\n"
        "sb0 0 0\n"
        "p1 0 0\n"
        "p2 100 50\n";
    out.push_back(std::string(1, '\1') + blocks + '\0' + nets);
    out.push_back(std::string(1, '\1') + blocks + '\0' + nets + '\0' + pl);
    return out;
  }();
  return texts;
}

/// One mutation of `s` past its format byte: overwrite, insert or delete
/// bytes, truncate, or replace a number with a value at an edge of the
/// parsers' input range.
void mutate(ficon::SplitMix64& gen, std::string& s) {
  static constexpr const char* kValues[] = {
      "0", "-0", "-1", "1e999", "-1e999", "1e-999", "1e-320", "nan", "inf",
      "1.7976931348623157e308", "-1.7976931348623157e308", "0x1p-3", "2",
      "0.5,0.5", "@", "@0.5,0.5", "#", ":", "(", "e", "-", "4", "99999999999"};
  static constexpr char kPunctuation[] = " \t\n\r\0#@,:().-+eE0123456789";
  if (s.size() < 2) {
    s.push_back(static_cast<char>(gen.next()));
    return;
  }
  const std::size_t at = 1 + gen.next() % (s.size() - 1);
  switch (gen.next() % 5) {
    case 0:
      s[at] = static_cast<char>(gen.next());
      break;
    case 1:
      s.insert(at, 1, kPunctuation[gen.next() % (sizeof(kPunctuation) - 1)]);
      break;
    case 2:
      s.erase(at, 1 + gen.next() % 16);
      break;
    case 3: {
      const std::size_t digit = s.find_first_of("0123456789", at);
      if (digit == std::string::npos) break;
      const std::size_t end = s.find_first_not_of("0123456789.e-+", digit);
      const std::size_t stop = end == std::string::npos ? s.size() : end;
      s.replace(digit, stop - digit, kValues[gen.next() % std::size(kValues)]);
      break;
    }
    default:
      s.resize(at);
      break;
  }
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  if (size == 0) return 0;
  const std::string text(reinterpret_cast<const char*>(data) + 1, size - 1);
  try {
    if (data[0] % 2 == 0) {
      check_native(text);
    } else {
      check_gsrc(text);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "exception other than invalid_argument: %s\n",
                 e.what());
    fuzz_check(false, "a parser threw something other than invalid_argument");
  }
  return 0;
}

void fuzz_smoke_input(ficon::SplitMix64& gen, std::vector<std::uint8_t>& data) {
  const std::vector<std::string>& texts = smoke_texts();
  std::string text = texts[gen.next() % texts.size()];
  // A quarter of the inputs stay valid, so the round trip runs in full.
  const int mutations = static_cast<int>(gen.next() % 4);
  for (int m = 0; m < mutations; ++m) mutate(gen, text);
  data.assign(text.begin(), text.end());
}
