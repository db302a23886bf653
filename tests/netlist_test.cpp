// Netlist structure, the MCNC-like generator and both file parsers.
#include <cstdint>
#include <sstream>

#include <gtest/gtest.h>

#include "circuit/mcnc.hpp"
#include "circuit/netlist.hpp"
#include "circuit/parser.hpp"
#include "gen/scale.hpp"

namespace ficon {
namespace {

Netlist tiny() {
  std::vector<Module> modules{{"a", 10, 20}, {"b", 30, 15}};
  std::vector<Net> nets{{"n0", {Pin::on_module(0, 0.5, 0.5), Pin::on_module(1, 0.25, 0.75)}}};
  return Netlist("tiny", std::move(modules), std::move(nets));
}

TEST(Netlist, BasicAccessors) {
  const Netlist n = tiny();
  EXPECT_EQ(n.name(), "tiny");
  EXPECT_EQ(n.module_count(), 2u);
  EXPECT_EQ(n.net_count(), 1u);
  EXPECT_EQ(n.pin_count(), 2u);
  EXPECT_DOUBLE_EQ(n.total_module_area(), 10 * 20 + 30 * 15);
  EXPECT_EQ(n.find_module("b"), 1);
  EXPECT_EQ(n.find_module("zz"), -1);
}

TEST(Netlist, ValidationRejectsBadInput) {
  EXPECT_THROW(Netlist("x", {{"a", 0, 5}}, {}), std::invalid_argument);
  EXPECT_THROW(Netlist("x", {{"a", 5, 5}, {"a", 2, 2}}, {}),
               std::invalid_argument);
  EXPECT_THROW(
      Netlist("x", {{"a", 5, 5}}, {{"n", {Pin::on_module(0, 0.5, 0.5)}}}),
      std::invalid_argument);  // degree < 2
  EXPECT_THROW(
      Netlist("x", {{"a", 5, 5}},
              {{"n", {Pin::on_module(0, 0.5, 0.5), Pin::on_module(3, 0.5, 0.5)}}}),
      std::invalid_argument);  // bad module reference
  EXPECT_THROW(
      Netlist("x", {{"a", 5, 5}, {"b", 1, 1}},
              {{"n", {Pin::on_module(0, 1.5, 0.5), Pin::on_module(1, 0.5, 0.5)}}}),
      std::invalid_argument);  // offset outside module
}

TEST(Placement, PinPositionRespectsRotation) {
  Placement p;
  p.chip = Rect{0, 0, 100, 100};
  p.module_rects = {Rect{10, 20, 30, 80}};  // 20 x 60 as placed
  p.rotated = {false};
  const Pin pin = Pin::on_module(0, 0.25, 0.75);
  const Point unrotated = p.pin_position(pin);
  EXPECT_DOUBLE_EQ(unrotated.x, 10 + 0.25 * 20);
  EXPECT_DOUBLE_EQ(unrotated.y, 20 + 0.75 * 60);
  p.rotated = {true};
  const Point rotated = p.pin_position(pin);
  EXPECT_DOUBLE_EQ(rotated.x, 10 + 0.75 * 20);  // fx/fy transposed
  EXPECT_DOUBLE_EQ(rotated.y, 20 + 0.25 * 60);
}

TEST(Netlist, TerminalsValidated) {
  const std::vector<Module> mods{{"a", 5, 5}, {"b", 5, 5}};
  // Valid: a net joining a module and a pad.
  const Terminal pad{"p0", 0.0, 0.5};
  const Netlist ok("x", mods, {pad},
                   {{"n", {Pin::on_module(0), Pin::on_terminal(0, pad)}}});
  EXPECT_EQ(ok.terminal_count(), 1u);
  EXPECT_EQ(ok.find_terminal("p0"), 0);
  EXPECT_EQ(ok.find_terminal("nope"), -1);
  // Terminal position outside the chip fraction.
  EXPECT_THROW(Netlist("x", mods, {Terminal{"p0", 1.5, 0.0}}, {}),
               std::invalid_argument);
  // Duplicate name across modules and terminals.
  EXPECT_THROW(Netlist("x", mods, {Terminal{"a", 0.0, 0.0}}, {}),
               std::invalid_argument);
  // Net referencing a terminal that does not exist.
  EXPECT_THROW(
      Netlist("x", mods, {pad},
              {{"n", {Pin::on_module(0), Pin{-1, 3, 0.5, 0.5}}}}),
      std::invalid_argument);
  // Pad-only nets are rejected (no floorplanning degree of freedom).
  const Terminal pad2{"p1", 1.0, 0.5};
  EXPECT_THROW(
      Netlist("x", mods, {pad, pad2},
              {{"n", {Pin::on_terminal(0, pad), Pin::on_terminal(1, pad2)}}}),
      std::invalid_argument);
}

TEST(Placement, TerminalPinTracksChipOutline) {
  Placement p;
  p.chip = Rect{0, 0, 200, 100};
  const Terminal pad{"p", 0.25, 1.0};
  const Pin pin = Pin::on_terminal(0, pad);
  EXPECT_EQ(p.pin_position(pin), (Point{50.0, 100.0}));
  p.chip = Rect{0, 0, 400, 300};  // chip resized: pad moves with it
  EXPECT_EQ(p.pin_position(pin), (Point{100.0, 300.0}));
}

// ---------------------------------------------------------------------------
// MCNC-like generator
// ---------------------------------------------------------------------------

TEST(Mcnc, SpecsMatchPublishedStatistics) {
  EXPECT_EQ(mcnc_specs().size(), 5u);
  EXPECT_EQ(mcnc_spec("apte").modules, 9);
  EXPECT_EQ(mcnc_spec("xerox").modules, 10);
  EXPECT_EQ(mcnc_spec("hp").modules, 11);
  EXPECT_EQ(mcnc_spec("ami33").modules, 33);
  EXPECT_EQ(mcnc_spec("ami49").modules, 49);
  EXPECT_EQ(mcnc_spec("ami33").nets, 123);
  EXPECT_EQ(mcnc_spec("ami49").nets, 408);
  EXPECT_EQ(mcnc_spec("apte").terminals, 73);
  EXPECT_EQ(mcnc_spec("ami33").terminals, 42);
  EXPECT_THROW(mcnc_spec("bogus"), std::invalid_argument);
}

class McncCircuits : public ::testing::TestWithParam<std::string> {};

TEST_P(McncCircuits, GeneratedStatisticsMatchSpec) {
  const McncSpec& spec = mcnc_spec(GetParam());
  const Netlist n = make_mcnc(GetParam());
  EXPECT_EQ(static_cast<int>(n.module_count()), spec.modules);
  EXPECT_EQ(static_cast<int>(n.net_count()), spec.nets);
  EXPECT_EQ(static_cast<int>(n.pin_count()), spec.pins);
  EXPECT_EQ(static_cast<int>(n.terminal_count()), spec.terminals);
  // Rounding to integer um dims loses at most ~0.2% of total area.
  EXPECT_NEAR(n.total_module_area(), spec.total_area_um2,
              spec.total_area_um2 * 0.01);
  n.validate();
}

TEST_P(McncCircuits, GenerationIsDeterministic) {
  const Netlist a = make_mcnc(GetParam());
  const Netlist b = make_mcnc(GetParam());
  ASSERT_EQ(a.module_count(), b.module_count());
  for (std::size_t i = 0; i < a.module_count(); ++i) {
    EXPECT_EQ(a.modules()[i].width, b.modules()[i].width);
    EXPECT_EQ(a.modules()[i].height, b.modules()[i].height);
  }
  ASSERT_EQ(a.net_count(), b.net_count());
  for (std::size_t i = 0; i < a.net_count(); ++i) {
    ASSERT_EQ(a.nets()[i].pins.size(), b.nets()[i].pins.size());
    for (std::size_t p = 0; p < a.nets()[i].pins.size(); ++p) {
      EXPECT_EQ(a.nets()[i].pins[p], b.nets()[i].pins[p]);
    }
  }
}

TEST_P(McncCircuits, AspectRatiosBounded) {
  const Netlist n = make_mcnc(GetParam());
  for (const Module& m : n.modules()) {
    const double aspect = m.width / m.height;
    EXPECT_GE(aspect, 1.0 / 4.0) << m.name;  // 3 + rounding slack
    EXPECT_LE(aspect, 4.0) << m.name;
  }
}

INSTANTIATE_TEST_SUITE_P(AllFive, McncCircuits,
                         ::testing::Values("apte", "xerox", "hp", "ami33",
                                           "ami49"));

TEST(Mcnc, DistinctCircuitsDiffer) {
  const Netlist a = make_mcnc("ami33");
  const Netlist b = make_mcnc("ami49");
  EXPECT_NE(a.module_count(), b.module_count());
}

TEST(Mcnc, SyntheticSpecValidation) {
  McncSpec bad{"bad", 1, 1, 2, 100.0};
  EXPECT_THROW(make_synthetic(bad, 1), std::invalid_argument);
  McncSpec underpinned{"u", 4, 5, 7, 100.0};  // pins < 2*nets
  EXPECT_THROW(make_synthetic(underpinned, 1), std::invalid_argument);
  const Netlist ok = make_synthetic(McncSpec{"ok", 6, 10, 25, 5000.0}, 9);
  EXPECT_EQ(ok.module_count(), 6u);
  EXPECT_EQ(ok.pin_count(), 25u);
}

// ---------------------------------------------------------------------------
// Native parser
// ---------------------------------------------------------------------------

TEST(Parser, RoundTripsGeneratedCircuit) {
  const Netlist original = make_mcnc("ami33");
  std::stringstream buffer;
  save_netlist(original, buffer);
  const Netlist parsed = parse_netlist(buffer);
  EXPECT_EQ(parsed.name(), original.name());
  ASSERT_EQ(parsed.module_count(), original.module_count());
  for (std::size_t i = 0; i < parsed.module_count(); ++i) {
    EXPECT_EQ(parsed.modules()[i].name, original.modules()[i].name);
    EXPECT_DOUBLE_EQ(parsed.modules()[i].width, original.modules()[i].width);
  }
  ASSERT_EQ(parsed.net_count(), original.net_count());
  for (std::size_t i = 0; i < parsed.net_count(); ++i) {
    ASSERT_EQ(parsed.nets()[i].pins.size(), original.nets()[i].pins.size());
    for (std::size_t p = 0; p < parsed.nets()[i].pins.size(); ++p) {
      EXPECT_EQ(parsed.nets()[i].pins[p].module,
                original.nets()[i].pins[p].module);
      EXPECT_DOUBLE_EQ(parsed.nets()[i].pins[p].fx,
                       original.nets()[i].pins[p].fx);
    }
  }
}

TEST(Parser, AcceptsCommentsAndDefaults) {
  std::istringstream in(
      "# a comment\n"
      "circuit demo\n"
      "module a 10 20  # trailing comment\n"
      "module b 5 5\n"
      "\n"
      "net n1 a b@0.1,0.9\n");
  const Netlist n = parse_netlist(in);
  EXPECT_EQ(n.name(), "demo");
  EXPECT_EQ(n.nets()[0].pins[0].fx, 0.5);  // default center pin
  EXPECT_EQ(n.nets()[0].pins[1].fx, 0.1);
  EXPECT_EQ(n.nets()[0].pins[1].fy, 0.9);
}

TEST(Parser, RejectsMalformedInputWithLineNumbers) {
  const auto expect_error = [](const std::string& text,
                               const std::string& fragment) {
    std::istringstream in(text);
    try {
      parse_netlist(in);
      FAIL() << "expected parse error for: " << text;
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(fragment), std::string::npos)
          << e.what();
    }
  };
  expect_error("module a 10\n", "module needs");
  expect_error("module a 10 -5\n", "positive");
  expect_error("module a 1 1\nmodule a 2 2\n", "duplicate");
  expect_error("module a 1 1\nnet n a zz\n", "unknown module");
  expect_error("module a 1 1\nnet n a\n", ">= 2 pins");
  expect_error("module a 1 1\nmodule b 1 1\nnet n a@2,0 b\n", "outside");
  expect_error("blurb\n", "unknown keyword");
}

// ---------------------------------------------------------------------------
// GSRC parser
// ---------------------------------------------------------------------------

TEST(GsrcParser, ParsesBlocksAndNets) {
  std::istringstream blocks(
      "UCSC blocks 1.0\n"
      "# created by hand\n"
      "NumSoftRectangularBlocks : 0\n"
      "NumHardRectilinearBlocks : 3\n"
      "NumTerminals : 2\n"
      "sb0 hardrectilinear 4 (0, 0) (0, 133) (126, 133) (126, 0)\n"
      "sb1 hardrectilinear 4 (0, 0) (0, 50) (100, 50) (100, 0)\n"
      "sb2 hardrectilinear 4 (0, 0) (0, 20) (30, 20) (30, 0)\n"
      "p1 terminal\n"
      "p2 terminal\n");
  std::istringstream nets(
      "UCLA nets 1.0\n"
      "NumNets : 3\n"
      "NumPins : 7\n"
      "NetDegree : 2\n"
      "sb0 B\n"
      "sb1 B\n"
      "NetDegree : 3\n"
      "sb1 B\n"
      "sb2 B\n"
      "p1 B\n"
      "NetDegree : 2\n"
      "p1 B\n"
      "p2 B\n");
  const Netlist n = parse_gsrc(blocks, nets, "toy");
  EXPECT_EQ(n.module_count(), 3u);
  EXPECT_DOUBLE_EQ(n.modules()[0].width, 126.0);
  EXPECT_DOUBLE_EQ(n.modules()[0].height, 133.0);
  // Net 3 connected only terminals and is dropped; net 2 loses its pad pin.
  EXPECT_EQ(n.net_count(), 2u);
  EXPECT_EQ(n.nets()[0].pins.size(), 2u);
  EXPECT_EQ(n.nets()[1].pins.size(), 2u);
}

TEST(GsrcParser, SoftBlocksInstantiatedAtUnitAspect) {
  std::istringstream blocks(
      "UCSC blocks 1.0\n"
      "NumSoftRectangularBlocks : 1\n"
      "sb0 softrectangular 400 0.5 2.0\n");
  std::istringstream nets("UCLA nets 1.0\nNumNets : 0\nNumPins : 0\n");
  // A single module with no nets is still a valid netlist.
  const Netlist n = parse_gsrc(blocks, nets, "soft");
  EXPECT_EQ(n.module_count(), 1u);
  EXPECT_DOUBLE_EQ(n.modules()[0].width, 20.0);
  EXPECT_DOUBLE_EQ(n.modules()[0].height, 20.0);
}

TEST(GsrcParser, RejectsUnknownBlockKindsAndPins) {
  {
    std::istringstream blocks("sb0 mystery 4\n");
    std::istringstream nets("");
    EXPECT_THROW(parse_gsrc(blocks, nets, "x"), std::invalid_argument);
  }
  {
    std::istringstream blocks(
        "sb0 hardrectilinear 4 (0,0) (0,1) (1,1) (1,0)\n");
    std::istringstream nets("NetDegree : 2\nsb0 B\nghost B\n");
    EXPECT_THROW(parse_gsrc(blocks, nets, "x"), std::invalid_argument);
  }
}


TEST(GsrcParser, RejectsOutlinesOutsideTheDoubleRange) {
  // The first two corners used to escape the parser as std::out_of_range
  // from std::stod (found by fuzz/netlist_fuzz.cpp); the third, within the
  // double range but 2e308 wide, gave a module of infinite width.
  for (const char* outline : {
           "sb0 hardrectilinear 4 (0, 0) (0, 1) (1e999, 1) (1e999, 0)\n",
           "sb0 hardrectilinear 4 (0, 0) (0, 1e-999) (1, 1e-999) (1, 0)\n",
           "sb0 hardrectilinear 4 (-1e308, 0) (-1e308, 1) (1e308, 1) "
           "(1e308, 0)\n",
       }) {
    std::istringstream blocks(outline);
    std::istringstream nets("");
    EXPECT_THROW(parse_gsrc(blocks, nets, "x"), std::invalid_argument)
        << outline;
  }
}

// ---------------------------------------------------------------------------
// Terminals in both file formats
// ---------------------------------------------------------------------------

TEST(Parser, TerminalDeclarationAndPins) {
  std::istringstream in(
      "circuit demo\n"
      "module a 10 20\n"
      "module b 5 5\n"
      "terminal p0 0.0 0.25\n"
      "net n1 a p0\n"
      "net n2 a@0.1,0.9 b\n");
  const Netlist n = parse_netlist(in);
  ASSERT_EQ(n.terminal_count(), 1u);
  EXPECT_DOUBLE_EQ(n.terminals()[0].fy, 0.25);
  ASSERT_TRUE(n.nets()[0].pins[1].is_terminal());
  EXPECT_EQ(n.nets()[0].pins[1].terminal, 0);
  EXPECT_DOUBLE_EQ(n.nets()[0].pins[1].fx, 0.0);
}

TEST(Parser, TerminalRoundTrip) {
  const Netlist original = make_mcnc("ami33");
  ASSERT_GT(original.terminal_count(), 0u);
  std::stringstream buffer;
  save_netlist(original, buffer);
  const Netlist parsed = parse_netlist(buffer);
  ASSERT_EQ(parsed.terminal_count(), original.terminal_count());
  for (std::size_t t = 0; t < parsed.terminal_count(); ++t) {
    EXPECT_EQ(parsed.terminals()[t].name, original.terminals()[t].name);
    EXPECT_DOUBLE_EQ(parsed.terminals()[t].fx, original.terminals()[t].fx);
    EXPECT_DOUBLE_EQ(parsed.terminals()[t].fy, original.terminals()[t].fy);
  }
  EXPECT_EQ(parsed.pin_count(), original.pin_count());
}

TEST(Parser, TerminalErrors) {
  {
    std::istringstream in("terminal p0 2.0 0.0\n");
    EXPECT_THROW(parse_netlist(in), std::invalid_argument);
  }
  {
    std::istringstream in(
        "module a 1 1\nterminal p0 0 0\nnet n a p0@0.5,0.5\n");
    EXPECT_THROW(parse_netlist(in), std::invalid_argument);  // pad offset
  }
  {
    std::istringstream in("module a 1 1\nterminal a 0 0\n");
    EXPECT_THROW(parse_netlist(in), std::invalid_argument);  // name clash
  }
}

TEST(GsrcParser, PlStreamKeepsTerminals) {
  std::istringstream blocks(
      "UCSC blocks 1.0\n"
      "NumHardRectilinearBlocks : 2\n"
      "NumTerminals : 2\n"
      "sb0 hardrectilinear 4 (0, 0) (0, 10) (10, 10) (10, 0)\n"
      "sb1 hardrectilinear 4 (0, 0) (0, 20) (20, 20) (20, 0)\n"
      "p1 terminal\n"
      "p2 terminal\n");
  std::istringstream nets(
      "UCLA nets 1.0\n"
      "NetDegree : 2\n"
      "sb0 B\n"
      "p1 B\n"
      "NetDegree : 2\n"
      "sb1 B\n"
      "p2 B\n");
  std::istringstream pl(
      "UCLA pl 1.0\n"
      "sb0 0 0\n"
      "p1 0 0\n"
      "p2 100 50\n");
  const Netlist n = parse_gsrc(blocks, nets, &pl, "toy");
  ASSERT_EQ(n.terminal_count(), 2u);
  EXPECT_DOUBLE_EQ(n.terminals()[0].fx, 0.0);
  EXPECT_DOUBLE_EQ(n.terminals()[1].fx, 1.0);
  EXPECT_DOUBLE_EQ(n.terminals()[1].fy, 1.0);
  ASSERT_EQ(n.net_count(), 2u);
  EXPECT_TRUE(n.nets()[0].pins[1].is_terminal());
  EXPECT_TRUE(n.nets()[1].pins[1].is_terminal());
}

// Pins the parser's output bit-for-bit. The parser's name-interning maps
// are ordered containers (ficon_lint rule D001): a lookup structure must
// never be able to change the parsed module/net order, and this
// fingerprint would move if one ever did.
TEST(YalParser, FingerprintIsStable) {
  std::istringstream in(
      "module a 10 20\n"
      "module b 5 5\n"
      "module c 8 12\n"
      "terminal p0 0.0 0.25\n"
      "terminal p1 1.0 0.75\n"
      "net n1 a p0\n"
      "net n2 a@0.1,0.9 b\n"
      "net n3 b c p1\n");
  const Netlist n = parse_netlist(in);
  EXPECT_EQ(netlist_fingerprint(n), 0xf0844de208fa6bc9ull);
}

}  // namespace
}  // namespace ficon
