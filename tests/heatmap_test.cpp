// Heat-map export: the SVG and feature dumps must be pure, deterministic
// functions of the flow field — byte-identical across thread counts and
// repeated runs — and the per-cell quantities (capacity, usage, overflow,
// crossing nets) must match the field they view bit for bit.
#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "ficon.hpp"
#include "obs/json.hpp"

namespace ficon {
namespace {

/// Deterministic apte floorplan + decomposed nets shared by the tests.
struct Workload {
  Netlist netlist = make_mcnc("apte");
  Placement placement;
  std::vector<TwoPinNet> nets;

  Workload() {
    SlicingPacker packer(netlist);
    const PolishExpression expr =
        PolishExpression::initial(static_cast<int>(netlist.module_count()));
    placement = packer.pack(expr).placement;
    const auto span = decompose_to_two_pin(netlist, placement);
    nets.assign(span.begin(), span.end());
  }
};

std::string render_svg(const CongestionModel& model, const Workload& w) {
  const std::unique_ptr<FlowField> field =
      model.evaluate_field(w.nets, w.placement.chip);
  HeatMapSource source(*field, model.name());
  source.set_nets(w.nets);
  std::ostringstream os;
  source.write_svg(os);
  return os.str();
}

class HeatMapTest : public ::testing::Test {
 protected:
  void TearDown() override {
    ThreadPool::set_global_threads(ThreadPool::env_threads());
  }
};

TEST_F(HeatMapTest, SvgIsByteIdenticalAcrossThreadCountsAndRuns) {
  const Workload w;
  const IrregularGridParams ir_params;
  const FixedGridParams fixed_params;
  for (const CongestionModelKind kind :
       {CongestionModelKind::kIrregularGrid,
        CongestionModelKind::kFixedGrid}) {
    const std::unique_ptr<CongestionModel> model =
        make_congestion_model(kind, ir_params, fixed_params);
    ASSERT_NE(model, nullptr);

    ThreadPool::set_global_threads(1);
    const std::string reference = render_svg(*model, w);
    ASSERT_FALSE(reference.empty());
    EXPECT_NE(reference.find("<svg"), std::string::npos);
    EXPECT_NE(reference.find("</svg>"), std::string::npos);
    EXPECT_NE(reference.find(model->name()), std::string::npos);

    for (const int threads : {1, 2, 4, 8}) {
      ThreadPool::set_global_threads(threads);
      // Re-evaluate the field from scratch at this thread count, twice:
      // run-to-run and thread-count determinism in one check.
      EXPECT_EQ(render_svg(*model, w), reference)
          << model->name() << " threads=" << threads;
      EXPECT_EQ(render_svg(*model, w), reference)
          << model->name() << " threads=" << threads << " (repeat)";
    }
  }
}

TEST_F(HeatMapTest, CellValuesMatchTheUnderlyingField) {
  const Workload w;
  const IrregularGridModel model;
  const std::unique_ptr<FlowField> field =
      model.evaluate_field(w.nets, w.placement.chip);
  HeatMapSource source(*field, model.name());
  source.set_nets(w.nets);

  double total_flow = 0.0, total_area = 0.0;
  for (int cy = 0; cy < field->ny(); ++cy) {
    for (int cx = 0; cx < field->nx(); ++cx) {
      total_flow += field->value_at(cx, cy);
      total_area += field->cell_rect(cx, cy).area();
    }
  }
  EXPECT_EQ(source.capacity_density(), total_flow / total_area);

  for (int cy = 0; cy < field->ny(); ++cy) {
    for (int cx = 0; cx < field->nx(); ++cx) {
      EXPECT_EQ(source.usage(cx, cy), field->value_at(cx, cy));
      EXPECT_EQ(source.density(cx, cy), field->density(cx, cy));
      EXPECT_EQ(source.capacity(cx, cy),
                source.capacity_density() * field->cell_rect(cx, cy).area());
      const double over = source.usage(cx, cy) - source.capacity(cx, cy);
      EXPECT_EQ(source.overflow(cx, cy), over > 0.0 ? over : 0.0);
    }
  }
}

TEST(HeatMapFeatures, CsvGoldenOnHandBuiltMap) {
  // 2x2 uniform grid over a 20x20 chip, one known value per cell, one
  // diagonal net crossing everything: every emitted number is checkable
  // by hand. Capacity density = total flow / chip area = 10 / 400.
  CongestionMap map(GridSpec::from_counts(Rect{0.0, 0.0, 20.0, 20.0}, 2, 2));
  map.add(0, 0, 1.0);
  map.add(1, 0, 2.0);
  map.add(0, 1, 3.0);
  map.add(1, 1, 4.0);
  const std::vector<TwoPinNet> nets = {
      TwoPinNet{{1.0, 1.0}, {19.0, 19.0}, 0},   // crosses all four cells
      TwoPinNet{{1.0, 1.0}, {9.0, 9.0}, 1},     // bottom-left only
  };
  HeatMapSource source(map, "fixed_grid");
  source.set_nets(nets);

  EXPECT_EQ(source.crossing_nets(0, 0), 2);
  EXPECT_EQ(source.crossing_nets(1, 0), 1);
  EXPECT_EQ(source.crossing_nets(0, 1), 1);
  EXPECT_EQ(source.crossing_nets(1, 1), 1);

  std::ostringstream csv;
  source.write_features_csv(csv);
  const std::string expected =
      "cx,cy,xlo,ylo,xhi,yhi,capacity,usage,density,crossing_nets,"
      "overflow\n"
      "0,0,0,0,10,10,2.5,1,0.01,2,0\n"
      "1,0,10,0,20,10,2.5,2,0.02,1,0\n"
      "0,1,0,10,10,20,2.5,3,0.029999999999999999,1,0.5\n"
      "1,1,10,10,20,20,2.5,4,0.040000000000000001,1,1.5\n";
  EXPECT_EQ(csv.str(), expected);
}

TEST(HeatMapFeatures, JsonlRowsParseAndCarryEveryField) {
  CongestionMap map(GridSpec::from_counts(Rect{0.0, 0.0, 20.0, 20.0}, 2, 2));
  map.add(0, 0, 1.0);
  map.add(1, 1, 4.0);
  HeatMapSource source(map, "fixed_grid");

  std::ostringstream jsonl;
  source.write_features_jsonl(jsonl);
  std::istringstream in(jsonl.str());
  std::string line;
  int rows = 0;
  while (std::getline(in, line)) {
    std::string error;
    const auto v = obs::parse_json(line, &error);
    ASSERT_TRUE(v.has_value()) << line << ": " << error;
    ASSERT_TRUE(v->is_object());
    EXPECT_EQ(v->find("source")->string, "fixed_grid");
    for (const char* key : {"cx", "cy", "xlo", "ylo", "xhi", "yhi",
                            "capacity", "usage", "density", "crossing_nets",
                            "overflow"}) {
      const obs::JsonValue* member = v->find(key);
      ASSERT_NE(member, nullptr) << key << " missing in " << line;
      EXPECT_TRUE(member->is_number()) << key;
    }
    ++rows;
  }
  EXPECT_EQ(rows, 4);

  // %.17g round trip: the JSONL value equals the in-memory double bitwise.
  std::istringstream again(jsonl.str());
  std::getline(again, line);
  const auto first = obs::parse_json(line);
  EXPECT_EQ(first->find("usage")->number, map.at(0, 0));
  EXPECT_EQ(first->find("density")->number, map.density(0, 0));
}

TEST(HeatMapFeatures, DegenerateNetOnCutLineCrossesBothNeighbours) {
  // A vertical net exactly on the x = 10 cut: closed routing ranges touch
  // both columns, so both cells count it — mirrors the models' closed
  // span treatment.
  CongestionMap map(GridSpec::from_counts(Rect{0.0, 0.0, 20.0, 20.0}, 2, 1));
  const std::vector<TwoPinNet> nets = {TwoPinNet{{10.0, 2.0}, {10.0, 8.0}, 0}};
  HeatMapSource source(map, "fixed_grid");
  source.set_nets(nets);
  EXPECT_EQ(source.crossing_nets(0, 0), 1);
  EXPECT_EQ(source.crossing_nets(1, 0), 1);
}

TEST(HeatMapSvgTest, TitleLegendAndTooltips) {
  CongestionMap map(GridSpec::from_counts(Rect{0.0, 0.0, 20.0, 20.0}, 2, 2));
  map.add(0, 0, 1.0);
  HeatMapSource source(map, "fixed_grid");

  std::ostringstream titled;
  source.write_svg(titled, "heading");
  EXPECT_NE(titled.str().find(">heading</text>"), std::string::npos);

  std::ostringstream full;
  source.write_svg(full);
  EXPECT_NE(full.str().find(">fixed_grid congestion</text>"),
            std::string::npos);
  EXPECT_NE(full.str().find("linearGradient"), std::string::npos);
  EXPECT_NE(full.str().find("<title>cell"), std::string::npos);
}

}  // namespace
}  // namespace ficon
