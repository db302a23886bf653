// Microbenchmark (google-benchmark): single-evaluation cost of each
// congestion model on fixed placements of the MCNC circuits — the
// apples-to-apples version of Experiment 3's run-time claim (the IR-grid
// model evaluates faster than fine fixed grids while judging better).
//
// One more banded case runs in the regime of perfbench's stream: the
// generated ami49x80 tier in shelf rows at pitch max(30 um, extent / 200).
// Most of its nets are degenerate or small, so it is the quick probe for
// changes to the per-net set-up (snap, lattice, spans, band plan); the
// ami49 case is the probe for the band steps themselves. Two last cases
// time the layers before scoring on that tier at the pool's thread count
// (FICON_THREADS): cutlines/ami49x80 runs build_cutlines alone (one block
// per axis at 1 thread, the value-range split on more), and
// decompose/ami49x80 a fixed walk of 40 moves through TwoPinDecomposer
// (one block at 1 thread, pool blocks on more).
#include <benchmark/benchmark.h>

#include "ficon.hpp"

namespace {

using namespace ficon;

/// One packed placement per circuit, built once, and its fine pitch.
struct Workload {
  Rect chip;
  std::vector<TwoPinNet> nets;
  double pitch = 30.0;
};

/// The stream tier; stream_workload() builds it.
constexpr const char* kStreamTier = "ami49x80";

/// Rows of width sqrt(1.15 * module area) filled in module order, each a V
/// chain, stacked with H: a roughly square start, as the stream's.
PolishExpression shelf_rows(const Netlist& netlist) {
  const double shelf_w = std::sqrt(1.15 * netlist.total_module_area());
  std::vector<PolishToken> tokens;
  double x = 0.0;
  bool first_row = true;
  for (std::size_t i = 0; i < netlist.module_count(); ++i) {
    const double w = netlist.modules()[i].width;
    if (x > 0.0 && x + w > shelf_w) {
      if (!first_row) tokens.push_back(PolishToken{PolishToken::kH});
      first_row = false;
      x = 0.0;
    }
    tokens.push_back(PolishToken{static_cast<int>(i)});
    if (x > 0.0) tokens.push_back(PolishToken{PolishToken::kV});
    x += w;
  }
  if (!first_row) tokens.push_back(PolishToken{PolishToken::kH});
  return PolishExpression(std::move(tokens));
}

/// The stream tier (generator seed 7) packed in shelf rows, built once.
const Workload& stream_workload() {
  static const Workload w = [] {
    const Netlist netlist =
        make_scale_netlist(parse_scale_tier(kStreamTier), 7);
    const SlicingResult packed =
        SlicingPacker(netlist).pack(shelf_rows(netlist));
    Workload out;
    out.chip = packed.placement.chip;
    out.nets = decompose_to_two_pin(netlist, packed.placement);
    out.pitch = std::max(30.0, std::max(packed.width, packed.height) / 200.0);
    return out;
  }();
  return w;
}

const Workload& workload(const std::string& circuit) {
  if (circuit == kStreamTier) return stream_workload();
  static std::map<std::string, Workload> cache;
  auto it = cache.find(circuit);
  if (it == cache.end()) {
    const Netlist netlist = make_mcnc(circuit);
    FloorplanOptions options;
    options.effort = 0.2;
    options.anneal.stop_temperature_ratio = 1e-2;
    const FloorplanSolution sol = Floorplanner(netlist, options).run();
    Workload w;
    w.chip = sol.placement.chip;
    w.nets = decompose_to_two_pin(netlist, sol.placement);
    it = cache.emplace(circuit, std::move(w)).first;
  }
  return it->second;
}

void BM_FixedGrid(benchmark::State& state, const std::string& circuit,
                  double pitch) {
  const Workload& w = workload(circuit);
  const FixedGridModel model(FixedGridParams{pitch, pitch, 0.10});
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.cost(w.nets, w.chip));
  }
  state.SetLabel(circuit + " @" + std::to_string(static_cast<int>(pitch)) +
                 "um");
}

void BM_IrregularGrid(benchmark::State& state, const std::string& circuit,
                      IrEvalStrategy strategy, const char* label) {
  const Workload& w = workload(circuit);
  IrregularGridParams params;
  params.grid_w = w.pitch;
  params.grid_h = w.pitch;
  params.strategy = strategy;
  if (strategy == IrEvalStrategy::kTheorem1) {
    // Measure the paper's approximation itself, not the accuracy-first
    // exact fallbacks (which would swallow most MCNC-scale ranges).
    params.approx.narrow_range_threshold = 5;
    params.approx.small_region_threshold = 4;
  }
  const IrregularGridModel model(params);
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.cost(w.nets, w.chip));
  }
  state.SetLabel(circuit + " " + label);
}

/// build_cutlines alone on the stream tier at the default merge factor.
void BM_StreamCutlines(benchmark::State& state) {
  const Workload& w = stream_workload();
  const double gap = IrregularGridParams{}.merge_factor * w.pitch;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        build_cutlines(w.nets, w.chip, gap, gap).cell_count());
  }
  state.SetLabel(std::string(kStreamTier) + " cut lines, " +
                 std::to_string(ThreadPool::global().threads()) +
                 " pool threads");
}

/// The stream tier and the placements of a fixed walk of 40 random Polish
/// moves from its shelf rows (move seed 5), built once.
struct StreamWalk {
  Netlist netlist;
  std::vector<Placement> placements;
};

const StreamWalk& stream_walk() {
  static const StreamWalk w = [] {
    StreamWalk out{make_scale_netlist(parse_scale_tier(kStreamTier), 7), {}};
    const SlicingPacker packer(out.netlist);
    PolishExpression expr = shelf_rows(out.netlist);
    Rng rng(5);
    for (int i = 0; i < 40; ++i) {
      expr.random_move(rng);
      out.placements.push_back(packer.pack(expr).placement);
    }
    return out;
  }();
  return w;
}

/// TwoPinDecomposer alone on the stream tier: one iteration decomposes
/// the walk's 40 placements in order, and the next starts over from the
/// first, so every iteration makes the same changes.
void BM_StreamDecompose(benchmark::State& state) {
  const StreamWalk& w = stream_walk();
  TwoPinDecomposer decomposer;
  decomposer.decompose(w.netlist, w.placements.back());
  for (auto _ : state) {
    for (const Placement& placement : w.placements) {
      benchmark::DoNotOptimize(
          decomposer.decompose(w.netlist, placement).data());
    }
  }
  state.SetLabel(std::string(kStreamTier) + " 40 moves, " +
                 std::to_string(ThreadPool::global().threads()) +
                 " pool threads");
}

void register_all() {
  for (const char* circuit : {"ami33", "ami49"}) {
    for (const double pitch : {100.0, 50.0, 10.0}) {
      benchmark::RegisterBenchmark(
          (std::string("fixed_grid/") + circuit + "/" +
           std::to_string(static_cast<int>(pitch)) + "um")
              .c_str(),
          [circuit, pitch](benchmark::State& s) {
            BM_FixedGrid(s, circuit, pitch);
          });
    }
    benchmark::RegisterBenchmark(
        (std::string("irregular/") + circuit + "/theorem1").c_str(),
        [circuit](benchmark::State& s) {
          BM_IrregularGrid(s, circuit, IrEvalStrategy::kTheorem1, "theorem1");
        });
    benchmark::RegisterBenchmark(
        (std::string("irregular/") + circuit + "/banded_exact").c_str(),
        [circuit](benchmark::State& s) {
          BM_IrregularGrid(s, circuit, IrEvalStrategy::kBandedExact,
                           "banded");
        });
  }
  benchmark::RegisterBenchmark(
      (std::string("irregular/") + kStreamTier + "/banded_exact").c_str(),
      [](benchmark::State& s) {
        BM_IrregularGrid(s, kStreamTier, IrEvalStrategy::kBandedExact,
                         "banded, stream regime");
      });
  benchmark::RegisterBenchmark(
      (std::string("cutlines/") + kStreamTier).c_str(), BM_StreamCutlines);
  benchmark::RegisterBenchmark(
      (std::string("decompose/") + kStreamTier).c_str(), BM_StreamDecompose);
}

/// Banded-scorer work of one evaluation, from the trace counters: nets
/// that are not degenerate run the band pass unless they fall back per
/// region (exact regions), so the means are per banded net when that
/// count is 0.
void print_banded_summary(const char* name, const Workload& w) {
  IrregularGridParams params;
  params.grid_w = params.grid_h = w.pitch;
  const bool was_enabled = obs::trace_enabled();
  obs::set_trace_enabled(true);
  obs::reset();
  IrregularGridModel(params).evaluate(w.nets, w.chip);
  const obs::TraceReport report = obs::capture();
  obs::set_trace_enabled(was_enabled);
  const long long scored = report.counter(obs::Counter::kIrNetsScored);
  const long long degenerate =
      report.counter(obs::Counter::kIrNetsDegenerate);
  const double banded = static_cast<double>(std::max(1ll, scored - degenerate));
  printf("  banded %s @%.0fum: %lld nets, %lld degenerate, per banded net "
         "%.1f IR cells and %.1f band steps (%lld exact regions)\n",
         name, w.pitch, scored, degenerate,
         static_cast<double>(report.counter(obs::Counter::kIrRegionsBanded)) /
             banded,
         static_cast<double>(report.counter(obs::Counter::kIrBandSteps)) /
             banded,
         report.counter(obs::Counter::kIrRegionsExact));
}

/// The Experiment 3 mechanism, independent of implementation constants:
/// how many cell regions each model touches per evaluation.
void print_workload_summary() {
  for (const char* circuit : {"ami33", "ami49"}) {
    const Workload& w = workload(circuit);
    printf("%s: %zu two-pin nets, chip %.2f x %.2f mm\n", circuit,
           w.nets.size(), w.chip.width() / 1e3, w.chip.height() / 1e3);
    for (const double pitch : {100.0, 50.0, 10.0}) {
      const GridSpec grid = GridSpec::from_pitch(w.chip, pitch, pitch);
      long long updates = 0;
      for (const TwoPinNet& net : w.nets) {
        const SpannedNet s = span_net(grid, net);
        updates += static_cast<long long>(s.shape.g1) * s.shape.g2;
      }
      printf("  fixed %3.0fum: %7lld cell updates over %lld grid cells\n",
             pitch, updates, grid.cell_count());
    }
    IrregularGridParams params;
    params.grid_w = 30.0;
    params.grid_h = 30.0;
    const IrregularGridModel model(params);
    const IrregularCongestionMap map = model.evaluate(w.nets, w.chip);
    long long regions = 0;
    const CutLines& cl = map.lines();
    for (const TwoPinNet& net : w.nets) {
      const Rect r = net.routing_range().intersection(w.chip);
      if (!r.valid()) continue;
      const long long nx = std::abs(cl.nearest_x(r.xhi) - cl.nearest_x(r.xlo));
      const long long ny = std::abs(cl.nearest_y(r.yhi) - cl.nearest_y(r.ylo));
      regions += std::max(1ll, nx) * std::max(1ll, ny);
    }
    printf("  IR-grid 30um: %7lld region evaluations over %lld IR-cells\n",
           regions, map.cell_count());
    if (std::string(circuit) == "ami49") {
      print_banded_summary(circuit, w);
      print_banded_summary(kStreamTier, stream_workload());
    }
    printf("\n");
  }
}

}  // namespace

int main(int argc, char** argv) {
  print_workload_summary();
  register_all();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
