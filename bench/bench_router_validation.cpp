// Beyond the paper: validate the validators. The paper judges floorplans
// with a fine fixed-grid *estimator*; this bench routes the decomposed nets
// with the capacitated monotone global router and correlates every
// estimator — IR-grid (30um), fixed-grid at several pitches — against the
// congestion the router actually realizes, across a spread of placements.
//
// Measured shape (ami33, 40 placements, Pearson): finer fixed pitches
// correlate better with routed usage, the 10um judge at 0.92, which
// supports the paper's use of a 10um fixed grid as referee; the IR cost is
// the weakest estimator at 0.72 (EXPERIMENTS.md; router_test holds floors
// under both).
#include <iostream>
#include <vector>

#include "bench_common.hpp"
#include "ficon.hpp"

using namespace ficon;

int main() {
  const ExperimentConfig config = experiment_config_from_env();
  const std::string circuit = env_string("FICON_T4_CIRCUIT", "ami33");
  const int placements = std::max(6, env_int("FICON_PLACEMENTS", 10));
  std::cout << "Router validation — estimator vs routed congestion over "
            << placements << " placements (" << circuit << ")\n";
  print_scale_banner(config);

  const Netlist netlist = make_mcnc(circuit);

  // A spread of placement qualities: annealed at different efforts/seeds.
  struct Sample {
    Placement placement;
    std::vector<TwoPinNet> nets;
  };
  std::vector<Sample> samples;
  for (int i = 0; i < placements; ++i) {
    FloorplanOptions o = bench::tuned_options(config);
    o.effort = 0.1 + 0.1 * (i % 4);
    o.seed = static_cast<std::uint64_t>(100 + i);
    Sample s;
    s.placement = Floorplanner(netlist, o).run().placement;
    s.nets = decompose_to_two_pin(netlist, s.placement);
    samples.push_back(std::move(s));
  }

  RouterParams rp;
  rp.pitch = env_double("FICON_ROUTER_PITCH", 20.0);
  rp.capacity = env_double("FICON_ROUTER_CAPACITY", 3.0);
  rp.ripup_passes = 2;
  const GlobalRouter router(rp);
  std::vector<double> routed;
  for (const Sample& s : samples) {
    routed.push_back(
        router.route(s.nets, s.placement.chip).top_fraction_usage(0.10));
  }

  TextTable table({"estimator", "corr vs routed top-10% usage"});
  const auto fixed_row = [&](double pitch) {
    const FixedGridModel model(FixedGridParams{pitch, pitch, 0.10});
    std::vector<double> est;
    for (const Sample& s : samples) {
      est.push_back(model.cost(s.nets, s.placement.chip));
    }
    table.add_row({"fixed grid " + fmt_fixed(pitch, 0) + "um",
                   fmt_fixed(pearson(est, routed), 3)});
  };
  fixed_row(100.0);
  fixed_row(50.0);
  fixed_row(10.0);

  const IrregularGridModel ir(bench::paper_ir_params(circuit));
  std::vector<double> ir_est;
  for (const Sample& s : samples) {
    ir_est.push_back(ir.cost(s.nets, s.placement.chip));
  }
  table.add_row({"IR-grid 30um (banded exact)",
                 fmt_fixed(pearson(ir_est, routed), 3)});

  const IrregularGridModel ir_paper(bench::paper_mode_params(circuit));
  std::vector<double> irp_est;
  for (const Sample& s : samples) {
    irp_est.push_back(ir_paper.cost(s.nets, s.placement.chip));
  }
  table.add_row({"IR-grid 30um (Theorem 1 paper mode)",
                 fmt_fixed(pearson(irp_est, routed), 3)});

  table.print(std::cout);
  std::cout << "router: pitch " << rp.pitch << " um, capacity " << rp.capacity
            << " tracks/cell, monotone min-congestion DP + rip-up\n";
  return 0;
}
