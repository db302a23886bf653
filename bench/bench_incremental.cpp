// Incremental evaluation pipeline: stage speedup and bit-identity.
//
// Two views of the same pipeline:
//
// 1. Stage throughput on an MCNC-scale annealing move stream. The
//    incremental re-pack (cached per-node shape curves, dirty-root-path
//    recomputation) and the caching decomposer are timed against their
//    from-scratch counterparts on an identical sequence of Polish
//    expression moves, asserting identical packing results move by move.
//    The re-pack stage is the pipeline's headline: the bench fails unless
//    it clears 2x moves/sec over full re-packing.
//
// 2. End-to-end congestion-driven annealing (Floorplanner::run) at
//    1/2/4/8 threads. Final cost and best representation must be
//    bit-identical across thread counts; the bench exits non-zero on any
//    divergence.
//
// Knobs: FICON_INC_CIRCUIT (default ami33), FICON_GAMMA, FICON_SCALE.
#include <cstdint>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "ficon.hpp"

using namespace ficon;

namespace {

struct StageResult {
  double baseline_mps = 0.0;
  double incremental_mps = 0.0;
  bool identical = true;
  double speedup() const { return incremental_mps / baseline_mps; }
};

/// Time pack() vs pack_cached() over the same annealing move stream,
/// verifying per-move that both produce the same packing.
StageResult repack_stage(const Netlist& netlist, int moves) {
  std::vector<PolishExpression> seq;
  seq.reserve(static_cast<std::size_t>(moves));
  Rng rng(7);
  PolishExpression expr =
      PolishExpression::initial(static_cast<int>(netlist.module_count()));
  for (int i = 0; i < moves; ++i) {
    expr.random_move(rng);
    seq.push_back(expr);
  }

  StageResult r;
  SlicingPacker full(netlist);
  SlicingPacker cached(netlist);
  std::vector<double> areas;
  areas.reserve(seq.size());
  Stopwatch sw;
  for (const PolishExpression& e : seq) areas.push_back(full.pack(e).area);
  r.baseline_mps = moves / sw.seconds();
  sw = Stopwatch();
  for (std::size_t i = 0; i < seq.size(); ++i) {
    const SlicingResult& packed = cached.pack_cached_ref(seq[i]);
    if (packed.area != areas[i]) r.identical = false;
  }
  r.incremental_mps = moves / sw.seconds();
  return r;
}

/// Time decompose_to_two_pin() (fresh buffers per candidate) vs the
/// caching TwoPinDecomposer over the same placement stream, verifying
/// identical edges.
StageResult decompose_stage(const Netlist& netlist, int moves) {
  std::vector<Placement> placements;
  placements.reserve(static_cast<std::size_t>(moves));
  Rng rng(7);
  PolishExpression expr =
      PolishExpression::initial(static_cast<int>(netlist.module_count()));
  SlicingPacker packer(netlist);
  for (int i = 0; i < moves; ++i) {
    expr.random_move(rng);
    placements.push_back(packer.pack(expr).placement);
  }

  StageResult r;
  std::vector<double> lengths;
  lengths.reserve(placements.size());
  Stopwatch sw;
  for (const Placement& p : placements) {
    lengths.push_back(total_length(decompose_to_two_pin(netlist, p)));
  }
  r.baseline_mps = moves / sw.seconds();
  TwoPinDecomposer decomposer;
  sw = Stopwatch();
  for (std::size_t i = 0; i < placements.size(); ++i) {
    if (total_length(decomposer.decompose(netlist, placements[i])) !=
        lengths[i]) {
      r.identical = false;
    }
  }
  r.incremental_mps = moves / sw.seconds();
  return r;
}

}  // namespace

int main() {
  obs::set_thread_label("main");
  const ExperimentConfig config = experiment_config_from_env();
  const std::string circuit = env_string("FICON_INC_CIRCUIT", "ami33");
  const std::vector<int> thread_counts = {1, 2, 4, 8};

  std::cout << "Incremental evaluation pipeline — " << circuit
            << " congestion-driven annealing (hardware threads: "
            << std::thread::hardware_concurrency() << ")\n";
  print_scale_banner(config);

  const Netlist netlist = make_mcnc(circuit);
  bool identical = true;

  // --- Stage throughput on the annealing move stream. ---
  const int stage_moves =
      std::max(2000, static_cast<int>(20000 * config.scale));
  TextTable stages({"stage", "baseline mv/s", "incremental mv/s", "speedup"});
  const StageResult repack = repack_stage(netlist, stage_moves);
  stages.add_row({"re-pack", fmt_fixed(repack.baseline_mps, 0),
                  fmt_fixed(repack.incremental_mps, 0),
                  fmt_fixed(repack.speedup(), 2)});
  const StageResult decomp = decompose_stage(netlist, stage_moves);
  stages.add_row({"decompose+wirelength", fmt_fixed(decomp.baseline_mps, 0),
                  fmt_fixed(decomp.incremental_mps, 0),
                  fmt_fixed(decomp.speedup(), 2)});
  stages.print(std::cout);
  std::cout << "# re-pack speedup " << fmt_fixed(repack.speedup(), 2)
            << "x (gate: >= 2x), stages bit-identical: "
            << ((repack.identical && decomp.identical) ? "yes" : "NO")
            << "\n\n";
  identical = identical && repack.identical && decomp.identical;

  // --- End-to-end annealing, thread sweep. ---
  FloorplanOptions options = bench::tuned_options(config);
  options.objective.model = CongestionModelKind::kIrregularGrid;
  options.objective.gamma = bench::congestion_gamma();
  options.objective.irregular = bench::paper_ir_params(circuit);
  options.seed = 1;

  TextTable table({"threads", "moves/s", "final cost"});
  double reference_cost = 0.0;
  std::string reference_repr;

  bench::BenchReport report("incremental");
  report.manifest("netlist_fingerprint",
                  std::to_string(netlist_fingerprint(netlist)));
  report.meta("circuit", circuit);
  report.meta("scale", config.scale);
  report.meta("repack_speedup", repack.speedup());
  report.meta("decompose_speedup", decomp.speedup());

  for (const int threads : thread_counts) {
    ThreadPool::set_global_threads(threads);
    const FloorplanSolution run = Floorplanner(netlist, options).run();
    const double mps =
        static_cast<double>(run.stats.moves_proposed) / run.seconds;

    if (threads == thread_counts.front()) {
      reference_cost = run.metrics.cost;
      reference_repr = run.representation;
    } else if (run.metrics.cost != reference_cost ||
               run.representation != reference_repr) {
      identical = false;
    }

    table.add_row({std::to_string(threads), fmt_fixed(mps, 1),
                   fmt_general(run.metrics.cost, 12)});

    report.begin_row();
    report.value("threads", static_cast<long long>(threads));
    report.value("incremental_moves_per_s", mps);
    report.value("final_cost", run.metrics.cost);
  }
  ThreadPool::set_global_threads(ThreadPool::env_threads());

  table.print(std::cout);
  std::cout << (identical
                    ? "# bit-identity: stages match from-scratch, final "
                      "cost equal at every thread count\n"
                    : "# BIT-IDENTITY VIOLATION: stages or thread counts "
                      "diverged\n");
  const bool pass = identical && repack.speedup() >= 2.0;
  if (repack.speedup() < 2.0) {
    std::cout << "# RE-PACK SPEEDUP BELOW GATE ("
              << fmt_fixed(repack.speedup(), 2) << "x < 2x)\n";
  }
  report.meta("bit_identical", static_cast<long long>(identical ? 1 : 0));
  std::cout << "# wrote " << report.write_file() << "\n";
  obs::emit_env_trace(std::cout, "bench_incremental");
  return pass ? 0 : 1;
}
