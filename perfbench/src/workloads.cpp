#include "workloads.hpp"

#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "bench_common.hpp"

namespace perfbench {

using namespace ficon;

namespace {

// Nominal seconds of one measured pass on a 4-vCPU x86 container; the
// pass count is seconds / nominal, so a given --seconds always measures
// the same work. Set-up runs several times per run and reports its median.
int pass_count(double seconds, double nominal_pass_s, int min_passes) {
  const double n = std::round(seconds / nominal_pass_s);
  return std::max(min_passes, static_cast<int>(std::min(n, 1000.0)));
}

/// Space-separated values, for the per-pass notes.
std::string join(const std::vector<double>& values) {
  std::string out;
  for (const double v : values) {
    if (!out.empty()) out += ' ';
    out += fmt_num(v);
  }
  return out;
}

bool finite(const FloorplanMetrics& m) {
  return std::isfinite(m.area) && std::isfinite(m.wirelength) &&
         std::isfinite(m.congestion) && std::isfinite(m.cost);
}

bool same_metrics(const FloorplanMetrics& a, const FloorplanMetrics& b) {
  return a.area == b.area && a.wirelength == b.wirelength &&
         a.congestion == b.congestion && a.cost == b.cost;
}

/// Per-layer values of one traced pass, keyed by per_layer_metrics() name.
using LayerValues = std::map<std::string, double>;

void add_obs_counters(const obs::TraceReport& t, LayerValues& v) {
  using obs::Counter;
  const auto c = [&](Counter k) {
    return static_cast<double>(t.counter(k));
  };
  v["floorplan.pack.nodes_recomputed"] = c(Counter::kPackCacheNodesRecomputed);
  v["route.decompose.nets_recomputed"] = c(Counter::kDecomposeNetsRecomputed);
  v["congestion.score.nets_scored"] = c(Counter::kIrNetsScored);
  v["congestion.score.regions_banded"] = c(Counter::kIrRegionsBanded);
  v["congestion.score.regions_theorem1"] = c(Counter::kIrRegionsTheorem1);
  const double hits = c(Counter::kScoreMemoHits);
  const double misses = c(Counter::kScoreMemoMisses);
  v["congestion.memo.hits"] = hits;
  v["congestion.memo.misses"] = misses;
  v["congestion.memo.lookups"] = hits + misses;
  v["congestion.memo.hit_ratio"] =
      hits + misses > 0.0 ? hits / (hits + misses) : 0.0;
  v["util.pool.blocks"] = c(Counter::kPoolBlocks);
  v["util.pool.inline_blocks"] = c(Counter::kPoolInlineBlocks);
  v["util.pool.queue_wait_s"] = c(Counter::kPoolQueueWaitNs) * 1e-9;
}

// --- The traced move pipeline -------------------------------------------

/// Span names of the per-move layer calls.
struct LayerSpans {
  int move, pack, decompose, evaluate, cutlines, cost;

  explicit LayerSpans(SpanRecorder& rec)
      : move(rec.name_id("move")),
        pack(rec.name_id("floorplan.pack")),
        decompose(rec.name_id("route.decompose")),
        evaluate(rec.name_id("congestion.evaluate")),
        cutlines(rec.name_id("congestion.cutlines")),
        cost(rec.name_id("congestion.cost")) {}
};

struct MoveMetrics {
  double area = 0.0;
  double wirelength = 0.0;
  double congestion = 0.0;
};

/// One move's layer calls, in Floorplanner order: cached re-pack, caching
/// decomposition, IR evaluation, top-fraction cost. With a recorder each
/// call is a span, and a standalone build_cutlines call (the probe) times
/// the cut lines that evaluate() builds internally.
class Pipeline {
 public:
  Pipeline(const Netlist& netlist, const IrregularGridParams& params)
      : netlist_(&netlist), packer_(netlist), model_(params) {}

  void trace_into(SpanRecorder* rec) {
    rec_ = rec;
    if (rec_ != nullptr) spans_.emplace(*rec_);
  }

  MoveMetrics evaluate(const PolishExpression& expr, long long op) {
    const SlicingResult* packed = nullptr;
    {
      const auto s = span(&LayerSpans::pack, op);
      packed = &packer_.pack_cached_ref(expr);
    }
    std::span<const TwoPinNet> nets;
    {
      const auto s = span(&LayerSpans::decompose, op);
      nets = decomposer_.decompose(*netlist_, packed->placement);
    }
    MoveMetrics m;
    m.area = packed->area;
    m.wirelength = total_length(nets);
    two_pin_nets_ += static_cast<long long>(nets.size());
    std::optional<IrregularCongestionMap> map;
    {
      const auto s = span(&LayerSpans::evaluate, op);
      if (rec_ != nullptr) {
        const long long t0 = SpanRecorder::now_ns();
        const auto probe = span(&LayerSpans::cutlines, op);
        const IrregularGridParams& p = model_.params();
        ir_cells_ += build_cutlines(nets, packed->placement.chip,
                                    p.merge_factor * p.grid_w,
                                    p.merge_factor * p.grid_h)
                         .cell_count();
        probe_ns_ += SpanRecorder::now_ns() - t0;
      }
      map.emplace(model_.evaluate(nets, packed->placement.chip));
    }
    {
      const auto s = span(&LayerSpans::cost, op);
      m.congestion = map->top_fraction_cost(model_.params().top_fraction);
    }
    last_nets_ = nets;
    last_chip_ = packed->placement.chip;
    last_flow_ = std::move(*map);
    return m;
  }

  const IrregularGridModel& model() const { return model_; }
  const Netlist& netlist() const { return *netlist_; }

  /// Nets, chip and flow of the last evaluate(); the nets view is valid
  /// until the next call.
  std::span<const TwoPinNet> last_nets() const { return last_nets_; }
  const Rect& last_chip() const { return last_chip_; }
  const std::optional<IrregularCongestionMap>& last_flow() const {
    return last_flow_;
  }

  long long two_pin_nets() const { return two_pin_nets_; }
  long long ir_cells() const { return ir_cells_; }
  double probe_seconds() const { return static_cast<double>(probe_ns_) * 1e-9; }
  void reset_counts() { two_pin_nets_ = ir_cells_ = probe_ns_ = 0; }

  SpanRecorder::Scope span(int LayerSpans::*which, long long op) {
    return SpanRecorder::Scope(rec_, rec_ ? (*spans_).*which : -1, op);
  }

 private:
  const Netlist* netlist_;
  SlicingPacker packer_;
  TwoPinDecomposer decomposer_;
  IrregularGridModel model_;
  SpanRecorder* rec_ = nullptr;
  std::optional<LayerSpans> spans_;
  std::span<const TwoPinNet> last_nets_;
  Rect last_chip_;
  std::optional<IrregularCongestionMap> last_flow_;
  long long two_pin_nets_ = 0;
  long long ir_cells_ = 0;
  long long probe_ns_ = 0;
};

/// Layer self times of a traced pass. The evaluate span holds the probe
/// as its child, so its self time is evaluate() alone; scoring plus the
/// ordered reduction is that minus the probe's estimate of the cut lines
/// evaluate() built. The probe itself is excluded from the traced wall.
void add_layer_times(const SpanRecorder& rec, double traced_wall_s,
                     double probe_s, LayerValues& v) {
  const double cut = rec.self_seconds("congestion.cutlines");
  v["floorplan.pack.self_s"] = rec.self_seconds("floorplan.pack");
  v["route.decompose.self_s"] = rec.self_seconds("route.decompose");
  v["congestion.cutlines.self_s"] = cut;
  v["congestion.score.self_s"] = rec.self_seconds("congestion.evaluate") - cut;
  v["congestion.cost.self_s"] = rec.self_seconds("congestion.cost");
  v["trace.probe_s"] = probe_s;
  v["trace.wall_s"] = traced_wall_s - probe_s;
}

/// anneal.residual_s: traced wall minus every layer's self time.
void close_residual(LayerValues& v) {
  double layers = 0.0;
  for (const auto& [name, value] : v) {
    if (name.size() > 7 && name.compare(name.size() - 7, 7, ".self_s") == 0) {
      layers += value;
    }
  }
  v["anneal.residual_s"] = v["trace.wall_s"] - layers;
}

// --- anneal_ami49 / paper_ami33 -----------------------------------------

struct AnnealSpec {
  std::string circuit;
  IrregularGridParams ir;
  double effort;
  double nominal_pass_s;  ///< set-up plus one anneal
  double tail_cap;        ///< highest latency percentile reported
};

FloorplanOptions anneal_options(const AnnealSpec& spec, std::uint64_t seed) {
  FloorplanOptions o;
  o.objective.gamma = bench::congestion_gamma();
  o.objective.model = CongestionModelKind::kIrregularGrid;
  o.objective.irregular = spec.ir;
  o.effort = spec.effort;
  o.seed = seed;
  return o;
}

/// The Floorplanner objective rebuilt from public calls: the constructor's
/// normalization walk (same derived seed, sample count and summation
/// order) and raw_cost(). Checked bit for bit against
/// Floorplanner::evaluate before it is used.
struct Objective {
  FloorplanObjective o;
  double area_scale = 1.0;
  double wire_scale = 1.0;
  double congestion_scale = 1.0;

  double cost(const MoveMetrics& m) const {
    const double weight_sum = o.alpha + o.beta + o.gamma;
    double c = o.alpha * (m.area / area_scale) +
               o.beta * (m.wirelength / wire_scale);
    c += o.gamma * (m.congestion / congestion_scale);
    return c / weight_sum;
  }
};

Objective normalization_walk(Pipeline& pipe, const FloorplanOptions& options) {
  const int m = static_cast<int>(pipe.netlist().module_count());
  Rng rng(SplitMix64(options.seed ^ 0xA5A5A5A5DEADBEEFull).next());
  const int samples = std::max(30, 2 * m);
  double area_sum = 0.0, wire_sum = 0.0, cgt_sum = 0.0;
  PolishExpression expr = PolishExpression::initial(m);
  for (int i = 0; i < samples; ++i) {
    expr.random_move(rng);
    const MoveMetrics mm = pipe.evaluate(expr, -1);
    area_sum += mm.area;
    wire_sum += mm.wirelength;
    cgt_sum += mm.congestion;
  }
  Objective obj;
  obj.o = options.objective;
  obj.area_scale = std::max(area_sum / samples, 1e-12);
  obj.wire_scale = std::max(wire_sum / samples, 1e-12);
  obj.congestion_scale = std::max(cgt_sum / samples, 1e-12);
  return obj;
}

RunReport run_anneal(const AnnealSpec& spec, const RunOptions& opt) {
  ThreadPool::set_global_threads(1);
  RunReport report;
  // A run is K independent anneals at sub-seeds of the run seed, each on
  // the next CPU: moves/s depends on the trajectory and on the CPU, and
  // the median over K of them keeps a run's figure steady across seeds.
  // Each anneal's set-up (circuit plus Floorplanner with its normalization
  // walk) is one set-up sample.
  const int anneals = opt.trace ? 1 : pass_count(opt.seconds,
                                                 spec.nominal_pass_s, 2);

  // Per-temperature clock: should_stop is polled once at the start of
  // every temperature step (moves_per_temperature < 64 here) and is a pure
  // read for the annealer, so recording the time leaves the run unchanged.
  std::vector<long long> polls;
  std::vector<double> setup_s, gen_s, normalize_s, latency_ms, final_costs;
  long long moves = 0, accepted = 0;
  double untraced_wall = 0.0;
  std::unique_ptr<Floorplanner> planner;
  std::unique_ptr<Netlist> netlist;
  std::optional<FloorplanSolution> last;
  std::vector<double> rates, cpus, step_p50_ms;
  for (int k = 0; k < anneals; ++k) {
    if (!opt.trace) cpus.push_back(pin_to_cpu_slot(k));
    planner.reset();
    netlist.reset();
    const Stopwatch setup;
    netlist = std::make_unique<Netlist>(make_mcnc(spec.circuit));
    const double gen = setup.seconds();
    FloorplanOptions o = anneal_options(
        spec, derive_seed(opt.seed, 100 + static_cast<std::uint64_t>(k)));
    o.anneal.should_stop = [&polls] {
      polls.push_back(SpanRecorder::now_ns());
      return false;
    };
    planner = std::make_unique<Floorplanner>(*netlist, o);
    setup_s.push_back(setup.seconds());
    gen_s.push_back(gen);
    normalize_s.push_back(setup_s.back() - gen);

    const int mpt = planner->options().anneal.moves_per_temperature;
    polls.clear();
    const Stopwatch sw;
    FloorplanSolution sol = planner->run();
    untraced_wall = sw.seconds();
    moves += sol.stats.moves_proposed;
    accepted += sol.stats.moves_accepted;
    rates.push_back(static_cast<double>(sol.stats.moves_proposed) /
                    sol.seconds);
    report.attempted += sol.stats.moves_proposed;
    std::vector<double> steps_ms;
    for (std::size_t i = 1; i < polls.size(); ++i) {
      steps_ms.push_back(static_cast<double>(polls[i] - polls[i - 1]) *
                         1e-6 / mpt);
    }
    step_p50_ms.push_back(median(steps_ms));
    latency_ms.insert(latency_ms.end(), steps_ms.begin(), steps_ms.end());
    report.check(finite(sol.metrics), "final metrics not finite");
    report.check(same_metrics(planner->evaluate(sol.expression), sol.metrics),
                 "Floorplanner::evaluate(best) differs from the run's metrics");
    final_costs.push_back(sol.metrics.cost);
    last = std::move(sol);
  }
  report.note("circuit=" + spec.circuit + " modules=" +
              std::to_string(netlist->module_count()) + " fingerprint=" +
              std::to_string(netlist_fingerprint(*netlist)) +
              " threads=1 effort=" + fmt_num(spec.effort) +
              " moves_per_temperature=" +
              std::to_string(planner->options().anneal.moves_per_temperature));

  if (!opt.trace) {
    const TailPercentile tail = tail_percentile(latency_ms, 10, spec.tail_cap);
    double mean_cost = 0.0;
    for (const double c : final_costs) mean_cost += c / anneals;
    report.note("anneals=" + std::to_string(anneals) + " moves=" +
                std::to_string(moves) + " accepted=" +
                std::to_string(accepted));
    report.note("anneal moves_per_s: " + join(rates) + " on cpus " +
                join(cpus));
    report.note("final costs: " + join(final_costs));
    report.note("latency samples: one per temperature step (mean per move)"
                ", n=" + std::to_string(tail.count) + ", tail=p" +
                fmt_num(tail.percentile) + " with " +
                std::to_string(tail.beyond) + " beyond");
    report.metric("moves_per_s", median(rates), "1/s");
    report.metric("setup_s", median(setup_s), "s");
    report.metric("final_cost", mean_cost, "cost");
    report.metric("peak_rss_mib", peak_rss_mib(), "MiB");
    // Like moves_per_s: per anneal first, then the median across them.
    report.metric("latency_p50_ms", median(step_p50_ms), "ms");
    report.metric("latency_tail_ms", tail.value, "ms");
    return report;
  }

  // Traced run: the untraced anneal above is the overhead baseline; the
  // public Annealer now replays it through the same layer calls with spans.
  const FloorplanOptions& options = planner->options();
  Pipeline pipe(*netlist, options.objective.irregular);
  const Objective objective = normalization_walk(pipe, options);
  {
    const PolishExpression probe = PolishExpression::initial(
        static_cast<int>(netlist->module_count()));
    Pipeline check(*netlist, options.objective.irregular);
    report.check(objective.cost(check.evaluate(probe, -1)) ==
                     planner->evaluate(probe).cost,
                 "rebuilt objective differs from Floorplanner::evaluate");
  }

  SpanRecorder rec;
  pipe.trace_into(&rec);
  pipe.reset_counts();
  AnnealOptions anneal = options.anneal;
  anneal.should_stop = {};
  long long op = 0;
  const int move_span = rec.name_id("move");
  Annealer<PolishExpression> annealer(
      [&](const PolishExpression& e) {
        const long long id = op++;
        const SpanRecorder::Scope move(&rec, move_span, id);
        return objective.cost(pipe.evaluate(e, id));
      },
      [](const PolishExpression& e, Rng& rng) {
        PolishExpression next = e;
        const int kind = next.random_move(rng);
        if (obs::trace_enabled()) obs::note_move_kind(kind);
        return next;
      },
      anneal);
  obs::reset();
  obs::set_trace_enabled(true);
  const Stopwatch sw;
  Rng rng(options.seed);
  const auto result = annealer.run(
      PolishExpression::initial(static_cast<int>(netlist->module_count())),
      rng);
  const double traced_wall = sw.seconds();
  obs::set_trace_enabled(false);
  const obs::TraceReport t = obs::capture();
  report.attempted += result.stats.moves_proposed;
  report.check(result.best == last->expression &&
                   result.best_cost == last->metrics.cost,
               "traced anneal diverged from Floorplanner::run");

  LayerValues v;
  add_obs_counters(t, v);
  add_layer_times(rec, traced_wall, pipe.probe_seconds(), v);
  v["route.decompose.two_pin_nets"] = static_cast<double>(pipe.two_pin_nets());
  v["congestion.cutlines.ir_cells"] = static_cast<double>(pipe.ir_cells());
  v["anneal.moves"] = static_cast<double>(result.stats.moves_proposed);
  v["anneal.accept_ratio"] =
      static_cast<double>(result.stats.moves_accepted) /
      static_cast<double>(result.stats.moves_proposed);
  v["core.setup.normalize_s"] = median(normalize_s);
  v["circuit.gen_s"] = median(gen_s);
  v["trace.untraced_wall_s"] = untraced_wall;
  close_residual(v);
  v["trace.overhead_ratio"] = v["trace.wall_s"] / untraced_wall;
  for (const MetricSpec& m : per_layer_metrics()) {
    report.metric(m.name, v[m.name], m.unit);
  }
  return report;
}

// --- stream_ami49x80 ----------------------------------------------------

constexpr double kStreamGamma = 0.4;
constexpr double kStreamTemperature = 0.01;
constexpr int kStreamMovesPerPass = 80;
constexpr int kStreamWarmupMoves = 10;
constexpr int kStreamSetupRepeats = 7;

struct StreamPass {
  double wall_s = 0.0;
  long long accepted = 0;
  double best_cost = 0.0;
  PolishExpression best;
  Checksum checksum;
  std::vector<double> latency_ms;
  bool finite = true;
};

struct StreamState {
  std::unique_ptr<Netlist> netlist;
  std::unique_ptr<Pipeline> pipe;
  PolishExpression start;
  MoveMetrics norm;  ///< start floorplan's terms (normalization)
};

double stream_cost(const MoveMetrics& m, const MoveMetrics& norm) {
  return (m.area / norm.area + m.wirelength / norm.wirelength +
          kStreamGamma * m.congestion / norm.congestion) /
         (2.0 + kStreamGamma);
}

/// The tier as bench_scale generates it. Like ami49 for the annealing
/// workloads, the circuit is fixed and the run seed drives the moves.
constexpr std::uint64_t kStreamGenSeed = 7;

StreamState stream_setup(double* gen_s) {
  StreamState st;
  const Stopwatch sw;
  st.netlist = std::make_unique<Netlist>(
      make_scale_netlist(parse_scale_tier("ami49x80"), kStreamGenSeed));
  *gen_s = sw.seconds();
  st.start = shelf_row_expression(*st.netlist);
  // Pitch: chip extent / 200 (>= 30 um), as bench_scale.
  const SlicingPacker sizing(*st.netlist);
  const SlicingResult packed = sizing.pack(st.start);
  IrregularGridParams ir;
  ir.grid_w = ir.grid_h =
      std::max(30.0, std::max(packed.width, packed.height) / 200.0);
  st.pipe = std::make_unique<Pipeline>(*st.netlist, ir);
  st.norm = st.pipe->evaluate(st.start, -1);
  return st;
}

/// One fixed-length move stream from the start expression. Every pass of
/// one seed proposes the same moves, so its checksum repeats exactly.
/// `exact_check` (untimed passes only) compares banded flows against
/// kExactPerRegion on the first and middle move.
StreamPass stream_pass(StreamState& st, std::uint64_t seed, int moves,
                       RunReport* exact_check) {
  Pipeline& pipe = *st.pipe;
  pipe.evaluate(st.start, -1);  // same cache state at every pass start
  Rng move_rng(derive_seed(seed, 1));
  Rng accept_rng(derive_seed(seed, 2));
  StreamPass out;
  PolishExpression current = st.start;
  double current_cost = stream_cost(st.norm, st.norm);
  out.best = current;
  out.best_cost = current_cost;
  const Stopwatch wall;
  for (int i = 0; i < moves; ++i) {
    const long long t0 = SpanRecorder::now_ns();
    {
      const auto move = pipe.span(&LayerSpans::move, i);
      PolishExpression candidate = current;
      candidate.random_move(move_rng);
      const MoveMetrics m = pipe.evaluate(candidate, i);
      const double cost = stream_cost(m, st.norm);
      out.checksum.add(cost);
      out.finite = out.finite && std::isfinite(cost);
      const double delta = cost - current_cost;
      if (delta <= 0.0 ||
          accept_rng.uniform() < std::exp(-delta / kStreamTemperature)) {
        current = std::move(candidate);
        current_cost = cost;
        ++out.accepted;
        if (cost < out.best_cost) {
          out.best_cost = cost;
          out.best = current;
        }
      }
    }
    out.latency_ms.push_back(
        static_cast<double>(SpanRecorder::now_ns() - t0) * 1e-6);
    if (exact_check != nullptr && (i == 0 || i == moves / 2)) {
      IrregularGridParams exact = pipe.model().params();
      exact.strategy = IrEvalStrategy::kExactPerRegion;
      const IrregularCongestionMap ref =
          IrregularGridModel(exact).evaluate(pipe.last_nets(),
                                             pipe.last_chip());
      const IrregularCongestionMap& got = *pipe.last_flow();
      bool close = ref.lines().xs() == got.lines().xs() &&
                   ref.lines().ys() == got.lines().ys();
      for (int iy = 0; close && iy < ref.lines().ny(); ++iy) {
        for (int ix = 0; ix < ref.lines().nx(); ++ix) {
          close = close &&
                  std::abs(ref.flow(ix, iy) - got.flow(ix, iy)) <= 1e-9;
        }
      }
      exact_check->check(close, "banded flow differs from exact per-region");
    }
  }
  out.wall_s = wall.seconds();
  return out;
}

RunReport run_stream(const RunOptions& opt) {
  const int threads =
      std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
  ThreadPool::set_global_threads(threads);
  RunReport report;
  std::vector<double> setup_s, gen_s;
  StreamState st;
  for (int r = 0; r < kStreamSetupRepeats; ++r) {
    st = StreamState{};
    const Stopwatch sw;
    double gen = 0.0;
    st = stream_setup(&gen);
    setup_s.push_back(sw.seconds());
    gen_s.push_back(gen);
  }
  report.note("tier=ami49x80 modules=" +
              std::to_string(st.netlist->module_count()) + " fingerprint=" +
              std::to_string(netlist_fingerprint(*st.netlist)) + " threads=" +
              std::to_string(threads) + " pitch_um=" +
              fmt_num(st.pipe->model().params().grid_w) +
              " two_pin_nets=" + std::to_string(st.pipe->two_pin_nets()));

  const auto check_pass = [&](const StreamPass& p, const StreamPass* first) {
    report.attempted += kStreamMovesPerPass;
    report.check(p.finite, "stream cost not finite");
    if (first != nullptr) {
      report.check(p.checksum.value() == first->checksum.value(),
                   "repeated stream pass changed its checksum");
    }
  };
  const auto rescore_best = [&](const StreamPass& p) {
    // From scratch: uncached pack, fresh decomposition, fresh model.
    const SlicingResult packed = SlicingPacker(*st.netlist).pack(p.best);
    const std::vector<TwoPinNet> nets =
        decompose_to_two_pin(*st.netlist, packed.placement);
    MoveMetrics m;
    m.area = packed.area;
    m.wirelength = total_length(nets);
    m.congestion = st.pipe->model().cost(nets, packed.placement.chip);
    report.check(stream_cost(m, st.norm) == p.best_cost,
                 "re-scored best stream floorplan differs");
  };

  // Untimed warm-up (fills per-thread partial grids and caches), which
  // also carries the banded-vs-exact check.
  report.attempted += kStreamWarmupMoves;
  report.check(stream_pass(st, opt.seed, kStreamWarmupMoves, &report).finite,
               "stream cost not finite");

  if (!opt.trace) {
    const int passes = pass_count(opt.seconds, 2.6, 2);
    std::vector<double> rates, latency_ms;
    std::optional<StreamPass> first;
    for (int p = 0; p < passes; ++p) {
      StreamPass sp =
          stream_pass(st, opt.seed, kStreamMovesPerPass, nullptr);
      check_pass(sp, first ? &*first : nullptr);
      rates.push_back(kStreamMovesPerPass / sp.wall_s);
      latency_ms.insert(latency_ms.end(), sp.latency_ms.begin(),
                        sp.latency_ms.end());
      if (!first) first = std::move(sp);
    }
    rescore_best(*first);
    const TailPercentile tail = tail_percentile(latency_ms, 10, 95.0);
    report.note("passes=" + std::to_string(passes) + " moves_per_pass=" +
                std::to_string(kStreamMovesPerPass) + " accepted=" +
                std::to_string(first->accepted) +
                " checksum=" + first->checksum.hex());
    report.note("latency samples: one per move, n=" +
                std::to_string(tail.count) + ", tail=p" +
                fmt_num(tail.percentile) + " with " +
                std::to_string(tail.beyond) + " beyond");
    report.note("pass moves_per_s: " + join(rates));
    report.metric("moves_per_s", median(rates), "1/s");
    report.metric("setup_s", median(setup_s), "s");
    report.metric("final_cost", first->best_cost, "cost");
    report.metric("peak_rss_mib", peak_rss_mib(), "MiB");
    report.metric("latency_p50_ms", percentile(latency_ms, 50.0), "ms");
    report.metric("latency_tail_ms", tail.value, "ms");
    return report;
  }

  const StreamPass base = stream_pass(st, opt.seed, kStreamMovesPerPass,
                                      nullptr);
  check_pass(base, nullptr);
  SpanRecorder rec;
  st.pipe->trace_into(&rec);
  st.pipe->reset_counts();
  obs::reset();
  obs::set_trace_enabled(true);
  const Stopwatch sw;
  const StreamPass traced =
      stream_pass(st, opt.seed, kStreamMovesPerPass, nullptr);
  const double traced_wall = sw.seconds();
  obs::set_trace_enabled(false);
  const obs::TraceReport t = obs::capture();
  check_pass(traced, &base);
  rescore_best(traced);
  report.note("checksum=" + traced.checksum.hex());

  LayerValues v;
  add_obs_counters(t, v);
  add_layer_times(rec, traced_wall, st.pipe->probe_seconds(), v);
  v["route.decompose.two_pin_nets"] =
      static_cast<double>(st.pipe->two_pin_nets());
  v["congestion.cutlines.ir_cells"] = static_cast<double>(st.pipe->ir_cells());
  v["anneal.moves"] = kStreamMovesPerPass;
  v["anneal.accept_ratio"] =
      static_cast<double>(traced.accepted) / kStreamMovesPerPass;
  v["circuit.gen_s"] = median(gen_s);
  v["trace.untraced_wall_s"] = base.wall_s;
  close_residual(v);
  v["trace.overhead_ratio"] = v["trace.wall_s"] / base.wall_s;
  for (const MetricSpec& m : per_layer_metrics()) {
    report.metric(m.name, v[m.name], m.unit);
  }
  return report;
}

// --- service_ami49 ------------------------------------------------------

constexpr int kServiceWorkers = 3;
constexpr int kServiceInFlight = 4;
constexpr int kServiceRequestsPerPass = 250;
constexpr int kServiceSetupRepeats = 15;

service::Request evaluate_template() {
  service::Request r;
  r.kind = service::RequestKind::kEvaluate;
  r.objective.gamma = bench::congestion_gamma();
  r.objective.model = CongestionModelKind::kIrregularGrid;
  r.objective.irregular = bench::paper_ir_params("ami49");
  return r;
}

/// Reply frames handed from the session executors to the client thread.
struct Inbox {
  std::mutex mu;
  std::condition_variable cv;
  struct Item {
    std::int64_t id = 0;
    std::string frame;
    long long encode_ns = 0;
  };
  std::deque<Item> items;
};

struct ServicePass {
  double wall_s = 0.0;
  std::vector<double> latency_ms, queue_wait_ms, exec_ms, codec_us;
  std::vector<service::DecodedReply> replies;  ///< by request index
  std::vector<service::Request> requests;      ///< as the daemon decoded them
  Checksum checksum;
};

/// One closed-loop pass: a single client keeps kServiceInFlight evaluate
/// requests outstanding; every request and reply is encoded, framed,
/// unframed and decoded on in-memory streams.
ServicePass service_pass(service::EngineSession& session,
                         const std::vector<std::string>& walk,
                         RunReport& report, SpanRecorder* rec) {
  const int codec_span = rec ? rec->name_id("service.protocol") : -1;
  const int session_span = rec ? rec->name_id("service.session") : -1;
  const auto scope = [&](int name, long long op) {
    return SpanRecorder::Scope(rec, name, op);
  };
  const int n = static_cast<int>(walk.size());
  ServicePass out;
  out.replies.resize(walk.size());
  out.requests.resize(walk.size());
  std::vector<long long> sent_ns(walk.size()), codec_ns(walk.size());
  Inbox inbox;
  const service::Request base = evaluate_template();
  int next = 0, done = 0, in_flight = 0;
  const Stopwatch wall;
  while (done < n) {
    while (in_flight < kServiceInFlight && next < n) {
      const int id = next++;
      const auto i = static_cast<std::size_t>(id);
      sent_ns[i] = SpanRecorder::now_ns();
      service::ProtocolRequest decoded;
      {
        const auto s = scope(codec_span, id);
        service::Request request = base;
        request.expression = walk[i];
        std::ostringstream wire;
        service::write_frame(wire, service::encode_request(id, request));
        std::istringstream in(wire.str());
        std::string payload, error;
        const bool ok =
            service::read_frame(in, &payload) == service::FrameStatus::kOk &&
            service::decode_request(payload, &decoded, &error);
        report.check(ok, "request codec failed: " + error);
      }
      codec_ns[i] = SpanRecorder::now_ns() - sent_ns[i];
      out.requests[i] = decoded.request;
      service::EngineSession::Ticket ticket = 0;
      {
        const auto s = scope(session_span, id);
        ticket = session.submit(
            decoded.request,
            [&inbox, id](service::EngineSession::Ticket,
                         const service::Reply& reply) {
              const long long t0 = SpanRecorder::now_ns();
              std::ostringstream wire;
              service::write_frame(wire, service::encode_reply(id, reply));
              Inbox::Item item{id, wire.str(), SpanRecorder::now_ns() - t0};
              // Notify under the lock: once the client can see the last
              // reply it may return and destroy the inbox.
              const std::lock_guard<std::mutex> lock(inbox.mu);
              inbox.items.push_back(std::move(item));
              inbox.cv.notify_one();
            });
      }
      report.check(ticket != 0, "request rejected");
      if (ticket == 0) {
        ++done;
        continue;
      }
      ++in_flight;
    }
    if (in_flight == 0) continue;
    Inbox::Item item;
    {
      const auto s = scope(session_span, -1);
      std::unique_lock<std::mutex> lock(inbox.mu);
      inbox.cv.wait(lock, [&] { return !inbox.items.empty(); });
      item = std::move(inbox.items.front());
      inbox.items.pop_front();
    }
    const auto i = static_cast<std::size_t>(item.id);
    const long long t0 = SpanRecorder::now_ns();
    service::DecodedReply reply;
    {
      const auto s = scope(codec_span, item.id);
      std::istringstream in(item.frame);
      std::string payload, error;
      const bool ok =
          service::read_frame(in, &payload) == service::FrameStatus::kOk &&
          service::decode_reply(payload, &reply, &error);
      report.check(ok, "reply codec failed: " + error);
    }
    const long long t1 = SpanRecorder::now_ns();
    out.latency_ms.push_back(static_cast<double>(t1 - sent_ns[i]) * 1e-6);
    out.codec_us.push_back(
        static_cast<double>(codec_ns[i] + item.encode_ns + (t1 - t0)) * 1e-3);
    const bool ok = reply.status == "ok" && reply.seeds.size() == 1 &&
                    finite(reply.seeds[0].metrics);
    report.check(ok, "request " + std::to_string(item.id) + " status " +
                         reply.status + " " + reply.error);
    if (ok) {
      out.exec_ms.push_back(reply.seeds[0].seconds * 1e3);
      out.queue_wait_ms.push_back((reply.seconds - reply.seeds[0].seconds) *
                                  1e3);
    }
    out.replies[i] = std::move(reply);
    --in_flight;
    ++done;
  }
  out.wall_s = wall.seconds();
  for (const service::DecodedReply& r : out.replies) {
    for (const service::SeedResult& s : r.seeds) out.checksum.add(s.metrics.cost);
  }
  return out;
}

RunReport run_service(const RunOptions& opt) {
  RunReport report;
  std::vector<double> setup_s, gen_s;
  std::unique_ptr<service::EngineSession> session;
  std::vector<std::string> walk;
  for (int r = 0; r < kServiceSetupRepeats; ++r) {
    session.reset();
    const Stopwatch sw;
    Netlist netlist = make_mcnc("ami49");
    gen_s.push_back(sw.seconds());
    walk = request_walk(netlist, opt.seed, kServiceRequestsPerPass);
    service::SessionOptions so;
    so.workers = kServiceWorkers;
    so.queue_capacity = 64;
    session = std::make_unique<service::EngineSession>(std::move(netlist), so);
    // Ready once the first round of requests is served: every executor
    // has built its packer and per-thread scoring tables.
    service_pass(*session,
                 {walk.begin(), walk.begin() + kServiceInFlight}, report,
                 nullptr);
    setup_s.push_back(sw.seconds());
  }
  report.note("circuit=ami49 fingerprint=" +
              std::to_string(netlist_fingerprint(session->netlist())) +
              " workers=" + std::to_string(kServiceWorkers) +
              " in_flight=" + std::to_string(kServiceInFlight) +
              " closed loop, one client");

  const auto check_pass = [&](const ServicePass& p, const ServicePass* first) {
    if (first != nullptr) {
      report.check(p.checksum.value() == first->checksum.value(),
                   "repeated service pass changed its replies");
    }
  };
  // Sampled replies must equal the serial one-shot path bit for bit.
  const auto check_oneshot = [&](const ServicePass& p) {
    for (std::size_t i = 0; i < p.replies.size(); i += 25) {
      const service::Reply ref =
          service::run_oneshot(session->netlist(), p.requests[i]);
      const service::DecodedReply& got = p.replies[i];
      report.check(ref.status == service::ReplyStatus::kOk &&
                       got.seeds.size() == 1 && ref.seeds.size() == 1 &&
                       same_metrics(ref.seeds[0].metrics,
                                    got.seeds[0].metrics) &&
                       ref.seeds[0].representation ==
                           got.seeds[0].representation,
                   "reply " + std::to_string(i) + " differs from run_oneshot");
    }
  };
  const auto best_cost = [](const ServicePass& p) {
    double best = INFINITY;
    for (const service::DecodedReply& r : p.replies) {
      for (const service::SeedResult& s : r.seeds) {
        best = std::min(best, s.metrics.cost);
      }
    }
    return best;
  };

  if (!opt.trace) {
    const int passes = pass_count(opt.seconds, 1.5, 4);
    std::vector<double> rates, latency_ms;
    std::optional<ServicePass> first;
    for (int p = 0; p < passes; ++p) {
      ServicePass sp = service_pass(*session, walk, report, nullptr);
      check_pass(sp, first ? &*first : nullptr);
      rates.push_back(static_cast<double>(walk.size()) / sp.wall_s);
      latency_ms.insert(latency_ms.end(), sp.latency_ms.begin(),
                        sp.latency_ms.end());
      if (!first) first = std::move(sp);
    }
    check_oneshot(*first);
    const TailPercentile tail = tail_percentile(latency_ms, 10, 99.0);
    report.note("passes=" + std::to_string(passes) + " requests_per_pass=" +
                std::to_string(walk.size()) +
                " reply_checksum=" + first->checksum.hex());
    report.note("latency samples: one per request, n=" +
                std::to_string(tail.count) + ", tail=p" +
                fmt_num(tail.percentile) + " with " +
                std::to_string(tail.beyond) + " beyond");
    report.note("req_per_s = moves_per_s (each evaluate request scores one "
                "floorplan)");
    report.note("pass moves_per_s: " + join(rates));
    report.metric("moves_per_s", median(rates), "1/s");
    report.metric("setup_s", median(setup_s), "s");
    report.metric("final_cost", best_cost(*first), "cost");
    report.metric("peak_rss_mib", peak_rss_mib(), "MiB");
    report.metric("latency_p50_ms", percentile(latency_ms, 50.0), "ms");
    report.metric("latency_tail_ms", tail.value, "ms");
    return report;
  }

  const ServicePass base = service_pass(*session, walk, report, nullptr);
  SpanRecorder rec;
  obs::reset();
  obs::set_trace_enabled(true);
  const Stopwatch sw;
  const ServicePass traced = service_pass(*session, walk, report, &rec);
  const double traced_wall = sw.seconds();
  obs::set_trace_enabled(false);
  const obs::TraceReport t = obs::capture();
  check_pass(traced, &base);
  check_oneshot(traced);

  LayerValues v;
  add_obs_counters(t, v);
  // Each executor keeps its own decomposer cache, so how many nets it
  // recomputes depends on which requests it happened to serve before:
  // noted, but not reported as a (repeatable) work count.
  report.note("route.decompose.nets_recomputed (scheduling-dependent) " +
              fmt_num(v["route.decompose.nets_recomputed"]));
  v["route.decompose.nets_recomputed"] = 0.0;
  v["service.protocol.self_s"] = rec.self_seconds("service.protocol");
  v["service.session.self_s"] = rec.self_seconds("service.session");
  v["service.session.queue_wait_ms_p50"] = median(traced.queue_wait_ms);
  v["service.session.exec_ms_p50"] = median(traced.exec_ms);
  v["service.protocol.codec_us_p50"] = median(traced.codec_us);
  v["service.requests"] = static_cast<double>(traced.latency_ms.size());
  v["circuit.gen_s"] = median(gen_s);
  v["trace.wall_s"] = traced_wall;
  v["trace.untraced_wall_s"] = base.wall_s;
  close_residual(v);
  v["trace.overhead_ratio"] = traced_wall / base.wall_s;
  for (const MetricSpec& m : per_layer_metrics()) {
    report.metric(m.name, v[m.name], m.unit);
  }
  return report;
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {
      "anneal_ami49", "stream_ami49x80", "paper_ami33", "service_ami49"};
  return names;
}

const std::vector<MetricSpec>& end_to_end_metrics() {
  static const std::vector<MetricSpec> specs = {
      {"moves_per_s", "1/s"},    {"setup_s", "s"},
      {"final_cost", "cost"},    {"peak_rss_mib", "MiB"},
      {"latency_p50_ms", "ms"},  {"latency_tail_ms", "ms"},
  };
  return specs;
}

const std::vector<MetricSpec>& per_layer_metrics() {
  static const std::vector<MetricSpec> specs = {
      {"floorplan.pack.self_s", "s"},
      {"floorplan.pack.nodes_recomputed", "count"},
      {"route.decompose.self_s", "s"},
      {"route.decompose.two_pin_nets", "count"},
      {"route.decompose.nets_recomputed", "count"},
      {"congestion.cutlines.self_s", "s"},
      {"congestion.cutlines.ir_cells", "count"},
      {"congestion.score.self_s", "s"},
      {"congestion.score.nets_scored", "count"},
      {"congestion.score.regions_banded", "count"},
      {"congestion.score.regions_theorem1", "count"},
      {"congestion.memo.hits", "count"},
      {"congestion.memo.misses", "count"},
      {"congestion.memo.lookups", "count"},
      {"congestion.memo.hit_ratio", "ratio"},
      {"congestion.cost.self_s", "s"},
      {"util.pool.blocks", "count"},
      {"util.pool.inline_blocks", "count"},
      {"util.pool.queue_wait_s", "s"},
      {"anneal.moves", "count"},
      {"anneal.accept_ratio", "ratio"},
      {"anneal.residual_s", "s"},
      {"core.setup.normalize_s", "s"},
      {"circuit.gen_s", "s"},
      {"service.protocol.self_s", "s"},
      {"service.session.self_s", "s"},
      {"service.session.queue_wait_ms_p50", "ms"},
      {"service.session.exec_ms_p50", "ms"},
      {"service.protocol.codec_us_p50", "us"},
      {"service.requests", "count"},
      {"trace.wall_s", "s"},
      {"trace.untraced_wall_s", "s"},
      {"trace.probe_s", "s"},
      {"trace.overhead_ratio", "ratio"},
  };
  return specs;
}

RunReport run_workload(const RunOptions& options) {
  if (options.workload == "anneal_ami49") {
    return run_anneal(
        {"ami49", bench::paper_ir_params("ami49"), 0.05, 5.5, 90.0}, options);
  }
  if (options.workload == "paper_ami33") {
    return run_anneal(
        {"ami33", bench::paper_mode_params("ami33"), 0.3, 2.3, 95.0}, options);
  }
  if (options.workload == "stream_ami49x80") return run_stream(options);
  if (options.workload == "service_ami49") return run_service(options);
  throw std::invalid_argument("unknown workload '" + options.workload + "'");
}

}  // namespace perfbench
