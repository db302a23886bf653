// ficon_cli — command-line floorplanner with congestion estimation.
//
// The tool a downstream user reaches for first: floorplan a circuit (from
// a file or the built-in MCNC-like suite), pick the objective and engine,
// and export results. Doubles as the ficond client: with --connect it
// sends the same request to a running daemon instead of computing
// locally, and prints the same canonical result line — so
// `diff <(ficon_cli --json ...) <(ficon_cli --connect ...)` proves the
// service path bit-identical to the one-shot path.
//
// `ficon_cli --help` prints the options and exit codes (kUsage below).
#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>
#define FICON_CLI_HAVE_SOCKETS 1
#endif

#include "ficon.hpp"

namespace {

constexpr const char* kUsage = R"(usage: ficon_cli [options]
  --circuit NAME|PATH    built-in name (ami33, ...) or .ficon/.blocks
                         file (default ami33)
  --engine polish|sp     floorplan representation (default polish)
  --alpha A --beta B --gamma G   objective weights (default 1 1 0.4)
  --model ir|fixed|none  congestion model in the objective (default ir)
  --grid PITCH           congestion fine pitch in um (default 30)
  --seed N               annealing seed (default 1)
  --effort E             SA effort multiplier (default 1.0)
  --svg PATH             write placement + IR heat map SVG
  --csv PATH             write IR congestion map CSV
  --heatmap PATH         write a standalone heat-map SVG of the
                         objective model's flow field on the best
                         floorplan (requires --model ir|fixed)
  --heatmap-features PATH  write the per-cell feature dump for the
                         same field (.jsonl extension = JSON Lines,
                         anything else = CSV)
  --save PATH            write the packed netlist in native format
  --trace PATH           enable telemetry and write a JSONL trace
                         (also honours the FICON_TRACE env knob)
  --quiet                suppress the per-temperature trace
  --help                 print this message and exit
Service mode (docs/SERVICE.md):
  --json                 print one canonical JSON result line instead
                         of the human summary (no exports)
  --op evaluate|anneal   operation (default anneal; needs --json)
  --seeds N              anneal seed fan-out (default 1; needs --json)
  --expression EXPR      Polish expression for --op evaluate
  --connect PATH         send the request to the ficond daemon at the
                         Unix socket PATH (implies --json; --circuit
                         is only the result-line label: the daemon
                         owns the circuit)

Exit codes: 0 success, 1 request finished non-ok (--json/--connect),
2 usage error, 3 cannot reach the daemon.
)";

[[noreturn]] void usage_error(const std::string& message) {
  std::cerr << "ficon_cli: " << message << " (see ficon_cli --help)\n";
  std::exit(2);
}

double parse_double(const std::string& flag, const std::string& text) {
  errno = 0;
  char* end = nullptr;
  const double v = std::strtod(text.c_str(), &end);
  if (text.empty() || errno != 0 || end != text.c_str() + text.size() ||
      !std::isfinite(v)) {
    usage_error("option '" + flag + "' needs a number, got '" + text + "'");
  }
  return v;
}

std::uint64_t parse_u64(const std::string& flag, const std::string& text) {
  errno = 0;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(text.c_str(), &end, 10);
  if (text.empty() || errno != 0 || end != text.c_str() + text.size() ||
      text[0] == '-') {
    usage_error("option '" + flag + "' needs a non-negative integer, got '" +
                text + "'");
  }
  return static_cast<std::uint64_t>(v);
}

int parse_count(const std::string& flag, const std::string& text, int lo,
                int hi) {
  const std::uint64_t v = parse_u64(flag, text);
  if (v < static_cast<std::uint64_t>(lo) ||
      v > static_cast<std::uint64_t>(hi)) {
    usage_error("option '" + flag + "' must be in [" + std::to_string(lo) +
                ", " + std::to_string(hi) + "], got '" + text + "'");
  }
  return static_cast<int>(v);
}

struct Cli {
  std::string circuit = "ami33";
  std::string engine = "polish";
  std::string model = "ir";
  double alpha = 1.0, beta = 1.0, gamma = 0.4;
  double grid = -1.0;  // sentinel: per-model default (ir 30, fixed 100)
  std::uint64_t seed = 1;
  double effort = 1.0;
  std::string op = "anneal";
  int seeds = 1;
  std::string expression;
  std::string connect;
  bool json = false;
  bool quiet = false;
  std::string svg, csv, heatmap, heatmap_features, save, trace;
};

Cli parse_cli(int argc, char** argv) {
  Cli cli;
  bool service_knob = false;  // --op/--seeds/--expression seen
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--help") {
      std::cout << kUsage;
      std::exit(0);
    }
    if (arg == "--quiet") {
      cli.quiet = true;
      continue;
    }
    if (arg == "--json") {
      cli.json = true;
      continue;
    }
    if (arg.rfind("--", 0) != 0) {
      usage_error("unexpected argument '" + arg + "'");
    }
    // Every remaining option takes a value; a flag at the end of the
    // command line is "missing its value", not "unknown option".
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage_error("option '" + arg + "' requires a value");
      return argv[++i];
    };
    if (arg == "--circuit") {
      cli.circuit = value();
    } else if (arg == "--engine") {
      cli.engine = value();
      if (cli.engine != "polish" && cli.engine != "sp") {
        usage_error("unknown engine '" + cli.engine + "'");
      }
    } else if (arg == "--model") {
      cli.model = value();
      if (cli.model != "ir" && cli.model != "fixed" && cli.model != "none") {
        usage_error("unknown model '" + cli.model + "'");
      }
    } else if (arg == "--alpha") {
      cli.alpha = parse_double(arg, value());
    } else if (arg == "--beta") {
      cli.beta = parse_double(arg, value());
    } else if (arg == "--gamma") {
      cli.gamma = parse_double(arg, value());
    } else if (arg == "--grid") {
      cli.grid = parse_double(arg, value());
      if (cli.grid <= 0.0) usage_error("--grid must be positive");
    } else if (arg == "--seed") {
      cli.seed = parse_u64(arg, value());
    } else if (arg == "--effort") {
      cli.effort = parse_double(arg, value());
      if (cli.effort <= 0.0) usage_error("--effort must be positive");
    } else if (arg == "--op") {
      cli.op = value();
      service_knob = true;
      if (cli.op != "evaluate" && cli.op != "anneal") {
        usage_error("unknown op '" + cli.op + "'");
      }
    } else if (arg == "--seeds") {
      cli.seeds = parse_count(arg, value(), 1, 4096);
      service_knob = true;
    } else if (arg == "--expression") {
      cli.expression = value();
      service_knob = true;
    } else if (arg == "--connect") {
      cli.connect = value();
      cli.json = true;
    } else if (arg == "--svg") {
      cli.svg = value();
    } else if (arg == "--csv") {
      cli.csv = value();
    } else if (arg == "--heatmap") {
      cli.heatmap = value();
    } else if (arg == "--heatmap-features") {
      cli.heatmap_features = value();
    } else if (arg == "--save") {
      cli.save = value();
    } else if (arg == "--trace") {
      cli.trace = value();
    } else {
      usage_error("unknown option '" + arg + "'");
    }
  }
  if (service_knob && !cli.json) {
    usage_error("--op/--seeds/--expression need --json or --connect");
  }
  if (cli.json && !(cli.svg.empty() && cli.csv.empty() &&
                    cli.heatmap.empty() && cli.heatmap_features.empty() &&
                    cli.save.empty() && cli.trace.empty())) {
    usage_error("exports are only available in the default output mode");
  }
  return cli;
}

/// The service request this invocation describes — the same construction
/// the protocol decoder applies, so one-shot, --json and --connect runs
/// are bit-identical by design.
ficon::service::Request build_request(const Cli& cli) {
  ficon::service::Request request;
  request.kind = cli.op == "evaluate"
                     ? ficon::service::RequestKind::kEvaluate
                     : ficon::service::RequestKind::kAnneal;
  request.objective.alpha = cli.alpha;
  request.objective.beta = cli.beta;
  request.objective.gamma = cli.gamma;
  // parse_cli already rejected unknown model names.
  ficon::service::set_congestion_model(cli.model, cli.grid,
                                       &request.objective);
  request.engine = cli.engine == "sp"
                       ? ficon::FloorplanEngine::kSequencePair
                       : ficon::FloorplanEngine::kPolishExpression;
  request.seed = cli.seed;
  request.seeds = cli.seeds;
  request.effort = cli.effort;
  request.expression = cli.expression;
  return request;
}

int finish_json(const Cli& cli, const std::string& status,
                const std::vector<ficon::service::SeedResult>& seeds) {
  std::cout << ficon::service::encode_result_line(cli.op, cli.circuit,
                                                  status, seeds)
            << "\n";
  return status == "ok" ? 0 : 1;
}

int run_client(const Cli& cli) {
#if defined(FICON_CLI_HAVE_SOCKETS)
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) {
    std::cerr << "ficon_cli: socket: " << std::strerror(errno) << "\n";
    return 3;
  }
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (cli.connect.size() >= sizeof(addr.sun_path)) {
    std::cerr << "ficon_cli: socket path too long\n";
    ::close(fd);
    return 3;
  }
  std::strncpy(addr.sun_path, cli.connect.c_str(),
               sizeof(addr.sun_path) - 1);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                sizeof(addr)) != 0) {
    std::cerr << "ficon_cli: connect " << cli.connect << ": "
              << std::strerror(errno) << "\n";
    ::close(fd);
    return 3;
  }
  const std::int64_t id = 1;
  if (!ficon::service::write_frame_fd(
          fd, ficon::service::encode_request(id, build_request(cli)))) {
    std::cerr << "ficon_cli: write to daemon failed\n";
    ::close(fd);
    return 3;
  }
  std::string payload;
  while (true) {
    const ficon::service::FrameStatus status =
        ficon::service::read_frame_fd(fd, &payload);
    if (status != ficon::service::FrameStatus::kOk) {
      std::cerr << "ficon_cli: daemon closed the connection\n";
      ::close(fd);
      return 3;
    }
    ficon::service::DecodedReply reply;
    std::string error;
    if (!ficon::service::decode_reply(payload, &reply, &error)) {
      std::cerr << "ficon_cli: bad reply: " << error << "\n";
      ::close(fd);
      return 3;
    }
    if (reply.id != id) continue;
    ::close(fd);
    if (!reply.error.empty()) {
      std::cerr << "ficon_cli: daemon: " << reply.error << "\n";
    }
    return finish_json(cli, reply.status, reply.seeds);
  }
#else
  (void)cli;
  std::cerr << "ficon_cli: --connect needs POSIX sockets\n";
  return 3;
#endif
}

}  // namespace

int main(int argc, char** argv) {
  const Cli cli = parse_cli(argc, argv);
  if (!cli.connect.empty()) return run_client(cli);

  // --- Load the circuit.
  const ficon::Netlist netlist = [&] {
    try {
      return ficon::service::load_circuit(cli.circuit);
    } catch (const std::exception& e) {
      std::cerr << "ficon_cli: cannot load '" << cli.circuit
                << "': " << e.what() << "\n";
      std::exit(2);
    }
  }();

  if (cli.json) {
    // One-shot service path: same Request, same shard code as the
    // daemon's executors — the canonical line diffs clean vs --connect.
    const ficon::service::Reply reply =
        ficon::service::run_oneshot(netlist, build_request(cli));
    if (!reply.error.empty()) {
      std::cerr << "ficon_cli: " << reply.error << "\n";
    }
    return finish_json(cli, ficon::service::to_string(reply.status),
                       reply.seeds);
  }

  std::cout << "circuit " << netlist.name() << ": " << netlist.module_count()
            << " modules, " << netlist.terminal_count() << " terminals, "
            << netlist.net_count() << " nets\n";

  // --- Configure. The legacy human-facing path drives the Floorplanner
  // directly; its options come from the same request construction the
  // service mode uses, so --seed here and "seed" over the wire agree.
  const ficon::FloorplanOptions options =
      ficon::service::to_floorplan_options(build_request(cli), cli.seed);

  // --trace PATH turns telemetry on for this process even when the
  // FICON_TRACE env knob is unset; the JSONL report goes to PATH.
  if (!cli.trace.empty()) ficon::obs::set_trace_enabled(true);
  ficon::obs::set_thread_label("main");

  // --- Run. Options the Floorplanner rejects (e.g. an --effort whose move
  // count overflows) are usage errors.
  const ficon::Floorplanner planner = [&] {
    try {
      return ficon::Floorplanner(netlist, options);
    } catch (const std::invalid_argument& e) {
      usage_error(e.what());
    }
  }();
  const ficon::FloorplanSolution sol = planner.run(
      cli.quiet ? ficon::Floorplanner::SnapshotFn{}
                : [](const ficon::TemperatureSnapshot& s) {
                    if (s.step % 10 == 0) {
                      std::cout << "  step " << s.step << "  area "
                                << s.metrics.area / 1e6 << " mm^2  cost "
                                << s.metrics.cost << '\n';
                    }
                  });

  const auto nets = ficon::decompose_to_two_pin(netlist, sol.placement);
  const double judged =
      ficon::make_judging_model(10.0).cost(nets, sol.placement.chip);
  const double deadspace =
      100.0 * (1.0 - netlist.total_module_area() / sol.metrics.area);
  std::cout << "area " << sol.metrics.area / 1e6 << " mm^2 (" << deadspace
            << "% deadspace), wire "
            << sol.metrics.wirelength / 1e3 << " mm, IR cgt "
            << sol.metrics.congestion << ", judging cgt " << judged << ", "
            << sol.seconds << " s\n";

  // --- Exports.
  const double grid = cli.grid > 0.0 ? cli.grid : 30.0;
  if (!cli.svg.empty()) {
    ficon::IrregularGridParams params;
    params.grid_w = params.grid_h = grid;
    std::ofstream svg(cli.svg);
    ficon::write_svg(svg, netlist, sol.placement,
                     ficon::IrregularGridModel(params).evaluate(
                         nets, sol.placement.chip));
    std::cout << "wrote " << cli.svg << '\n';
  }
  if (!cli.csv.empty()) {
    ficon::IrregularGridParams params;
    params.grid_w = params.grid_h = grid;
    std::ofstream csv(cli.csv);
    ficon::IrregularGridModel(params)
        .evaluate(nets, sol.placement.chip)
        .write_csv(csv);
    std::cout << "wrote " << cli.csv << '\n';
  }
  if (!cli.heatmap.empty() || !cli.heatmap_features.empty()) {
    // The heat map renders the *objective's* flow field on the best
    // floorplan snapshot: same model, same parameters, same nets — the
    // per-cell values bit-match what the annealer optimized.
    const ficon::CongestionModel* cmodel = planner.congestion_model();
    if (cmodel == nullptr) {
      usage_error("--heatmap/--heatmap-features require --model ir|fixed");
    }
    const std::unique_ptr<ficon::FlowField> heat_field =
        cmodel->evaluate_field(nets, sol.placement.chip);
    ficon::HeatMapSource source(*heat_field, cmodel->name());
    source.set_nets(nets);
    if (!cli.heatmap.empty()) {
      std::ofstream svg(cli.heatmap);
      source.write_svg(svg, netlist.name() + " " +
                                std::string(cmodel->name()) + " congestion");
      std::cout << "wrote " << cli.heatmap << '\n';
    }
    if (!cli.heatmap_features.empty()) {
      std::ofstream features(cli.heatmap_features);
      const std::string& path = cli.heatmap_features;
      const bool jsonl =
          path.size() > 6 &&
          path.compare(path.size() - 6, 6, ".jsonl") == 0;
      if (jsonl) {
        source.write_features_jsonl(features);
      } else {
        source.write_features_csv(features);
      }
      std::cout << "wrote " << path << '\n';
    }
  }
  if (!cli.save.empty()) {
    std::ofstream out(cli.save);
    ficon::save_netlist(netlist, out);
    std::cout << "wrote " << cli.save << '\n';
  }
  if (!cli.trace.empty()) {
    const ficon::obs::TraceReport report = ficon::obs::capture();
    ficon::obs::write_summary(std::cout, report);
    std::ofstream trace(cli.trace);
    ficon::obs::write_jsonl(trace, report, "ficon_cli");
    ficon::obs::write_solution_jsonl(trace, sol.metrics.area,
                                     sol.metrics.wirelength,
                                     sol.metrics.congestion,
                                     sol.metrics.cost, sol.seconds);
    std::cout << "wrote " << cli.trace << '\n';
  } else if (ficon::obs::trace_enabled()) {
    ficon::obs::emit_env_trace(std::cout, "ficon_cli");
  }
  return 0;
}
