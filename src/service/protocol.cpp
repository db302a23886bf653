#include "service/protocol.hpp"

#include <cerrno>
#include <charconv>
#include <cmath>
#include <istream>
#include <ostream>

#if defined(__unix__) || defined(__APPLE__)
#include <unistd.h>
#define FICON_HAVE_POSIX_FD 1
#endif

#include "obs/json.hpp"

namespace ficon::service {

namespace {

using ficon::obs::JsonValue;
using ficon::obs::json_number;

/// `s` as a quoted JSON string.
std::string quoted(std::string_view s) {
  return '"' + obs::json_escape(s) + '"';
}

/// `text` as a T, exactly: an optional '-' (signed T only), then decimal
/// digits and nothing else, within T's range. Wire integers are parsed
/// from their text, never through a double, which holds only 53 bits.
template <class T>
bool parse_integer(std::string_view text, T* out) {
  T v{};
  const char* const end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, v);
  if (ec != std::errc{} || ptr != end) return false;
  *out = v;
  return true;
}

/// An integer field: a JSON number written as an integer literal that
/// fits T. Rejects fractions and exponents, even when they are integral.
template <class T>
bool integer_field(const JsonValue& v, T* out) {
  return v.is_number() && parse_integer(v.literal, out);
}

std::string seed_results_json(const std::vector<SeedResult>& seeds,
                              bool with_seconds) {
  std::string out = "[";
  for (std::size_t i = 0; i < seeds.size(); ++i) {
    const SeedResult& s = seeds[i];
    if (i > 0) out += ',';
    out += "{\"seed\":" + quoted(std::to_string(s.seed)) +
           ",\"area\":" + json_number(s.metrics.area) +
           ",\"wirelength\":" + json_number(s.metrics.wirelength) +
           ",\"congestion\":" + json_number(s.metrics.congestion) +
           ",\"cost\":" + json_number(s.metrics.cost);
    if (with_seconds) out += ",\"seconds\":" + json_number(s.seconds);
    out += std::string(",\"cancelled\":") + (s.cancelled ? "true" : "false") +
           ",\"representation\":" + quoted(s.representation) + "}";
  }
  out += ']';
  return out;
}

bool decode_seed_result(const JsonValue& v, SeedResult* out,
                        std::string* error) {
  const JsonValue* seed = v.find("seed");
  if (seed == nullptr ||
      !(seed->is_string() || seed->is_number())) {
    *error = "seed result missing \"seed\"";
    return false;
  }
  if (seed->is_string()) {
    if (!parse_integer(seed->string, &out->seed)) {
      *error = "bad seed string '" + seed->string + "'";
      return false;
    }
  } else if (!integer_field(*seed, &out->seed)) {
    *error = "seed result \"seed\" is not a u64";
    return false;
  }
  const auto number = [&](const char* key, double* dst) {
    const JsonValue* field = v.find(key);
    if (field == nullptr || !field->is_number()) return false;
    *dst = field->number;
    return true;
  };
  if (!number("area", &out->metrics.area) ||
      !number("wirelength", &out->metrics.wirelength) ||
      !number("congestion", &out->metrics.congestion) ||
      !number("cost", &out->metrics.cost)) {
    *error = "seed result missing a metric";
    return false;
  }
  number("seconds", &out->seconds);  // optional (absent in result lines)
  if (const JsonValue* c = v.find("cancelled");
      c != nullptr && c->type == JsonValue::Type::kBool) {
    out->cancelled = c->boolean;
  }
  if (const JsonValue* r = v.find("representation");
      r != nullptr && r->is_string()) {
    out->representation = r->string;
  }
  return true;
}

}  // namespace

const char* to_string(ProtocolOp op) {
  switch (op) {
    case ProtocolOp::kEvaluate: return "evaluate";
    case ProtocolOp::kAnneal: return "anneal";
    case ProtocolOp::kCancel: return "cancel";
    case ProtocolOp::kPing: return "ping";
    case ProtocolOp::kStats: return "stats";
    case ProtocolOp::kShutdown: return "shutdown";
  }
  return "?";
}

// --- Framing ------------------------------------------------------------

FrameStatus read_frame(std::istream& in, std::string* payload) {
  std::string header;
  char c = 0;
  while (in.get(c)) {
    if (c == '\n') break;
    header += c;
    if (header.size() > 20) return FrameStatus::kMalformed;
  }
  if (!in) {
    return header.empty() ? FrameStatus::kEof : FrameStatus::kMalformed;
  }
  std::uint64_t length = 0;
  if (!parse_integer(header, &length) || length > kMaxFrameBytes) {
    return FrameStatus::kMalformed;
  }
  payload->resize(static_cast<std::size_t>(length));
  if (length > 0 &&
      !in.read(payload->data(), static_cast<std::streamsize>(length))) {
    return FrameStatus::kMalformed;
  }
  if (!in.get(c) || c != '\n') return FrameStatus::kMalformed;
  return FrameStatus::kOk;
}

void write_frame(std::ostream& out, std::string_view payload) {
  out << payload.size() << '\n';
  out.write(payload.data(), static_cast<std::streamsize>(payload.size()));
  out << '\n';
  out.flush();
}

#if defined(FICON_HAVE_POSIX_FD)

namespace {

/// read() exactly n bytes; 1 = ok, 0 = clean EOF at offset 0, -1 = short.
int read_exact_fd(int fd, char* dst, std::size_t n) {
  std::size_t got = 0;
  while (got < n) {
    const ssize_t r = ::read(fd, dst + got, n - got);
    if (r < 0) {
      if (errno == EINTR) continue;
      return got == 0 ? 0 : -1;
    }
    if (r == 0) return got == 0 ? 0 : -1;
    got += static_cast<std::size_t>(r);
  }
  return 1;
}

}  // namespace

FrameStatus read_frame_fd(int fd, std::string* payload) {
  std::string header;
  while (true) {
    char c = 0;
    const int r = read_exact_fd(fd, &c, 1);
    if (r == 0) {
      return header.empty() ? FrameStatus::kEof : FrameStatus::kMalformed;
    }
    if (r < 0) return FrameStatus::kMalformed;
    if (c == '\n') break;
    header += c;
    if (header.size() > 20) return FrameStatus::kMalformed;
  }
  std::uint64_t length = 0;
  if (!parse_integer(header, &length) || length > kMaxFrameBytes) {
    return FrameStatus::kMalformed;
  }
  payload->resize(static_cast<std::size_t>(length));
  if (length > 0 && read_exact_fd(fd, payload->data(),
                                  payload->size()) != 1) {
    return FrameStatus::kMalformed;
  }
  char trailer = 0;
  if (read_exact_fd(fd, &trailer, 1) != 1 || trailer != '\n') {
    return FrameStatus::kMalformed;
  }
  return FrameStatus::kOk;
}

bool write_frame_fd(int fd, std::string_view payload) {
  std::string frame = std::to_string(payload.size());
  frame += '\n';
  frame.append(payload.data(), payload.size());
  frame += '\n';
  std::size_t sent = 0;
  while (sent < frame.size()) {
    const ssize_t w = ::write(fd, frame.data() + sent, frame.size() - sent);
    if (w < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    sent += static_cast<std::size_t>(w);
  }
  return true;
}

#else  // !FICON_HAVE_POSIX_FD

FrameStatus read_frame_fd(int, std::string*) {
  return FrameStatus::kMalformed;
}
bool write_frame_fd(int, std::string_view) { return false; }

#endif

// --- Requests -----------------------------------------------------------

bool decode_request(const std::string& payload, ProtocolRequest* out,
                    std::string* error) {
  *out = ProtocolRequest{};
  const std::optional<JsonValue> doc = obs::parse_json(payload, error);
  if (!doc) return false;
  if (!doc->is_object()) {
    *error = "request must be a JSON object";
    return false;
  }

  // Pull "id" first so even a rejected payload has an addressable reply.
  if (const JsonValue* id = doc->find("id"); id != nullptr && id->is_number()) {
    if (!integer_field(*id, &out->id)) {
      *error = "\"id\" must be an integer in [-2^63, 2^63)";
      return false;
    }
  }

  const JsonValue* op = doc->find("op");
  if (op == nullptr || !op->is_string()) {
    *error = "missing \"op\"";
    return false;
  }
  if (op->string == "evaluate") {
    out->op = ProtocolOp::kEvaluate;
  } else if (op->string == "anneal") {
    out->op = ProtocolOp::kAnneal;
  } else if (op->string == "cancel") {
    out->op = ProtocolOp::kCancel;
  } else if (op->string == "ping") {
    out->op = ProtocolOp::kPing;
  } else if (op->string == "stats") {
    out->op = ProtocolOp::kStats;
  } else if (op->string == "shutdown") {
    out->op = ProtocolOp::kShutdown;
  } else {
    *error = "unknown op '" + op->string + "'";
    return false;
  }

  // CLI-compatible defaults; "grid" resolves against the chosen model.
  Request& request = out->request;
  request.kind = out->op == ProtocolOp::kEvaluate ? RequestKind::kEvaluate
                                                  : RequestKind::kAnneal;
  std::string model = "ir";
  double grid = -1.0;  // sentinel: per-model default
  request.objective.alpha = 1.0;
  request.objective.beta = 1.0;
  request.objective.gamma = 0.4;

  for (const auto& [key, value] : doc->object) {
    // Like ficon_cli's flags, numbers must be finite: 1e999 parses to inf.
    const auto need_number = [&]() {
      if (value.is_number() && std::isfinite(value.number)) return true;
      *error = "\"" + key + "\" must be a finite number";
      return false;
    };
    if (key == "id" || key == "op") {
      continue;  // handled above
    } else if (key == "alpha") {
      if (!need_number()) return false;
      request.objective.alpha = value.number;
    } else if (key == "beta") {
      if (!need_number()) return false;
      request.objective.beta = value.number;
    } else if (key == "gamma") {
      if (!need_number()) return false;
      request.objective.gamma = value.number;
    } else if (key == "grid") {
      if (!need_number()) return false;
      if (value.number <= 0.0) {
        *error = "\"grid\" must be positive";
        return false;
      }
      grid = value.number;
    } else if (key == "model") {
      if (!value.is_string()) {
        *error = "\"model\" must be a string";
        return false;
      }
      model = value.string;
    } else if (key == "engine") {
      if (!value.is_string() ||
          (value.string != "polish" && value.string != "sp")) {
        *error = "\"engine\" must be \"polish\" or \"sp\"";
        return false;
      }
      request.engine = value.string == "sp"
                           ? FloorplanEngine::kSequencePair
                           : FloorplanEngine::kPolishExpression;
    } else if (key == "effort") {
      if (!need_number()) return false;
      if (value.number <= 0.0) {
        *error = "\"effort\" must be positive";
        return false;
      }
      request.effort = value.number;
    } else if (key == "seed") {
      if (value.is_string()) {
        if (!parse_integer(value.string, &request.seed)) {
          *error = "bad seed '" + value.string + "'";
          return false;
        }
      } else if (!integer_field(value, &request.seed)) {
        *error = "\"seed\" must be a decimal string or an integer in [0, 2^64)";
        return false;
      }
    } else if (key == "seeds") {
      if (!integer_field(value, &request.seeds) || request.seeds < 1 ||
          request.seeds > 4096) {
        *error = "\"seeds\" must be an integer in [1, 4096]";
        return false;
      }
    } else if (key == "expression") {
      if (!value.is_string()) {
        *error = "\"expression\" must be a string";
        return false;
      }
      request.expression = value.string;
    } else if (key == "target") {
      if (!integer_field(value, &out->target)) {
        *error = "\"target\" must be an integer in [-2^63, 2^63)";
        return false;
      }
    } else {
      *error = "unknown key \"" + key + "\"";
      return false;
    }
  }

  if (!set_congestion_model(model, grid, &request.objective)) {
    *error = "unknown model '" + model + "'";
    return false;
  }
  if (out->op == ProtocolOp::kCancel && out->target == 0) {
    *error = "cancel needs a non-zero \"target\"";
    return false;
  }
  return true;
}

bool set_congestion_model(std::string_view model, double grid,
                          FloorplanObjective* objective) {
  if (model == "ir") {
    objective->model = CongestionModelKind::kIrregularGrid;
    objective->irregular.grid_w = grid > 0.0 ? grid : 30.0;
    objective->irregular.grid_h = objective->irregular.grid_w;
  } else if (model == "fixed") {
    objective->model = CongestionModelKind::kFixedGrid;
    objective->fixed.grid_w = grid > 0.0 ? grid : 100.0;
    objective->fixed.grid_h = objective->fixed.grid_w;
  } else if (model == "none") {
    objective->model = CongestionModelKind::kNone;
    objective->gamma = 0.0;
  } else {
    return false;
  }
  return true;
}

std::string encode_request(std::int64_t id, const Request& request) {
  const char* model = "none";
  double grid = 0.0;
  if (request.objective.model == CongestionModelKind::kIrregularGrid) {
    model = "ir";
    grid = request.objective.irregular.grid_w;
  } else if (request.objective.model == CongestionModelKind::kFixedGrid) {
    model = "fixed";
    grid = request.objective.fixed.grid_w;
  }
  std::string out = "{\"id\":" + std::to_string(id) +
                    ",\"op\":" + quoted(to_string(request.kind)) +
                    ",\"alpha\":" + json_number(request.objective.alpha) +
                    ",\"beta\":" + json_number(request.objective.beta) +
                    ",\"gamma\":" + json_number(request.objective.gamma) +
                    ",\"model\":" + quoted(model);
  if (grid > 0.0) out += ",\"grid\":" + json_number(grid);
  out += std::string(",\"engine\":") +
         (request.engine == FloorplanEngine::kSequencePair ? "\"sp\""
                                                           : "\"polish\"") +
         ",\"seed\":" + quoted(std::to_string(request.seed)) +
         ",\"seeds\":" + std::to_string(request.seeds) +
         ",\"effort\":" + json_number(request.effort);
  if (!request.expression.empty()) {
    out += ",\"expression\":" + quoted(request.expression);
  }
  out += '}';
  return out;
}

std::string encode_cancel(std::int64_t id, std::int64_t target) {
  return "{\"id\":" + std::to_string(id) +
         ",\"op\":\"cancel\",\"target\":" + std::to_string(target) + "}";
}

std::string encode_control(std::int64_t id, ProtocolOp op) {
  return "{\"id\":" + std::to_string(id) + ",\"op\":" +
         quoted(to_string(op)) + "}";
}

// --- Replies ------------------------------------------------------------

std::string encode_reply(std::int64_t id, const Reply& reply) {
  std::string out = "{\"id\":" + std::to_string(id) + ",\"status\":" +
                    quoted(to_string(reply.status));
  if (!reply.error.empty()) out += ",\"error\":" + quoted(reply.error);
  out += ",\"seconds\":" + json_number(reply.seconds) +
         ",\"seeds\":" + seed_results_json(reply.seeds, true) + "}";
  return out;
}

std::string encode_error_reply(std::int64_t id, const std::string& message) {
  return "{\"id\":" + std::to_string(id) +
         ",\"status\":\"error\",\"error\":" + quoted(message) + "}";
}

std::string encode_ok_reply(std::int64_t id) {
  return "{\"id\":" + std::to_string(id) + ",\"status\":\"ok\"}";
}

std::string encode_stats_reply(std::int64_t id, const SessionStats& stats) {
  return "{\"id\":" + std::to_string(id) +
         ",\"status\":\"ok\",\"stats\":{\"submitted\":" +
         std::to_string(stats.submitted) +
         ",\"accepted\":" + std::to_string(stats.accepted) +
         ",\"rejected\":" + std::to_string(stats.rejected) +
         ",\"completed\":" + std::to_string(stats.completed) +
         ",\"cancelled\":" + std::to_string(stats.cancelled) +
         ",\"failed\":" + std::to_string(stats.failed) + "}}";
}

bool decode_reply(const std::string& payload, DecodedReply* out,
                  std::string* error) {
  *out = DecodedReply{};
  const std::optional<JsonValue> doc = obs::parse_json(payload, error);
  if (!doc) return false;
  if (!doc->is_object()) {
    *error = "reply must be a JSON object";
    return false;
  }
  if (const JsonValue* id = doc->find("id"); id != nullptr && id->is_number()) {
    if (!integer_field(*id, &out->id)) {
      *error = "reply \"id\" is not an int64";
      return false;
    }
  }
  const JsonValue* status = doc->find("status");
  if (status == nullptr || !status->is_string()) {
    *error = "missing \"status\"";
    return false;
  }
  out->status = status->string;
  if (const JsonValue* e = doc->find("error"); e != nullptr && e->is_string()) {
    out->error = e->string;
  }
  if (const JsonValue* s = doc->find("seconds");
      s != nullptr && s->is_number()) {
    out->seconds = s->number;
  }
  if (const JsonValue* seeds = doc->find("seeds");
      seeds != nullptr && seeds->type == JsonValue::Type::kArray) {
    for (const JsonValue& entry : seeds->array) {
      SeedResult result;
      if (!decode_seed_result(entry, &result, error)) return false;
      out->seeds.push_back(std::move(result));
    }
  }
  if (const JsonValue* stats = doc->find("stats");
      stats != nullptr && stats->is_object()) {
    const auto counter = [&](const char* key, long long* dst) {
      const JsonValue* v = stats->find(key);
      return v == nullptr || !v->is_number() || integer_field(*v, dst);
    };
    if (!counter("submitted", &out->stats.submitted) ||
        !counter("accepted", &out->stats.accepted) ||
        !counter("rejected", &out->stats.rejected) ||
        !counter("completed", &out->stats.completed) ||
        !counter("cancelled", &out->stats.cancelled) ||
        !counter("failed", &out->stats.failed)) {
      *error = "stats counter is not an int64";
      return false;
    }
  }
  return true;
}

std::string encode_result_line(const std::string& op,
                               const std::string& circuit,
                               const std::string& status,
                               const std::vector<SeedResult>& seeds) {
  return "{\"op\":" + quoted(op) + ",\"circuit\":" +
         quoted(circuit) + ",\"status\":" + quoted(status) +
         ",\"seeds\":" + seed_results_json(seeds, false) + "}";
}

}  // namespace ficon::service
