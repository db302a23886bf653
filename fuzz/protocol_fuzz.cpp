// Fuzz harness for the ficond wire protocol (docs/SERVICE.md): splits
// arbitrary bytes into frames with read_frame, and decodes every payload,
// and the raw input, both as a request and as a reply. A decoded request
// must lie inside the envelope the decoder promises:
//
//   * evaluate/anneal: alpha, beta, gamma, the model's pitch and effort
//     are finite, effort is positive, seeds is in [1, 4096], and
//     decode_request(encode_request(id, r)) returns the same fields, bit
//     for bit (the codec's round-trip contract);
//   * cancel: the target is non-zero.
//
// Built as a libFuzzer target under clang (-fsanitize=fuzzer); under gcc
// the shared standalone driver (standalone_main.cpp) replays files given
// on the command line, or runs a smoke loop over mutated encodings of
// valid requests and replies, so that the success path is reached too.
#include <bit>
#include <cmath>
#include <cstdint>
#include <iterator>
#include <sstream>
#include <string>
#include <vector>

#include "harness.hpp"
#include "service/protocol.hpp"
#include "util/rng.hpp"

namespace service = ficon::service;
using ficon::CongestionModelKind;
using ficon::FloorplanObjective;
using service::ProtocolOp;
using service::ProtocolRequest;
using service::Request;

namespace {

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

bool same_objective(const FloorplanObjective& a, const FloorplanObjective& b) {
  return same_bits(a.alpha, b.alpha) && same_bits(a.beta, b.beta) &&
         same_bits(a.gamma, b.gamma) && a.model == b.model &&
         same_bits(a.irregular.grid_w, b.irregular.grid_w) &&
         same_bits(a.irregular.grid_h, b.irregular.grid_h) &&
         same_bits(a.fixed.grid_w, b.fixed.grid_w) &&
         same_bits(a.fixed.grid_h, b.fixed.grid_h);
}

void check_request(const ProtocolRequest& decoded) {
  if (decoded.op == ProtocolOp::kCancel) {
    fuzz_check(decoded.target != 0, "cancel decoded without a target");
    return;
  }
  if (decoded.op != ProtocolOp::kEvaluate &&
      decoded.op != ProtocolOp::kAnneal) {
    return;
  }
  const Request& r = decoded.request;
  const FloorplanObjective& o = r.objective;
  fuzz_check(std::isfinite(o.alpha) && std::isfinite(o.beta) &&
                 std::isfinite(o.gamma),
             "non-finite objective weight");
  if (o.model == CongestionModelKind::kIrregularGrid) {
    fuzz_check(std::isfinite(o.irregular.grid_w) &&
                   std::isfinite(o.irregular.grid_h),
               "non-finite IR pitch");
  } else if (o.model == CongestionModelKind::kFixedGrid) {
    fuzz_check(std::isfinite(o.fixed.grid_w) && std::isfinite(o.fixed.grid_h),
               "non-finite fixed-grid pitch");
  }
  fuzz_check(std::isfinite(r.effort) && r.effort > 0.0,
             "effort not finite and positive");
  fuzz_check(r.seeds >= 1 && r.seeds <= 4096, "seeds outside [1, 4096]");

  const std::string encoded = service::encode_request(decoded.id, r);
  ProtocolRequest again;
  std::string error;
  fuzz_check(service::decode_request(encoded, &again, &error),
             "re-encoded request does not decode");
  const Request& s = again.request;
  fuzz_check(again.id == decoded.id && again.op == decoded.op &&
                 s.kind == r.kind && same_objective(s.objective, o) &&
                 s.engine == r.engine && same_bits(s.effort, r.effort) &&
                 s.seed == r.seed && s.seeds == r.seeds &&
                 s.expression == r.expression,
             "request changed in an encode/decode round trip");
}

void decode_payload(const std::string& payload) {
  ProtocolRequest request;
  std::string error;
  if (service::decode_request(payload, &request, &error)) {
    check_request(request);
  } else {
    fuzz_check(!error.empty(), "request rejected without an error");
  }
  service::DecodedReply reply;
  error.clear();
  if (!service::decode_reply(payload, &reply, &error)) {
    fuzz_check(!error.empty(), "reply rejected without an error");
  }
}

/// Valid payloads the smoke loop mutates: one of each request op, with
/// every model and engine, and one of each reply kind.
const std::vector<std::string>& smoke_payloads() {
  static const std::vector<std::string> payloads = [] {
    std::vector<std::string> out;
    Request request;
    request.kind = service::RequestKind::kEvaluate;
    request.objective.gamma = 0.4;
    request.expression = "0 1 V 2 H";
    for (const char* model : {"ir", "fixed", "none"}) {
      service::set_congestion_model(model, 45.5, &request.objective);
      out.push_back(service::encode_request(7, request));
    }
    request.kind = service::RequestKind::kAnneal;
    request.engine = ficon::FloorplanEngine::kSequencePair;
    request.expression.clear();
    request.seed = 18446744073709551615ull;
    request.seeds = 4;
    request.effort = 0.25;
    out.push_back(service::encode_request(-3, request));
    out.push_back(service::encode_cancel(8, 7));
    for (const ProtocolOp op :
         {ProtocolOp::kPing, ProtocolOp::kStats, ProtocolOp::kShutdown}) {
      out.push_back(service::encode_control(9, op));
    }
    service::Reply reply;
    service::SeedResult seed;
    seed.seed = 42;
    seed.metrics = {1.5e6, 2.25e4, 0.125, 3.75};
    seed.representation = "0 1 V";
    seed.seconds = 0.5;
    reply.seeds.push_back(seed);
    out.push_back(service::encode_reply(7, reply));
    out.push_back(service::encode_error_reply(8, "bad \"thing\"\n"));
    out.push_back(service::encode_ok_reply(9));
    out.push_back(service::encode_stats_reply(10, {4, 3, 1, 2, 0, 1}));
    return out;
  }();
  return payloads;
}

/// One mutation of `s`: overwrite, insert or delete bytes, truncate, or
/// replace the value after a ':' with a value at an edge of the envelope.
void mutate(ficon::SplitMix64& gen, std::string& s) {
  static constexpr const char* kValues[] = {
      "1e999", "-1e999", "2.5", "0", "-0", "1e-300", "4096", "4097", "-1",
      "9223372036854775807", "18446744073709551616", "null", "\"x\"", "[]",
      "{}", "\"\\u0000\"", "[[[[[[[[", "\"ir\"", "\"none\"", "\"cancel\""};
  static constexpr char kPunctuation[] = "[]{}:,\"\\-+.eE0123456789";
  if (s.empty()) {
    s.push_back(static_cast<char>(gen.next()));
    return;
  }
  const std::size_t at = gen.next() % s.size();
  switch (gen.next() % 5) {
    case 0:
      s[at] = static_cast<char>(gen.next());
      break;
    case 1:
      s.insert(at, 1, kPunctuation[gen.next() % (sizeof(kPunctuation) - 1)]);
      break;
    case 2:
      s.erase(at, 1 + gen.next() % 8);
      break;
    case 3: {
      const std::size_t colon = s.find(':', at);
      if (colon == std::string::npos) break;
      const std::size_t end = s.find_first_of(",}", colon + 1);
      const std::size_t stop = end == std::string::npos ? s.size() : end;
      s.replace(colon + 1, stop - colon - 1,
                kValues[gen.next() % std::size(kValues)]);
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
  const std::string raw(reinterpret_cast<const char*>(data), size);
  std::istringstream in(raw);
  std::string payload;
  while (service::read_frame(in, &payload) == service::FrameStatus::kOk) {
    decode_payload(payload);
  }
  decode_payload(raw);
  return 0;
}

void fuzz_smoke_input(ficon::SplitMix64& gen, std::vector<std::uint8_t>& data) {
  const std::vector<std::string>& payloads = smoke_payloads();
  std::ostringstream out;
  const int pieces = 1 + static_cast<int>(gen.next() % 3);
  const bool framed = gen.next() % 4 != 0;
  for (int i = 0; i < pieces; ++i) {
    std::string piece = payloads[gen.next() % payloads.size()];
    // A quarter of the pieces stay valid, so the success path runs.
    const int mutations = static_cast<int>(gen.next() % 4);
    for (int m = 0; m < mutations; ++m) mutate(gen, piece);
    if (framed) {
      service::write_frame(out, piece);
    } else {
      out << piece;
    }
  }
  const std::string bytes = out.str();
  data.assign(bytes.begin(), bytes.end());
}
