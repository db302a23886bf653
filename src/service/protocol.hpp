// Wire protocol of the ficond daemon: length-prefixed JSON frames over a
// byte stream (Unix socket or stdin/stdout pipe).
//
// Frame format (both directions):
//
//   <payload-byte-count, decimal ASCII>\n
//   <payload, exactly that many bytes>\n
//
// The length prefix makes framing independent of payload content (a JSON
// string may contain newlines only as \n escapes, but the reader never
// needs to know); the trailing newline keeps frames greppable and lets a
// human drive the stdio mode from a terminal. Payloads above
// kMaxFrameBytes are malformed — a desynchronized or hostile peer must
// not make the daemon buffer unboundedly.
//
// Request payload (one JSON object; unknown keys are errors, missing keys
// take the ficon_cli defaults so the same knobs mean the same thing):
//
//   {"id": 1, "op": "evaluate|anneal|cancel|ping|stats|shutdown",
//    "circuit"-independent engine knobs:
//    "alpha": 1, "beta": 1, "gamma": 0.4, "model": "ir|fixed|none",
//    "grid": 30, "engine": "polish|sp", "effort": 1.0,
//    "seed": "1", "seeds": 1, "expression": "0 1 V",
//    "target": 2}              // cancel only: id of the request to cancel
//
// "seed" is a decimal string (also accepted as an integer literal).
// Integer fields ("id", "target", "seeds", a numeric "seed") take integer
// literals only, parsed from their text into the field's type: a double
// would carry only 53 bits.
//
// Reply payload:
//
//   {"id": 1, "status": "ok|rejected|cancelled|error",
//    "error": "...",           // status "error" only
//    "seconds": 0.25,          // evaluate/anneal only
//    "seeds": [{"seed": "42", "area": A, "wirelength": W,
//               "congestion": C, "cost": K, "seconds": S,
//               "cancelled": false, "representation": "0 1 V"}, ...],
//    "stats": {...}}           // op "stats" only
//
// Replies may arrive out of submission order (the session executors run
// concurrently); clients match on "id". Doubles are printed with %.17g so
// metrics round-trip bit-exactly — the e2e tests compare daemon replies
// against in-process runs with operator==.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>

#include "service/session.hpp"

namespace ficon::service {

/// Frames larger than this are malformed (16 MiB).
constexpr std::size_t kMaxFrameBytes = std::size_t{16} << 20;

enum class FrameStatus {
  kOk,
  kEof,        ///< clean end of stream before any frame byte
  kMalformed,  ///< bad length prefix, oversized, or truncated frame
};

/// Read one frame; on kOk `payload` holds the payload bytes.
FrameStatus read_frame(std::istream& in, std::string* payload);
void write_frame(std::ostream& out, std::string_view payload);

/// POSIX-fd flavors for socket transports (loop over partial reads and
/// writes; EINTR-safe). write_frame_fd returns false on write failure.
FrameStatus read_frame_fd(int fd, std::string* payload);
bool write_frame_fd(int fd, std::string_view payload);

enum class ProtocolOp { kEvaluate, kAnneal, kCancel, kPing, kStats,
                        kShutdown };

const char* to_string(ProtocolOp op);

/// One decoded request frame.
struct ProtocolRequest {
  std::int64_t id = 0;
  ProtocolOp op = ProtocolOp::kPing;
  Request request;          ///< evaluate/anneal payload
  std::int64_t target = 0;  ///< cancel: id of the request to cancel
};

/// @brief Decode a request payload. Returns false (and sets `error`) on
/// syntax errors, unknown keys/ops, or out-of-domain values; `out->id`
/// is still filled when the payload carried one, so the caller can
/// address the error reply.
bool decode_request(const std::string& payload, ProtocolRequest* out,
                    std::string* error);

/// @brief Resolve a congestion model name ("ir", "fixed" or "none") and a
/// fine pitch into `objective`: a non-positive `grid` takes the model's
/// default (30 um for ir, 100 um for fixed), and "none" also zeroes gamma.
/// Returns false, leaving `objective` unchanged, for an unknown name. The
/// request decoder and ficon_cli both resolve through it, so a flag and a
/// field mean the same thing.
bool set_congestion_model(std::string_view model, double grid,
                          FloorplanObjective* objective);

std::string encode_request(std::int64_t id, const Request& request);
std::string encode_cancel(std::int64_t id, std::int64_t target);
std::string encode_control(std::int64_t id, ProtocolOp op);

std::string encode_reply(std::int64_t id, const Reply& reply);
std::string encode_error_reply(std::int64_t id, const std::string& message);
std::string encode_ok_reply(std::int64_t id);
std::string encode_stats_reply(std::int64_t id, const SessionStats& stats);

/// Client-side view of a reply frame.
struct DecodedReply {
  std::int64_t id = 0;
  std::string status;  ///< "ok|rejected|cancelled|error"
  std::string error;
  double seconds = 0.0;
  std::vector<SeedResult> seeds;
  SessionStats stats;  ///< op "stats" replies only
};

bool decode_reply(const std::string& payload, DecodedReply* out,
                  std::string* error);

/// @brief Canonical one-line result for CI diffing: op + circuit +
/// status + per-seed metrics, *excluding* wall-clock times and ids. The
/// one-shot `ficon_cli --json` path and the `--connect` client path both
/// print exactly this line, so `diff` proves bit-identity end to end.
std::string encode_result_line(const std::string& op,
                               const std::string& circuit,
                               const std::string& status,
                               const std::vector<SeedResult>& seeds);

}  // namespace ficon::service
