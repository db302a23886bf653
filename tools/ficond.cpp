// ficond — congestion-evaluation daemon over one EngineSession.
//
// Loads a circuit once, then serves evaluate/anneal requests through the
// length-prefixed JSON frame protocol (src/service/protocol.hpp) on
// either a Unix-domain socket (one thread per connection, replies may
// interleave out of submission order) or stdin/stdout (single
// connection). The session amortizes netlist parsing and the evaluator
// caches across every request; see docs/SERVICE.md for the numbers.
//
// Usage:
//   ficond --circuit NAME|PATH (--socket PATH | --stdio)
//          [--workers N] [--queue N]
//     --circuit NAME|PATH  built-in MCNC name, .blocks, or .ficon file
//     --socket PATH        listen on a Unix-domain socket at PATH (the
//                          path is unlinked first; removed on exit)
//     --stdio              serve one connection on stdin/stdout
//     --workers N          executor threads (default FICON_THREADS)
//     --queue N            queued-shard capacity (default 64); overflow
//                          submits are rejected with status "rejected"
//
// Ops beyond evaluate/anneal: "cancel" (by request id), "ping", "stats",
// and "shutdown" (acknowledges, then stops the daemon: every connection
// stops reading, and outstanding requests complete as cancelled). A
// malformed frame is unrecoverable on that connection: one error reply,
// then the connection closes.
//
// Exit codes: 0 clean shutdown, 2 usage error, 3 socket/circuit failure
// or executor threads that cannot start.
#include <atomic>
#include <cerrno>
#include <csignal>
#include <cstring>
#include <iostream>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>
#define FICOND_HAVE_SOCKETS 1
#endif

#include "ficon.hpp"

namespace {

using ficon::service::DecodedReply;
using ficon::service::EngineSession;
using ficon::service::FrameStatus;
using ficon::service::ProtocolOp;
using ficon::service::ProtocolRequest;
using ficon::service::Reply;

[[noreturn]] void usage_error(const std::string& message) {
  std::cerr << "ficond: " << message << "\n"
            << "usage: ficond --circuit NAME|PATH (--socket PATH | --stdio)"
               " [--workers N] [--queue N]\n";
  std::exit(2);
}

int parse_int_arg(const std::string& flag, const std::string& text) {
  errno = 0;
  char* end = nullptr;
  const long v = std::strtol(text.c_str(), &end, 10);
  if (errno != 0 || end != text.c_str() + text.size() || v < 1 ||
      v > 1 << 20) {
    usage_error("option '" + flag + "' needs a positive integer, got '" +
                text + "'");
  }
  return static_cast<int>(v);
}

/// One frame transport: the stdio pair or a socket fd.
class Transport {
 public:
  virtual ~Transport() = default;
  virtual FrameStatus read(std::string* payload) = 0;
  /// Thread-safe (replies come from executor callbacks concurrently).
  virtual bool write(const std::string& payload) = 0;
};

class StdioTransport : public Transport {
 public:
  FrameStatus read(std::string* payload) override {
    return ficon::service::read_frame(std::cin, payload);
  }
  bool write(const std::string& payload) override {
    const std::lock_guard<std::mutex> lock(mu_);
    ficon::service::write_frame(std::cout, payload);
    return static_cast<bool>(std::cout);
  }

 private:
  std::mutex mu_;
};

#if defined(FICOND_HAVE_SOCKETS)
class FdTransport : public Transport {
 public:
  explicit FdTransport(int fd) : fd_(fd) {}
  ~FdTransport() override { ::close(fd_); }
  FrameStatus read(std::string* payload) override {
    return ficon::service::read_frame_fd(fd_, payload);
  }
  bool write(const std::string& payload) override {
    const std::lock_guard<std::mutex> lock(mu_);
    return ficon::service::write_frame_fd(fd_, payload);
  }
  /// Ends a blocked or later read with EOF; writes still go through.
  void shutdown_reads() { ::shutdown(fd_, SHUT_RD); }

 private:
  int fd_;
  std::mutex mu_;
};
#endif

/// @brief Serve one connection until EOF, a malformed frame, or a
/// shutdown op. Returns true iff the peer requested daemon shutdown.
///
/// `transport` is shared with the in-flight completion callbacks, which
/// is why it rides in a shared_ptr: a callback may fire after the read
/// loop (and this frame) are long gone.
bool serve_connection(EngineSession& session,
                      const std::shared_ptr<Transport>& transport) {
  // id -> session ticket of in-flight requests, for "cancel".
  auto inflight = std::make_shared<std::mutex>();
  auto tickets = std::make_shared<std::map<std::int64_t, EngineSession::Ticket>>();

  std::string payload;
  while (true) {
    const FrameStatus status = transport->read(&payload);
    if (status == FrameStatus::kEof) return false;
    if (status == FrameStatus::kMalformed) {
      // Framing is lost; nothing after this byte can be trusted.
      transport->write(ficon::service::encode_error_reply(
          0, "malformed frame; closing connection"));
      return false;
    }
    ProtocolRequest request;
    std::string error;
    if (!ficon::service::decode_request(payload, &request, &error)) {
      transport->write(
          ficon::service::encode_error_reply(request.id, error));
      continue;
    }
    switch (request.op) {
      case ProtocolOp::kPing:
        transport->write(ficon::service::encode_ok_reply(request.id));
        break;
      case ProtocolOp::kStats:
        transport->write(ficon::service::encode_stats_reply(
            request.id, session.stats()));
        break;
      case ProtocolOp::kShutdown:
        transport->write(ficon::service::encode_ok_reply(request.id));
        return true;
      case ProtocolOp::kCancel: {
        EngineSession::Ticket ticket = 0;
        {
          const std::lock_guard<std::mutex> lock(*inflight);
          const auto it = tickets->find(request.target);
          if (it != tickets->end()) ticket = it->second;
        }
        if (ticket != 0 && session.cancel(ticket)) {
          transport->write(ficon::service::encode_ok_reply(request.id));
        } else {
          transport->write(ficon::service::encode_error_reply(
              request.id,
              "no cancellable request with id " +
                  std::to_string(request.target)));
        }
        break;
      }
      case ProtocolOp::kEvaluate:
      case ProtocolOp::kAnneal: {
        const std::int64_t id = request.id;
        const EngineSession::Ticket ticket = session.submit(
            std::move(request.request),
            [transport, inflight, tickets, id](EngineSession::Ticket,
                                               const Reply& reply) {
              transport->write(ficon::service::encode_reply(id, reply));
              const std::lock_guard<std::mutex> lock(*inflight);
              tickets->erase(id);
            });
        if (ticket == 0) {
          Reply rejected;
          rejected.status = ficon::service::ReplyStatus::kRejected;
          rejected.error = "queue full";
          transport->write(ficon::service::encode_reply(id, rejected));
        } else {
          const std::lock_guard<std::mutex> lock(*inflight);
          (*tickets)[id] = ticket;
        }
        break;
      }
    }
  }
}

#if defined(FICOND_HAVE_SOCKETS)
int serve_socket(EngineSession& session, const std::string& path) {
  const int listener = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (listener < 0) {
    std::cerr << "ficond: socket: " << std::strerror(errno) << "\n";
    return 3;
  }
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof(addr.sun_path)) {
    std::cerr << "ficond: socket path too long: " << path << "\n";
    return 3;
  }
  std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
  ::unlink(path.c_str());  // a previous run's stale socket
  if (::bind(listener, reinterpret_cast<const sockaddr*>(&addr),
             sizeof(addr)) != 0 ||
      ::listen(listener, 16) != 0) {
    std::cerr << "ficond: bind/listen " << path << ": "
              << std::strerror(errno) << "\n";
    ::close(listener);
    return 3;
  }
  std::cout << "ficond: listening on " << path << "\n" << std::flush;

  std::atomic<bool> stopping{false};
  std::vector<std::jthread> connections;
  // The connections whose transport is alive. A transport closes its fd
  // only when it is destroyed, so a locked one's fd is still its own.
  std::vector<std::weak_ptr<FdTransport>> open;
  while (true) {
    const int fd = ::accept(listener, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      break;  // listener closed by the shutdown path (or fatal error)
    }
    if (stopping.load()) {
      ::close(fd);
      continue;
    }
    const auto transport = std::make_shared<FdTransport>(fd);
    std::erase_if(open, [](const std::weak_ptr<FdTransport>& t) {
      return t.expired();
    });
    open.push_back(transport);
    connections.emplace_back([&session, &stopping, listener, transport] {
      if (serve_connection(session, transport) &&
          !stopping.exchange(true)) {
        // First shutdown request wins: closing the listener pops the
        // accept loop; ::shutdown also wakes an accept blocked in older
        // kernels.
        ::shutdown(listener, SHUT_RDWR);
        ::close(listener);
      }
    });
  }
  stopping.store(true);
  // Each connection thread reads until its client hangs up. End those
  // reads so that the threads return; the "cancelled" replies that
  // ~EngineSession sends can still be written.
  for (const std::weak_ptr<FdTransport>& t : open) {
    if (const std::shared_ptr<FdTransport> alive = t.lock()) {
      alive->shutdown_reads();
    }
  }
  connections.clear();  // join every connection thread
  ::unlink(path.c_str());
  std::cout << "ficond: shut down\n";
  return 0;
}
#endif

}  // namespace

int main(int argc, char** argv) {
  std::string circuit;
  std::string socket_path;
  bool stdio = false;
  ficon::service::SessionOptions options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage_error("option '" + arg + "' requires a value");
      return argv[++i];
    };
    if (arg == "--circuit") {
      circuit = value();
    } else if (arg == "--socket") {
      socket_path = value();
    } else if (arg == "--stdio") {
      stdio = true;
    } else if (arg == "--workers") {
      options.workers = parse_int_arg(arg, value());
    } else if (arg == "--queue") {
      options.queue_capacity =
          static_cast<std::size_t>(parse_int_arg(arg, value()));
    } else {
      usage_error("unknown option '" + arg + "'");
    }
  }
  if (circuit.empty()) usage_error("--circuit is required");
  if (stdio == !socket_path.empty()) {
    usage_error("pick exactly one of --socket PATH or --stdio");
  }

#if defined(FICOND_HAVE_SOCKETS)
  // A peer that disconnects mid-reply must not kill the daemon.
  std::signal(SIGPIPE, SIG_IGN);
#endif

  try {
    ficon::Netlist netlist = ficon::service::load_circuit(circuit);
    std::cerr << "ficond: circuit " << netlist.name() << ": "
              << netlist.module_count() << " modules, "
              << netlist.net_count() << " nets\n";
    EngineSession session(std::move(netlist), options);
    if (stdio) {
      const auto transport = std::make_shared<StdioTransport>();
      serve_connection(session, transport);
      return 0;
    }
#if defined(FICOND_HAVE_SOCKETS)
    return serve_socket(session, socket_path);
#else
    std::cerr << "ficond: --socket needs POSIX sockets; use --stdio\n";
    return 3;
#endif
  } catch (const std::exception& e) {
    std::cerr << "ficond: " << e.what() << "\n";
    return 3;
  }
}
