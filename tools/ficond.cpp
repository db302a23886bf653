// ficond — congestion-evaluation daemon over one EngineSession.
//
// Loads a circuit once, then serves evaluate/anneal requests through the
// length-prefixed JSON frame protocol (src/service/protocol.hpp) on
// either a Unix-domain socket (one thread per connection, joined once its
// client hangs up; replies may interleave out of submission order) or
// stdin/stdout (single connection). The session amortizes netlist parsing
// and the evaluator caches across every request; see docs/SERVICE.md.
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
// or an executor or connection thread that cannot start (a connection
// thread that cannot start ends every connection first).
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <csignal>
#include <cstring>
#include <iostream>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>

#include "ficon.hpp"

namespace {

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

/// One client: the fd its frames are read from and the fd its replies
/// are written to (one socket, or stdin and stdout), the lock that keeps
/// concurrent replies whole, and the id -> session ticket map of its
/// in-flight requests, for "cancel". Each completion callback holds it.
/// It closes its fds only when destroyed, so shutdown_reads() never
/// reaches a reused fd number; its client reads EOF once it stopped
/// reading and the last reply owed is written.
class Connection : public std::enable_shared_from_this<Connection> {
 public:
  Connection(int in, int out) : in_(in), out_(out) {}
  ~Connection() {
    ::close(in_);
    if (out_ != in_) ::close(out_);
  }
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  FrameStatus read(std::string* payload) {
    return ficon::service::read_frame_fd(in_, payload);
  }
  /// Thread-safe (replies come from executor callbacks concurrently).
  void write(const std::string& payload) {
    const std::lock_guard<std::mutex> lock(write_mu_);
    ficon::service::write_frame_fd(out_, payload);
  }
  /// Ends a blocked or later read with EOF; writes still go through.
  void shutdown_reads() { ::shutdown(in_, SHUT_RD); }

  /// Submits `request` as `id`; its reply is written here. False if the
  /// session rejected it. The ticket is recorded under the lock that the
  /// reply takes to forget it, so a fast reply cannot leave it behind.
  bool submit(EngineSession& session, std::int64_t id,
              ficon::service::Request request) {
    const std::lock_guard<std::mutex> lock(requests_mu_);
    const EngineSession::Ticket ticket = session.submit(
        std::move(request),
        [self = shared_from_this(), id](EngineSession::Ticket,
                                        const Reply& reply) {
          self->write(ficon::service::encode_reply(id, reply));
          const std::lock_guard<std::mutex> guard(self->requests_mu_);
          self->tickets_.erase(id);
          if (--self->in_flight_ == 0 && self->done_) {
            ::shutdown(self->out_, SHUT_RDWR);
          }
        });
    if (ticket == 0) return false;
    tickets_[id] = ticket;
    ++in_flight_;
    return true;
  }

  /// True if request `id` is in flight and the session will cancel it.
  bool cancel(EngineSession& session, std::int64_t id) {
    const std::lock_guard<std::mutex> lock(requests_mu_);
    const auto it = tickets_.find(id);
    return it != tickets_.end() && session.cancel(it->second);
  }

  /// Called once the read loop has returned.
  void stop_reading() {
    const std::lock_guard<std::mutex> lock(requests_mu_);
    done_ = true;
    if (in_flight_ == 0) ::shutdown(out_, SHUT_RDWR);
  }
  bool done() const { return done_; }

 private:
  const int in_;
  const int out_;
  std::mutex write_mu_;
  std::mutex requests_mu_;  // guards the three below
  std::map<std::int64_t, EngineSession::Ticket> tickets_;
  int in_flight_ = 0;
  std::atomic<bool> done_{false};
};

/// @brief Serve one connection until EOF, a malformed frame, or a
/// shutdown op. Returns true iff the peer requested daemon shutdown.
bool serve_connection(EngineSession& session, Connection& connection) {
  std::string payload;
  while (true) {
    const FrameStatus status = connection.read(&payload);
    if (status == FrameStatus::kEof) return false;
    if (status == FrameStatus::kMalformed) {
      // Framing is lost; nothing after this byte can be trusted.
      connection.write(ficon::service::encode_error_reply(
          0, "malformed frame; closing connection"));
      return false;
    }
    ProtocolRequest request;
    std::string error;
    if (!ficon::service::decode_request(payload, &request, &error)) {
      connection.write(ficon::service::encode_error_reply(request.id, error));
      continue;
    }
    switch (request.op) {
      case ProtocolOp::kPing:
        connection.write(ficon::service::encode_ok_reply(request.id));
        break;
      case ProtocolOp::kStats:
        connection.write(ficon::service::encode_stats_reply(
            request.id, session.stats()));
        break;
      case ProtocolOp::kShutdown:
        connection.write(ficon::service::encode_ok_reply(request.id));
        return true;
      case ProtocolOp::kCancel:
        if (connection.cancel(session, request.target)) {
          connection.write(ficon::service::encode_ok_reply(request.id));
        } else {
          connection.write(ficon::service::encode_error_reply(
              request.id, "no cancellable request with id " +
                              std::to_string(request.target)));
        }
        break;
      case ProtocolOp::kEvaluate:
      case ProtocolOp::kAnneal:
        if (!connection.submit(session, request.id,
                               std::move(request.request))) {
          Reply rejected;
          rejected.status = ficon::service::ReplyStatus::kRejected;
          rejected.error = "queue full";
          connection.write(ficon::service::encode_reply(request.id, rejected));
        }
        break;
    }
  }
}

/// Serves the Unix-domain socket at `path`, one thread per connection,
/// until a client sends "shutdown" or no further connection can be
/// served. Returns the exit code.
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

  struct Client {
    std::shared_ptr<Connection> connection;
    std::jthread thread;
  };
  std::atomic<bool> stopping{false};
  std::list<Client> clients;  // every connection whose thread is not joined
  int code = 0;
  while (code == 0) {
    // Join the threads of the connections that stopped reading.
    std::erase_if(clients,
                  [](const Client& c) { return c.connection->done(); });
    const int fd = ::accept(listener, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      if (!stopping) {  // else the shutdown path closed the listener
        std::cerr << "ficond: accept: " << std::strerror(errno) << "\n";
        code = 3;
      }
      break;
    }
    if (stopping) {
      ::close(fd);
      continue;
    }
    try {
      Client& client = clients.emplace_back(
          Client{std::make_shared<Connection>(fd, fd), {}});
      client.thread = std::jthread([&session, &stopping, listener,
                                    connection = client.connection] {
        if (serve_connection(session, *connection) &&
            !stopping.exchange(true)) {
          // The first shutdown request ends the accept loop: ::shutdown
          // wakes a blocked accept, which then fails on the closed fd.
          ::shutdown(listener, SHUT_RDWR);
          ::close(listener);
        }
        connection->stop_reading();
      });
    } catch (const std::exception& e) {
      std::cerr << "ficond: cannot serve a connection: " << e.what() << "\n";
      code = 3;
    }
  }
  stopping = true;
  // Each connection thread reads until its client hangs up. End those
  // reads so that the threads return; the "cancelled" replies that
  // ~EngineSession sends can still be written.
  for (const Client& client : clients) client.connection->shutdown_reads();
  clients.clear();  // join every connection thread
  ::unlink(path.c_str());
  std::cout << "ficond: shut down\n";
  return code;
}

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

  // A peer that disconnects mid-reply must not kill the daemon.
  std::signal(SIGPIPE, SIG_IGN);

  try {
    ficon::Netlist netlist = ficon::service::load_circuit(circuit);
    std::cerr << "ficond: circuit " << netlist.name() << ": "
              << netlist.module_count() << " modules, "
              << netlist.net_count() << " nets\n";
    EngineSession session(std::move(netlist), options);
    if (!stdio) return serve_socket(session, socket_path);
    serve_connection(session, *std::make_shared<Connection>(STDIN_FILENO,
                                                            STDOUT_FILENO));
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "ficond: " << e.what() << "\n";
    return 3;
  }
}
