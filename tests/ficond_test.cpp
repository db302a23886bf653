// End-to-end tests of the ficond daemon: launch the real binary as a
// subprocess, speak the frame protocol over its Unix socket (or stdio),
// and check that daemon replies are bit-identical to in-process
// `run_oneshot` results — the whole point of the service layer.
#include <gtest/gtest.h>

#include <fcntl.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "circuit/mcnc.hpp"
#include "service/protocol.hpp"
#include "service/session.hpp"

namespace {

using namespace ficon;
using service::DecodedReply;
using service::FrameStatus;
using service::ProtocolOp;
using service::Reply;
using service::ReplyStatus;
using service::Request;
using service::RequestKind;

std::string socket_path() {
  return "/tmp/ficond_test_" + std::to_string(::getpid()) + ".sock";
}

/// Connect to the daemon's socket, retrying while it boots.
int connect_with_retry(const std::string& path) {
  for (int attempt = 0; attempt < 200; ++attempt) {
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0) return -1;
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::snprintf(addr.sun_path, sizeof(addr.sun_path), "%s", path.c_str());
    if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                  sizeof(addr)) == 0) {
      return fd;
    }
    ::close(fd);
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  return -1;
}

DecodedReply read_reply(int fd) {
  std::string payload;
  EXPECT_EQ(service::read_frame_fd(fd, &payload), FrameStatus::kOk);
  DecodedReply reply;
  std::string error;
  EXPECT_TRUE(service::decode_reply(payload, &reply, &error))
      << error << " in: " << payload;
  return reply;
}

Request evaluate_request(CongestionModelKind model, double gamma) {
  Request request;
  request.kind = RequestKind::kEvaluate;
  request.objective.gamma = gamma;
  request.objective.model = model;
  request.objective.irregular.grid_w = 30.0;
  request.objective.irregular.grid_h = 30.0;
  request.objective.fixed.grid_w = 100.0;
  request.objective.fixed.grid_h = 100.0;
  return request;
}

Request anneal_request(std::uint64_t seed, int seeds) {
  Request request;
  request.kind = RequestKind::kAnneal;
  request.objective.gamma = 0.4;
  request.objective.model = CongestionModelKind::kIrregularGrid;
  request.objective.irregular.grid_w = 30.0;
  request.objective.irregular.grid_h = 30.0;
  request.seed = seed;
  request.seeds = seeds;
  request.effort = 0.05;
  return request;
}

void expect_matches_oneshot(const Netlist& netlist, const Request& request,
                            const DecodedReply& daemon) {
  const Reply local = service::run_oneshot(netlist, request);
  ASSERT_EQ(local.status, ReplyStatus::kOk);
  ASSERT_EQ(daemon.status, "ok") << daemon.error;
  ASSERT_EQ(daemon.seeds.size(), local.seeds.size());
  for (std::size_t i = 0; i < local.seeds.size(); ++i) {
    EXPECT_EQ(daemon.seeds[i].seed, local.seeds[i].seed);
    // %.17g encoding round-trips doubles bit-exactly, so == is the
    // correct comparison — no tolerance.
    EXPECT_EQ(daemon.seeds[i].metrics.area, local.seeds[i].metrics.area);
    EXPECT_EQ(daemon.seeds[i].metrics.wirelength,
              local.seeds[i].metrics.wirelength);
    EXPECT_EQ(daemon.seeds[i].metrics.congestion,
              local.seeds[i].metrics.congestion);
    EXPECT_EQ(daemon.seeds[i].metrics.cost, local.seeds[i].metrics.cost);
    EXPECT_EQ(daemon.seeds[i].representation,
              local.seeds[i].representation);
  }
}

TEST(FicondTest, SocketServesConcurrentRequestsBitIdenticalToOneShot) {
  const std::string path = socket_path();
  const std::string cmd = std::string(FICOND_BINARY) +
                          " --circuit apte --socket " + path +
                          " --workers 4 2>&1";
  FILE* daemon = popen(cmd.c_str(), "r");
  ASSERT_NE(daemon, nullptr);

  const int fd = connect_with_retry(path);
  ASSERT_GE(fd, 0) << "could not connect to " << path;

  // Pipeline eight mixed requests on one connection before reading any
  // reply: the daemon must serve them concurrently and the replies (in
  // any order) must match the serial one-shot path bit for bit.
  std::map<std::int64_t, Request> requests;
  requests[1] = evaluate_request(CongestionModelKind::kIrregularGrid, 0.4);
  requests[2] = evaluate_request(CongestionModelKind::kFixedGrid, 0.4);
  requests[3] = evaluate_request(CongestionModelKind::kNone, 0.0);
  requests[4] = anneal_request(1, 1);
  requests[5] = anneal_request(2, 1);
  requests[6] = anneal_request(3, 2);  // sharded sweep
  requests[7] = anneal_request(4, 1);
  requests[8] = evaluate_request(CongestionModelKind::kIrregularGrid, 0.8);
  for (const auto& [id, request] : requests) {
    ASSERT_TRUE(
        service::write_frame_fd(fd, service::encode_request(id, request)));
  }

  std::map<std::int64_t, DecodedReply> replies;
  while (replies.size() < requests.size()) {
    const DecodedReply reply = read_reply(fd);
    EXPECT_TRUE(requests.count(reply.id)) << "unexpected id " << reply.id;
    EXPECT_FALSE(replies.count(reply.id)) << "duplicate id " << reply.id;
    replies[reply.id] = reply;
  }
  const Netlist netlist = make_mcnc("apte");
  for (const auto& [id, request] : requests) {
    SCOPED_TRACE("request id " + std::to_string(id));
    expect_matches_oneshot(netlist, request, replies[id]);
  }

  // Control ops: ping, stats, and a cancel with an unknown target.
  ASSERT_TRUE(service::write_frame_fd(
      fd, service::encode_control(100, ProtocolOp::kPing)));
  EXPECT_EQ(read_reply(fd).status, "ok");
  ASSERT_TRUE(service::write_frame_fd(
      fd, service::encode_control(101, ProtocolOp::kStats)));
  const DecodedReply stats = read_reply(fd);
  EXPECT_EQ(stats.status, "ok");
  EXPECT_GE(stats.stats.submitted, 8);
  EXPECT_GE(stats.stats.completed, 8);
  ASSERT_TRUE(
      service::write_frame_fd(fd, service::encode_cancel(102, 999)));
  EXPECT_EQ(read_reply(fd).status, "error");  // nothing to cancel

  // A malformed frame on a second connection kills only that connection.
  const int bad = connect_with_retry(path);
  ASSERT_GE(bad, 0);
  const char garbage[] = "oops\n";
  ASSERT_EQ(::write(bad, garbage, sizeof(garbage) - 1),
            static_cast<ssize_t>(sizeof(garbage) - 1));
  const DecodedReply bad_reply = read_reply(bad);
  EXPECT_EQ(bad_reply.status, "error");
  std::string leftover;
  EXPECT_EQ(service::read_frame_fd(bad, &leftover), FrameStatus::kEof);
  ::close(bad);

  // The first connection is unaffected; shut the daemon down through it.
  ASSERT_TRUE(service::write_frame_fd(
      fd, service::encode_control(103, ProtocolOp::kPing)));
  EXPECT_EQ(read_reply(fd).status, "ok");
  ASSERT_TRUE(service::write_frame_fd(
      fd, service::encode_control(104, ProtocolOp::kShutdown)));
  EXPECT_EQ(read_reply(fd).status, "ok");
  ::close(fd);

  // Drain output and check the daemon exited cleanly.
  char buffer[256];
  while (std::fgets(buffer, sizeof(buffer), daemon) != nullptr) {
  }
  const int status = pclose(daemon);
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 0);
}

TEST(FicondTest, StdioModeServesFramesOnStdout) {
  const std::string in_path =
      "/tmp/ficond_test_stdin_" + std::to_string(::getpid()) + ".txt";
  {
    std::ofstream in(in_path);
    service::write_frame(in, service::encode_control(1, ProtocolOp::kPing));
    service::write_frame(in, service::encode_control(2, ProtocolOp::kPing));
    service::write_frame(in,
                         service::encode_control(3, ProtocolOp::kShutdown));
  }
  const std::string cmd = std::string(FICOND_BINARY) +
                          " --circuit apte --stdio < " + in_path +
                          " 2>/dev/null";
  FILE* daemon = popen(cmd.c_str(), "r");
  ASSERT_NE(daemon, nullptr);
  std::string output;
  char buffer[256];
  while (std::fgets(buffer, sizeof(buffer), daemon) != nullptr) {
    output += buffer;
  }
  const int status = pclose(daemon);
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 0);
  std::remove(in_path.c_str());

  std::istringstream stream(output);
  for (const std::int64_t id : {1, 2, 3}) {
    std::string payload;
    ASSERT_EQ(service::read_frame(stream, &payload), FrameStatus::kOk)
        << "frame " << id << " in output: " << output;
    DecodedReply reply;
    std::string error;
    ASSERT_TRUE(service::decode_reply(payload, &reply, &error)) << error;
    EXPECT_EQ(reply.id, id);
    EXPECT_EQ(reply.status, "ok");
  }
  std::string tail;
  EXPECT_EQ(service::read_frame(stream, &tail), FrameStatus::kEof);
}

TEST(FicondTest, SocketAnswersBadRequestsWithErrors) {
  // An effort whose move count overflows an int fails in the executor; a
  // seed no u64 can hold fails in the decoder. Both get an error reply
  // addressed to their id, and the daemon keeps serving. So does a frame
  // of 50,000 '[', far below the frame cap: its nesting is a parse error
  // (reply id 0), not a stack overflow. Every reply is read before
  // shutdown is sent: shutdown answers any request that no executor has
  // picked up yet with "cancelled".
  const std::string path = socket_path();
  const std::string cmd = std::string(FICOND_BINARY) +
                          " --circuit apte --socket " + path + " 2>&1";
  FILE* daemon = popen(cmd.c_str(), "r");
  ASSERT_NE(daemon, nullptr);

  const int fd = connect_with_retry(path);
  ASSERT_GE(fd, 0) << "could not connect to " << path;
  ASSERT_TRUE(service::write_frame_fd(
      fd, R"({"id":1,"op":"anneal","effort":1e12})"));
  ASSERT_TRUE(
      service::write_frame_fd(fd, R"({"id":2,"op":"anneal","seed":1e30})"));
  ASSERT_TRUE(service::write_frame_fd(fd, std::string(50000, '[')));

  // The anneal reply comes from an executor, so match replies by id.
  std::map<std::int64_t, DecodedReply> replies;
  for (int i = 0; i < 3; ++i) {
    const DecodedReply reply = read_reply(fd);
    replies[reply.id] = reply;
  }
  ASSERT_TRUE(service::write_frame_fd(
      fd, service::encode_control(3, ProtocolOp::kShutdown)));
  const DecodedReply shutdown = read_reply(fd);
  replies[shutdown.id] = shutdown;
  ::close(fd);

  std::string output;
  char buffer[256];
  while (std::fgets(buffer, sizeof(buffer), daemon) != nullptr) {
    output += buffer;
  }
  const int status = pclose(daemon);
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 0);

  ASSERT_EQ(replies.size(), 4u) << output;
  EXPECT_EQ(replies[0].status, "error");
  EXPECT_NE(replies[0].error.find("nesting"), std::string::npos)
      << replies[0].error;
  EXPECT_EQ(replies[1].status, "error");
  EXPECT_NE(replies[1].error.find("effort too large"), std::string::npos)
      << replies[1].error;
  EXPECT_TRUE(replies[1].seeds.empty());
  EXPECT_EQ(replies[2].status, "error");
  EXPECT_NE(replies[2].error.find("seed"), std::string::npos)
      << replies[2].error;
  EXPECT_EQ(replies[3].status, "ok");
}

/// Reaps `pid` if it exits within `seconds`; false while it still runs.
bool wait_for_exit(pid_t pid, double seconds, int* status) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::duration<double>(seconds);
  while (std::chrono::steady_clock::now() < deadline) {
    if (::waitpid(pid, status, WNOHANG) == pid) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  return false;
}

TEST(FicondTest, ShutdownEndsEveryConnection) {
  // "shutdown" exits without draining: neither an idle connection nor
  // one waiting on a long anneal keeps the daemon up, and the anneal is
  // answered "cancelled". Past the deadline the test closes its clients,
  // so that a daemon that waits for them fails the test instead of
  // hanging it.
  const std::string path = socket_path();
  const pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    const int null = ::open("/dev/null", O_WRONLY);
    ::dup2(null, STDOUT_FILENO);
    ::dup2(null, STDERR_FILENO);
    ::execl(FICOND_BINARY, FICOND_BINARY, "--circuit", "ami33", "--socket",
            path.c_str(), "--workers", "1", static_cast<char*>(nullptr));
    ::_exit(127);
  }
  // Whatever fails below, the clients close and the daemon is reaped.
  struct Cleanup {
    pid_t pid;
    std::vector<int> clients;
    bool reaped = false;
    void close_clients() {
      for (int& fd : clients) {
        if (fd >= 0) ::close(fd);
        fd = -1;
      }
    }
    ~Cleanup() {
      close_clients();
      if (!reaped) {
        ::kill(pid, SIGKILL);
        ::waitpid(pid, nullptr, 0);
      }
    }
  } cleanup{pid, {}};
  for (int i = 0; i < 3; ++i) {
    cleanup.clients.push_back(connect_with_retry(path));
    ASSERT_GE(cleanup.clients.back(), 0) << "could not connect to " << path;
  }
  const int idle = cleanup.clients[0];
  const int waiting = cleanup.clients[1];
  const int control = cleanup.clients[2];

  // A ping answered on each connection means the daemon serves it. On the
  // waiting one the anneal goes first, so it was submitted by then.
  ASSERT_TRUE(service::write_frame_fd(
      idle, service::encode_control(1, ProtocolOp::kPing)));
  EXPECT_EQ(read_reply(idle).status, "ok");
  Request anneal = anneal_request(1, 1);
  anneal.effort = 50.0;
  ASSERT_TRUE(
      service::write_frame_fd(waiting, service::encode_request(2, anneal)));
  ASSERT_TRUE(service::write_frame_fd(
      waiting, service::encode_control(3, ProtocolOp::kPing)));
  const DecodedReply ping = read_reply(waiting);
  EXPECT_EQ(ping.id, 3);
  EXPECT_EQ(ping.status, "ok");
  ASSERT_TRUE(service::write_frame_fd(
      control, service::encode_control(4, ProtocolOp::kShutdown)));
  EXPECT_EQ(read_reply(control).status, "ok");

  int status = 0;
  if (!wait_for_exit(pid, 5.0, &status)) {
    cleanup.close_clients();
    cleanup.reaped = wait_for_exit(pid, 5.0, &status);
    FAIL() << "the daemon still ran 5 s after shutdown";
  }
  cleanup.reaped = true;
  EXPECT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 0);
  const DecodedReply cancelled = read_reply(waiting);
  EXPECT_EQ(cancelled.id, 2);
  EXPECT_EQ(cancelled.status, "cancelled");
  std::string tail;
  EXPECT_EQ(service::read_frame_fd(idle, &tail), FrameStatus::kEof);
}

TEST(FicondTest, UsageErrorsExitWithCodeTwo) {
  const std::string cmd = std::string(FICOND_BINARY) + " --stdio 2>&1";
  FILE* daemon = popen(cmd.c_str(), "r");  // missing --circuit
  ASSERT_NE(daemon, nullptr);
  std::string output;
  char buffer[256];
  while (std::fgets(buffer, sizeof(buffer), daemon) != nullptr) {
    output += buffer;
  }
  const int status = pclose(daemon);
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 2);
  EXPECT_NE(output.find("--circuit"), std::string::npos) << output;
}

}  // namespace
