// Regression tests for peers that go away mid-conversation.
//
// snd_serve must survive a client that sends a request and closes without
// reading the reply. The first client sends a batch query whose reply (1M
// verdict bytes) is larger than the socket buffer, then closes; the
// daemon's reply write therefore always hits a closed peer (EPIPE, which
// used to kill the process with SIGPIPE). A second client must then still
// get a kStats reply, and kShutdown must end the daemon with exit status 0.
//
// The other way round, serve_qps --mode socket must report a server that
// stops reading as an error exit, not die of SIGPIPE on its next send.
#include <gtest/gtest.h>

#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstring>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "service/validation_service.h"
#include "service/wire.h"

namespace snd::service {
namespace {

constexpr std::size_t kNodes = 200;
constexpr std::size_t kBatchPairs = 1'000'000;

/// The daemon under test; killed on scope exit unless it was reaped, and
/// its socket file removed (a killed daemon cannot unlink it itself).
struct Daemon {
  std::string socket_path;
  pid_t pid = -1;
  ~Daemon() {
    if (pid > 0) {
      ::kill(pid, SIGKILL);
      ::waitpid(pid, nullptr, 0);
    }
    ::unlink(socket_path.c_str());
  }
};

int connect_to(const std::string& path) {
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_un address{};
  address.sun_family = AF_UNIX;
  std::strncpy(address.sun_path, path.c_str(), sizeof(address.sun_path) - 1);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&address), sizeof(address)) < 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

/// MSG_NOSIGNAL keeps a dead daemon from killing the test process itself;
/// the failure then surfaces as an assertion.
bool send_all(int fd, const util::Bytes& bytes) {
  std::size_t done = 0;
  while (done < bytes.size()) {
    const ssize_t n = ::send(fd, bytes.data() + done, bytes.size() - done, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    done += static_cast<std::size_t>(n);
  }
  return true;
}

bool read_all(int fd, std::uint8_t* data, std::size_t size) {
  std::size_t done = 0;
  while (done < size) {
    const ssize_t n = ::read(fd, data + done, size - done);
    if (n == 0) return false;
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    done += static_cast<std::size_t>(n);
  }
  return true;
}

/// Sends one framed request and returns the reply payload (empty on error).
util::Bytes round_trip(int fd, const util::Bytes& request) {
  if (!send_all(fd, wire::frame(request))) return {};
  std::uint8_t header[4];
  if (!read_all(fd, header, sizeof(header))) return {};
  const std::uint32_t length = (std::uint32_t{header[0]} << 24) |
                               (std::uint32_t{header[1]} << 16) |
                               (std::uint32_t{header[2]} << 8) | header[3];
  util::Bytes payload(length);
  if (!read_all(fd, payload.data(), payload.size())) return {};
  return payload;
}

TEST(ServeEarlyCloseTest, DaemonSurvivesClientThatClosesBeforeReading) {
  Daemon daemon;
  daemon.socket_path =
      ::testing::TempDir() + "snd_serve_early_close_" + std::to_string(::getpid()) + ".sock";
  const std::string& socket_path = daemon.socket_path;
  ASSERT_LT(socket_path.size(), sizeof(sockaddr_un::sun_path));

  const std::string nodes = std::to_string(kNodes);
  daemon.pid = ::fork();
  ASSERT_GE(daemon.pid, 0);
  if (daemon.pid == 0) {
    ::execl(SND_SERVE_PATH, SND_SERVE_PATH, "--socket", socket_path.c_str(), "--nodes",
            nodes.c_str(), "--field", "300", static_cast<char*>(nullptr));
    ::_exit(127);
  }

  int first = -1;
  for (int attempt = 0; attempt < 400 && first < 0; ++attempt) {
    first = connect_to(socket_path);
    if (first < 0) std::this_thread::sleep_for(std::chrono::milliseconds(25));
  }
  ASSERT_GE(first, 0) << "snd_serve never started listening on " << socket_path;

  // Client 1: a batch query whose reply overflows the socket buffer, then
  // close without reading a byte of it.
  std::vector<std::pair<NodeId, NodeId>> pairs(kBatchPairs);
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    pairs[i] = {static_cast<NodeId>(i % kNodes), static_cast<NodeId>((i * 7 + 1) % kNodes)};
  }
  ASSERT_TRUE(send_all(first, wire::frame(wire::encode_batch_query(pairs))));
  ::close(first);

  // Client 2: the daemon must still be serving.
  const int second = connect_to(socket_path);
  ASSERT_GE(second, 0) << "snd_serve stopped accepting after the early close";
  const util::Bytes stats = round_trip(second, wire::encode_stats());
  ASSERT_FALSE(stats.empty()) << "no kStats reply";
  const auto decoded = wire::decode_stats_reply(stats);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->nodes, kNodes);
  const util::Bytes bye = round_trip(second, wire::encode_shutdown());
  ASSERT_FALSE(bye.empty()) << "no kShutdown reply";
  EXPECT_EQ(bye[0], wire::kOk);
  ::close(second);

  int status = 0;
  ASSERT_EQ(::waitpid(daemon.pid, &status, 0), daemon.pid);
  daemon.pid = -1;
  ASSERT_TRUE(WIFEXITED(status)) << "snd_serve died with signal "
                                 << (WIFSIGNALED(status) ? WTERMSIG(status) : 0);
  EXPECT_EQ(WEXITSTATUS(status), 0);
}

TEST(ServeEarlyCloseTest, LoadGeneratorReportsServerThatStopsReading) {
  const std::string socket_path =
      ::testing::TempDir() + "snd_serve_qps_peer_" + std::to_string(::getpid()) + ".sock";
  ASSERT_LT(socket_path.size(), sizeof(sockaddr_un::sun_path));
  ::unlink(socket_path.c_str());
  const int listener = ::socket(AF_UNIX, SOCK_STREAM, 0);
  ASSERT_GE(listener, 0);
  sockaddr_un address{};
  address.sun_family = AF_UNIX;
  std::strncpy(address.sun_path, socket_path.c_str(), sizeof(address.sun_path) - 1);
  ASSERT_EQ(::bind(listener, reinterpret_cast<const sockaddr*>(&address), sizeof(address)), 0);
  ASSERT_EQ(::listen(listener, 1), 0);

  const pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    ::execl(SERVE_QPS_PATH, SERVE_QPS_PATH, "--mode", "socket", "--socket",
            socket_path.c_str(), "--nodes", "50", "--queries", "100", "--event-every", "0",
            static_cast<char*>(nullptr));
    ::_exit(127);
  }

  // Answer the first request, but shut down reading before the reply goes
  // out: the load generator's next send then always meets EPIPE.
  const int peer = ::accept(listener, nullptr, nullptr);
  ASSERT_GE(peer, 0);
  std::uint8_t header[4];
  ASSERT_TRUE(read_all(peer, header, sizeof(header)));
  util::Bytes request((std::uint32_t{header[0]} << 24) | (std::uint32_t{header[1]} << 16) |
                      (std::uint32_t{header[2]} << 8) | header[3]);
  ASSERT_TRUE(read_all(peer, request.data(), request.size()));
  ValidationService service(ServiceConfig{});
  util::Bytes reply;
  ASSERT_TRUE(wire::handle_request(service, request, reply));
  ASSERT_EQ(::shutdown(peer, SHUT_RD), 0);
  ASSERT_TRUE(send_all(peer, wire::frame(reply)));

  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  ::close(peer);
  ::close(listener);
  ::unlink(socket_path.c_str());
  ASSERT_TRUE(WIFEXITED(status)) << "serve_qps died with signal "
                                 << (WIFSIGNALED(status) ? WTERMSIG(status) : 0);
  EXPECT_EQ(WEXITSTATUS(status), 1);
}

}  // namespace
}  // namespace snd::service
