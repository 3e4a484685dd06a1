#include "wire.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <thread>

namespace specbench {

namespace fs = std::filesystem;

namespace {

[[noreturn]] void sys_fail(const std::string& what) {
  throw std::runtime_error(what + ": " + std::strerror(errno));
}

int connect_loopback(int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) sys_fail("socket");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) !=
      0) {
    ::close(fd);
    return -1;
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL) | O_NONBLOCK);
  return fd;
}

}  // namespace

// --- server process ---------------------------------------------------------

ServerProcess::ServerProcess(const std::string& exe, const std::string& workdir,
                             const std::string& name,
                             const WorkloadSpec& spec) {
  const fs::path dir(workdir);
  const std::string port_file = (dir / (name + ".port")).string();
  const std::string store_dir = (dir / (name + ".store")).string();
  const std::string log = (dir / (name + ".log")).string();
  fs::remove(port_file);
  fs::remove(log);
  if (spec.store) {
    fs::remove_all(store_dir);
    fs::create_directories(store_dir);
    store_dir_ = store_dir;
  }
  std::vector<std::string> args = {exe,      "serve",    "--listen",
                                   "0",      "--port-file", port_file};
  if (spec.store) {
    args.push_back("--store");
    args.push_back(store_dir);
  }
  const std::string mem_mb = std::to_string(spec.mem_mb);

  pid_ = ::fork();
  if (pid_ < 0) sys_fail("fork");
  if (pid_ == 0) {
    // The server must not outlive the benchmark, however it ends.
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    const int devnull = ::open("/dev/null", O_RDONLY);
    const int out = ::open(log.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
    if (devnull >= 0) ::dup2(devnull, 0);
    if (out >= 0) {
      ::dup2(out, 1);
      ::dup2(out, 2);
    }
    if (spec.store) ::setenv("SPECMATCH_SERVE_MEM_MB", mem_mb.c_str(), 1);
    std::vector<char*> argv;
    for (std::string& a : args) argv.push_back(a.data());
    argv.push_back(nullptr);
    ::execv(exe.c_str(), argv.data());
    ::_exit(127);
  }

  const auto deadline = Clock::now() + std::chrono::seconds(120);
  while (true) {
    int status = 0;
    if (::waitpid(pid_, &status, WNOHANG) == pid_) {
      pid_ = -1;
      throw std::runtime_error("server exited before listening (see " + log +
                               ")");
    }
    std::ifstream in(port_file);
    if (in >> port_ && port_ > 0) break;
    if (Clock::now() > deadline) {
      stop();
      throw std::runtime_error("server did not publish a port in time");
    }
    std::this_thread::sleep_for(std::chrono::microseconds(500));
  }
}

ServerProcess::~ServerProcess() {
  stop();
  if (!store_dir_.empty()) fs::remove_all(store_dir_);
}

ProcSample ServerProcess::sample() const {
  ProcSample out;
  if (pid_ <= 0) return out;
  const std::string base = "/proc/" + std::to_string(pid_);
  std::ifstream stat(base + "/stat");
  std::string text((std::istreambuf_iterator<char>(stat)),
                   std::istreambuf_iterator<char>());
  const std::size_t close = text.rfind(')');
  if (close != std::string::npos) {
    // Fields after "(comm)": state is field 3, utime 14 and stime 15.
    std::istringstream fields(text.substr(close + 2));
    std::string field;
    double utime = 0.0;
    double stime = 0.0;
    for (int f = 3; f <= 15 && fields >> field; ++f) {
      if (f == 14) utime = std::stod(field);
      if (f == 15) stime = std::stod(field);
    }
    out.cpu_s = (utime + stime) / static_cast<double>(::sysconf(_SC_CLK_TCK));
  }
  std::ifstream status(base + "/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      out.hwm_mb = std::stod(line.substr(6)) / 1024.0;  // kB -> MB
      break;
    }
  }
  return out;
}

bool ServerProcess::stop() {
  if (pid_ <= 0) return true;
  ::kill(pid_, SIGTERM);
  int status = 0;
  const auto deadline = Clock::now() + std::chrono::seconds(20);
  while (::waitpid(pid_, &status, WNOHANG) == 0) {
    if (Clock::now() > deadline) {
      ::kill(pid_, SIGKILL);
      ::waitpid(pid_, &status, 0);
      pid_ = -1;
      return false;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  pid_ = -1;
  return WIFEXITED(status) && WEXITSTATUS(status) == 0;
}

// --- client -----------------------------------------------------------------

Client::Client(int port, int conns) {
  conns_.resize(static_cast<std::size_t>(conns));
  for (Conn& conn : conns_) {
    conn.fd = connect_loopback(port);
    if (conn.fd < 0) {
      ++refused;
      conn.dead = true;
    }
  }
}

Client::~Client() { close(); }

void Client::close() {
  for (Conn& conn : conns_) {
    if (conn.fd >= 0) ::close(conn.fd);
    conn.fd = -1;
    conn.dead = true;
  }
}

void Client::flush(Conn& conn) {
  while (!conn.dead && conn.out_off < conn.out.size()) {
    const ssize_t n =
        ::send(conn.fd, conn.out.data() + conn.out_off,
               conn.out.size() - conn.out_off, MSG_NOSIGNAL);
    if (n > 0) {
      conn.out_off += static_cast<std::size_t>(n);
    } else if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      return;
    } else if (n < 0 && errno == EINTR) {
      continue;
    } else {
      conn.dead = true;
      ++early_closes;
    }
  }
  if (conn.out_off == conn.out.size()) {
    conn.out.clear();
    conn.out_off = 0;
  }
}

std::size_t Client::send(const Op& op, int conn_index, Phase phase,
                         Clock::time_point scheduled) {
  Conn& conn = conns_[static_cast<std::size_t>(conn_index)];
  Record record;
  record.op = ops.size();
  record.phase = phase;
  record.scheduled = scheduled;
  ops.push_back(op);
  const std::size_t index = records.size();
  records.push_back(std::move(record));
  if (conn.dead) return index;  // attempted, never answered
  conn.out += op.wire;
  conn.inflight.push_back(index);
  records[index].sent = Clock::now();
  flush(conn);
  return index;
}

void Client::pump(double timeout_ms) {
  std::vector<pollfd> fds;
  std::vector<Conn*> owners;
  for (Conn& conn : conns_) {
    if (conn.dead) continue;
    short events = POLLIN;
    if (conn.out_off < conn.out.size()) events |= POLLOUT;
    fds.push_back({conn.fd, events, 0});
    owners.push_back(&conn);
  }
  if (fds.empty()) return;
  timespec ts{};
  if (timeout_ms < 0.0) timeout_ms = 0.0;
  ts.tv_sec = static_cast<time_t>(timeout_ms / 1000.0);
  ts.tv_nsec = static_cast<long>((timeout_ms - 1000.0 * static_cast<double>(
                                                   ts.tv_sec)) * 1e6);
  const int ready = ::ppoll(fds.data(), fds.size(), &ts, nullptr);
  if (ready <= 0) return;
  char buf[1 << 16];
  for (std::size_t k = 0; k < fds.size(); ++k) {
    Conn& conn = *owners[k];
    if (fds[k].revents & POLLOUT) flush(conn);
    if (!(fds[k].revents & (POLLIN | POLLHUP | POLLERR))) continue;
    bool eof = false;
    while (true) {
      const ssize_t n = ::recv(conn.fd, buf, sizeof buf, 0);
      if (n > 0) {
        conn.in.append(buf, static_cast<std::size_t>(n));
        continue;
      }
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
      if (n < 0 && errno == EINTR) continue;
      eof = true;
      break;
    }
    const Clock::time_point now = Clock::now();
    std::size_t start = 0;
    while (true) {
      const std::size_t nl = conn.in.find('\n', start);
      if (nl == std::string::npos) break;
      if (conn.inflight.empty()) {
        // An unsolicited line (e.g. a connection-limit refusal).
        start = nl + 1;
        continue;
      }
      Record& record = records[conn.inflight.front()];
      conn.inflight.pop_front();
      record.response.assign(conn.in, start, nl - start);
      record.received = now;
      record.answered = true;
      if (record.phase == Phase::kMeasured)
        measured_bytes_in += static_cast<std::int64_t>(nl - start + 1);
      start = nl + 1;
    }
    conn.in.erase(0, start);
    if (eof) {
      conn.dead = true;
      ++early_closes;
    }
  }
}

bool Client::idle() const {
  for (const Conn& conn : conns_)
    if (!conn.dead && !conn.inflight.empty()) return false;
  return true;
}

void Client::run_sequential(const std::vector<Op>& batch, int conn_count,
                            Phase phase, double timeout_s) {
  for (const Op& op : batch) {
    const int conn = op.market % conn_count;
    send(op, conn, phase, Clock::now());
    const auto deadline =
        Clock::now() + std::chrono::duration<double>(timeout_s);
    while (!idle() && Clock::now() < deadline) pump(50.0);
  }
}

void Client::run_measured(Stream& stream, double warmup_s, double seconds) {
  const WorkloadSpec& spec = stream.spec();
  const std::size_t first = records.size();
  const auto start = Clock::now() + std::chrono::milliseconds(1);
  measured_start = start + std::chrono::duration_cast<Clock::duration>(
                               std::chrono::duration<double>(warmup_s));
  const auto end = measured_start + std::chrono::duration<double>(seconds);
  const auto phase_at = [&](Clock::time_point t) {
    return t < measured_start ? Phase::kWarmup : Phase::kMeasured;
  };
  // Outstanding requests get this long after the window before they count
  // as unanswered.
  const auto give_up = end + std::chrono::seconds(30);

  if (spec.open_loop) {
    const auto interval = std::chrono::duration<double>(1.0 / spec.rate_rps);
    std::int64_t k = 0;
    bool done = false;
    while (true) {
      Clock::time_point now = Clock::now();
      Clock::time_point due{};
      while (!done) {
        due = start + std::chrono::duration_cast<Clock::duration>(
                          interval * static_cast<double>(k));
        if (due >= end) {
          done = true;
          break;
        }
        if (due > now) break;
        const Op op = stream.next();
        const Phase phase = phase_at(due);
        const std::size_t r =
            send(op, stream.conn_of(op.market), phase, due);
        if (phase == Phase::kMeasured)
          lag_ms.push_back(ms_between(due, records[r].sent));
        ++k;
        now = Clock::now();
      }
      if (done && idle()) break;
      if (now > give_up) break;
      pump(done ? 5.0 : ms_between(now, due));
    }
  } else {
    // Closed loop: the next request goes out when the previous one is
    // answered, on the single connection.
    while (true) {
      const Clock::time_point now = Clock::now();
      if (idle()) {
        if (now >= end) break;
        const Op op = stream.next();
        send(op, stream.conn_of(op.market), phase_at(now), now);
        if (idle()) break;  // connection dead: nothing will answer
      }
      if (now > give_up) break;
      pump(50.0);
    }
  }
  measured_end = Clock::now();
  Clock::time_point last = measured_start;
  for (std::size_t r = first; r < records.size(); ++r)
    if (records[r].phase == Phase::kMeasured && records[r].answered)
      last = std::max(last, records[r].received);
  measured_s += ms_between(measured_start, last) / 1000.0;
}

bool connect_refused_probe() {
  // Bind an ephemeral port, close it without listening, then connect.
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) sys_fail("socket");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  socklen_t len = sizeof addr;
  ::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr);
  ::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len);
  ::close(fd);
  const int probe = connect_loopback(ntohs(addr.sin_port));
  if (probe >= 0) {
    ::close(probe);
    return false;
  }
  return true;
}

}  // namespace specbench
