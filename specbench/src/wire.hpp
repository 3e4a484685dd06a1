// The wire side of the benchmark: the server process it launches and the
// single-threaded poll(2) client that drives it.
#pragma once

#include <sys/types.h>

#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "bench.hpp"

namespace specbench {

/// Server-process figures read from /proc/<pid>.
struct ProcSample {
  double cpu_s = 0.0;    ///< utime + stime
  double hwm_mb = 0.0;   ///< VmHWM
};

/// `specmatch_cli serve --listen 0` as a child process. The constructor
/// returns once the server has published its port; the destructor stops it
/// and removes its store. Its files in `workdir` (port file, log, store)
/// carry `name`, so two servers can be alive at once.
class ServerProcess {
 public:
  ServerProcess(const std::string& exe, const std::string& workdir,
                const std::string& name, const WorkloadSpec& spec);
  ~ServerProcess();

  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  int port() const { return port_; }
  ProcSample sample() const;
  /// SIGTERM (graceful drain), then SIGKILL after a grace period; waits for
  /// the child either way. Returns true when it exited with status 0.
  bool stop();

 private:
  pid_t pid_ = -1;
  int port_ = 0;
  std::string store_dir_;  ///< empty without a store
};

/// One client connection's state in the poll loop.
struct Conn {
  int fd = -1;
  std::string out;
  std::size_t out_off = 0;
  std::string in;
  std::deque<std::size_t> inflight;  ///< record indices, in send order
  bool dead = false;
};

/// Drives ops over `conns` loopback connections from one thread. Every op
/// sent becomes a Record (in send order, which preserves per-market order:
/// a market always rides the same connection).
class Client {
 public:
  Client(int port, int conns);
  ~Client();

  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  /// Sends each op alone and waits for its answer (setup and final phases).
  void run_sequential(const std::vector<Op>& ops, int conn_count,
                      Phase phase, double timeout_s);
  /// Closes every connection (the server sees end of stream).
  void close();
  /// `warmup_s` of unmeasured traffic, then one measured chunk of
  /// `seconds`: open loop on the spec's fixed clock, or closed loop (one
  /// request in flight). A run may measure several chunks.
  void run_measured(Stream& stream, double warmup_s, double seconds);

  std::vector<Op> ops;
  std::vector<Record> records;
  int refused = 0;       ///< connects that failed
  int early_closes = 0;  ///< connections the server closed under us
  std::vector<double> lag_ms;  ///< open loop: send time - due time
  Clock::time_point measured_start{};  ///< of the latest chunk
  Clock::time_point measured_end{};
  /// Summed over chunks: measured start to the last measured answer.
  double measured_s = 0.0;
  std::int64_t measured_bytes_in = 0;

 private:
  std::size_t send(const Op& op, int conn, Phase phase,
                   Clock::time_point scheduled);
  void flush(Conn& conn);
  /// One poll round: writes what it can, reads and attributes responses.
  void pump(double timeout_ms);
  bool idle() const;

  std::vector<Conn> conns_;
};

/// Connects to a port nobody listens on and reports whether it was refused
/// (the self-test's planted failure).
bool connect_refused_probe();

}  // namespace specbench
