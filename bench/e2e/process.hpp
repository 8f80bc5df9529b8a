// process.hpp — child processes and Unix-socket clients for bench_e2e.
//
// Every process the bench starts is waited for before the owning object is
// gone: run_child() reaps its child before returning, and a Daemon that
// was not stopped cleanly is killed and reaped by its destructor.
#pragma once

#include <sys/types.h>

#include <optional>
#include <string>
#include <vector>

namespace e2e {

/// What one finished child left behind.
struct ChildResult {
    int exit_code = -1;        ///< -1 when it was killed or timed out
    std::string out;           ///< everything it wrote to stdout
    long max_rss_kb = 0;       ///< its peak resident set (wait4 rusage)
    bool timed_out = false;
};

/// Runs `argv` (argv[0] is a path) with stdout captured and stderr
/// discarded; kills it after `timeout_s`.  Always reaps the child.
ChildResult run_child(const std::vector<std::string>& argv, double timeout_s);

/// A `sdfred_cli serve --socket PATH` process.
class Daemon {
public:
    /// Spawns the daemon and waits until its socket accepts connections;
    /// throws std::runtime_error when it does not within `timeout_s`.
    Daemon(const std::string& cli, const std::string& socket_path, double timeout_s);
    ~Daemon();
    Daemon(const Daemon&) = delete;
    Daemon& operator=(const Daemon&) = delete;

    /// The daemon's peak resident set so far (VmHWM), in kB.
    [[nodiscard]] long peak_rss_kb() const;

    /// Sends `shutdown` and reaps the process (SIGKILL after `timeout_s`).
    /// Returns true on a clean exit 0.
    bool stop(double timeout_s);

private:
    pid_t pid_ = -1;
    std::string socket_path_;
};

/// One client connection: newline-delimited request/response.
class Connection {
public:
    explicit Connection(const std::string& socket_path);
    ~Connection();
    Connection(const Connection&) = delete;
    Connection& operator=(const Connection&) = delete;

    /// Sends `line` plus a newline and returns the next response line, or
    /// nullopt on a closed connection or after `timeout_s`.
    std::optional<std::string> round_trip(const std::string& line, double timeout_s);

private:
    int fd_ = -1;
    std::string buffer_;  ///< bytes received past the last returned line
};

/// Path of the running executable (for re-running this bench as a child).
std::string self_executable();

}  // namespace e2e
