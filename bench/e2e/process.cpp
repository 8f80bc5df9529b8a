#include "process.hpp"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/syscall.h>
#include <sys/uio.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <fstream>
#include <stdexcept>
#include <thread>

extern char** environ;

namespace e2e {

namespace {

using Clock = std::chrono::steady_clock;

int remaining_ms(Clock::time_point deadline) {
    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
        deadline - Clock::now());
    return left.count() > 0 ? static_cast<int>(left.count()) : 0;
}

Clock::time_point deadline_after(double seconds) {
    return Clock::now() + std::chrono::duration_cast<Clock::duration>(
                              std::chrono::duration<double>(seconds));
}

/// posix_spawn with the given file actions; returns the pid.
pid_t spawn(const std::vector<std::string>& argv, posix_spawn_file_actions_t* actions) {
    std::vector<char*> args;
    args.reserve(argv.size() + 1);
    for (const std::string& arg : argv) {
        args.push_back(const_cast<char*>(arg.c_str()));
    }
    args.push_back(nullptr);
    pid_t pid = -1;
    const int rc = ::posix_spawn(&pid, argv[0].c_str(), actions, nullptr, args.data(),
                                 environ);
    if (rc != 0) {
        throw std::runtime_error("cannot start " + argv[0] + ": " + std::strerror(rc));
    }
    return pid;
}

/// Waits for `pid`; SIGKILL once `deadline` passes.  Returns the wait
/// status and fills `usage`.  The wait blocks on a pidfd, so a CLI op's
/// latency ends when the child exits, not at the next polling tick.
int reap(pid_t pid, Clock::time_point deadline, rusage* usage) {
    const int pidfd = static_cast<int>(::syscall(SYS_pidfd_open, pid, 0));
    int status = 0;
    for (;;) {
        const pid_t done = ::wait4(pid, &status, WNOHANG, usage);
        if (done == pid) break;
        if (done < 0 && errno != EINTR) {
            status = -1;
            break;
        }
        if (Clock::now() >= deadline) {
            ::kill(pid, SIGKILL);
            while (::wait4(pid, &status, 0, usage) < 0 && errno == EINTR) {
            }
            break;
        }
        if (pidfd >= 0) {
            pollfd entry{pidfd, POLLIN, 0};
            ::poll(&entry, 1, remaining_ms(deadline));
        } else {
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
    }
    if (pidfd >= 0) ::close(pidfd);
    return status;
}

bool try_connect(int fd, const std::string& path) {
    sockaddr_un address{};
    address.sun_family = AF_UNIX;
    if (path.size() >= sizeof(address.sun_path)) {
        throw std::runtime_error("socket path too long: " + path);
    }
    std::memcpy(address.sun_path, path.c_str(), path.size() + 1);
    return ::connect(fd, reinterpret_cast<const sockaddr*>(&address), sizeof(address)) == 0;
}

}  // namespace

ChildResult run_child(const std::vector<std::string>& argv, double timeout_s) {
    int fds[2];
    if (::pipe2(fds, O_CLOEXEC) != 0) {
        throw std::runtime_error(std::string("pipe: ") + std::strerror(errno));
    }
    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    posix_spawn_file_actions_adddup2(&actions, fds[1], 1);
    posix_spawn_file_actions_addopen(&actions, 2, "/dev/null", O_WRONLY, 0);
    pid_t pid = -1;
    try {
        pid = spawn(argv, &actions);
    } catch (...) {
        posix_spawn_file_actions_destroy(&actions);
        ::close(fds[0]);
        ::close(fds[1]);
        throw;
    }
    posix_spawn_file_actions_destroy(&actions);
    ::close(fds[1]);

    ChildResult result;
    const Clock::time_point deadline = deadline_after(timeout_s);
    char chunk[65536];
    for (;;) {
        pollfd entry{fds[0], POLLIN, 0};
        const int ready = ::poll(&entry, 1, remaining_ms(deadline));
        if (ready < 0 && errno == EINTR) continue;
        if (ready <= 0) {
            result.timed_out = true;
            ::kill(pid, SIGKILL);
            break;
        }
        const ssize_t n = ::read(fds[0], chunk, sizeof(chunk));
        if (n < 0 && errno == EINTR) continue;
        if (n <= 0) break;
        result.out.append(chunk, static_cast<std::size_t>(n));
    }
    ::close(fds[0]);
    rusage usage{};
    const int status = reap(pid, deadline_after(timeout_s), &usage);
    result.max_rss_kb = usage.ru_maxrss;
    if (!result.timed_out && status >= 0 && WIFEXITED(status)) {
        result.exit_code = WEXITSTATUS(status);
    }
    return result;
}

Daemon::Daemon(const std::string& cli, const std::string& socket_path, double timeout_s)
    : socket_path_(socket_path) {
    ::unlink(socket_path.c_str());
    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    posix_spawn_file_actions_addopen(&actions, 0, "/dev/null", O_RDONLY, 0);
    posix_spawn_file_actions_addopen(&actions, 1, "/dev/null", O_WRONLY, 0);
    posix_spawn_file_actions_addopen(&actions, 2, "/dev/null", O_WRONLY, 0);
    try {
        pid_ = spawn({cli, "serve", "--socket", socket_path}, &actions);
    } catch (...) {
        posix_spawn_file_actions_destroy(&actions);
        throw;
    }
    posix_spawn_file_actions_destroy(&actions);

    const Clock::time_point deadline = deadline_after(timeout_s);
    for (;;) {
        const int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
        const bool connected = fd >= 0 && try_connect(fd, socket_path);
        if (fd >= 0) ::close(fd);
        if (connected) return;
        int status = 0;
        const bool exited = ::waitpid(pid_, &status, WNOHANG) == pid_;
        if (exited || Clock::now() >= deadline) {
            if (!exited) {
                ::kill(pid_, SIGKILL);
                ::waitpid(pid_, &status, 0);
            }
            pid_ = -1;
            throw std::runtime_error("daemon did not come up on " + socket_path);
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
}

Daemon::~Daemon() {
    if (pid_ > 0) {
        ::kill(pid_, SIGKILL);
        int status = 0;
        while (::waitpid(pid_, &status, 0) < 0 && errno == EINTR) {
        }
    }
    ::unlink(socket_path_.c_str());
}

long Daemon::peak_rss_kb() const {
    std::ifstream status("/proc/" + std::to_string(pid_) + "/status");
    std::string line;
    while (std::getline(status, line)) {
        if (line.rfind("VmHWM:", 0) == 0) {
            return std::stol(line.substr(6));
        }
    }
    return 0;
}

bool Daemon::stop(double timeout_s) {
    if (pid_ <= 0) return false;
    try {
        Connection connection(socket_path_);
        connection.round_trip(R"({"id":"stop","op":"shutdown"})", timeout_s);
    } catch (const std::exception&) {
        // Reaped below either way; a daemon that cannot take the request
        // is killed once the deadline passes.
    }
    rusage usage{};
    const int status = reap(pid_, deadline_after(timeout_s), &usage);
    pid_ = -1;
    return status >= 0 && WIFEXITED(status) && WEXITSTATUS(status) == 0;
}

Connection::Connection(const std::string& socket_path) {
    fd_ = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd_ < 0 || !try_connect(fd_, socket_path)) {
        const std::string reason = std::strerror(errno);
        if (fd_ >= 0) ::close(fd_);
        throw std::runtime_error("cannot connect to " + socket_path + ": " + reason);
    }
}

Connection::~Connection() { ::close(fd_); }

std::optional<std::string> Connection::round_trip(const std::string& line,
                                                  double timeout_s) {
    const std::size_t total = line.size() + 1;
    std::size_t sent = 0;
    char newline = '\n';
    while (sent < total) {
        iovec parts[2];
        int count = 0;
        if (sent < line.size()) {
            parts[count++] = {const_cast<char*>(line.data()) + sent, line.size() - sent};
        }
        parts[count++] = {&newline, 1};
        msghdr message{};
        message.msg_iov = parts;
        message.msg_iovlen = static_cast<std::size_t>(count);
        const ssize_t n = ::sendmsg(fd_, &message, MSG_NOSIGNAL);
        if (n < 0 && errno == EINTR) continue;
        if (n < 0) return std::nullopt;
        sent += static_cast<std::size_t>(n);
    }
    const Clock::time_point deadline = deadline_after(timeout_s);
    std::size_t scanned = 0;
    char chunk[65536];
    for (;;) {
        const std::size_t end = buffer_.find('\n', scanned);
        if (end != std::string::npos) {
            std::string response = buffer_.substr(0, end);
            buffer_.erase(0, end + 1);
            return response;
        }
        scanned = buffer_.size();
        pollfd entry{fd_, POLLIN, 0};
        const int ready = ::poll(&entry, 1, remaining_ms(deadline));
        if (ready < 0 && errno == EINTR) continue;
        if (ready <= 0) return std::nullopt;
        const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
        if (n < 0 && errno == EINTR) continue;
        if (n <= 0) return std::nullopt;
        buffer_.append(chunk, static_cast<std::size_t>(n));
    }
}

std::string self_executable() {
    char path[4096];
    const ssize_t n = ::readlink("/proc/self/exe", path, sizeof(path) - 1);
    if (n <= 0) {
        throw std::runtime_error("cannot resolve /proc/self/exe");
    }
    return std::string(path, static_cast<std::size_t>(n));
}

}  // namespace e2e
