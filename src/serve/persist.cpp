#include "serve/persist.hpp"

#include <dirent.h>
#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <iostream>
#include <utility>

#include "base/crc64.hpp"
#include "base/errors.hpp"
#include "robust/fault.hpp"
#include "serve/graph_store.hpp"

namespace sdf {
namespace serve {

namespace {

/// The version of the persisted answers, carried as the last byte of the
/// magic.  Bump it whenever a change moves a result the daemon caches (the
/// goldens under data/serve/ and data/reduced/ move with it, and a test pins
/// the pair): a record of any other version fails the magic check, so it is
/// quarantined and recomputed instead of replayed.
constexpr int kResultsVersion = 2;
static_assert(kResultsVersion >= 1 && kResultsVersion <= 9, "one magic digit");
constexpr char kMagic[8] = {'S', 'D', 'F', 'R', 'E', 'D', 'P', '0' + kResultsVersion};
constexpr std::size_t kHeaderBytes = 28;  // magic + exit + three lengths
constexpr std::size_t kTrailerBytes = 8;
constexpr const char* kEntrySuffix = ".sdfp";
constexpr const char* kQuarantineSuffix = ".quarantined";
constexpr const char* kTempPrefix = ".tmp-";
constexpr const char* kIndexName = "index";

void put_u32(std::string& out, std::uint32_t value) {
    for (int shift = 0; shift < 32; shift += 8) {
        out += static_cast<char>((value >> shift) & 0xff);
    }
}

void put_u64(std::string& out, std::uint64_t value) {
    for (int shift = 0; shift < 64; shift += 8) {
        out += static_cast<char>((value >> shift) & 0xff);
    }
}

std::uint32_t get_u32(const std::string& bytes, std::size_t at) {
    std::uint32_t value = 0;
    for (int i = 3; i >= 0; --i) {
        value = (value << 8) | static_cast<unsigned char>(bytes[at + static_cast<std::size_t>(i)]);
    }
    return value;
}

std::uint64_t get_u64(const std::string& bytes, std::size_t at) {
    std::uint64_t value = 0;
    for (int i = 7; i >= 0; --i) {
        value = (value << 8) | static_cast<unsigned char>(bytes[at + static_cast<std::size_t>(i)]);
    }
    return value;
}

bool ends_with(const std::string& name, const char* suffix) {
    const std::size_t n = std::strlen(suffix);
    return name.size() >= n && name.compare(name.size() - n, n, suffix) == 0;
}

bool starts_with(const std::string& name, const char* prefix) {
    const std::size_t n = std::strlen(prefix);
    return name.size() >= n && name.compare(0, n, prefix) == 0;
}

/// EINTR-safe full write of `bytes` to `fd`.
bool write_fd(int fd, const std::string& bytes) {
    std::size_t done = 0;
    while (done < bytes.size()) {
        const ssize_t n = ::write(fd, bytes.data() + done, bytes.size() - done);
        if (n < 0) {
            if (errno == EINTR) {
                continue;
            }
            return false;
        }
        done += static_cast<std::size_t>(n);
    }
    return true;
}

/// EINTR-safe full read of `path`; false on open/read failure.
bool read_file(const std::string& path, std::string& out) {
    const int fd = ::open(path.c_str(), O_RDONLY);
    if (fd < 0) {
        return false;
    }
    out.clear();
    char chunk[1 << 16];
    for (;;) {
        const ssize_t n = ::read(fd, chunk, sizeof chunk);
        if (n < 0) {
            if (errno == EINTR) {
                continue;
            }
            ::close(fd);
            return false;
        }
        if (n == 0) {
            break;
        }
        out.append(chunk, static_cast<std::size_t>(n));
    }
    ::close(fd);
    return true;
}

void fsync_dir(const std::string& dir) {
    const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
    if (fd >= 0) {
        ::fsync(fd);
        ::close(fd);
    }
}

}  // namespace

PersistentCache::PersistentCache(PersistOptions options)
    : options_(std::move(options)) {
    if (options_.dir.empty()) {
        throw Error("persistent cache directory must not be empty");
    }
    if (::mkdir(options_.dir.c_str(), 0755) != 0 && errno != EEXIST) {
        throw Error("cannot create cache directory '" + options_.dir +
                    "': " + std::strerror(errno));
    }
    struct stat st {};
    if (::stat(options_.dir.c_str(), &st) != 0 || !S_ISDIR(st.st_mode)) {
        throw Error("cache path '" + options_.dir + "' is not a directory");
    }
    if (::access(options_.dir.c_str(), W_OK) != 0) {
        throw Error("cache directory '" + options_.dir + "' is not writable");
    }
}

std::string PersistentCache::entry_name(const std::string& graph_key,
                                        const std::string& op_key) {
    return GraphStore::content_id(graph_key) + "-" +
           GraphStore::content_id(op_key) + kEntrySuffix;
}

std::string PersistentCache::encode(const PersistedEntry& entry) {
    std::string out;
    out.reserve(kHeaderBytes + entry.graph_key.size() + entry.op_key.size() +
                entry.result.size() + kTrailerBytes);
    out.append(kMagic, sizeof kMagic);
    put_u32(out, static_cast<std::uint32_t>(entry.exit_code));
    put_u32(out, static_cast<std::uint32_t>(entry.graph_key.size()));
    put_u32(out, static_cast<std::uint32_t>(entry.op_key.size()));
    put_u64(out, entry.result.size());
    out += entry.graph_key;
    out += entry.op_key;
    out += entry.result;
    put_u64(out, crc64(out));
    return out;
}

bool PersistentCache::decode(const std::string& bytes, PersistedEntry& out,
                             std::string& reason) {
    if (bytes.size() < kHeaderBytes + kTrailerBytes) {
        reason = "truncated header";
        return false;
    }
    if (std::memcmp(bytes.data(), kMagic, sizeof kMagic) != 0) {
        reason = "bad magic";
        return false;
    }
    const std::uint64_t stored_crc = get_u64(bytes, bytes.size() - kTrailerBytes);
    const std::uint64_t actual_crc = crc64(bytes.data(), bytes.size() - kTrailerBytes);
    if (stored_crc != actual_crc) {
        reason = "checksum mismatch";
        return false;
    }
    const std::uint32_t graph_len = get_u32(bytes, 12);
    const std::uint32_t op_len = get_u32(bytes, 16);
    const std::uint64_t result_len = get_u64(bytes, 20);
    const std::uint64_t expected =
        kHeaderBytes + static_cast<std::uint64_t>(graph_len) + op_len +
        result_len + kTrailerBytes;
    if (expected != bytes.size()) {
        reason = "length fields disagree with file size";
        return false;
    }
    out.exit_code = static_cast<std::int32_t>(get_u32(bytes, 8));
    out.graph_key = bytes.substr(kHeaderBytes, graph_len);
    out.op_key = bytes.substr(kHeaderBytes + graph_len, op_len);
    out.result = bytes.substr(kHeaderBytes + graph_len + op_len,
                              static_cast<std::size_t>(result_len));
    return true;
}

void PersistentCache::warn(const std::string& message) noexcept {
    try {
        std::ostream& log = options_.log != nullptr ? *options_.log : std::cerr;
        log << "[sdfred serve] persist: " << message << "\n";
    } catch (...) {
        // A failing log stream must not take the cache down with it.
    }
}

bool PersistentCache::write_file(const std::string& path,
                                 const std::string& bytes,
                                 std::string& error) noexcept {
    // Unique temp name in the SAME directory, so the final rename(2) is
    // atomic on every POSIX filesystem.
    std::string temp;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        temp = options_.dir + "/" + kTempPrefix +
               std::to_string(static_cast<long>(::getpid())) + "-" +
               std::to_string(++temp_seq_);
    }
    const int fd = ::open(temp.c_str(), O_WRONLY | O_CREAT | O_EXCL, 0644);
    if (fd < 0) {
        error = std::string("open: ") + std::strerror(errno);
        return false;
    }
    if (fault_injection_armed() && detail::fault_consume_io_write()) {
        ::close(fd);
        ::unlink(temp.c_str());
        error = "write: injected I/O fault";
        return false;
    }
    if (!write_fd(fd, bytes)) {
        error = std::string("write: ") + std::strerror(errno);
        ::close(fd);
        ::unlink(temp.c_str());
        return false;
    }
    if (options_.fsync_writes) {
        if (fault_injection_armed() && detail::fault_consume_io_fsync()) {
            ::close(fd);
            ::unlink(temp.c_str());
            error = "fsync: injected I/O fault";
            return false;
        }
        if (::fsync(fd) != 0) {
            error = std::string("fsync: ") + std::strerror(errno);
            ::close(fd);
            ::unlink(temp.c_str());
            return false;
        }
    }
    if (::close(fd) != 0) {
        error = std::string("close: ") + std::strerror(errno);
        ::unlink(temp.c_str());
        return false;
    }
    if (::rename(temp.c_str(), path.c_str()) != 0) {
        error = std::string("rename: ") + std::strerror(errno);
        ::unlink(temp.c_str());
        return false;
    }
    if (options_.fsync_writes) {
        fsync_dir(options_.dir);
    }
    return true;
}

bool PersistentCache::put(const std::string& graph_key,
                          const std::string& op_key, int exit_code,
                          const std::string& result) noexcept {
    try {
        std::uint64_t attempt = 0;
        {
            std::lock_guard<std::mutex> lock(mutex_);
            if (write_attempts_ >= options_.stop_after_writes) {
                ++stats_.dropped;
                return false;
            }
            attempt = ++write_attempts_;
        }
        PersistedEntry entry{graph_key, op_key, exit_code, result};
        std::string bytes = encode(entry);
        // Tearing, from either the instance crash hook or the global fault
        // plan: the shortened record still gets written, fsynced and
        // renamed — the entry LANDS, corrupt, exactly like a crash between
        // the data write and its flush.
        bool torn = false;
        if (options_.tear_write_at_byte >= 0 &&
            attempt == options_.tear_write_index) {
            bytes.resize(std::min<std::size_t>(
                bytes.size(),
                static_cast<std::size_t>(options_.tear_write_at_byte)));
            torn = true;
        } else if (fault_injection_armed()) {
            const long long at = detail::fault_consume_torn_write();
            if (at >= 0) {
                bytes.resize(std::min<std::size_t>(
                    bytes.size(), static_cast<std::size_t>(at)));
                torn = true;
            }
        }
        const std::string path =
            options_.dir + "/" + entry_name(graph_key, op_key);
        std::string error;
        if (!write_file(path, bytes, error)) {
            std::lock_guard<std::mutex> lock(mutex_);
            ++stats_.write_errors;
            warn("dropping entry for model " + GraphStore::content_id(graph_key) +
                 " (" + error + "); the in-memory result is unaffected");
            return false;
        }
        std::lock_guard<std::mutex> lock(mutex_);
        if (torn) {
            ++stats_.torn;
            return false;
        }
        ++stats_.writes;
        return true;
    } catch (...) {
        std::lock_guard<std::mutex> lock(mutex_);
        ++stats_.write_errors;
        return false;
    }
}

void PersistentCache::quarantine_file(const std::string& name,
                                      const std::string& reason) {
    const std::string from = options_.dir + "/" + name;
    const std::string to = from + kQuarantineSuffix;
    if (::rename(from.c_str(), to.c_str()) != 0) {
        ::unlink(from.c_str());  // second-best: a corrupt entry must not reload
    }
    {
        std::lock_guard<std::mutex> lock(mutex_);
        ++stats_.quarantined;
    }
    warn("quarantined corrupt cache entry " + name + " (" + reason + ")");
}

void PersistentCache::quarantine(const std::string& graph_key,
                                 const std::string& op_key) {
    quarantine_file(entry_name(graph_key, op_key), "rejected by loader");
}

std::vector<PersistedEntry> PersistentCache::load_all() {
    std::vector<PersistedEntry> loaded;
    std::vector<std::string> names;
    DIR* dir = ::opendir(options_.dir.c_str());
    if (dir == nullptr) {
        warn("cannot scan cache directory '" + options_.dir +
             "': " + std::strerror(errno));
        return loaded;
    }
    for (const dirent* entry = ::readdir(dir); entry != nullptr;
         entry = ::readdir(dir)) {
        names.emplace_back(entry->d_name);
    }
    ::closedir(dir);
    // Deterministic order makes io-read:N target the same entry every run.
    std::sort(names.begin(), names.end());
    for (const std::string& name : names) {
        if (starts_with(name, kTempPrefix)) {
            // A crash between temp write and rename left this behind; the
            // rename never happened, so nothing references it.
            ::unlink((options_.dir + "/" + name).c_str());
            std::lock_guard<std::mutex> lock(mutex_);
            ++stats_.swept_temps;
            continue;
        }
        if (!ends_with(name, kEntrySuffix)) {
            continue;  // index, quarantined entries, foreign files
        }
        if (fault_injection_armed() && detail::fault_consume_io_read()) {
            quarantine_file(name, "injected read fault");
            continue;
        }
        std::string bytes;
        if (!read_file(options_.dir + "/" + name, bytes)) {
            quarantine_file(name, std::string("read: ") + std::strerror(errno));
            continue;
        }
        PersistedEntry entry;
        std::string reason;
        if (!decode(bytes, entry, reason)) {
            quarantine_file(name, reason);
            continue;
        }
        loaded.push_back(std::move(entry));
        std::lock_guard<std::mutex> lock(mutex_);
        ++stats_.loaded;
    }
    return loaded;
}

void PersistentCache::sync() noexcept {
    try {
        PersistStats snapshot = stats();
        std::string body = "sdfred-persist-index v1\n";
        body += "entries " + std::to_string(snapshot.writes) + "\n";
        char crc_hex[17];
        std::snprintf(crc_hex, sizeof crc_hex, "%016llx",
                      static_cast<unsigned long long>(crc64(body)));
        body += "crc64 ";
        body += crc_hex;
        body += "\n";
        std::string error;
        if (!write_file(options_.dir + "/" + kIndexName, body, error)) {
            warn("index sync failed (" + error + ")");
        }
        fsync_dir(options_.dir);
    } catch (...) {
        // sync is advisory; a failure here must never abort a drain.
    }
}

PersistStats PersistentCache::stats() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return stats_;
}

}  // namespace serve
}  // namespace sdf
