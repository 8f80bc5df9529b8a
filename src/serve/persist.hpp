// persist.hpp — the crash-safe disk backing of the serve result cache.
//
// Every analysis result the daemon caches is a pure function of
// (canonical model text, op, canonical pipeline spec) — that is what made
// the in-memory cache bit-replayable, and it is what makes a DISK cache
// sound: an entry can be written once and replayed forever, on any later
// process, as long as it is provably intact.  This layer provides exactly
// that, with crash-only semantics:
//
//   * WRITES are atomic-or-absent.  An entry is serialised into a unique
//     temp file in the cache directory, fsync'ed, then rename(2)'d onto
//     its final name.  A crash at any instant leaves either the complete
//     entry, the old entry, or a stray temp file (swept at the next load)
//     — never a half-entry under the final name.
//   * EVERY entry carries a CRC-64 trailer (base/crc64.hpp) over the whole
//     record.  Torn writes — rename landed but the page cache tail did not
//     survive the crash — and any other corruption are detected at load.
//   * LOADS never fail the daemon.  A file that is truncated, corrupt, or
//     unreadable is QUARANTINED (renamed to <name>.quarantined, with a
//     warning on the log stream) and the warm start continues; the worst
//     outcome of any disk state is a clean cache miss.
//   * Persistence failures never fail a request.  put() reports failures
//     in the stats and returns; the in-memory cache and the response are
//     already correct.
//
// Entry files are content-addressed: <fnv(graph_key)>-<fnv(op_key)>.sdfp.
// The FULL keys are stored inside the record (the file name is an address,
// never an identity), so a warm start re-parses each graph key — which is
// the model's canonical text — and repopulates the GraphStore with
// bit-identical results.
//
// The record format is versioned and little-endian by definition.  The
// last digit of the magic is the results version (kResultsVersion in
// persist.cpp): it moves whenever an answer the daemon caches changes, and
// a record with another version is quarantined, never replayed.
//
//   offset  size  field
//   0       8     magic "SDFREDP2" (results version 2)
//   8       4     exit code (int32)
//   12      4     graph_key length (uint32)
//   16      4     op_key length (uint32)
//   20      8     result length (uint64)
//   28      ...   graph_key bytes, op_key bytes, result bytes
//   end-8   8     CRC-64/XZ of everything before the trailer
//
// Fault injection: put()/load_all() consume the io-write / io-fsync /
// io-read / torn-write countdowns of SDFRED_FAULT_INJECT (robust/fault.hpp)
// and the instance-level crash hooks in PersistOptions; the crash-restart
// fuzz oracle kills a simulated daemon at every one of these points and
// asserts restart equivalence.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <limits>
#include <mutex>
#include <string>
#include <vector>

namespace sdf {
namespace serve {

/// Configuration of one PersistentCache.
struct PersistOptions {
    /// Cache directory; created (one level) when missing.  Must not be
    /// empty.
    std::string dir;
    /// fsync entry files before the rename and the directory afterwards.
    /// On by default — turning it off trades crash safety for speed (the
    /// CRC still catches the resulting torn entries).
    bool fsync_writes = true;
    /// CRASH HOOK: successful writes allowed before the simulated kill —
    /// later puts are dropped as if the process had died (no file, no
    /// error).  The crash-restart oracle sweeps this.
    std::uint64_t stop_after_writes = std::numeric_limits<std::uint64_t>::max();
    /// CRASH HOOK: tear the Nth successful write (1-based) at this byte
    /// offset — the rename still lands, the tail is lost, the CRC trailer
    /// with it.  Negative = disabled.
    std::int64_t tear_write_at_byte = -1;
    std::uint64_t tear_write_index = 1;
    /// Warning sink for quarantines and write failures; stderr when null.
    std::ostream* log = nullptr;
};

/// Counters, surfaced by the `health` op and the tests.
struct PersistStats {
    std::uint64_t writes = 0;        ///< entries durably written
    std::uint64_t write_errors = 0;  ///< failed puts (fault or real I/O error)
    std::uint64_t dropped = 0;       ///< puts suppressed by the crash hook
    std::uint64_t torn = 0;          ///< writes torn by the crash hook / fault
    std::uint64_t loaded = 0;        ///< entries replayed by load_all
    std::uint64_t quarantined = 0;   ///< corrupt entries moved aside
    std::uint64_t swept_temps = 0;   ///< stray temp files removed at load
};

/// One decoded entry.
struct PersistedEntry {
    std::string graph_key;  ///< canonical model text (parseable)
    std::string op_key;     ///< op + "|" + canonical pipeline spec
    int exit_code = 0;
    std::string result;     ///< canonical Json::dump of the result member
};

/// See the file comment.  All methods are safe to call from concurrent
/// server workers.
class PersistentCache {
public:
    /// Opens (creating if needed) the cache directory.  Throws sdf::Error
    /// when the directory cannot be created or is not writable — a daemon
    /// asked to persist somewhere impossible should fail at startup, not
    /// silently run volatile.
    explicit PersistentCache(PersistOptions options);

    /// Durably stores one entry (temp file + fsync + atomic rename).
    /// Returns false — after updating the stats — on any failure; never
    /// throws, never leaves a half-written entry under the final name.
    bool put(const std::string& graph_key, const std::string& op_key,
             int exit_code, const std::string& result) noexcept;

    /// Scans the directory and decodes every intact entry; corrupt,
    /// truncated or unreadable files are quarantined with a logged
    /// warning, stray temp files are swept.  Never throws.
    std::vector<PersistedEntry> load_all();

    /// Quarantines the on-disk entry for this key pair (used when a loaded
    /// entry fails a higher layer's validation, e.g. its graph key no
    /// longer parses).
    void quarantine(const std::string& graph_key, const std::string& op_key);

    /// Rewrites the index file (entry count + format version, written with
    /// the same temp+rename+CRC discipline) and fsyncs the directory.  The
    /// drain path of a graceful shutdown calls this; the index is advisory
    /// — load_all() trusts only the entry files.
    void sync() noexcept;

    [[nodiscard]] PersistStats stats() const;
    [[nodiscard]] const std::string& dir() const { return options_.dir; }

    /// The on-disk file name for this key pair (content address, not
    /// identity — the full keys live inside the record).
    static std::string entry_name(const std::string& graph_key,
                                  const std::string& op_key);

    /// Serialises / decodes one record (format above).  decode returns
    /// false with a reason instead of throwing: callers quarantine.
    static std::string encode(const PersistedEntry& entry);
    static bool decode(const std::string& bytes, PersistedEntry& out,
                       std::string& reason);

private:
    bool write_file(const std::string& path, const std::string& bytes,
                    std::string& error) noexcept;
    void warn(const std::string& message) noexcept;
    void quarantine_file(const std::string& name, const std::string& reason);

    PersistOptions options_;
    mutable std::mutex mutex_;
    PersistStats stats_;
    std::uint64_t temp_seq_ = 0;
    std::uint64_t write_attempts_ = 0;  ///< successful-write counter for the crash hooks
};

}  // namespace serve
}  // namespace sdf
