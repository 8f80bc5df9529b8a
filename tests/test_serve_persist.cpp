// test_serve_persist.cpp — the crash-safe disk cache behind `sdfred serve`.
//
// Four layers, matching the guarantees persist.hpp makes:
//
//   * FORMAT tests pin the record encoding (magic, little-endian lengths,
//     CRC-64/XZ trailer) and prove decode() rejects every corruption class
//     instead of trusting it.
//   * CACHE tests drive PersistentCache directly: atomic put/load round
//     trips, stray-temp sweeping, the advisory index, and the startup
//     refusal of an unusable directory.
//   * SERVE tests go through ServeCore: a warm restart replays
//     bit-identically, and — the headline acceptance criterion — a
//     deliberately corrupted entry is quarantined with a logged warning
//     while every OTHER key still replays bit-identically.
//   * FAULT tests arm the SDFRED_FAULT_INJECT I/O class (io-write,
//     io-fsync, io-read, torn-write) and check each failure degrades to a
//     clean miss, never a corrupt replay.  The crash-restart fuzz oracle
//     then sweeps simulated kills at every persistence point of 200+
//     random request scripts.

#include <gtest/gtest.h>

#include <dirent.h>
#include <stdlib.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "base/crc64.hpp"
#include "base/errors.hpp"
#include "io/text.hpp"
#include "robust/fault.hpp"
#include "serve/json.hpp"
#include "serve/oracle.hpp"
#include "serve/persist.hpp"
#include "serve/service.hpp"
#include "verify/fuzz.hpp"

namespace sdf {
namespace serve {
namespace {

/// Self-deleting scratch directory (files and all) for cache tests.
class TempDir {
public:
    TempDir() {
        const char* base = std::getenv("TMPDIR");
        std::string pattern =
            std::string(base != nullptr && *base != '\0' ? base : "/tmp") +
            "/sdfred-persist-XXXXXX";
        std::vector<char> buffer(pattern.begin(), pattern.end());
        buffer.push_back('\0');
        if (::mkdtemp(buffer.data()) != nullptr) {
            path_ = buffer.data();
        }
    }
    ~TempDir() {
        if (path_.empty()) {
            return;
        }
        if (DIR* dir = ::opendir(path_.c_str())) {
            for (const dirent* entry = ::readdir(dir); entry != nullptr;
                 entry = ::readdir(dir)) {
                if (std::strcmp(entry->d_name, ".") == 0 ||
                    std::strcmp(entry->d_name, "..") == 0) {
                    continue;
                }
                ::unlink((path_ + "/" + entry->d_name).c_str());
            }
            ::closedir(dir);
        }
        ::rmdir(path_.c_str());
    }
    TempDir(const TempDir&) = delete;
    TempDir& operator=(const TempDir&) = delete;
    [[nodiscard]] const std::string& path() const { return path_; }

private:
    std::string path_;
};

std::vector<std::string> entry_files(const std::string& dir_path) {
    std::vector<std::string> names;
    if (DIR* dir = ::opendir(dir_path.c_str())) {
        for (const dirent* entry = ::readdir(dir); entry != nullptr;
             entry = ::readdir(dir)) {
            const std::string name = entry->d_name;
            if (name.size() > 5 && name.substr(name.size() - 5) == ".sdfp") {
                names.push_back(name);
            }
        }
        ::closedir(dir);
    }
    return names;
}

std::string read_bytes(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    std::ostringstream buffer;
    buffer << in.rdbuf();
    return buffer.str();
}

void write_bytes(const std::string& path, const std::string& bytes) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

constexpr const char* kCycleModel =
    "graph g\nactor a 2\nactor b 3\n"
    "channel a b 1 1 1\nchannel b a 1 1 1\n";

std::string throughput_line(std::int64_t id, const std::string& model) {
    Json request = Json::object();
    request.set("id", Json::integer(id));
    request.set("op", Json::string("throughput"));
    request.set("model", Json::string(model));
    return request.dump();
}

std::string cache_of(const Json& response) {
    const Json* cache = response.find("cache");
    return cache != nullptr ? cache->as_string() : "";
}

PersistedEntry sample_entry() {
    PersistedEntry entry;
    entry.graph_key = "graph g\nactor a 1\n";
    entry.op_key = "throughput|";
    entry.exit_code = 0;
    entry.result = "{\"status\":\"exact\"}";
    return entry;
}

// ---------------------------------------------------------------------------
// CRC-64 and the record format
// ---------------------------------------------------------------------------

TEST(Crc64, MatchesTheXzCheckValue) {
    // The standard CRC-64/XZ check value; a table or parameter slip would
    // silently quarantine (or worse, accept) every persisted entry.
    EXPECT_EQ(crc64("123456789"), 0x995DC9BBDF1939FAull);
    EXPECT_EQ(crc64(""), 0u);
}

TEST(Crc64, UpdateChainsLikeConcatenation) {
    const std::string a = "atomic";
    const std::string b = "rename";
    EXPECT_EQ(crc64_update(crc64(a), b.data(), b.size()), crc64(a + b));
}

TEST(PersistFormat, EncodeDecodeRoundTrips) {
    const PersistedEntry entry = sample_entry();
    const std::string bytes = PersistentCache::encode(entry);
    PersistedEntry decoded;
    std::string reason;
    ASSERT_TRUE(PersistentCache::decode(bytes, decoded, reason)) << reason;
    EXPECT_EQ(decoded.graph_key, entry.graph_key);
    EXPECT_EQ(decoded.op_key, entry.op_key);
    EXPECT_EQ(decoded.exit_code, entry.exit_code);
    EXPECT_EQ(decoded.result, entry.result);
    // Header (28) + payloads + CRC trailer (8), nothing more.
    EXPECT_EQ(bytes.size(), 28 + entry.graph_key.size() + entry.op_key.size() +
                                entry.result.size() + 8);
    EXPECT_EQ(bytes.substr(0, 8), "SDFREDP2");
}

/// CRC-64 over every file under data/serve/ and data/reduced/, names
/// included, in name order.
std::uint64_t goldens_crc() {
    std::vector<std::string> files;
    for (const char* dir : {"serve", "reduced"}) {
        const std::string path = std::string(SDFRED_DATA_DIR) + "/" + dir;
        for (const auto& entry : std::filesystem::directory_iterator(path)) {
            if (entry.is_regular_file()) {
                files.push_back(std::string(dir) + "/" + entry.path().filename().string());
            }
        }
    }
    std::sort(files.begin(), files.end());
    std::uint64_t crc = 0;
    for (const std::string& file : files) {
        const std::string bytes =
            file + "\n" + read_bytes(std::string(SDFRED_DATA_DIR) + "/" + file);
        crc = crc64_update(crc, bytes.data(), bytes.size());
    }
    return crc;
}

TEST(PersistFormat, ResultsVersionMovesWithTheGoldens) {
    // A tripwire: the persisted answers are versioned by the last digit of
    // the record magic.  When a change moves a golden answer, a warm start
    // must not replay the old one, so the version has to move too.
    constexpr char kPinnedVersion = '2';
    constexpr std::uint64_t kPinnedGoldensCrc = 0xe901053e0514965cull;
    const char version = PersistentCache::encode(sample_entry())[7];
    const std::uint64_t crc = goldens_crc();
    EXPECT_TRUE(version == kPinnedVersion && crc == kPinnedGoldensCrc)
        << "goldens changed: bump kResultsVersion and update the hash (results version "
        << version << ", goldens crc 0x" << std::hex << crc << ")";
}

TEST(PersistFormat, DecodeRejectsEveryCorruptionClass) {
    const std::string bytes = PersistentCache::encode(sample_entry());
    PersistedEntry decoded;
    std::string reason;
    // Truncation, anywhere.
    for (const std::size_t keep : {std::size_t{0}, std::size_t{7},
                                   std::size_t{27}, bytes.size() - 1}) {
        EXPECT_FALSE(
            PersistentCache::decode(bytes.substr(0, keep), decoded, reason))
            << "accepted a record truncated to " << keep << " bytes";
    }
    // Wrong magic.
    std::string wrong_magic = bytes;
    wrong_magic[0] = 'X';
    EXPECT_FALSE(PersistentCache::decode(wrong_magic, decoded, reason));
    // A single flipped payload bit must fail the CRC.
    std::string flipped = bytes;
    flipped[30] = static_cast<char>(flipped[30] ^ 0x01);
    EXPECT_FALSE(PersistentCache::decode(flipped, decoded, reason));
    EXPECT_NE(reason.find("checksum"), std::string::npos) << reason;
    // Appended garbage changes the length without touching the stored CRC.
    EXPECT_FALSE(PersistentCache::decode(bytes + "garbage", decoded, reason));
}

TEST(PersistFormat, EntryNameIsAnAddressNotAnIdentity) {
    const std::string name = PersistentCache::entry_name("model-a", "op-a");
    EXPECT_EQ(name, PersistentCache::entry_name("model-a", "op-a"));
    EXPECT_NE(name, PersistentCache::entry_name("model-b", "op-a"));
    EXPECT_NE(name, PersistentCache::entry_name("model-a", "op-b"));
    EXPECT_EQ(name.substr(name.size() - 5), ".sdfp");
}

// ---------------------------------------------------------------------------
// PersistentCache, driven directly
// ---------------------------------------------------------------------------

TEST(PersistCache, PutThenLoadAllRoundTrips) {
    TempDir dir;
    PersistOptions options;
    options.dir = dir.path();
    options.fsync_writes = false;  // keep the suite fast; CRC still guards
    {
        PersistentCache cache(options);
        EXPECT_TRUE(cache.put("graph g\nactor a 1\n", "throughput|", 0, "{}"));
        EXPECT_TRUE(cache.put("graph g\nactor b 2\n", "lint|", 1, "{\"k\":1}"));
        EXPECT_EQ(cache.stats().writes, 2u);
        EXPECT_EQ(cache.stats().write_errors, 0u);
    }
    PersistentCache reopened(options);
    const std::vector<PersistedEntry> loaded = reopened.load_all();
    ASSERT_EQ(loaded.size(), 2u);
    EXPECT_EQ(reopened.stats().loaded, 2u);
    EXPECT_EQ(reopened.stats().quarantined, 0u);
    for (const PersistedEntry& entry : loaded) {
        if (entry.op_key == "throughput|") {
            EXPECT_EQ(entry.graph_key, "graph g\nactor a 1\n");
            EXPECT_EQ(entry.exit_code, 0);
            EXPECT_EQ(entry.result, "{}");
        } else {
            EXPECT_EQ(entry.op_key, "lint|");
            EXPECT_EQ(entry.exit_code, 1);
            EXPECT_EQ(entry.result, "{\"k\":1}");
        }
    }
}

TEST(PersistCache, ConstructorRefusesAnUnusableDirectory) {
    // A daemon asked to persist under a FILE must fail at startup, not
    // silently run volatile.
    TempDir dir;
    const std::string file = dir.path() + "/occupied";
    write_bytes(file, "not a directory");
    PersistOptions options;
    options.dir = file + "/cache";
    EXPECT_THROW(PersistentCache{options}, Error);
}

TEST(PersistCache, StrayTempFilesAreSweptAtLoad) {
    TempDir dir;
    // What a kill between open and rename leaves behind.
    write_bytes(dir.path() + "/.tmp-999-1", "half an entry");
    PersistOptions options;
    options.dir = dir.path();
    PersistentCache cache(options);
    EXPECT_TRUE(cache.load_all().empty());
    EXPECT_EQ(cache.stats().swept_temps, 1u);
    EXPECT_TRUE(entry_files(dir.path()).empty());
    EXPECT_NE(::access((dir.path() + "/.tmp-999-1").c_str(), F_OK), 0)
        << "the stray temp file should be gone";
}

TEST(PersistCache, SyncWritesTheAdvisoryIndex) {
    TempDir dir;
    PersistOptions options;
    options.dir = dir.path();
    options.fsync_writes = false;
    PersistentCache cache(options);
    EXPECT_TRUE(cache.put("graph g\nactor a 1\n", "throughput|", 0, "{}"));
    cache.sync();
    const std::string index = read_bytes(dir.path() + "/index");
    EXPECT_EQ(index.rfind("sdfred-persist-index v1\n", 0), 0u) << index;
    EXPECT_NE(index.find("entries 1\n"), std::string::npos) << index;
}

TEST(PersistCache, StopAfterWritesDropsLaterPuts) {
    TempDir dir;
    PersistOptions options;
    options.dir = dir.path();
    options.fsync_writes = false;
    options.stop_after_writes = 1;
    PersistentCache cache(options);
    EXPECT_TRUE(cache.put("graph g\nactor a 1\n", "throughput|", 0, "{}"));
    EXPECT_FALSE(cache.put("graph g\nactor b 1\n", "throughput|", 0, "{}"));
    EXPECT_EQ(cache.stats().writes, 1u);
    EXPECT_EQ(cache.stats().dropped, 1u);
    EXPECT_EQ(entry_files(dir.path()).size(), 1u);
}

// ---------------------------------------------------------------------------
// Warm restart through ServeCore
// ---------------------------------------------------------------------------

TEST(PersistServe, WarmRestartReplaysBitIdentically) {
    TempDir dir;
    ServeOptions serve_options;
    serve_options.cache_dir = dir.path();
    serve_options.persist_fsync = false;
    const std::string line = throughput_line(1, kCycleModel);
    std::string cold_response;
    {
        ServeCore cold(serve_options);
        cold_response = cold.handle_line(line);
        EXPECT_EQ(cache_of(Json::parse(cold_response)), "miss");
    }
    // A new process: same directory, nothing in memory.
    ServeCore warm(serve_options);
    const Json replayed = Json::parse(warm.handle_line(line));
    EXPECT_EQ(cache_of(replayed), "hit");
    const Json cold_parsed = Json::parse(cold_response);
    EXPECT_EQ(replayed.find("result")->dump(),
              cold_parsed.find("result")->dump());
    EXPECT_EQ(replayed.find("exit")->as_integer(),
              cold_parsed.find("exit")->as_integer());
    // The health op reports the warmed entry.
    const Json health = Json::parse(warm.handle_line("{\"id\":2,\"op\":\"health\"}"));
    const Json* persist = health.find("result")->find("persist");
    ASSERT_NE(persist, nullptr);
    EXPECT_TRUE(persist->find("enabled")->as_boolean());
    EXPECT_EQ(persist->find("warmed")->as_integer(), 1);
}

TEST(PersistServe, CorruptedEntryIsQuarantinedWhileOthersReplay) {
    // THE acceptance criterion: corrupt ONE entry on disk; after restart it
    // is quarantined with a logged warning, every other key replays
    // bit-identically from disk, and the corrupted key recomputes to the
    // same bytes as the original run — a clean miss, never a wrong answer.
    TempDir dir;
    const std::vector<std::string> models = {
        kCycleModel,
        "graph g\nactor a 1\nactor b 1\nchannel a b 1 1 1\nchannel b a 1 1 2\n",
        "graph g\nactor a 4\nactor b 1\nchannel a b 2 1 2\nchannel b a 1 2 1\n",
    };
    std::vector<std::string> reference;
    {
        ServeOptions serve_options;
        serve_options.cache_dir = dir.path();
        serve_options.persist_fsync = false;
        ServeCore core(serve_options);
        for (std::size_t i = 0; i < models.size(); ++i) {
            reference.push_back(core.handle_line(
                throughput_line(static_cast<std::int64_t>(i), models[i])));
        }
    }
    ASSERT_EQ(entry_files(dir.path()).size(), models.size());

    // Corrupt the victim's entry file (appended garbage fails the CRC).
    const std::string victim_key =
        write_text_string(read_text_string(models[1]));
    const std::string victim_file =
        dir.path() + "/" + PersistentCache::entry_name(victim_key, "throughput|");
    const std::string intact = read_bytes(victim_file);
    ASSERT_FALSE(intact.empty()) << "test premise: the entry exists on disk";
    write_bytes(victim_file, intact + "bitrot");

    std::ostringstream warnings;
    PersistOptions persist_options;
    persist_options.dir = dir.path();
    persist_options.fsync_writes = false;
    persist_options.log = &warnings;
    PersistentCache survivor(persist_options);
    ServeCore core;
    EXPECT_EQ(core.attach_persistence(&survivor), models.size() - 1);
    EXPECT_EQ(survivor.stats().quarantined, 1u);
    EXPECT_NE(warnings.str().find("quarantined"), std::string::npos)
        << "quarantine must be logged, not silent: " << warnings.str();

    for (std::size_t i = 0; i < models.size(); ++i) {
        SCOPED_TRACE("model " + std::to_string(i));
        const Json replayed = Json::parse(core.handle_line(
            throughput_line(static_cast<std::int64_t>(i), models[i])));
        const Json expected = Json::parse(reference[i]);
        // The victim misses cleanly and recomputes; the others replay.
        EXPECT_EQ(cache_of(replayed), i == 1 ? "miss" : "hit");
        EXPECT_EQ(replayed.find("result")->dump(),
                  expected.find("result")->dump());
        EXPECT_EQ(replayed.find("exit")->as_integer(),
                  expected.find("exit")->as_integer());
    }
    // The corrupted file was moved aside, not deleted (forensics) — and
    // never re-trusted.
    EXPECT_EQ(::access((victim_file + ".quarantined").c_str(), F_OK), 0);
}

TEST(PersistServe, RecordOfAnotherResultsVersionIsNeverReplayed) {
    // A well-formed record from before the results version moved: same
    // layout, SDFREDP1 magic, and an answer this build would not give.
    TempDir dir;
    PersistedEntry stale;
    stale.graph_key = write_text_string(read_text_string(kCycleModel));
    stale.op_key = "throughput|";
    stale.result = "{\"stale\":true}";
    std::string bytes = PersistentCache::encode(stale);
    bytes[7] = '1';
    bytes.resize(bytes.size() - 8);
    const std::uint64_t crc = crc64(bytes);
    for (int shift = 0; shift < 64; shift += 8) {
        bytes += static_cast<char>((crc >> shift) & 0xff);
    }
    const std::string file =
        dir.path() + "/" + PersistentCache::entry_name(stale.graph_key, stale.op_key);
    write_bytes(file, bytes);

    std::ostringstream warnings;
    PersistOptions persist_options;
    persist_options.dir = dir.path();
    persist_options.fsync_writes = false;
    persist_options.log = &warnings;
    PersistentCache cache(persist_options);
    ServeCore core;
    EXPECT_EQ(core.attach_persistence(&cache), 0u);
    EXPECT_EQ(cache.stats().quarantined, 1u);
    EXPECT_NE(warnings.str().find("bad magic"), std::string::npos) << warnings.str();
    EXPECT_EQ(::access((file + ".quarantined").c_str(), F_OK), 0);

    const Json response = Json::parse(core.handle_line(throughput_line(1, kCycleModel)));
    EXPECT_EQ(cache_of(response), "miss");
    EXPECT_EQ(response.find("result")->find("stale"), nullptr) << response.dump();
    EXPECT_EQ(response.find("exit")->as_integer(), 0);
}

// ---------------------------------------------------------------------------
// The SDFRED_FAULT_INJECT I/O class
// ---------------------------------------------------------------------------

TEST(PersistFault, InjectedWriteFailureDegradesToACleanMiss) {
    TempDir dir;
    PersistOptions options;
    options.dir = dir.path();
    options.fsync_writes = false;
    std::ostringstream warnings;
    options.log = &warnings;
    PersistentCache cache(options);
    {
        FaultInjectionScope scope("io-write:1");
        EXPECT_FALSE(cache.put("graph g\nactor a 1\n", "throughput|", 0, "{}"));
    }
    EXPECT_EQ(cache.stats().write_errors, 1u);
    EXPECT_TRUE(entry_files(dir.path()).empty())
        << "a failed write must not leave an entry under the final name";
    // The very next put succeeds: the failure was the injection, not state.
    EXPECT_TRUE(cache.put("graph g\nactor a 1\n", "throughput|", 0, "{}"));
    EXPECT_EQ(entry_files(dir.path()).size(), 1u);
}

TEST(PersistFault, InjectedFsyncFailureDropsTheEntry) {
    TempDir dir;
    PersistOptions options;
    options.dir = dir.path();
    options.fsync_writes = true;  // the fsync path must be exercised
    std::ostringstream warnings;
    options.log = &warnings;
    PersistentCache cache(options);
    {
        FaultInjectionScope scope("io-fsync:1");
        EXPECT_FALSE(cache.put("graph g\nactor a 1\n", "throughput|", 0, "{}"));
    }
    EXPECT_EQ(cache.stats().write_errors, 1u);
    EXPECT_TRUE(entry_files(dir.path()).empty());
}

TEST(PersistFault, InjectedReadFailureQuarantinesAtWarmStart) {
    TempDir dir;
    PersistOptions options;
    options.dir = dir.path();
    options.fsync_writes = false;
    {
        PersistentCache cache(options);
        ASSERT_TRUE(cache.put("graph g\nactor a 1\n", "throughput|", 0, "{}"));
    }
    std::ostringstream warnings;
    options.log = &warnings;
    PersistentCache reopened(options);
    FaultInjectionScope scope("io-read:1");
    EXPECT_TRUE(reopened.load_all().empty());
    EXPECT_EQ(reopened.stats().quarantined, 1u);
    EXPECT_NE(warnings.str().find("quarantined"), std::string::npos);
}

TEST(PersistFault, InjectedTornWriteIsDetectedAtRestart) {
    // torn-write:12 — the rename lands but only the first 12 bytes survive,
    // exactly the disk state an unflushed page cache leaves after a crash.
    TempDir dir;
    PersistOptions options;
    options.dir = dir.path();
    options.fsync_writes = false;
    std::ostringstream warnings;
    options.log = &warnings;
    {
        PersistentCache cache(options);
        FaultInjectionScope scope("torn-write:12");
        EXPECT_FALSE(cache.put("graph g\nactor a 1\n", "throughput|", 0, "{}"));
        EXPECT_EQ(cache.stats().torn, 1u);
        ASSERT_EQ(entry_files(dir.path()).size(), 1u)
            << "a torn write still lands under the final name";
    }
    PersistentCache reopened(options);
    EXPECT_TRUE(reopened.load_all().empty());
    EXPECT_EQ(reopened.stats().quarantined, 1u);
}

// ---------------------------------------------------------------------------
// The crash-restart fuzz oracle
// ---------------------------------------------------------------------------

TEST(CrashOracle, RegistersAsExtraAndIdempotently) {
    register_crash_restart_oracle();
    register_crash_restart_oracle();
    int seen = 0;
    bool extra = false;
    for (const Oracle& oracle : oracle_registry()) {
        if (oracle.id == "crash-restart") {
            ++seen;
            extra = oracle.extra;
        }
    }
    EXPECT_EQ(seen, 1);
    EXPECT_TRUE(extra);
}

TEST(CrashOracle, CampaignOverTwoHundredRandomScripts) {
    // The ISSUE's acceptance bar: >= 200 random request scripts, a
    // simulated kill at EVERY persistence point of each (the oracle sweeps
    // kill-after-k-writes and torn-write positions internally), zero
    // corrupt replays.
    register_crash_restart_oracle();
    FuzzOptions options;
    options.seed = 20260808;
    options.iterations = 200;
    options.oracles = {"crash-restart"};
    options.write_failures = false;
    options.shrink = false;
    options.limits.max_actors = 12;  // keep each script's analysis cheap
    const FuzzReport report = run_fuzz(options);
    EXPECT_EQ(report.iterations, 200u);
    EXPECT_TRUE(report.clean());
    for (const FuzzFailure& failure : report.failures) {
        ADD_FAILURE() << "seed " << failure.seed << ": "
                      << failure.verdict.detail;
    }
    // The campaign must actually exercise the oracle, not skip its way to
    // green: by_oracle tallies {pass, skip, reject, fail}.
    const auto tally = report.by_oracle.find("crash-restart");
    ASSERT_NE(tally, report.by_oracle.end());
    EXPECT_GT(tally->second[0], 150u) << "too many skips to call this a sweep";
    EXPECT_EQ(tally->second[3], 0u);
}

}  // namespace
}  // namespace serve
}  // namespace sdf
