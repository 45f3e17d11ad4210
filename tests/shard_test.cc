/**
 * @file
 * Tests for crash-tolerant sharded sweeps: the CRC line framing and
 * CrashPlan primitives, lease-based claiming, stale-lease reclaim
 * between two live workers, SIGKILL round-trips through real forked
 * processes, torn-tail resume, and the headline guarantee — the
 * merged CSV is byte-identical to a single-process run no matter how
 * workers crashed.
 */

#include <gtest/gtest.h>

#include <csignal>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <unistd.h>

#include "base/crc.hh"
#include "base/fsio.hh"
#include "base/subprocess.hh"
#include "base/units.hh"
#include "core/shard.hh"
#include "core/sweep.hh"
#include "fault/fault.hh"

namespace vmsim
{
namespace
{

namespace fs = std::filesystem;

/** Temp shard directory that cleans up after itself. */
class TempDir
{
  public:
    TempDir()
    {
        char tmpl[] = "/tmp/vmsim_shard_XXXXXX";
        path_ = ::mkdtemp(tmpl);
    }

    ~TempDir() { fs::remove_all(path_); }

    const std::string &path() const { return path_; }

  private:
    std::string path_;
};

/** A grid small enough that a full run is milliseconds. */
SweepSpec
tinySpec()
{
    SimConfig base;
    base.l1 = CacheParams{16_KiB, 32};
    base.l2 = CacheParams{256_KiB, 64};
    SweepSpec spec;
    spec.base(base).instructions(10'000).seeds(3);
    return spec;
}

std::string
csvOf(const SweepResults &res)
{
    std::ostringstream os;
    res.writeCsv(os);
    return os.str();
}

std::string
baselineCsv(const SweepSpec &spec)
{
    return csvOf(SweepRunner(1).run(spec));
}

/** A CellRunner over long-lived default policies (CellRunner keeps
 *  references to its spec/obs/faults arguments). */
class DirectRunner
{
  public:
    explicit DirectRunner(const SweepSpec &spec)
        : runner_(spec, obs_, RetryPolicy{}, faults_, 0, false, false,
                  nullptr)
    {
    }

    Results cell(std::size_t i) { return runner_.run(i).results; }

  private:
    ObsOptions obs_;
    FaultSpec faults_;
    CellRunner runner_;
};

ShardOptions
options(const TempDir &dir, const std::string &owner,
        double leaseSeconds = 30.0)
{
    ShardOptions opts;
    opts.dir = dir.path();
    opts.owner = owner;
    opts.leaseSeconds = leaseSeconds;
    opts.traceCacheMb = 16;
    opts.graceful = false;
    return opts;
}

/**
 * Wait until the shard log at @p path holds a complete lease record,
 * polling for up to 30 s. @return whether one appeared.
 */
bool
waitForLease(const std::string &path)
{
    for (int i = 0; i < 3000; ++i) {
        std::ifstream in(path);
        std::string line;
        // A line is complete only if getline stopped at its newline.
        while (std::getline(in, line) && !in.eof())
            if (line.find("\"lease\":") != std::string::npos)
                return true;
        ::usleep(10'000);
    }
    return false;
}

// ---------------------------------------------------------------- CRC

TEST(CrcFrame, RoundTripsPayload)
{
    const std::string payload = "{\"cell\":7}";
    std::string framed = crcFrameLine(payload);
    std::string out;
    EXPECT_EQ(crcUnframeLine(framed, out), FrameCheck::Ok);
    EXPECT_EQ(out, payload);
}

TEST(CrcFrame, DetectsCorruption)
{
    std::string framed = crcFrameLine("{\"cell\":7}");
    framed[framed.size() - 2] ^= 1; // flip a payload bit
    std::string out;
    EXPECT_EQ(crcUnframeLine(framed, out), FrameCheck::Mismatch);
}

TEST(CrcFrame, PassesLegacyLinesThrough)
{
    std::string out;
    EXPECT_EQ(crcUnframeLine("{\"cell\":7}", out), FrameCheck::Legacy);
    EXPECT_EQ(out, "{\"cell\":7}");
}

TEST(CrcFrame, RejectsMalformedFrames)
{
    std::string out;
    EXPECT_EQ(crcUnframeLine("{\"crc\":\"zzzz\",\"data\":1}", out),
              FrameCheck::Malformed);
}

// ---------------------------------------------------------- CrashPlan

TEST(CrashPlan, ParsesTheGrammar)
{
    CrashPlan plan = CrashPlan::parse("after=3").orThrow();
    EXPECT_EQ(plan.afterAppends, 3);
    EXPECT_FALSE(plan.tornTail);
    EXPECT_FALSE(plan.throwInstead);
    EXPECT_TRUE(plan.armed());

    plan = CrashPlan::parse("after=0,torn=1").orThrow();
    EXPECT_EQ(plan.afterAppends, 0);
    EXPECT_TRUE(plan.tornTail);

    plan = CrashPlan::parse("after=2,throw=1").orThrow();
    EXPECT_TRUE(plan.throwInstead);
    EXPECT_EQ(CrashPlan::parse(plan.toString()).orThrow().toString(),
              plan.toString());

    EXPECT_FALSE(CrashPlan{}.armed());
    EXPECT_FALSE(CrashPlan::parse("bogus=1").ok());
}

// ------------------------------------------------------------- shards

TEST(Shard, SingleWorkerMatchesSingleProcess)
{
    const SweepSpec spec = tinySpec();
    TempDir dir;
    std::size_t committed =
        runShardWorker(spec, options(dir, "solo"));
    EXPECT_EQ(committed, spec.numCells());

    ShardMerge merged = mergeShardDir(dir.path(), spec).orThrow();
    EXPECT_EQ(merged.missing, 0u);
    EXPECT_EQ(csvOf(merged.results), baselineCsv(spec));
}

TEST(Shard, DuplicateCommitsMergeFirstWins)
{
    const SweepSpec spec = tinySpec();
    TempDir dir;
    // Worker "a" executes the full grid, then "b" re-commits every
    // cell into its own log — the worst-case claiming race, where
    // every cell ends up committed twice.
    runShardWorker(spec, options(dir, "a"));
    {
        ShardLog log(dir.path(), "b", spec);
        DirectRunner runner(spec);
        for (std::size_t i = 0; i < spec.numCells(); ++i)
            log.commit(i, runner.cell(i));
    }
    ShardMerge merged = mergeShardDir(dir.path(), spec).orThrow();
    EXPECT_EQ(merged.missing, 0u);
    EXPECT_EQ(csvOf(merged.results), baselineCsv(spec));
}

TEST(Shard, MergeMarksNeverExecutedCells)
{
    const SweepSpec spec = tinySpec();
    TempDir dir;
    {
        ShardLog log(dir.path(), "partial", spec);
        log.commit(0, DirectRunner(spec).cell(0));
    }
    ShardMerge merged = mergeShardDir(dir.path(), spec).orThrow();
    EXPECT_EQ(merged.completed, 1u);
    EXPECT_EQ(merged.missing, spec.numCells() - 1);
    EXPECT_FALSE(merged.results.outcomeAt(1).ok);
    EXPECT_EQ(merged.results.outcomeAt(1).error.code,
              ErrorCode::Unknown);
}

TEST(Shard, StaleLeaseIsReclaimed)
{
    const SweepSpec spec = tinySpec();
    TempDir dir;
    {
        // A worker that died long ago: its lease on cell 0 is already
        // expired (absolute expiry in the distant past).
        ShardLog dead(dir.path(), "dead", spec);
        dead.lease(0, 1);
    }
    std::size_t committed =
        runShardWorker(spec, options(dir, "live"));
    EXPECT_EQ(committed, spec.numCells());
    ShardMerge merged = mergeShardDir(dir.path(), spec).orThrow();
    EXPECT_EQ(merged.missing, 0u);
    EXPECT_EQ(csvOf(merged.results), baselineCsv(spec));
}

TEST(Shard, TwoLiveWorkersOneCrashesMidSweep)
{
    const SweepSpec spec = tinySpec();
    TempDir dir;
    // Worker A SIGKILLs itself on its first commit append (header,
    // lease, then boom) while holding the lease on its claimed cell;
    // worker B, with a short reclaim horizon, waits the lease out and
    // finishes the grid. B starts only once A's lease is on disk:
    // started together, B could commit all three cells before A
    // leased one, and A would exit cleanly without ever crashing.
    ShardOptions aOpts = options(dir, "a", 0.3);
    aOpts.crash = CrashPlan::parse("after=2,torn=1").orThrow();
    ShardOptions bOpts = options(dir, "b", 0.3);
    pid_t a = spawnFunction([&] {
                  runShardWorker(spec, aOpts);
                  return 0;
              }).orThrow();
    const bool aLeased = waitForLease(dir.path() + "/shard-a.jsonl");
    pid_t b = spawnFunction([&] {
                  runShardWorker(spec, bOpts);
                  return 0;
              }).orThrow();
    ExitStatus aStatus = waitProcess(a).orThrow();
    ExitStatus bStatus = waitProcess(b).orThrow();
    EXPECT_TRUE(aLeased) << "worker A never wrote a lease record";
    EXPECT_TRUE(aStatus.signaled);
    EXPECT_EQ(aStatus.signal, SIGKILL);
    EXPECT_TRUE(bStatus.exited);
    EXPECT_EQ(bStatus.exitCode, 0);

    ShardMerge merged = mergeShardDir(dir.path(), spec).orThrow();
    EXPECT_EQ(merged.missing, 0u);
    EXPECT_EQ(csvOf(merged.results), baselineCsv(spec));
}

TEST(Shard, SigkillRoundTripThroughSameOwner)
{
    const SweepSpec spec = tinySpec();
    TempDir dir;
    // Kill a real process mid-append with a torn tail, then restart
    // under the *same* identity: the resume path must truncate the
    // torn record and carry on to a byte-identical merge.
    ShardOptions crashOpts = options(dir, "w0", 0.2);
    crashOpts.crash = CrashPlan::parse("after=3,torn=1").orThrow();
    pid_t pid = spawnFunction([&] {
                    runShardWorker(spec, crashOpts);
                    return 0;
                }).orThrow();
    ExitStatus st = waitProcess(pid).orThrow();
    ASSERT_TRUE(st.signaled);
    ASSERT_EQ(st.signal, SIGKILL);

    // The torn tail is skippable (scan) before it is truncated (own
    // resume): integrity holds at every point in between.
    EXPECT_TRUE(scanShardDir(dir.path(), spec).ok());

    runShardWorker(spec, options(dir, "w0", 0.2));
    ShardMerge merged = mergeShardDir(dir.path(), spec).orThrow();
    EXPECT_EQ(merged.missing, 0u);
    EXPECT_EQ(csvOf(merged.results), baselineCsv(spec));
}

TEST(Shard, TornTailResumeRegression)
{
    const SweepSpec spec = tinySpec();
    TempDir dir;
    {
        ShardLog log(dir.path(), "w0", spec);
        log.commit(0, DirectRunner(spec).cell(0));
    }
    const std::string path = dir.path() + "/shard-w0.jsonl";
    const auto before = fs::file_size(path);
    {
        // Simulate a kill mid-append: half of a record, no newline.
        AppendLog raw;
        ASSERT_TRUE(raw.open(path, false).ok());
        std::string line = crcFrameLine("{\"lease\":1,"
                                        "\"expires_ms\":999999}");
        ASSERT_TRUE(raw.appendTorn(line, line.size() / 2).ok());
    }
    ASSERT_GT(fs::file_size(path), before);

    // Scanners skip the tail without touching the file.
    const auto torn = fs::file_size(path);
    ShardScan scan = scanShardDir(dir.path(), spec).orThrow();
    EXPECT_EQ(scan.done, 1u);
    EXPECT_EQ(fs::file_size(path), torn);

    // The owner's reopen truncates it and the sweep completes.
    runShardWorker(spec, options(dir, "w0"));
    EXPECT_EQ(csvOf(mergeShardDir(dir.path(), spec).orThrow().results),
              baselineCsv(spec));
}

TEST(Shard, MidFileCorruptionIsAnIntegrityError)
{
    const SweepSpec spec = tinySpec();
    TempDir dir;
    runShardWorker(spec, options(dir, "w0"));
    const std::string path = dir.path() + "/shard-w0.jsonl";
    // Flip a byte in the middle of the file: a torn *tail* is benign,
    // interior damage never is.
    std::string text;
    {
        std::ifstream is(path, std::ios::binary);
        text.assign(std::istreambuf_iterator<char>(is),
                    std::istreambuf_iterator<char>());
    }
    text[text.size() / 2] ^= 1;
    {
        std::ofstream os(path, std::ios::binary | std::ios::trunc);
        os << text;
    }
    Expected<ShardScan> scan = scanShardDir(dir.path(), spec);
    ASSERT_FALSE(scan.ok());
    EXPECT_EQ(scan.error().code, ErrorCode::ParseError);
}

TEST(Shard, RefusesAForeignSpecFingerprint)
{
    const SweepSpec spec = tinySpec();
    TempDir dir;
    runShardWorker(spec, options(dir, "w0"));

    SweepSpec other = tinySpec();
    other.instructions(20'000); // different grid, different prints
    Expected<ShardScan> scan = scanShardDir(dir.path(), other);
    ASSERT_FALSE(scan.ok());
    EXPECT_EQ(scan.error().code, ErrorCode::InvalidArgument);
}

} // anonymous namespace
} // namespace vmsim
