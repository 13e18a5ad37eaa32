/**
 * @file
 * Tests for the shard supervisor: deterministic partitioning,
 * backoff, heartbeats, and the crash/retry/reassign state machine
 * (driven with /bin/sh fake workers that crash, hang, or beat on
 * cue). fork/exec-based, so this file stays out of the TSan binary.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <unistd.h>

#include "common/metrics.hh"
#include "core/shard.hh"

namespace syncperf::core
{
namespace
{

namespace fs = std::filesystem;

TEST(ShardSpec, ParsesWellFormedSpecs)
{
    const auto spec = parseShardSpec("2/4");
    ASSERT_TRUE(spec.isOk());
    EXPECT_EQ(spec.value().index, 2);
    EXPECT_EQ(spec.value().count, 4);
    EXPECT_EQ(spec.value().toString(), "2/4");

    EXPECT_TRUE(parseShardSpec("0/1").isOk());
}

TEST(ShardSpec, RejectsMalformedSpecs)
{
    // Also: counts past int must not wrap into range, and signs or
    // whitespace inside a token are not part of the k/N form.
    for (const char *bad : {"", "3", "3/", "/4", "a/b", "1/2x",
                            "-1/4", "4/4", "5/4", "0/0", "1/0",
                            "0/3000000000", "4294967297/4294967298",
                            " 1/4", "+1/4", "1/ 4"}) {
        EXPECT_FALSE(parseShardSpec(bad).isOk()) << bad;
    }
}

TEST(ShardSpec, OwnershipPartitionsEveryOrdinalExactlyOnce)
{
    for (int count : {1, 2, 3, 4, 7}) {
        for (std::size_t ordinal = 0; ordinal < 100; ++ordinal) {
            int owners = 0;
            for (int k = 0; k < count; ++k)
                owners += shardOwnsOrdinal({k, count}, ordinal);
            EXPECT_EQ(owners, 1)
                << count << " shards, ordinal " << ordinal;
        }
    }
    // Unsharded processes own everything.
    EXPECT_TRUE(shardOwnsOrdinal({0, 1}, 17));
}

TEST(ShardBackoff, DoublesPerAttemptUpToTheCap)
{
    EXPECT_EQ(shardBackoffMs(1, 250, 4000), 250);
    EXPECT_EQ(shardBackoffMs(2, 250, 4000), 500);
    EXPECT_EQ(shardBackoffMs(3, 250, 4000), 1000);
    EXPECT_EQ(shardBackoffMs(5, 250, 4000), 4000);
    EXPECT_EQ(shardBackoffMs(50, 250, 4000), 4000); // no overflow
    EXPECT_EQ(shardBackoffMs(1, 0, 4000), 0);
}

TEST(ShardPaths, NamesAreStable)
{
    EXPECT_EQ(shardJournalName(3), "manifest.shard-3.jsonl");
    EXPECT_EQ(shardHeartbeatPath("/x/.shards", 2).string(),
              "/x/.shards/shard-2.hb");
}

TEST(ShardHeartbeat, FreshBeatHasSmallAge)
{
    const fs::path file =
        fs::temp_directory_path() /
        ("syncperf_hb_" + std::to_string(::getpid()));
    shardHeartbeat(file, "testing");
    EXPECT_LT(shardHeartbeatAge(file), 30.0);
    fs::remove(file);
    EXPECT_GT(shardHeartbeatAge(file), 1e6); // missing = very stale
}

// ----------------------------------------------------- supervisor

class ShardSupervisorTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        dir_ = fs::temp_directory_path() /
               ("syncperf_shard_test_" + std::to_string(::getpid()));
        fs::remove_all(dir_);
        fs::create_directories(dir_);
    }

    void
    TearDown() override
    {
        fs::remove_all(dir_);
    }

    /**
     * A fake worker: /bin/sh running @p script. The supervisor
     * appends "--shard-worker k/N" (and possibly "--shard-extra
     * FILE"), which sh maps to $0, $1, ... -- so inside the script,
     * $1 is "k/N" and $3 is the extras file when present.
     */
    ShardSupervisor::Config
    config(const std::string &script,
           std::vector<std::vector<std::string>> assignment)
    {
        ShardSupervisor::Config c;
        c.worker_argv = {"/bin/sh", "-c", script};
        c.control_dir = dir_ / ".shards";
        c.assignment = std::move(assignment);
        c.options.max_retries = 1;
        c.options.backoff_base_ms = 10;
        c.options.backoff_cap_ms = 50;
        c.options.heartbeat_timeout_s = 0.0; // watchdog off
        c.recordedKeys = [] { return std::vector<std::string>{}; };
        return c;
    }

    std::string
    readFile(const fs::path &file)
    {
        std::ifstream in(file);
        std::ostringstream text;
        text << in.rdbuf();
        return text.str();
    }

    fs::path dir_;
};

TEST_F(ShardSupervisorTest, RunsEveryShardOnce)
{
    // Each worker records which shard spec it was handed.
    const std::string script = "echo \"$1\" > " + dir_.string() +
                               "/ran-${1%%/*}; exit 0";
    auto result = ShardSupervisor(
                      config(script, {{"s/a.csv"}, {"s/b.csv"}}))
                      .run();

    EXPECT_TRUE(result.ok());
    EXPECT_EQ(result.spawned, 2);
    EXPECT_EQ(result.retries, 0);
    EXPECT_EQ(result.dead, 0);
    EXPECT_EQ(result.points_reassigned, 0);
    EXPECT_FALSE(result.journaled_failures);
    EXPECT_EQ(readFile(dir_ / "ran-0"), "0/2\n");
    EXPECT_EQ(readFile(dir_ / "ran-1"), "1/2\n");
}

TEST_F(ShardSupervisorTest, WorkerExitOneMeansJournaledFailures)
{
    auto result =
        ShardSupervisor(config("exit 1", {{"s/a.csv"}})).run();
    EXPECT_EQ(result.retries, 0); // not a crash: no respawn
    EXPECT_EQ(result.dead, 0);
    EXPECT_TRUE(result.journaled_failures);
    EXPECT_TRUE(result.leftover.empty());
}

TEST_F(ShardSupervisorTest, CrashingShardRetriesThenReassigns)
{
    const long long retries_before =
        metrics::value(metrics::Counter::ShardRetries);
    const long long dead_before =
        metrics::value(metrics::Counter::ShardsDead);
    const long long reassigned_before =
        metrics::value(metrics::Counter::ShardReassigned);

    // Shard 1 always crashes; shard 0 succeeds and records any
    // extras file it is handed.
    const std::string script =
        "k=${1%%/*}; if [ \"$k\" = 1 ]; then exit 9; fi; "
        "if [ \"$2\" = --shard-extra ]; then cp \"$3\" " +
        dir_.string() + "/extras-seen; fi; exit 0";
    auto result =
        ShardSupervisor(config(script, {{"s/a.csv"},
                                        {"s/b.csv", "s/c.csv"}}))
            .run();

    EXPECT_EQ(result.retries, 1); // max_retries = 1
    EXPECT_EQ(result.dead, 1);
    EXPECT_EQ(result.points_reassigned, 2);
    EXPECT_TRUE(result.leftover.empty());
    ASSERT_EQ(result.shards.size(), 2u);
    EXPECT_FALSE(result.shards[0].dead);
    EXPECT_TRUE(result.shards[1].dead);
    EXPECT_EQ(result.shards[1].last_exit, 9);
    ASSERT_EQ(result.shards[0].extra_points.size(), 2u);
    EXPECT_EQ(result.shards[0].extra_points[0], "s/b.csv");
    EXPECT_EQ(result.shards[0].extra_points[1], "s/c.csv");
    // The survivor was respawned with the reassigned points.
    EXPECT_EQ(readFile(dir_ / "extras-seen"), "s/b.csv\ns/c.csv\n");

    EXPECT_GT(metrics::value(metrics::Counter::ShardRetries),
              retries_before);
    EXPECT_GT(metrics::value(metrics::Counter::ShardsDead),
              dead_before);
    EXPECT_EQ(metrics::value(metrics::Counter::ShardReassigned),
              reassigned_before + 2);
}

TEST_F(ShardSupervisorTest, RecordedPointsAreNotReassigned)
{
    auto c = config("k=${1%%/*}; if [ \"$k\" = 1 ]; then exit 9; "
                    "fi; exit 0",
                    {{"s/a.csv"}, {"s/b.csv", "s/c.csv"}});
    // s/b.csv is already journaled (the dead shard committed it
    // before crashing): only s/c.csv needs a new home.
    c.recordedKeys = [] {
        return std::vector<std::string>{"s/b.csv"};
    };
    auto result = ShardSupervisor(std::move(c)).run();
    EXPECT_EQ(result.points_reassigned, 1);
    ASSERT_EQ(result.shards[0].extra_points.size(), 1u);
    EXPECT_EQ(result.shards[0].extra_points[0], "s/c.csv");
}

TEST_F(ShardSupervisorTest, AllShardsDeadLeavesLeftovers)
{
    auto result = ShardSupervisor(
                      config("exit 9", {{"s/a.csv"}, {"s/b.csv"}}))
                      .run();
    EXPECT_EQ(result.dead, 2);
    EXPECT_FALSE(result.ok());
    // Whichever shard died second had nobody to take its points; at
    // least those are leftover for the caller's inline salvage, and
    // nothing is silently dropped.
    EXPECT_FALSE(result.leftover.empty());
    std::vector<std::string> all = result.leftover;
    for (const ShardState &s : result.shards)
        all.insert(all.end(), s.extra_points.begin(),
                   s.extra_points.end());
    EXPECT_GE(all.size(), 2u);
}

TEST_F(ShardSupervisorTest, WatchdogKillsHungWorker)
{
    const long long timeouts_before =
        metrics::value(metrics::Counter::ShardTimeouts);

    auto c = config("sleep 30", {{"s/a.csv"}});
    c.options.max_retries = 0;
    c.options.heartbeat_timeout_s = 0.3;
    auto result = ShardSupervisor(std::move(c)).run();

    EXPECT_GE(result.timeouts, 1);
    EXPECT_EQ(result.dead, 1);
    ASSERT_EQ(result.shards.size(), 1u);
    EXPECT_EQ(result.shards[0].last_exit, -9); // SIGKILLed
    EXPECT_GT(metrics::value(metrics::Counter::ShardTimeouts),
              timeouts_before);
}

TEST_F(ShardSupervisorTest, HeartbeatKeepsSlowWorkerAlive)
{
    // The worker takes ~1s -- well past the 0.4s timeout -- but
    // beats its heartbeat file continuously, so the watchdog must
    // leave it alone.
    const std::string hb =
        shardHeartbeatPath(dir_ / ".shards", 0).string();
    const std::string script = "i=0; while [ $i -lt 10 ]; do "
                               "echo beat > " +
                               hb +
                               "; sleep 0.1; i=$((i+1)); done; "
                               "exit 0";
    auto c = config(script, {{"s/a.csv"}});
    c.options.heartbeat_timeout_s = 0.4;
    auto result = ShardSupervisor(std::move(c)).run();

    EXPECT_EQ(result.timeouts, 0);
    EXPECT_EQ(result.dead, 0);
    EXPECT_TRUE(result.ok());
}

TEST_F(ShardSupervisorTest, CancellationTerminatesWorkers)
{
    auto c = config("trap 'exit 143' TERM; sleep 30 & wait",
                    {{"s/a.csv"}});
    int polls = 0;
    c.cancelled = [&polls] { return ++polls > 3; };
    auto result = ShardSupervisor(std::move(c)).run();

    EXPECT_TRUE(result.interrupted);
    EXPECT_FALSE(result.ok());
    EXPECT_EQ(result.dead, 0); // cancelled, not crashed
}

} // namespace
} // namespace syncperf::core
