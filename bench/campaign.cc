/**
 * @file
 * Campaign driver: the repository's analog of the paper artifact's
 * "./launch.py all". Runs the full measurement campaign for every
 * modeled system and writes one CSV per experiment under results/.
 *
 * Resilient by design: every CSV lands via an atomic rename, every
 * experiment is journaled in results/<system>/manifest.json, a
 * failed experiment is recorded and skipped rather than aborting,
 * and --resume continues an interrupted campaign without redoing
 * journaled-complete work. SIGINT/SIGTERM checkpoint the journal
 * and exit with 128+signo, so an interrupted campaign resumes
 * cleanly. Exits nonzero (with a summary) when any experiment
 * failed. See docs/robustness.md.
 *
 * Crash tolerance scales out with --shards N: the process becomes a
 * supervisor that partitions the sweep across N worker processes
 * (respawns of this same binary with --shard-worker k/N), watches
 * their heartbeats, respawns crashed or hung workers with capped
 * exponential backoff, and -- when a shard exhausts its retries --
 * reassigns its unfinished points to the survivors. Workers journal
 * every commit to per-shard append-only logs; the supervisor merges
 * them into manifest.json afterwards, so the result tree is
 * byte-identical to a serial run. docs/robustness.md, "Sharded
 * campaigns", has the failure model.
 */

#include <atomic>
#include <cctype>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "bench_common.hh"
#include "common/flight_recorder.hh"
#include "common/json.hh"
#include "common/metrics.hh"
#include "common/thread_pool.hh"
#include "common/trace.hh"
#include "core/campaign.hh"
#include "core/machine_pool.hh"
#include "core/manifest.hh"
#include "core/metrics.hh"
#include "core/run_status.hh"
#include "core/shard.hh"
#include "core/telemetry.hh"
#include "sim/fault_injector.hh"

using namespace syncperf;
using namespace syncperf::core;
using syncperf::bench::numericFlag;

namespace
{

namespace fs = std::filesystem;

/** Last signal delivered; 0 while none. Polled cooperatively by the
 * campaign (options.cancelled) and by the shard supervisor. */
volatile std::sig_atomic_t g_signal = 0;

void
onSignal(int signo)
{
    g_signal = signo;
}

/** Accumulated outcome across all systems. */
struct Totals
{
    int run = 0;
    int skipped = 0;
    int interrupted = 0;
    std::vector<ExperimentFailure> failures;
    int files = 0;

    /** Per-experiment loop-batching counters of every point this
     * process measured, keyed "<system-slug>/<csv-file>" (feeds the
     * --explain batch-ratio annotation; never an artifact). */
    std::map<std::string, sim::LoopBatchCounters> loop_batch;

    /** Per-system lane-grouping summaries (feeds the --explain lane
     * annotation; never an artifact). */
    std::map<std::string, LaneSummary> lanes;

    void
    fold(const std::string &system, const CampaignResult &r)
    {
        run += r.experiments_run;
        skipped += r.experiments_skipped;
        interrupted += r.experiments_interrupted;
        files += static_cast<int>(r.files_written.size());
        for (const auto &f : r.failures)
            failures.push_back({system + "/" + f.file, f.error});
        for (const auto &lb : r.loop_batch)
            loop_batch[system + "/" + lb.file].merge(lb.counters);
        if (r.lanes.planned())
            lanes[system].merge(r.lanes);
    }
};

void
printSystemLine(const CampaignResult &r)
{
    std::printf("  %d experiments -> %zu files (%d skipped, %zu "
                "failed)\n",
                r.experiments_run, r.files_written.size(),
                r.experiments_skipped, r.failures.size());
}

/** Split a comma-separated --only value into lowercase fragments. */
std::vector<std::string>
parseOnly(const char *arg)
{
    std::vector<std::string> out;
    std::string fragment;
    for (const char *p = arg;; ++p) {
        if (*p == ',' || *p == '\0') {
            if (!fragment.empty())
                out.push_back(fragment);
            fragment.clear();
            if (*p == '\0')
                break;
        } else {
            fragment.push_back(static_cast<char>(
                std::tolower(static_cast<unsigned char>(*p))));
        }
    }
    return out;
}

/** True when @p system matches any --only fragment (or none given). */
bool
systemSelected(const std::vector<std::string> &only,
               const std::string &system)
{
    if (only.empty())
        return true;
    for (const auto &fragment : only) {
        if (system.find(fragment) != std::string::npos)
            return true;
    }
    return false;
}

/** Absolute path of this binary, for respawning shard workers. */
std::string
selfExecutable(const char *argv0)
{
    std::error_code ec;
    const fs::path link = fs::read_symlink("/proc/self/exe", ec);
    if (!ec)
        return link.string();
    return fs::absolute(argv0).string();
}

/** One system's slot in a sharded campaign. */
struct SystemPlan
{
    std::string slug;                 ///< sanitized system name
    fs::path dir;                     ///< results/<slug>
    std::vector<CampaignPoint> points; ///< full enumeration, in order
};

/** Shard bookkeeping for one merged system. */
struct MergeStats
{
    int executed = 0;         ///< unique keys with a journal record
    int duplicate_commits = 0; ///< same key completed by >1 record
};

/**
 * Fold every shard journal of @p plan into its manifest.json (the
 * merge step of a sharded campaign) and delete the journals. The
 * entry order is canonicalized separately, after any salvage.
 */
MergeStats
mergeSystem(const SystemPlan &plan, int shards)
{
    MergeStats stats;
    auto loaded = Manifest::load(plan.dir / "manifest.json");
    Manifest manifest =
        loaded.isOk() ? std::move(loaded).value()
                      : Manifest(plan.dir / "manifest.json");

    std::unordered_map<std::string, int> completes;
    std::unordered_set<std::string> executed;
    std::vector<fs::path> journals;
    for (int k = 0; k < shards; ++k) {
        const fs::path file = plan.dir / shardJournalName(k);
        auto entries = Manifest::loadJournal(file);
        journals.push_back(file);
        if (!entries.isOk())
            continue;
        for (ManifestEntry &entry : entries.value()) {
            executed.insert(entry.key);
            if (entry.complete)
                ++completes[entry.key];
            manifest.absorb(std::move(entry));
        }
    }
    for (const auto &[key, n] : completes) {
        if (n > 1)
            stats.duplicate_commits += n - 1;
    }
    stats.executed = static_cast<int>(executed.size());

    manifest.setSystem(plan.slug);
    if (auto s = manifest.save(); !s.isOk()) {
        std::fprintf(stderr, "cannot merge %s: %s\n",
                     plan.slug.c_str(), s.toString().c_str());
        return stats; // keep the journals for debugging
    }
    std::error_code ec;
    for (const fs::path &file : journals)
        fs::remove(file, ec);
    return stats;
}

/**
 * Rewrite @p plan's manifest with entries in canonical enumeration
 * order (unknown entries keep their relative order at the end),
 * which makes the merged file byte-identical to a serial run's.
 */
void
canonicalizeSystem(const SystemPlan &plan)
{
    auto loaded = Manifest::load(plan.dir / "manifest.json");
    if (!loaded.isOk())
        return;
    const Manifest &merged = loaded.value();

    Manifest ordered(plan.dir / "manifest.json");
    ordered.setSystem(merged.system().empty() ? plan.slug
                                              : merged.system());
    std::unordered_map<std::string, const ManifestEntry *> by_key;
    for (const ManifestEntry &e : merged.entries())
        by_key[e.key] = &e;
    std::unordered_set<std::string> in_enum;
    for (const CampaignPoint &p : plan.points) {
        in_enum.insert(p.file);
        auto it = by_key.find(p.file);
        if (it != by_key.end())
            ordered.absorb(*it->second);
    }
    for (const ManifestEntry &e : merged.entries()) {
        if (in_enum.count(e.key) == 0)
            ordered.absorb(e);
    }
    if (auto s = ordered.save(); !s.isOk()) {
        std::fprintf(stderr, "cannot canonicalize %s: %s\n",
                     plan.slug.c_str(), s.toString().c_str());
    }
}

/** Sweep .tmp strays (and, on a fresh run, stale shard state) from
 * every system directory before any worker spawns. */
void
cleanSystemDir(const fs::path &dir, bool fresh, int shards)
{
    std::error_code ec;
    if (!fs::is_directory(dir, ec))
        return;
    for (const auto &e : fs::directory_iterator(dir, ec)) {
        if (e.is_regular_file() && e.path().extension() == ".tmp")
            fs::remove(e.path(), ec);
    }
    if (fresh) {
        fs::remove(dir / "manifest.json", ec);
        for (int k = 0; k < shards; ++k)
            fs::remove(dir / shardJournalName(k), ec);
    }
}

/** JSON report of a sharded run (--shard-report). */
Status
writeShardReport(const fs::path &file, int shards,
                 const ShardSupervisorResult &sup,
                 int duplicate_commits, int salvaged)
{
    JsonValue root = JsonValue::object();
    root.set("shards", JsonValue(shards));
    root.set("spawned", JsonValue(sup.spawned));
    root.set("retries", JsonValue(sup.retries));
    root.set("timeouts", JsonValue(sup.timeouts));
    root.set("dead", JsonValue(sup.dead));
    root.set("points_reassigned", JsonValue(sup.points_reassigned));
    root.set("duplicate_commits", JsonValue(duplicate_commits));
    root.set("leftover_salvaged", JsonValue(salvaged));
    root.set("degraded",
             JsonValue(sup.dead > 0 || !sup.leftover.empty()));
    root.set("interrupted", JsonValue(sup.interrupted));
    JsonValue states = JsonValue::array();
    for (const ShardState &s : sup.shards) {
        JsonValue st = JsonValue::object();
        st.set("index", JsonValue(s.index));
        st.set("spawns", JsonValue(s.spawns));
        st.set("timeouts", JsonValue(s.timeouts));
        st.set("dead", JsonValue(s.dead));
        st.set("last_exit", JsonValue(s.last_exit));
        JsonValue extras = JsonValue::array();
        for (const std::string &key : s.extra_points)
            extras.push(JsonValue(key));
        st.set("extra_points", std::move(extras));
        states.push(std::move(st));
    }
    root.set("per_shard", std::move(states));

    std::ofstream out(file);
    if (!out)
        return Status::error(ErrorCode::IoError,
                             "cannot write shard report {}",
                             file.string());
    out << root.dump(2) << "\n";
    return Status::ok();
}

/**
 * Fold one shard worker's debounced metrics snapshot into the live
 * status sums. Best-effort: a missing, mid-rename, or torn file is
 * skipped and the next tick re-reads it -- the dashboard tolerates
 * data one debounce interval stale.
 */
void
accumulateShardStatus(const fs::path &file, RunStatus &st)
{
    std::ifstream in(file);
    if (!in)
        return;
    std::ostringstream text;
    text << in.rdbuf();
    auto doc = parseJson(text.str());
    if (!doc.isOk())
        return;
    const JsonValue *counters = doc.value().find("counters");
    const JsonValue *timing = doc.value().find("timing");
    if (counters == nullptr || timing == nullptr)
        return;
    const auto count = [&](const char *name) {
        return static_cast<long long>(counters->numberOr(name, 0));
    };
    st.sim_cache_hits += count("sim_cache_hits");
    st.sim_cache_misses += count("sim_cache_misses");
    st.pool_clones += count("pool_clones");
    st.pool_cold_builds += count("pool_cold_builds");
    st.lane_points += count("lane_points");
    st.lane_singleton_points += count("lane_singleton_points");
    st.loop_batch_windows += count("loop_batch_windows");
    st.loop_batch_fallbacks += count("loop_batch_fallbacks");
    st.pool_tasks_run += static_cast<long long>(
        timing->numberOr("pool_tasks_run", 0));
    st.pool_tasks_stolen += static_cast<long long>(
        timing->numberOr("pool_tasks_stolen", 0));
    st.pool_busy_s += timing->numberOr("pool_busy_s", 0);
    st.pool_idle_s += timing->numberOr("pool_idle_s", 0);
}

} // namespace

int
main(int argc, char **argv)
{
    CampaignOptions options;
    options.jobs = 0; // CLI default: one worker per hardware thread
    bool omp_only = false, cuda_only = false;
    bool metrics_summary = false;
    bool explain = false, explain_only = false;
    bool jobs_given = false;
    int shards = 1;
    ShardSupervisorOptions shard_options;
    std::string shard_report_file;
    std::string shard_extra_file;
    std::string trace_file;
    std::string metrics_file;
    std::string status_file;
    double status_interval = 1.0;
    bool progress = false;
    bool trace_shard = false;
    std::string only_raw, cov_gate_raw;
    bool machine_pool_on = true;
    // Lower bound for flags that want a strictly positive value.
    constexpr double min_positive =
        std::numeric_limits<double>::denorm_min();
    std::vector<std::string> only;
    MeasurementConfig omp_protocol = MeasurementConfig::simDefaults();
    MeasurementConfig cuda_protocol = MeasurementConfig::simGpuDefaults();
    omp_protocol.runs = 1;
    omp_protocol.attempts = 1;
    cuda_protocol.runs = 1;
    cuda_protocol.attempts = 1;

    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
            options.output_dir = argv[++i];
        } else if (std::strcmp(argv[i], "--thorough") == 0) {
            options.quick = false;
        } else if (std::strcmp(argv[i], "--resume") == 0) {
            options.resume = true;
        } else if (std::strcmp(argv[i], "--jobs") == 0 && i + 1 < argc) {
            options.jobs = numericFlag(argv[0], argv[i], argv[i + 1],
                                       "a count >= 1", 1);
            ++i;
            jobs_given = true;
        } else if (std::strcmp(argv[i], "--checkpoint-every") == 0 &&
                   i + 1 < argc) {
            options.checkpoint_every =
                numericFlag(argv[0], argv[i], argv[i + 1],
                            "a count >= 0 (0 = auto)", 0);
            ++i;
        } else if (std::strcmp(argv[i], "--shards") == 0 &&
                   i + 1 < argc) {
            shards = numericFlag(argv[0], argv[i], argv[i + 1],
                                 "a count >= 1", 1);
            ++i;
        } else if (std::strcmp(argv[i], "--shard-worker") == 0 &&
                   i + 1 < argc) {
            auto spec = parseShardSpec(argv[++i]);
            if (!spec.isOk()) {
                std::fprintf(stderr, "%s: %s\n", argv[0],
                             spec.status().toString().c_str());
                return 2;
            }
            options.shard_index = spec.value().index;
            options.shard_count = spec.value().count;
        } else if (std::strcmp(argv[i], "--shard-extra") == 0 &&
                   i + 1 < argc) {
            shard_extra_file = argv[++i];
        } else if (std::strcmp(argv[i], "--shard-timeout") == 0 &&
                   i + 1 < argc) {
            shard_options.heartbeat_timeout_s =
                numericFlag(argv[0], argv[i], argv[i + 1],
                            "seconds > 0", min_positive);
            ++i;
        } else if (std::strcmp(argv[i], "--shard-max-retries") == 0 &&
                   i + 1 < argc) {
            shard_options.max_retries = numericFlag(
                argv[0], argv[i], argv[i + 1], "a count >= 0", 0);
            ++i;
        } else if (std::strcmp(argv[i], "--shard-backoff-ms") == 0 &&
                   i + 1 < argc) {
            shard_options.backoff_base_ms = numericFlag(
                argv[0], argv[i], argv[i + 1], "milliseconds >= 0", 0);
            ++i;
        } else if (std::strcmp(argv[i], "--shard-report") == 0 &&
                   i + 1 < argc) {
            shard_report_file = argv[++i];
        } else if (std::strcmp(argv[i], "--only") == 0 && i + 1 < argc) {
            only_raw = argv[++i];
            only = parseOnly(only_raw.c_str());
        } else if (std::strcmp(argv[i], "--trace") == 0 &&
                   i + 1 < argc) {
            trace_file = argv[++i];
        } else if (std::strcmp(argv[i], "--metrics") == 0 &&
                   i + 1 < argc) {
            metrics_file = argv[++i];
        } else if (std::strcmp(argv[i], "--metrics-summary") == 0) {
            metrics_summary = true;
        } else if (std::strcmp(argv[i], "--status") == 0 &&
                   i + 1 < argc) {
            status_file = argv[++i];
        } else if (std::strcmp(argv[i], "--status-interval") == 0 &&
                   i + 1 < argc) {
            status_interval =
                numericFlag(argv[0], argv[i], argv[i + 1],
                            "seconds > 0", min_positive);
            ++i;
        } else if (std::strcmp(argv[i], "--progress") == 0) {
            progress = true;
        } else if (std::strcmp(argv[i], "--trace-shard") == 0) {
            // Internal: a supervisor passes this to its workers so
            // each exports trace.shard-<k>.json for stitching.
            trace_shard = true;
        } else if (std::strcmp(argv[i], "--cov-gate") == 0 &&
                   i + 1 < argc) {
            const double gate =
                numericFlag(argv[0], argv[i], argv[i + 1],
                            "a coefficient of variation >= 0", 0.0);
            cov_gate_raw = argv[++i];
            omp_protocol.cov_gate = gate;
            cuda_protocol.cov_gate = gate;
        } else if (std::strcmp(argv[i], "--no-sim-cache") == 0) {
            omp_protocol.sim_cache = false;
            cuda_protocol.sim_cache = false;
        } else if (std::strcmp(argv[i], "--no-loop-batch") == 0) {
            omp_protocol.loop_batch = false;
            cuda_protocol.loop_batch = false;
        } else if (std::strcmp(argv[i], "--no-machine-pool") == 0) {
            machine_pool_on = false;
            omp_protocol.machine_pool = false;
            cuda_protocol.machine_pool = false;
        } else if (std::strcmp(argv[i], "--lanes") == 0 &&
                   i + 1 < argc) {
            options.lanes = numericFlag(
                argv[0], argv[i], argv[i + 1],
                "a width >= 1 (use --no-lanes to disable grouping)", 1);
            ++i;
        } else if (std::strcmp(argv[i], "--no-lanes") == 0) {
            options.lanes = 0;
        } else if (std::strcmp(argv[i], "--telemetry") == 0) {
            omp_protocol.telemetry = true;
            cuda_protocol.telemetry = true;
        } else if (std::strcmp(argv[i], "--explain") == 0) {
            explain = true;
            omp_protocol.telemetry = true;
            cuda_protocol.telemetry = true;
        } else if (std::strcmp(argv[i], "--explain-only") == 0) {
            explain = true;
            explain_only = true;
        } else if (std::strcmp(argv[i], "omp") == 0) {
            omp_only = true;
        } else if (std::strcmp(argv[i], "cuda") == 0) {
            cuda_only = true;
        } else if (std::strcmp(argv[i], "--help") == 0) {
            std::printf(
                "usage: %s [omp|cuda] [--out DIR] [--thorough] "
                "[--resume] [--cov-gate COV] [--jobs N] "
                "[--checkpoint-every N] [--shards N] "
                "[--shard-timeout SECS] [--shard-max-retries N] "
                "[--shard-backoff-ms MS] [--shard-report FILE] "
                "[--only NAME[,NAME...]] "
                "[--no-sim-cache] [--no-loop-batch] "
                "[--no-machine-pool] [--lanes N] [--no-lanes] "
                "[--telemetry] [--explain] "
                "[--explain-only] [--trace FILE] [--metrics FILE] "
                "[--metrics-summary] [--status FILE] "
                "[--status-interval SECS] [--progress]\n"
                "  --jobs N   concurrent experiments (default: all "
                "hardware threads; 1 = serial).\n"
                "             Output is byte-identical at every job "
                "count.\n"
                "  --shards N  run the campaign across N supervised "
                "worker processes. Crashed or\n"
                "             hung workers are respawned with backoff; "
                "a worker that keeps dying has\n"
                "             its unfinished points reassigned to the "
                "survivors. Output is\n"
                "             byte-identical at every shard count "
                "(see docs/robustness.md).\n"
                "  --shard-timeout SECS      heartbeat staleness that "
                "counts as hung (default 120).\n"
                "  --shard-max-retries N     respawns per shard before "
                "giving up on it (default 2).\n"
                "  --shard-backoff-ms MS     base respawn backoff, "
                "doubling per retry (default 250).\n"
                "  --shard-report FILE       write a JSON report of "
                "shard lifecycle/degradation.\n"
                "  --no-sim-cache  re-simulate every launch instead "
                "of replaying a measurement's\n"
                "             repeat launches from a memo kept only "
                "while that point is measured\n"
                "             (output is byte-identical either way; "
                "this only trades speed for memory).\n"
                "  --no-loop-batch  single-step every simulated "
                "iteration instead of batching proven\n"
                "             steady-state windows (output is "
                "byte-identical either way; this only\n"
                "             trades speed for nothing -- see "
                "docs/performance.md, \"Loop batching\").\n"
                "  --no-machine-pool  construct a cold simulator "
                "machine per experiment and re-decode\n"
                "             every launch instead of leasing warmed "
                "machines with decoded images\n"
                "             (output is byte-identical either way; "
                "see docs/performance.md,\n"
                "             \"Warm-start machine pool\"). Lane "
                "grouping needs the pool's decoded\n"
                "             images, so this also turns it off, as "
                "--no-lanes does.\n"
                "  --lanes N  lane groups span at most N sweep points "
                "whose programs decode to\n"
                "             identical images; a group simulates its "
                "reference lane once and every\n"
                "             in-step lane shares that walk (output "
                "is byte-identical at every\n"
                "             width -- see docs/performance.md, "
                "\"Lane-batched sweeps\"; default 8).\n"
                "  --no-lanes  bypass the lane planner and measure "
                "every point on its own\n"
                "             simulator (the reference leg; output is "
                "byte-identical either way).\n"
                "  --only     run only systems whose sanitized name "
                "contains a given fragment.\n"
                "  --trace FILE     record spans, write Chrome trace "
                "JSON (Perfetto / chrome://tracing).\n"
                "  --metrics FILE   write the metrics.json snapshot "
                "(see docs/observability.md).\n"
                "  --metrics-summary  print the counter table at "
                "campaign end.\n"
                "  --status FILE    rewrite a live status.json "
                "(schema syncperf-status-v1) on a\n"
                "             debounce timer: points done/total, "
                "experiments/s, ETA, per-shard\n"
                "             liveness, engagement ratios. A "
                "sharded run writes it by default\n"
                "             under <out>/.shards/ (see "
                "docs/observability.md, \"Live run status\").\n"
                "  --status-interval SECS  status debounce interval "
                "(default 1).\n"
                "  --progress   print a one-line status summary to "
                "stderr at each status write.\n"
                "  --telemetry  write one <experiment>.telemetry.json "
                "per CSV with the probe\n"
                "             counters/histograms that explain the "
                "figure shape (byte-identical\n"
                "             at every --jobs count; measured values "
                "are unaffected).\n"
                "  --explain  --telemetry, plus render the probe "
                "charts after the campaign.\n"
                "  --explain-only  skip measuring; render charts from "
                "existing telemetry in --out.\n",
                argv[0]);
            return 0;
        } else if (std::strcmp(argv[i], "--out") == 0 ||
                   std::strcmp(argv[i], "--jobs") == 0 ||
                   std::strcmp(argv[i], "--checkpoint-every") == 0 ||
                   std::strcmp(argv[i], "--shards") == 0 ||
                   std::strcmp(argv[i], "--shard-worker") == 0 ||
                   std::strcmp(argv[i], "--shard-extra") == 0 ||
                   std::strcmp(argv[i], "--shard-timeout") == 0 ||
                   std::strcmp(argv[i], "--shard-max-retries") == 0 ||
                   std::strcmp(argv[i], "--shard-backoff-ms") == 0 ||
                   std::strcmp(argv[i], "--shard-report") == 0 ||
                   std::strcmp(argv[i], "--only") == 0 ||
                   std::strcmp(argv[i], "--trace") == 0 ||
                   std::strcmp(argv[i], "--metrics") == 0 ||
                   std::strcmp(argv[i], "--status") == 0 ||
                   std::strcmp(argv[i], "--status-interval") == 0 ||
                   std::strcmp(argv[i], "--lanes") == 0 ||
                   std::strcmp(argv[i], "--cov-gate") == 0) {
            std::fprintf(stderr, "%s: %s requires a value\n", argv[0],
                         argv[i]);
            return 2;
        } else {
            std::fprintf(stderr,
                         "%s: unknown argument '%s' (try --help)\n",
                         argv[0], argv[i]);
            return 2;
        }
    }

    const bool shard_worker = options.shard_count > 1;
    if (shard_worker && shards > 1) {
        std::fprintf(stderr,
                     "%s: --shards and --shard-worker are mutually "
                     "exclusive\n",
                     argv[0]);
        return 2;
    }

    // The CoV gate needs more than one run to see variance.
    if (omp_protocol.cov_gate > 0.0) {
        omp_protocol.runs = 3;
        cuda_protocol.runs = 3;
    }

    // Checkpoint-and-exit on SIGINT/SIGTERM: the cancellation hook
    // below stops launching new experiments, the journal is flushed
    // on the way out, and the exit code is 128+signo so callers can
    // tell "interrupted after checkpoint" from "failed".
    std::signal(SIGINT, onSignal);
    std::signal(SIGTERM, onSignal);
    options.cancelled = [] { return g_signal != 0; };

    // Shard worker wiring: resume against the merged commit log,
    // beat the heartbeat file at every commit, and (tests only) arm
    // the kill-shard fault when this worker is the targeted shard.
    sim::FaultInjector kill_injector;
    std::optional<sim::FaultInjector::Scope> kill_scope;
    if (shard_worker) {
        options.resume = true;
        if (!shard_extra_file.empty()) {
            std::ifstream in(shard_extra_file);
            std::string line;
            while (std::getline(in, line)) {
                if (!line.empty())
                    options.shard_extra.push_back(line);
            }
        }
        const fs::path control =
            fs::path(options.output_dir) / ".shards";
        const fs::path hb =
            shardHeartbeatPath(control, options.shard_index);
        std::error_code ec;
        fs::create_directories(hb.parent_path(), ec);

        // The crash flight recorder: a file-backed ring the
        // supervisor renders into postmortem.shard-<k>.json when
        // this process dies (the mapping survives SIGKILL via the
        // page cache). Arm it before any measuring.
        flight::Options fopts;
        fopts.file = shardFlightRecorderPath(control,
                                             options.shard_index);
        fopts.label = "shard-" + std::to_string(options.shard_index);
        if (auto s = flight::open(fopts); !s.isOk()) {
            std::fprintf(stderr, "%s: flight recorder: %s\n",
                         argv[0], s.toString().c_str());
        } else {
            flight::installCrashHandlers();
        }

        // Each heartbeat also refreshes this worker's metrics
        // snapshot (debounced to ~1 s), so the supervisor's live
        // status and a crashed worker's last counters are always on
        // disk.
        const fs::path shard_metrics =
            shardMetricsPath(control, options.shard_index);
        auto last_snapshot = std::make_shared<
            std::chrono::steady_clock::time_point>(
            std::chrono::steady_clock::now());
        options.heartbeat = [hb, shard_metrics,
                             last_snapshot](const std::string &note) {
            shardHeartbeat(hb, note);
            const auto now = std::chrono::steady_clock::now();
            if (now - *last_snapshot >= std::chrono::seconds(1)) {
                *last_snapshot = now;
                (void)core::CampaignMetrics::global().writeSnapshot(
                    shard_metrics);
            }
        };

        if (trace_shard) {
            trace_file =
                shardTracePath(control, options.shard_index)
                    .string();
        }
        sim::FaultInjector::KillShardSpec kill_spec;
        if (sim::FaultInjector::killShardSpecFromEnv(kill_spec) &&
            kill_spec.shard == options.shard_index) {
            kill_injector.killAfterCsvCommits(kill_spec.commits);
            kill_scope.emplace(kill_injector);
        }
    }

    if (!trace_file.empty()) {
        // Label the session in sharded runs so every stitched pid
        // track carries a process name.
        std::string trace_label;
        if (shard_worker)
            trace_label =
                "shard-" + std::to_string(options.shard_index);
        else if (shards > 1)
            trace_label = "supervisor";
        if (auto s = trace::start(trace_file, trace_label);
            !s.isOk()) {
            std::fprintf(stderr, "%s: %s\n", argv[0],
                         s.toString().c_str());
            return 2;
        }
        trace::setThreadName("campaign-main");
    }
    // One fresh window per invocation: counters cover this campaign
    // only, so two snapshots of the same configuration are diffable.
    core::CampaignMetrics::global().reset();

    core::MachinePool::global().configure({machine_pool_on, ""});

    // The systems this invocation covers, in canonical order.
    std::vector<cpusim::CpuConfig> cpus;
    std::vector<gpusim::GpuConfig> gpus;
    if (!cuda_only) {
        for (const auto &cpu : {cpusim::CpuConfig::system1(),
                                cpusim::CpuConfig::system2(),
                                cpusim::CpuConfig::system3()}) {
            if (systemSelected(only, sanitizeName(cpu.name)))
                cpus.push_back(cpu);
        }
    }
    if (!omp_only) {
        for (const auto &gpu : {gpusim::GpuConfig::rtx2070Super(),
                                gpusim::GpuConfig::a100(),
                                gpusim::GpuConfig::rtx4090()}) {
            if (systemSelected(only, sanitizeName(gpu.name)))
                gpus.push_back(gpu);
        }
    }

    // Live run-status surface: always on under a supervisor
    // (default <out>/.shards/status.json, so the result tree stays
    // byte-identical to a serial run's), opt-in elsewhere via
    // --status/--progress. Shard workers never write it -- the
    // supervisor owns the campaign-wide view.
    std::optional<RunStatusReporter> reporter;
    if (!shard_worker && !explain_only &&
        (shards > 1 || !status_file.empty() || progress)) {
        const fs::path status_path =
            !status_file.empty()
                ? fs::path(status_file)
                : fs::path(options.output_dir) / ".shards" /
                      "status.json";
        std::error_code ec;
        fs::create_directories(status_path.parent_path(), ec);
        reporter.emplace(status_path, status_interval, progress);
    }

    long long status_total = 0;
    if (reporter && shards <= 1) {
        // Enumerate the sweep up front (no measuring) so done/total
        // and the ETA mean something from the first tick, then hook
        // the debounced write into the ordered-commit heartbeat.
        CampaignOptions enum_options = options;
        enum_options.enumerate_only = true;
        for (const auto &cpu : cpus)
            status_total += static_cast<long long>(
                runOmpCampaign(cpu, omp_protocol, enum_options)
                    .points.size());
        for (const auto &gpu : gpus)
            status_total += static_cast<long long>(
                runCudaCampaign(gpu, cuda_protocol, enum_options)
                    .points.size());
        options.heartbeat = [&reporter,
                             status_total](const std::string &) {
            if (!reporter->due())
                return;
            using metrics::Counter;
            RunStatus st;
            st.points_total = status_total;
            st.points_done =
                metrics::value(Counter::PointsCommitted) +
                metrics::value(Counter::PointsFailed) +
                metrics::value(Counter::PointsSkipped);
            st.fillCountersFromRegistry();
            reporter->tick(st);
        };
    }

    Totals totals;
    int shard_duplicates = 0;
    int shard_salvaged = 0;
    std::optional<ShardSupervisorResult> shard_outcome;
    if (!explain_only && shards > 1) {
        // ------------------------------------------- supervisor mode
        trace::Span campaign_span("campaign", "campaign");

        // Enumerate every system's sweep (no measuring) to build the
        // deterministic shard assignment and the canonical hashes.
        CampaignOptions enum_options = options;
        enum_options.enumerate_only = true;
        std::vector<SystemPlan> plans;
        for (const auto &cpu : cpus) {
            SystemPlan plan;
            plan.slug = sanitizeName(cpu.name);
            plan.dir = fs::path(options.output_dir) / plan.slug;
            plan.points =
                runOmpCampaign(cpu, omp_protocol, enum_options).points;
            plans.push_back(std::move(plan));
        }
        for (const auto &gpu : gpus) {
            SystemPlan plan;
            plan.slug = sanitizeName(gpu.name);
            plan.dir = fs::path(options.output_dir) / plan.slug;
            plan.points =
                runCudaCampaign(gpu, cuda_protocol, enum_options)
                    .points;
            plans.push_back(std::move(plan));
        }

        std::size_t total_points = 0;
        std::unordered_map<std::string, std::uint64_t> canonical_hash;
        std::vector<std::vector<std::string>> assignment(
            static_cast<std::size_t>(shards));
        for (const SystemPlan &plan : plans) {
            cleanSystemDir(plan.dir, !options.resume, shards);
            for (std::size_t ordinal = 0; ordinal < plan.points.size();
                 ++ordinal) {
                const std::string key =
                    plan.slug + "/" + plan.points[ordinal].file;
                canonical_hash[key] = plan.points[ordinal].hash;
                assignment[ordinal % static_cast<std::size_t>(shards)]
                    .push_back(key);
                ++total_points;
            }
        }
        status_total = static_cast<long long>(total_points);

        // The worker command: this binary, this configuration, plus
        // --resume so respawns skip whatever is already journaled.
        std::vector<std::string> worker_argv;
        worker_argv.push_back(selfExecutable(argv[0]));
        if (omp_only)
            worker_argv.push_back("omp");
        if (cuda_only)
            worker_argv.push_back("cuda");
        worker_argv.push_back("--out");
        worker_argv.push_back(options.output_dir);
        if (!options.quick)
            worker_argv.push_back("--thorough");
        worker_argv.push_back("--resume");
        if (!cov_gate_raw.empty()) {
            worker_argv.push_back("--cov-gate");
            worker_argv.push_back(cov_gate_raw);
        }
        if (!omp_protocol.sim_cache)
            worker_argv.push_back("--no-sim-cache");
        if (!omp_protocol.loop_batch)
            worker_argv.push_back("--no-loop-batch");
        if (!omp_protocol.machine_pool)
            worker_argv.push_back("--no-machine-pool");
        if (options.lanes <= 0) {
            worker_argv.push_back("--no-lanes");
        } else if (options.lanes != CampaignOptions{}.lanes) {
            worker_argv.push_back("--lanes");
            worker_argv.push_back(std::to_string(options.lanes));
        }
        if (omp_protocol.telemetry)
            worker_argv.push_back("--telemetry");
        if (!trace_file.empty())
            worker_argv.push_back("--trace-shard");
        if (!only_raw.empty()) {
            worker_argv.push_back("--only");
            worker_argv.push_back(only_raw);
        }
        // Split the machine across workers unless told otherwise.
        const int worker_jobs =
            jobs_given
                ? options.jobs
                : std::max(1, ThreadPool::hardwareConcurrency() /
                                  shards);
        worker_argv.push_back("--jobs");
        worker_argv.push_back(std::to_string(worker_jobs));

        const fs::path control_dir =
            fs::path(options.output_dir) / ".shards";
        ShardSupervisor::Config config;
        config.options = shard_options;
        config.worker_argv = std::move(worker_argv);
        config.control_dir = control_dir;
        config.assignment = std::move(assignment);
        config.cancelled = [] { return g_signal != 0; };
        const auto recorded_keys = [&plans, &canonical_hash,
                                    shards]() {
            std::vector<std::string> keys;
            for (const SystemPlan &plan : plans) {
                const auto consider = [&](const ManifestEntry &e,
                                          bool from_journal) {
                    // Journal records are this run's own commits:
                    // complete or failed, the work happened and must
                    // not be redone. manifest.json completes only
                    // count under a matching hash (--resume rules);
                    // its failures are from an older run and should
                    // be re-attempted, so they don't count.
                    if (!from_journal && !e.complete)
                        return;
                    const std::string key = plan.slug + "/" + e.key;
                    const auto it = canonical_hash.find(key);
                    if (it != canonical_hash.end() &&
                        it->second == e.config_hash)
                        keys.push_back(key);
                };
                if (auto m =
                        Manifest::load(plan.dir / "manifest.json");
                    m.isOk()) {
                    for (const ManifestEntry &e : m.value().entries())
                        consider(e, false);
                }
                for (int k = 0; k < shards; ++k) {
                    auto entries = Manifest::loadJournal(
                        plan.dir / shardJournalName(k));
                    if (!entries.isOk())
                        continue;
                    for (const ManifestEntry &e : entries.value())
                        consider(e, true);
                }
            }
            return keys;
        };
        config.recordedKeys = recorded_keys;
        config.status_tick =
            [&reporter, &recorded_keys, control_dir, total_points,
             shards](const std::vector<ShardLiveStatus> &live) {
                if (!reporter || !reporter->due())
                    return;
                RunStatus st;
                st.points_total =
                    static_cast<long long>(total_points);
                st.points_done = static_cast<long long>(
                    recorded_keys().size());
                for (const ShardLiveStatus &w : live) {
                    RunStatusShard s;
                    s.shard = w.index;
                    s.heartbeat_age_s = w.heartbeat_age_s;
                    s.respawns = w.retries;
                    s.running = w.running;
                    s.dead = w.dead;
                    st.shards.push_back(s);
                }
                for (int k = 0; k < shards; ++k)
                    accumulateShardStatus(
                        shardMetricsPath(control_dir, k), st);
                reporter->tick(st);
            };

        std::printf("sharded campaign: %zu points across %d worker "
                    "processes...\n",
                    total_points, shards);
        ShardSupervisor supervisor(std::move(config));
        shard_outcome = supervisor.run();

        // Merge every shard's commit log into the per-system
        // manifests -- this is the supervisor's checkpoint, so it
        // runs even when interrupted.
        int executed = 0;
        for (const SystemPlan &plan : plans) {
            const MergeStats stats = mergeSystem(plan, shards);
            executed += stats.executed;
            shard_duplicates += stats.duplicate_commits;
        }

        // Points every eligible shard died on are salvaged inline:
        // a plain resume reruns exactly the unjournaled remainder.
        if (!shard_outcome->leftover.empty() &&
            !shard_outcome->interrupted) {
            std::printf("degraded: salvaging %zu leftover points "
                        "inline...\n",
                        shard_outcome->leftover.size());
            CampaignOptions salvage = options;
            salvage.resume = true;
            for (const auto &cpu : cpus) {
                const auto r =
                    runOmpCampaign(cpu, omp_protocol, salvage);
                shard_salvaged += r.experiments_run;
                totals.fold(sanitizeName(cpu.name), r);
            }
            for (const auto &gpu : gpus) {
                const auto r =
                    runCudaCampaign(gpu, cuda_protocol, salvage);
                shard_salvaged += r.experiments_run;
                totals.fold(sanitizeName(gpu.name), r);
            }
            totals.run = 0; // recomputed from the journals below
        }

        // Canonical entry order, and the final accounting from the
        // merged manifests (the workers' own counters died with
        // their processes; the commit log is the durable record).
        int files = 0, failed = 0;
        std::unordered_set<std::string> resolved;
        for (const SystemPlan &plan : plans) {
            canonicalizeSystem(plan);
            auto loaded = Manifest::load(plan.dir / "manifest.json");
            if (!loaded.isOk())
                continue;
            for (const ManifestEntry &e : loaded.value().entries()) {
                const std::string key = plan.slug + "/" + e.key;
                const auto it = canonical_hash.find(key);
                if (it == canonical_hash.end() ||
                    it->second != e.config_hash)
                    continue;
                resolved.insert(key);
                if (e.complete) {
                    ++files;
                } else {
                    ++failed;
                    totals.failures.push_back({key, e.error});
                }
            }
        }
        // Salvage (or a late journal append) may have covered what
        // the supervisor queued as leftovers; only points still
        // absent from every manifest are truly unrecoverable.
        std::erase_if(shard_outcome->leftover,
                      [&resolved](const std::string &key) {
                          return resolved.count(key) > 0;
                      });
        totals.run = executed + shard_salvaged;
        totals.files = files;
        totals.skipped = static_cast<int>(total_points) - files - failed;
        if (totals.skipped < 0)
            totals.skipped = 0;

        // Merge the workers' final metrics snapshots into this
        // registry: on a clean run the deterministic counters sum
        // to exactly a serial run's values, and the snapshot's
        // supervisor/shards rows partition the totals
        // (check_metrics.py gates both). A shard that died between
        // snapshot writes contributes its last debounced state, so
        // degraded runs merge approximately -- the caveat is
        // documented in docs/observability.md.
        for (int k = 0; k < shards; ++k) {
            const fs::path mf = shardMetricsPath(control_dir, k);
            std::error_code mec;
            if (!fs::exists(mf, mec))
                continue;
            if (auto s = core::CampaignMetrics::global()
                             .foldShardSnapshot(k, mf);
                !s.isOk()) {
                std::fprintf(stderr, "%s: %s\n", argv[0],
                             s.toString().c_str());
            }
        }

        if (!shard_report_file.empty()) {
            if (auto s = writeShardReport(
                    shard_report_file, shards, *shard_outcome,
                    shard_duplicates, shard_salvaged);
                !s.isOk()) {
                std::fprintf(stderr, "%s: %s\n", argv[0],
                             s.toString().c_str());
            }
        }
        std::printf("  %d shard workers spawned (%d retries, %d "
                    "timeouts, %d dead, %d points reassigned)\n",
                    shard_outcome->spawned, shard_outcome->retries,
                    shard_outcome->timeouts, shard_outcome->dead,
                    shard_outcome->points_reassigned);
        // The .shards control directory (worker logs, shard traces
        // and metrics, postmortems, status.json) is cleaned at the
        // very end of main, after trace stitching and the final
        // status write -- and only when nothing went wrong.
    } else if (!explain_only) {
        // -------------------------------- in-process (serial) mode
        // Scoped so the campaign-level span closes before the trace
        // session flushes below.
        trace::Span campaign_span("campaign", "campaign");
        for (const auto &cpu : cpus) {
            if (g_signal != 0)
                break;
            std::printf("OpenMP campaign on %s...\n", cpu.name.c_str());
            const auto r = runOmpCampaign(cpu, omp_protocol, options);
            printSystemLine(r);
            totals.fold(sanitizeName(cpu.name), r);
        }
        for (const auto &gpu : gpus) {
            if (g_signal != 0)
                break;
            std::printf("CUDA campaign on %s...\n", gpu.name.c_str());
            const auto r = runCudaCampaign(gpu, cuda_protocol, options);
            printSystemLine(r);
            totals.fold(sanitizeName(gpu.name), r);
        }
    }

    if (!trace_file.empty()) {
        if (auto s = trace::stop(); !s.isOk()) {
            std::fprintf(stderr, "%s: cannot write trace: %s\n",
                         argv[0], s.toString().c_str());
        } else if (shards > 1) {
            // Stitch the supervisor's own trace and every shard's
            // export into one Perfetto-loadable timeline, each
            // file's timestamps aligned via its wall-clock anchor.
            std::vector<fs::path> inputs;
            inputs.push_back(trace_file);
            const fs::path control =
                fs::path(options.output_dir) / ".shards";
            for (int k = 0; k < shards; ++k)
                inputs.push_back(shardTracePath(control, k));
            if (auto st = trace::stitch(inputs, trace_file);
                !st.isOk()) {
                std::fprintf(stderr,
                             "%s: cannot stitch trace: %s\n",
                             argv[0], st.toString().c_str());
            } else {
                std::printf("stitched trace written to %s (open in "
                            "ui.perfetto.dev or chrome://tracing)\n",
                            trace_file.c_str());
            }
        } else {
            std::printf("trace written to %s (open in "
                        "ui.perfetto.dev or chrome://tracing)\n",
                        trace_file.c_str());
        }
    }
    if (shard_worker) {
        // Final snapshot -- the debounced heartbeat writes can be
        // up to a second stale, and the supervisor's merge wants
        // this worker's complete counters -- then ring teardown.
        (void)core::CampaignMetrics::global().writeSnapshot(
            shardMetricsPath(fs::path(options.output_dir) /
                                 ".shards",
                             options.shard_index));
        flight::close();
    }
    if (!metrics_file.empty()) {
        const auto &m = core::CampaignMetrics::global();
        if (auto s = m.writeSnapshot(metrics_file); !s.isOk()) {
            std::fprintf(stderr, "%s: cannot write metrics: %s\n",
                         argv[0], s.toString().c_str());
        } else {
            std::printf("metrics written to %s\n",
                        metrics_file.c_str());
        }
    }
    if (metrics_summary) {
        std::fputs(
            core::CampaignMetrics::global().summaryTable().c_str(),
            stdout);
    }
    if (explain) {
        std::printf("\n");
        if (auto s = explainCampaign(
                options.output_dir, std::cout,
                totals.loop_batch.empty() ? nullptr
                                          : &totals.loop_batch,
                totals.lanes.empty() ? nullptr : &totals.lanes);
            !s.isOk()) {
            std::fprintf(stderr, "%s: %s\n", argv[0],
                         s.toString().c_str());
            return 1;
        }
        if (explain_only)
            return 0;
    }

    const bool interrupted =
        g_signal != 0 || totals.interrupted > 0 ||
        (shard_outcome && shard_outcome->interrupted);

    // Final status write: the terminal state, counters from the
    // (merged, in a sharded run) registry.
    if (reporter) {
        using metrics::Counter;
        const bool degraded =
            !totals.failures.empty() ||
            (shard_outcome && (shard_outcome->dead > 0 ||
                               !shard_outcome->leftover.empty()));
        RunStatus st;
        st.state = interrupted   ? "interrupted"
                   : degraded    ? "degraded"
                                 : "finished";
        st.points_total = status_total;
        st.points_done = metrics::value(Counter::PointsCommitted) +
                         metrics::value(Counter::PointsFailed) +
                         metrics::value(Counter::PointsSkipped);
        st.fillCountersFromRegistry();
        if (shard_outcome) {
            const fs::path control =
                fs::path(options.output_dir) / ".shards";
            for (const ShardState &w : shard_outcome->shards) {
                RunStatusShard s;
                s.shard = w.index;
                s.respawns = w.spawns > 0 ? w.spawns - 1 : 0;
                s.running = false;
                s.dead = w.dead;
                s.heartbeat_age_s = shardHeartbeatAge(
                    shardHeartbeatPath(control, w.index));
                st.shards.push_back(s);
            }
        }
        reporter->force(st);
    }

    // Worker logs, heartbeats, shard traces/metrics, postmortems,
    // and the default status.json are debugging artifacts; keep the
    // .shards directory only when something went wrong.
    if (shard_outcome && shard_outcome->dead == 0 &&
        shard_outcome->retries == 0 &&
        shard_outcome->timeouts == 0 &&
        shard_outcome->leftover.empty() && totals.failures.empty() &&
        !interrupted) {
        std::error_code ec;
        fs::remove_all(fs::path(options.output_dir) / ".shards", ec);
    }

    std::printf("\ncampaign %s: %d CSV files under %s/ "
                "(%d experiments run, %d resumed-skipped, %zu failed)\n",
                interrupted ? "INTERRUPTED"
                : totals.failures.empty() ? "complete"
                                          : "DEGRADED",
                totals.files, options.output_dir.c_str(), totals.run,
                totals.skipped, totals.failures.size());
    if (interrupted) {
        std::printf("interrupted by signal %d after checkpointing; "
                    "rerun with --resume to continue\n",
                    static_cast<int>(g_signal));
        return 128 + (g_signal != 0 ? g_signal : SIGTERM);
    }
    if (!totals.failures.empty()) {
        std::printf("failed experiments (journaled in each system's "
                    "manifest.json; rerun with --resume):\n");
        for (const auto &f : totals.failures)
            std::printf("  %s: %s\n", f.file.c_str(), f.error.c_str());
        return 1;
    }
    if (shard_outcome && !shard_outcome->leftover.empty()) {
        std::printf("unrecoverable: %zu points could not be run by "
                    "any shard or salvage\n",
                    shard_outcome->leftover.size());
        return 1;
    }
    return 0;
}
