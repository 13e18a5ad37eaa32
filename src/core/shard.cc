/**
 * @file
 * Implementation of the shard supervisor.
 */

#include "shard.hh"

#include <algorithm>
#include <charconv>
#include <chrono>
#include <csignal>
#include <fstream>
#include <thread>
#include <unordered_set>

#include <fcntl.h>
#include <sys/wait.h>
#include <unistd.h>

#include "common/flight_recorder.hh"
#include "common/logging.hh"
#include "common/metrics.hh"
#include "common/trace.hh"

namespace syncperf::core
{
namespace
{

namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;

} // namespace

std::string
ShardSpec::toString() const
{
    return std::to_string(index) + "/" + std::to_string(count);
}

Result<ShardSpec>
parseShardSpec(std::string_view text)
{
    // Whole tokens only: std::from_chars takes no whitespace or '+'
    // and reports a value outside int instead of wrapping it.
    const auto whole = [](std::string_view tok, int &out) {
        const char *end = tok.data() + tok.size();
        const auto [ptr, ec] = std::from_chars(tok.data(), end, out);
        return ec == std::errc{} && ptr == end;
    };
    const std::string copy(text);
    const std::size_t slash = text.find('/');
    ShardSpec spec;
    if (slash == std::string_view::npos ||
        !whole(text.substr(0, slash), spec.index) ||
        !whole(text.substr(slash + 1), spec.count)) {
        return Status::error(ErrorCode::InvalidArgument,
                             "shard spec '{}' is not of the form k/N",
                             copy);
    }
    if (spec.count < 1 || spec.index < 0 || spec.index >= spec.count) {
        return Status::error(ErrorCode::InvalidArgument,
                             "shard spec '{}' needs 0 <= k < N", copy);
    }
    return spec;
}

int
shardBackoffMs(int attempt, int base_ms, int cap_ms)
{
    if (base_ms < 0)
        base_ms = 0;
    if (cap_ms < base_ms)
        cap_ms = base_ms;
    long long ms = base_ms;
    for (int i = 1; i < attempt && ms < cap_ms; ++i)
        ms *= 2;
    return static_cast<int>(std::min<long long>(ms, cap_ms));
}

fs::path
shardHeartbeatPath(const fs::path &control_dir, int shard)
{
    return control_dir / ("shard-" + std::to_string(shard) + ".hb");
}

fs::path
shardFlightRecorderPath(const fs::path &control_dir, int shard)
{
    return control_dir / ("flight-" + std::to_string(shard) + ".ring");
}

fs::path
shardPostmortemPath(const fs::path &control_dir, int shard)
{
    return control_dir /
           ("postmortem.shard-" + std::to_string(shard) + ".json");
}

fs::path
shardTracePath(const fs::path &control_dir, int shard)
{
    return control_dir /
           ("trace.shard-" + std::to_string(shard) + ".json");
}

fs::path
shardMetricsPath(const fs::path &control_dir, int shard)
{
    return control_dir /
           ("metrics.shard-" + std::to_string(shard) + ".json");
}

std::string
shardJournalName(int shard)
{
    return "manifest.shard-" + std::to_string(shard) + ".jsonl";
}

void
shardHeartbeat(const fs::path &file, std::string_view note)
{
    // Plain truncate-and-rewrite: the beat is the mtime, and nobody
    // parses the note, so a torn heartbeat is harmless.
    std::ofstream out(file, std::ios::trunc);
    out << note << "\n";
}

double
shardHeartbeatAge(const fs::path &file)
{
    std::error_code ec;
    const auto mtime = fs::last_write_time(file, ec);
    if (ec)
        return 1e9; // never beaten
    const auto now = fs::file_time_type::clock::now();
    const double age =
        std::chrono::duration_cast<std::chrono::duration<double>>(
            now - mtime)
            .count();
    return age < 0.0 ? 0.0 : age;
}

// ----------------------------------------------------- supervisor

struct ShardSupervisor::Worker
{
    enum class Phase
    {
        Idle,    ///< never spawned yet
        Running, ///< process alive (or awaiting reap)
        Backoff, ///< crashed; respawn once backoff_until passes
        Done,    ///< finished its assignment (may respawn for extras)
        Dead,    ///< abandoned after max_retries
    };

    int index = 0;
    Phase phase = Phase::Idle;
    pid_t pid = -1;
    int retries = 0;  ///< respawns consumed after crashes/timeouts
    int spawns = 0;
    int timeouts = 0;
    int last_exit = -1; ///< exit code, or -signo when signaled
    bool journaled_failures = false;
    bool interrupted = false;
    bool timed_out = false; ///< watchdog killed the current process
    Clock::time_point backoff_until{};
    std::vector<std::string> extras;   ///< reassigned point keys
    std::size_t extras_dispatched = 0; ///< extras covered by last spawn
};

ShardSupervisor::ShardSupervisor(Config config)
    : config_(std::move(config))
{
}

ShardSupervisor::~ShardSupervisor()
{
    terminateAll();
}

ShardSupervisorResult
ShardSupervisor::run()
{
    fs::create_directories(config_.control_dir);
    workers_.clear();
    workers_.resize(config_.assignment.size());
    for (std::size_t k = 0; k < workers_.size(); ++k)
        workers_[k].index = static_cast<int>(k);

    const auto pending = [this]() {
        for (const Worker &w : workers_) {
            switch (w.phase) {
            case Worker::Phase::Idle:
            case Worker::Phase::Running:
            case Worker::Phase::Backoff:
                return true;
            case Worker::Phase::Done:
                if (w.extras.size() > w.extras_dispatched)
                    return true; // reassigned points still to run
                break;
            case Worker::Phase::Dead:
                break;
            }
        }
        return false;
    };

    ShardSupervisorResult result;
    while (pending()) {
        if (config_.cancelled && config_.cancelled()) {
            result.interrupted = true;
            terminateAll();
            break;
        }
        while (reapOne()) {
        }
        watchdog();
        if (config_.status_tick) {
            std::vector<ShardLiveStatus> live;
            live.reserve(workers_.size());
            for (const Worker &w : workers_) {
                ShardLiveStatus s;
                s.index = w.index;
                s.running = w.phase == Worker::Phase::Running;
                s.dead = w.phase == Worker::Phase::Dead;
                s.spawns = w.spawns;
                s.retries = w.retries;
                s.heartbeat_age_s = shardHeartbeatAge(
                    shardHeartbeatPath(config_.control_dir,
                                       w.index));
                live.push_back(s);
            }
            config_.status_tick(live);
        }
        const auto now = Clock::now();
        for (Worker &w : workers_) {
            const bool due =
                w.phase == Worker::Phase::Idle ||
                (w.phase == Worker::Phase::Backoff &&
                 now >= w.backoff_until) ||
                (w.phase == Worker::Phase::Done &&
                 w.extras.size() > w.extras_dispatched);
            if (due)
                spawn(w);
        }
        std::this_thread::sleep_for(std::chrono::duration<double>(
            config_.options.poll_interval_s));
    }

    // Late journal appends (a dead shard's final commits landing just
    // before the SIGKILL) may have covered points we queued as
    // leftovers; trust the commit log over our bookkeeping.
    if (!leftover_.empty() && config_.recordedKeys) {
        std::unordered_set<std::string> recorded;
        for (std::string &key : config_.recordedKeys())
            recorded.insert(std::move(key));
        std::erase_if(leftover_, [&](const std::string &key) {
            return recorded.count(key) > 0;
        });
    }

    result.leftover = leftover_;
    result.points_reassigned = points_reassigned_;
    for (const Worker &w : workers_) {
        ShardState state;
        state.index = w.index;
        state.spawns = w.spawns;
        state.timeouts = w.timeouts;
        state.dead = w.phase == Worker::Phase::Dead;
        state.last_exit = w.last_exit;
        state.extra_points = w.extras;
        result.spawned += w.spawns;
        result.retries += w.retries;
        result.timeouts += w.timeouts;
        result.dead += state.dead ? 1 : 0;
        result.journaled_failures |= w.journaled_failures;
        result.interrupted |= w.interrupted;
        result.shards.push_back(std::move(state));
    }
    return result;
}

void
ShardSupervisor::spawn(Worker &w)
{
    const ShardSpec spec{w.index,
                         static_cast<int>(config_.assignment.size())};
    const std::string tag = "shard-" + std::to_string(w.index);
    trace::Span span(tag + " spawn", "shard");

    std::vector<std::string> argv = config_.worker_argv;
    argv.push_back("--shard-worker");
    argv.push_back(spec.toString());
    if (!w.extras.empty()) {
        const fs::path extra_file =
            config_.control_dir / (tag + ".extra");
        std::ofstream out(extra_file, std::ios::trunc);
        for (const std::string &key : w.extras)
            out << key << "\n";
        argv.push_back("--shard-extra");
        argv.push_back(extra_file.string());
    }
    w.extras_dispatched = w.extras.size();

    // Baseline beat: the watchdog clock starts at "just spawned",
    // not at whenever the previous incarnation last beat.
    shardHeartbeat(shardHeartbeatPath(config_.control_dir, w.index),
                   "spawned");

    std::vector<char *> cargv;
    cargv.reserve(argv.size() + 1);
    for (std::string &arg : argv)
        cargv.push_back(arg.data());
    cargv.push_back(nullptr);

    const fs::path log = config_.control_dir / (tag + ".log");
    const pid_t pid = ::fork();
    if (pid < 0) {
        warn("shard {}: fork failed; treating as a crash", w.index);
        handleCrash(w, false);
        return;
    }
    if (pid == 0) {
        // Child: worker output goes to the per-shard log so the
        // supervisor's own stdout stays readable (and so a crashed
        // shard leaves its last words behind as an artifact).
        const int fd = ::open(log.c_str(),
                              O_WRONLY | O_CREAT | O_APPEND, 0644);
        if (fd >= 0) {
            ::dup2(fd, STDOUT_FILENO);
            ::dup2(fd, STDERR_FILENO);
            if (fd > STDERR_FILENO)
                ::close(fd);
        }
        ::execv(cargv[0], cargv.data());
        ::_exit(127); // exec failed; reported as a crash
    }

    w.pid = pid;
    w.phase = Worker::Phase::Running;
    w.timed_out = false;
    ++w.spawns;
    metrics::add(metrics::Counter::ShardsSpawned);
}

bool
ShardSupervisor::reapOne()
{
    for (Worker &w : workers_) {
        if (w.phase != Worker::Phase::Running || w.pid <= 0)
            continue;
        int wstatus = 0;
        if (::waitpid(w.pid, &wstatus, WNOHANG) == w.pid) {
            handleExit(w, wstatus);
            return true;
        }
    }
    return false;
}

void
ShardSupervisor::watchdog()
{
    const double timeout = config_.options.heartbeat_timeout_s;
    if (timeout <= 0.0)
        return;
    for (Worker &w : workers_) {
        if (w.phase != Worker::Phase::Running || w.pid <= 0)
            continue;
        const double age = shardHeartbeatAge(
            shardHeartbeatPath(config_.control_dir, w.index));
        metrics::recordMax(metrics::Counter::ShardMaxHeartbeatAgeMs,
                           static_cast<long long>(age * 1000.0));
        if (age > timeout) {
            warn("shard {}: heartbeat stale for {} s (timeout {} s); "
                 "killing worker",
                 w.index, age, timeout);
            w.timed_out = true;
            ::kill(w.pid, SIGKILL);
            // The reap loop picks up the corpse and routes it
            // through the crash path with timed_out set.
        }
    }
}

void
ShardSupervisor::handleExit(Worker &w, int wstatus)
{
    w.pid = -1;
    const bool was_timeout = w.timed_out;
    w.timed_out = false;

    if (WIFEXITED(wstatus)) {
        const int code = WEXITSTATUS(wstatus);
        w.last_exit = code;
        switch (code) {
        case 0:
            w.phase = Worker::Phase::Done;
            return;
        case 1:
            // The worker ran everything; some experiments failed and
            // are journaled as such. Respawning cannot help.
            w.phase = Worker::Phase::Done;
            w.journaled_failures = true;
            return;
        case 2:
            // Usage error: the same argv will be rejected again.
            warn("shard {}: worker rejected its command line; "
                 "abandoning the shard",
                 w.index);
            markDead(w);
            return;
        case 130:
        case 143:
            // Interrupted after checkpointing. Expected while we
            // are cancelling; a crash-equivalent otherwise (someone
            // signaled the worker behind our back).
            if (config_.cancelled && config_.cancelled()) {
                w.phase = Worker::Phase::Done;
                w.interrupted = true;
                return;
            }
            break;
        default:
            break;
        }
    } else if (WIFSIGNALED(wstatus)) {
        w.last_exit = -WTERMSIG(wstatus);
    } else {
        w.last_exit = -1;
    }
    handleCrash(w, was_timeout);
}

void
ShardSupervisor::renderPostmortem(const Worker &w)
{
    // Render before any respawn: the next incarnation truncates the
    // ring at startup. Unit tests drive fake /bin/sh workers that
    // never open a ring, so a missing file is simply no postmortem.
    const fs::path ring =
        shardFlightRecorderPath(config_.control_dir, w.index);
    std::error_code ec;
    if (!fs::exists(ring, ec))
        return;
    const fs::path out =
        shardPostmortemPath(config_.control_dir, w.index);
    if (Status s = flight::renderPostmortem(ring, out);
        !s.isOk()) {
        warn("shard {}: postmortem render failed: {}", w.index,
             s.message());
    } else {
        inform("shard {}: postmortem written to {}", w.index,
               out.string());
    }
}

void
ShardSupervisor::handleCrash(Worker &w, bool timed_out)
{
    renderPostmortem(w);
    if (timed_out) {
        ++w.timeouts;
        metrics::add(metrics::Counter::ShardTimeouts);
    }
    if (w.retries < config_.options.max_retries) {
        ++w.retries;
        metrics::add(metrics::Counter::ShardRetries);
        const int delay = shardBackoffMs(
            w.retries, config_.options.backoff_base_ms,
            config_.options.backoff_cap_ms);
        w.backoff_until =
            Clock::now() + std::chrono::milliseconds(delay);
        w.phase = Worker::Phase::Backoff;
        inform("shard {}: worker died (status {}); retry {} of {} "
               "in {} ms",
               w.index, w.last_exit, w.retries,
               config_.options.max_retries, delay);
    } else {
        markDead(w);
    }
}

void
ShardSupervisor::markDead(Worker &w)
{
    // The usage-error path (exit 2) reaches here without going
    // through handleCrash; rendering twice just overwrites the same
    // file.
    renderPostmortem(w);
    w.phase = Worker::Phase::Dead;
    metrics::add(metrics::Counter::ShardsDead);
    warn("shard {}: abandoned after {} retries (last status {}); "
         "reassigning its unfinished points",
         w.index, w.retries, w.last_exit);
    reassignFromDead(w);
}

void
ShardSupervisor::reassignFromDead(Worker &dead)
{
    const std::string tag = "shard-" + std::to_string(dead.index);
    trace::Span span(tag + " reassign", "shard");

    std::vector<Worker *> targets;
    for (Worker &w : workers_) {
        if (w.index != dead.index && w.phase != Worker::Phase::Dead)
            targets.push_back(&w);
    }

    for (std::string &key : unrecordedPointsOf(dead)) {
        // One reassignment per point: if its adoptive shard dies
        // too, the point goes to the leftover pile for the caller's
        // inline salvage instead of ping-ponging between corpses.
        if (targets.empty() ||
            !reassigned_once_.insert(key).second) {
            leftover_.push_back(std::move(key));
            continue;
        }
        Worker &target =
            *targets[static_cast<std::size_t>(reassign_cursor_++) %
                     targets.size()];
        target.extras.push_back(std::move(key));
        ++points_reassigned_;
        metrics::add(metrics::Counter::ShardReassigned);
    }
}

std::vector<std::string>
ShardSupervisor::unrecordedPointsOf(const Worker &w) const
{
    std::unordered_set<std::string> recorded;
    if (config_.recordedKeys) {
        for (std::string &key : config_.recordedKeys())
            recorded.insert(std::move(key));
    }
    std::vector<std::string> points;
    const auto take = [&](const std::vector<std::string> &keys) {
        for (const std::string &key : keys) {
            if (recorded.count(key) == 0)
                points.push_back(key);
        }
    };
    take(config_.assignment[static_cast<std::size_t>(w.index)]);
    take(w.extras);
    return points;
}

void
ShardSupervisor::terminateAll()
{
    bool any = false;
    for (Worker &w : workers_) {
        if (w.phase == Worker::Phase::Running && w.pid > 0) {
            ::kill(w.pid, SIGTERM);
            any = true;
        }
    }
    if (!any)
        return;

    // Grace period: workers checkpoint on SIGTERM and exit 143.
    const auto deadline = Clock::now() + std::chrono::seconds(5);
    while (Clock::now() < deadline) {
        bool alive = false;
        for (Worker &w : workers_) {
            if (w.phase != Worker::Phase::Running || w.pid <= 0)
                continue;
            int wstatus = 0;
            if (::waitpid(w.pid, &wstatus, WNOHANG) == w.pid) {
                w.pid = -1;
                w.phase = Worker::Phase::Done;
                w.interrupted = true;
                w.last_exit = WIFEXITED(wstatus)
                                  ? WEXITSTATUS(wstatus)
                                  : -WTERMSIG(wstatus);
            } else {
                alive = true;
            }
        }
        if (!alive)
            return;
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }

    for (Worker &w : workers_) {
        if (w.phase != Worker::Phase::Running || w.pid <= 0)
            continue;
        ::kill(w.pid, SIGKILL);
        int wstatus = 0;
        ::waitpid(w.pid, &wstatus, 0);
        w.pid = -1;
        w.phase = Worker::Phase::Done;
        w.interrupted = true;
        w.last_exit = -SIGKILL;
    }
}

} // namespace syncperf::core
