/**
 * @file
 * Implementation of the fault injector.
 */

#include "fault_injector.hh"

#include <charconv>
#include <csignal>
#include <cstdlib>
#include <cstring>

#include <unistd.h>

#include "common/metrics.hh"

namespace syncperf::sim
{
namespace
{

FaultInjector *g_active = nullptr;

} // namespace

bool
FaultInjector::shouldPoisonMeasurement()
{
    const int n = measurement_count_.fetch_add(1) + 1;
    const bool poison = poison_first_ > 0 && n >= poison_first_ &&
                        n < poison_first_ + poison_count_;
    if (poison) {
        injected_count_.fetch_add(1);
        metrics::add(metrics::Counter::FaultsInjected);
    }
    return poison;
}

Status
FaultInjector::onWriteOp(const std::filesystem::path &path,
                         std::string_view op)
{
    const int n = write_op_count_.fetch_add(1) + 1;
    if (fail_write_first_ > 0 && n >= fail_write_first_ &&
        n < fail_write_first_ + fail_write_count_) {
        injected_count_.fetch_add(1);
        metrics::add(metrics::Counter::FaultsInjected);
        return Status::error(ErrorCode::FaultInjected,
                             "injected {} failure for {} (write op {})",
                             op, path.string(),
                             static_cast<long long>(n));
    }
    if (kill_after_csv_commits_ >= 0 && op == "commit" &&
        path.extension() == ".csv" &&
        csv_commit_count_.fetch_add(1) >= kill_after_csv_commits_) {
        // Die the way a crashed shard dies: abruptly, with the CSV
        // already renamed into place but its journal append still
        // pending. SIGKILL cannot be caught, so no cleanup runs.
        injected_count_.fetch_add(1);
        metrics::add(metrics::Counter::FaultsInjected);
        ::kill(::getpid(), SIGKILL);
    }
    return Status::ok();
}

bool
FaultInjector::killShardSpecFromEnv(KillShardSpec &spec)
{
    const char *env = std::getenv("SYNCPERF_FAULT_KILL_SHARD");
    if (env == nullptr || *env == '\0')
        return false;
    // Whole tokens only (see parseShardSpec): no whitespace, no '+',
    // and nothing outside int.
    const char *end = env + std::strlen(env);
    KillShardSpec parsed;
    const auto [colon, ec1] = std::from_chars(env, end, parsed.shard);
    if (ec1 != std::errc{} || colon == end || *colon != ':' ||
        parsed.shard < 0)
        return false;
    const auto [stop, ec2] =
        std::from_chars(colon + 1, end, parsed.commits);
    if (ec2 != std::errc{} || stop != end || parsed.commits < 0)
        return false;
    spec = parsed;
    return true;
}

FaultInjector *
FaultInjector::active()
{
    return g_active;
}

FaultInjector::Scope::Scope(FaultInjector &injector)
    : previous_(g_active)
{
    g_active = &injector;
    previous_hook_ = AtomicFile::setFaultHook(
        [&injector](const std::filesystem::path &path,
                    std::string_view op) {
            return injector.onWriteOp(path, op);
        });
}

FaultInjector::Scope::~Scope()
{
    g_active = previous_;
    AtomicFile::setFaultHook(previous_hook_);
}

} // namespace syncperf::sim
