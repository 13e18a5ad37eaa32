/**
 * @file
 * SyncPerf benchmark driver: runs one benchmark workload in-process
 * through the libraries' public entry points and writes a JSON report
 * of raw samples. perfbench/run.py builds this binary, runs it, checks
 * its output trees, and turns the report into metrics.
 *
 * Modes (--mode):
 *   setup        construct the workload's presets and enumerate its
 *                sweeps (enumerate_only campaign calls), print
 *                "setup-done <points>", exit. run.py times it from
 *                process spawn to that line.
 *   run          untraced sweeps for --untraced-seconds (at least
 *                one); with --trace-file, traced sweeps for
 *                --traced-seconds (at least one) and then one replay
 *                of every sweep point through the target layer
 *                (Cpu/GpuSimTarget::measure) and the machine layer
 *                (Cpu/GpuMachine::run). Traced phases record spans
 *                around every call into a layer.
 *   golden       one sweep with every fast path off (loop batching,
 *                lanes, machine pool, sim cache), serial, into --out:
 *                the reference tree the golden digests come from.
 *   fingerprint  print the build's identity as JSON.
 *
 * A sweep is the workload's campaign calls in the campaign CLI's
 * order and protocol settings; each sweep writes its own tree under
 * --out. Counters are read from the metrics registry, which is reset
 * before every sweep and before the replay.
 */

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/atomic_file.hh"
#include "common/json.hh"
#include "common/metrics.hh"
#include "common/trace.hh"
#include "core/campaign.hh"
#include "core/cpusim_target.hh"
#include "core/gpusim_target.hh"
#include "core/machine_pool.hh"
#include "core/metrics.hh"
#include "core/sweep.hh"

using namespace syncperf;
using namespace syncperf::core;

namespace
{

namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/** CPUs this process may run on: the parallel workload's jobs and the
 *  replay's threads. */
int
hostThreads()
{
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) == 0)
        return std::max(1, CPU_COUNT(&set));
    return std::max(1u, std::thread::hardware_concurrency());
}

/** One benchmark workload: which campaigns a sweep runs, and how. */
struct Workload
{
    std::string name;
    bool quick = true;
    bool parallel = false; ///< jobs = hostThreads() instead of 1
    std::vector<cpusim::CpuConfig> cpus;
    std::vector<gpusim::GpuConfig> gpus;
};

bool
makeWorkload(const std::string &name, Workload &w)
{
    w.name = name;
    if (name == "cuda_thorough") {
        w.quick = false;
        w.gpus = {gpusim::GpuConfig::rtx4090()};
    } else if (name == "omp_thorough") {
        w.quick = false;
        w.cpus = {cpusim::CpuConfig::system1(),
                  cpusim::CpuConfig::system2(),
                  cpusim::CpuConfig::system3()};
    } else if (name == "quick_parallel") {
        w.quick = true;
        w.parallel = true;
        w.cpus = {cpusim::CpuConfig::system1(),
                  cpusim::CpuConfig::system2(),
                  cpusim::CpuConfig::system3()};
        w.gpus = {gpusim::GpuConfig::rtx2070Super(),
                  gpusim::GpuConfig::a100(),
                  gpusim::GpuConfig::rtx4090()};
    } else {
        return false;
    }
    return true;
}

/** The campaign CLI's protocol settings (bench/campaign.cc). */
struct Protocols
{
    MeasurementConfig omp = MeasurementConfig::simDefaults();
    MeasurementConfig cuda = MeasurementConfig::simGpuDefaults();

    Protocols()
    {
        omp.runs = omp.attempts = 1;
        cuda.runs = cuda.attempts = 1;
    }
};

/** Every counter whose total repeats exactly for a fixed workload. */
bool
isCountClass(metrics::Counter c)
{
    return metrics::counterIsDeterministic(c) ||
           c == metrics::Counter::CheckpointFlushes;
}

JsonValue
number(long long v)
{
    return JsonValue(static_cast<double>(v));
}

/** One sweep: every campaign call of the workload, into @p out. */
JsonValue
runSweep(const Workload &w, const Protocols &p, CampaignOptions options,
         const fs::path &out)
{
    CampaignMetrics::global().reset();
    options.output_dir = out.string();

    std::mutex mu;
    std::vector<double> intervals;
    Clock::time_point last;
    options.heartbeat = [&](const std::string &) {
        std::scoped_lock lock(mu);
        const Clock::time_point now = Clock::now();
        intervals.push_back(
            std::chrono::duration<double>(now - last).count());
        last = now;
    };

    JsonValue failures = JsonValue::array();
    long long committed = 0;
    const Clock::time_point t0 = Clock::now();
    last = t0;
    {
        trace::Span span("sweep", "perfbench");
        const auto fold = [&](const CampaignResult &r) {
            committed += r.experiments_run;
            for (const auto &f : r.failures)
                failures.push(JsonValue(f.file + ": " + f.error));
        };
        for (const auto &cpu : w.cpus)
            fold(runOmpCampaign(cpu, p.omp, options));
        for (const auto &gpu : w.gpus)
            fold(runCudaCampaign(gpu, p.cuda, options));
    }
    const double wall = secondsSince(t0);

    JsonValue counters = JsonValue::object();
    JsonValue timing = JsonValue::object();
    for (std::size_t i = 0; i < metrics::counter_count; ++i) {
        const auto c = static_cast<metrics::Counter>(i);
        (isCountClass(c) ? counters : timing)
            .set(metrics::counterName(c), number(metrics::value(c)));
    }
    JsonValue iv = JsonValue::array();
    for (double s : intervals)
        iv.push(JsonValue(s));

    JsonValue sweep = JsonValue::object();
    sweep.set("dir", JsonValue(out.string()));
    sweep.set("wall_s", JsonValue(wall));
    sweep.set("committed", number(committed));
    sweep.set("failures", std::move(failures));
    sweep.set("intervals_s", std::move(iv));
    sweep.set("counters", std::move(counters));
    sweep.set("timing", std::move(timing));
    return sweep;
}

/** Sweeps until @p seconds have passed (at least one). */
JsonValue
runSweeps(const Workload &w, const Protocols &p,
          const CampaignOptions &options, const fs::path &out,
          const std::string &tag, double seconds)
{
    JsonValue sweeps = JsonValue::array();
    const Clock::time_point t0 = Clock::now();
    int i = 0;
    do {
        sweeps.push(runSweep(w, p, options,
                             out / (tag + "-" + std::to_string(i++))));
    } while (secondsSince(t0) < seconds);
    return sweeps;
}

// ---------------------------------------------------------------- replay

/** One experiment of one system, with the sweep points it measures. */
struct ReplayUnit
{
    std::string key; ///< "<system-slug>/<file.csv>"
    const cpusim::CpuConfig *cpu = nullptr;
    const gpusim::GpuConfig *gpu = nullptr;
    OmpExperiment omp;
    CudaExperiment cuda;
    std::vector<int> threads;
    std::vector<int> blocks; ///< CUDA only
};

/** Machine-layer activity of a replay, summed over launches. */
struct MachineTotals
{
    long long runs = 0;
    long long events = 0;
    long long probe = 0; ///< atomic per-thread ops / line ping-pongs
    long long eq_max_depth = 0;
    sim::LoopBatchCounters lb;

    void
    merge(const MachineTotals &o)
    {
        runs += o.runs;
        events += o.events;
        probe += o.probe;
        eq_max_depth = std::max(eq_max_depth, o.eq_max_depth);
        lb.merge(o.lb);
    }

    JsonValue
    json(const char *probe_name) const
    {
        JsonValue j = JsonValue::object();
        j.set("runs", number(runs));
        j.set("events", number(events));
        j.set(probe_name, number(probe));
        j.set("eq_max_depth", number(eq_max_depth));
        j.set("batched_iters", number(static_cast<long long>(
                                   lb.batched_iters)));
        j.set("total_iters",
              number(static_cast<long long>(lb.total_iters)));
        j.set("windows", number(static_cast<long long>(lb.windows)));
        j.set("fallbacks",
              number(static_cast<long long>(lb.fallbacks)));
        return j;
    }
};

/**
 * The workload's experiments in the campaign's enumeration order
 * (runOmpCampaign / runCudaCampaign in core/campaign.cc). main()
 * checks the keys against an enumerate_only campaign call.
 */
std::vector<ReplayUnit>
replayUnits(const Workload &w)
{
    std::vector<ReplayUnit> units;
    for (const auto &cfg : w.cpus) {
        const std::string slug = sanitizeName(cfg.name) + "/";
        const auto threads =
            ompThreadCounts(cfg.totalHwThreads(), w.quick ? 4 : 1);
        const auto add = [&](OmpPrimitive prim, DataType t,
                             Location loc, int stride, Affinity aff,
                             const std::string &file) {
            ReplayUnit u;
            u.key = slug + file;
            u.cpu = &cfg;
            u.omp = {prim, t, loc, stride, aff};
            u.threads = threads;
            units.push_back(std::move(u));
        };
        add(OmpPrimitive::Barrier, DataType::Int32,
            Location::SharedVariable, 1, Affinity::Spread,
            "omp_barrier.csv");
        add(OmpPrimitive::Critical, DataType::Int32,
            Location::SharedVariable, 1, Affinity::Spread,
            "omp_critical.csv");
        add(OmpPrimitive::AtomicRead, DataType::Int32,
            Location::SharedVariable, 1, Affinity::System,
            "omp_atomic_read.csv");
        const std::vector<int> strides =
            w.quick ? std::vector<int>{1, 8, 16}
                    : std::vector<int>{1, 4, 8, 16};
        for (DataType t : all_data_types) {
            const std::string sfx = std::string(dataTypeName(t)) + ".csv";
            add(OmpPrimitive::AtomicUpdate, t, Location::SharedVariable,
                1, Affinity::System, "omp_atomic_update_" + sfx);
            add(OmpPrimitive::AtomicCapture, t, Location::SharedVariable,
                1, Affinity::System, "omp_atomic_capture_" + sfx);
            add(OmpPrimitive::AtomicWrite, t, Location::SharedVariable,
                1, Affinity::System, "omp_atomic_write_" + sfx);
            for (int s : strides) {
                const std::string tag = "_s" + std::to_string(s) + "_";
                add(OmpPrimitive::AtomicUpdate, t, Location::PrivateArray,
                    s, Affinity::System, "omp_atomic_array" + tag + sfx);
                add(OmpPrimitive::Flush, t, Location::PrivateArray, s,
                    Affinity::Close, "omp_flush" + tag + sfx);
            }
        }
    }
    for (const auto &cfg : w.gpus) {
        const std::string slug = sanitizeName(cfg.name) + "/";
        std::vector<int> threads = cudaThreadCounts();
        if (w.quick) {
            std::vector<int> coarse;
            for (std::size_t i = 0; i < threads.size(); i += 2)
                coarse.push_back(threads[i]);
            if (coarse.back() != threads.back())
                coarse.push_back(threads.back());
            threads = coarse;
        }
        const std::vector<int> blocks =
            w.quick ? std::vector<int>{1, 2, cfg.sm_count / 2}
                    : cudaBlockCounts(cfg.sm_count);
        const auto add = [&](CudaPrimitive prim, DataType t, Location loc,
                             int stride, const std::string &file) {
            ReplayUnit u;
            u.key = slug + file;
            u.gpu = &cfg;
            u.cuda = {prim, t, loc, stride};
            u.threads = threads;
            u.blocks = blocks;
            units.push_back(std::move(u));
        };
        add(CudaPrimitive::SyncThreads, DataType::Int32,
            Location::SharedVariable, 1, "cuda_syncthreads.csv");
        add(CudaPrimitive::SyncWarp, DataType::Int32,
            Location::SharedVariable, 1, "cuda_syncwarp.csv");
        add(CudaPrimitive::VoteSync, DataType::Int32,
            Location::SharedVariable, 1, "cuda_vote.csv");
        add(CudaPrimitive::ThreadFence, DataType::Int32,
            Location::PrivateArray, 1, "cuda_threadfence.csv");
        add(CudaPrimitive::ThreadFenceBlock, DataType::Int32,
            Location::PrivateArray, 1, "cuda_threadfence_block.csv");
        add(CudaPrimitive::ThreadFenceSystem, DataType::Int32,
            Location::PrivateArray, 1, "cuda_threadfence_system.csv");
        for (DataType t : all_data_types) {
            const std::string sfx = std::string(dataTypeName(t)) + ".csv";
            add(CudaPrimitive::AtomicAdd, t, Location::SharedVariable, 1,
                "cuda_atomicadd_" + sfx);
            add(CudaPrimitive::ShflSync, t, Location::SharedVariable, 1,
                "cuda_shfl_" + sfx);
            if (!w.quick) {
                for (int s : {1, 32}) {
                    add(CudaPrimitive::AtomicAdd, t,
                        Location::PrivateArray, s,
                        "cuda_atomicadd_array_s" + std::to_string(s) +
                            "_" + sfx);
                }
            }
            if (isIntegerType(t)) {
                add(CudaPrimitive::AtomicCas, t, Location::SharedVariable,
                    1, "cuda_atomiccas_" + sfx);
                add(CudaPrimitive::AtomicExch, t,
                    Location::SharedVariable, 1, "cuda_atomicexch_" + sfx);
            }
        }
    }
    return units;
}

/** Protocol launches one measure() made (baseline + test each). */
long long
launchesOf(const Measurement &m, const MeasurementConfig &cfg)
{
    // Attempts double with every CoV-gate re-measure.
    const long long rounds = (1LL << (m.noise_retries + 1)) - 1;
    return 2 * (static_cast<long long>(cfg.runs) * cfg.attempts * rounds +
                m.retries);
}

struct UnitResult
{
    long long launches = 0;
    long long invalid = 0;
    MachineTotals machine;
};

/**
 * Replay one unit: each point through the target layer (a fresh
 * target per experiment, as the campaign builds it), then the
 * point's baseline/test pair once each through a machine of the
 * unit's own, decoded per launch (key 0).
 */
UnitResult
replayUnit(const ReplayUnit &u, const Protocols &p)
{
    UnitResult r;
    std::uint64_t seed = 1;
    const auto account = [&](auto &machine, auto &&run, sim::Probe probe) {
        const std::uint64_t before = machine.eventQueue().executed();
        machine.reseed(seed++);
        run();
        r.machine.runs += 1;
        r.machine.events += static_cast<long long>(
            machine.eventQueue().executed() - before);
        r.machine.probe +=
            static_cast<long long>(machine.stats().get(probe));
        r.machine.eq_max_depth = std::max(
            r.machine.eq_max_depth,
            static_cast<long long>(
                machine.stats().get(sim::Probe::EqMaxDepth)));
        r.machine.lb.merge(machine.loopBatch());
    };
    if (u.cpu != nullptr) {
        CpuSimTarget target(*u.cpu, p.omp);
        cpusim::CpuMachine machine(*u.cpu, u.omp.affinity, 1);
        machine.setLoopBatch(p.omp.loop_batch);
        for (int n : u.threads) {
            Measurement m;
            {
                trace::Span span("target.measure", "perfbench");
                m = target.measure(u.omp, n);
            }
            r.launches += launchesOf(m, p.omp);
            r.invalid += m.valid ? 0 : 1;
            const auto pair = CpuSimTarget::buildPrograms(
                u.omp, n, p.omp.opsPerMeasurement());
            for (const auto *programs : {&pair.baseline, &pair.test}) {
                account(
                    machine,
                    [&] {
                        trace::Span span("cpu.run", "perfbench");
                        machine.run(*programs, p.omp.n_warmup, 0);
                    },
                    sim::Probe::CpuLinePingPong);
            }
        }
    } else {
        GpuSimTarget target(*u.gpu, p.cuda);
        gpusim::GpuMachine machine(*u.gpu, 1);
        machine.setLoopBatch(p.cuda.loop_batch);
        for (int blocks : u.blocks) {
            for (int n : u.threads) {
                const gpusim::LaunchConfig launch{blocks, n};
                Measurement m;
                {
                    trace::Span span("target.measure", "perfbench");
                    m = target.measure(u.cuda, launch);
                }
                r.launches += launchesOf(m, p.cuda);
                r.invalid += m.valid ? 0 : 1;
                const auto pair = GpuSimTarget::buildKernels(
                    u.cuda, p.cuda.opsPerMeasurement());
                for (const auto *kernel : {&pair.baseline, &pair.test}) {
                    account(
                        machine,
                        [&] {
                            trace::Span span("gpu.run", "perfbench");
                            machine.run(*kernel, launch,
                                        p.cuda.n_warmup, 0);
                        },
                        sim::Probe::GpuAtomicPerThread);
                }
            }
        }
    }
    return r;
}

/** Replay every unit on @p jobs threads; totals in unit order. */
JsonValue
replay(const std::vector<ReplayUnit> &units, const Protocols &p, int jobs)
{
    MachinePool::global().reset();
    CampaignMetrics::global().reset();
    std::vector<UnitResult> results(units.size());
    std::atomic<std::size_t> next{0};
    const auto worker = [&] {
        for (std::size_t i = next++; i < units.size(); i = next++)
            results[i] = replayUnit(units[i], p);
    };
    const Clock::time_point t0 = Clock::now();
    {
        std::vector<std::jthread> threads;
        for (int t = 1; t < jobs; ++t)
            threads.emplace_back(worker);
        worker();
    }
    const double wall = secondsSince(t0);

    long long launches = 0, invalid = 0;
    MachineTotals cpu, gpu;
    for (std::size_t i = 0; i < units.size(); ++i) {
        launches += results[i].launches;
        invalid += results[i].invalid;
        (units[i].cpu != nullptr ? cpu : gpu).merge(results[i].machine);
    }
    JsonValue j = JsonValue::object();
    j.set("wall_s", JsonValue(wall));
    j.set("jobs", JsonValue(jobs));
    j.set("target_launches", number(launches));
    j.set("target_invalid", number(invalid));
    j.set("sim_cache_hits",
          number(metrics::value(metrics::Counter::SimCacheHits)));
    j.set("sim_cache_misses",
          number(metrics::value(metrics::Counter::SimCacheMisses)));
    j.set("cpu", cpu.json("line_ping_pongs"));
    j.set("gpu", gpu.json("atomic_perthread_ops"));
    return j;
}

// ---------------------------------------------------------------- main

long long
peakRssKb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return ru.ru_maxrss;
}

JsonValue
fingerprint()
{
    JsonValue j = JsonValue::object();
    j.set("compiler", JsonValue(PERFBENCH_COMPILER));
    j.set("build_type", JsonValue(PERFBENCH_BUILD_TYPE));
#ifdef SYNCPERF_DISABLE_TRACING
    j.set("tracing_compiled_in", JsonValue(false));
#else
    j.set("tracing_compiled_in", JsonValue(true));
#endif
    return j;
}

/** Enumerate every campaign of @p w (no measuring, no writes). */
std::vector<std::string>
enumerate(const Workload &w, const Protocols &p, CampaignOptions options)
{
    options.enumerate_only = true;
    std::vector<std::string> keys;
    const auto fold = [&](const std::string &name,
                          const CampaignResult &r) {
        for (const auto &pt : r.points)
            keys.push_back(sanitizeName(name) + "/" + pt.file);
    };
    for (const auto &cpu : w.cpus)
        fold(cpu.name, runOmpCampaign(cpu, p.omp, options));
    for (const auto &gpu : w.gpus)
        fold(gpu.name, runCudaCampaign(gpu, p.cuda, options));
    return keys;
}

int
usage(const char *argv0)
{
    std::fprintf(stderr,
                 "usage: %s --mode setup|run|golden|fingerprint "
                 "--workload cuda_thorough|omp_thorough|quick_parallel "
                 "[--out DIR] [--report FILE] "
                 "[--untraced-seconds S] [--traced-seconds S] "
                 "[--trace-file FILE]\n",
                 argv0);
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string mode, workload, out, report_file, trace_file;
    double untraced_s = 0.0, traced_s = 0.0;
    for (int i = 1; i < argc; ++i) {
        const auto arg = [&](const char *name) {
            return std::strcmp(argv[i], name) == 0 && i + 1 < argc;
        };
        if (arg("--mode"))
            mode = argv[++i];
        else if (arg("--workload"))
            workload = argv[++i];
        else if (arg("--out"))
            out = argv[++i];
        else if (arg("--report"))
            report_file = argv[++i];
        else if (arg("--trace-file"))
            trace_file = argv[++i];
        else if (arg("--untraced-seconds"))
            untraced_s = std::atof(argv[++i]);
        else if (arg("--traced-seconds"))
            traced_s = std::atof(argv[++i]);
        else
            return usage(argv[0]);
    }
    if (mode == "fingerprint") {
        std::printf("%s\n", fingerprint().dump().c_str());
        return 0;
    }

    Workload w;
    if (!makeWorkload(workload, w))
        return usage(argv[0]);
    Protocols p;
    CampaignOptions options;
    options.quick = w.quick;
    const int jobs = hostThreads();
    options.jobs = w.parallel ? jobs : 1;
    MachinePool::global().configure({true, ""});

    const std::vector<std::string> keys = enumerate(w, p, options);
    if (mode == "setup") {
        std::printf("setup-done %zu\n", keys.size());
        std::fflush(stdout);
        return 0;
    }
    if (out.empty())
        return usage(argv[0]);

    if (mode == "golden") {
        p.omp.sim_cache = p.cuda.sim_cache = false;
        p.omp.loop_batch = p.cuda.loop_batch = false;
        p.omp.machine_pool = p.cuda.machine_pool = false;
        MachinePool::global().configure({false, ""});
        options.lanes = 0;
        options.jobs = 1;
        const JsonValue sweep = runSweep(w, p, options, out);
        const auto &failures = sweep.find("failures")->asArray();
        for (const JsonValue &f : failures)
            std::fprintf(stderr, "perfbench: %s\n", f.asString().c_str());
        return failures.empty() ? 0 : 1;
    }
    if (mode != "run" || report_file.empty())
        return usage(argv[0]);

    const std::vector<ReplayUnit> units = replayUnits(w);
    bool same = units.size() == keys.size();
    for (std::size_t i = 0; same && i < units.size(); ++i)
        same = units[i].key == keys[i];
    if (!same) {
        std::fprintf(stderr, "perfbench: the replay enumeration no "
                             "longer matches the campaign's sweep\n");
        return 1;
    }

    JsonValue report = JsonValue::object();
    report.set("workload", JsonValue(w.name));
    report.set("points_per_sweep",
               number(static_cast<long long>(keys.size())));
    report.set("untraced",
               runSweeps(w, p, options, out, "untraced", untraced_s));
    report.set("peak_rss_kb", number(peakRssKb()));

    if (!trace_file.empty()) {
#ifdef SYNCPERF_DISABLE_TRACING
        std::fprintf(stderr, "perfbench: tracing is compiled out "
                             "(SYNCPERF_TRACING=OFF)\n");
        return 1;
#endif
        if (Status s = trace::start(trace_file, "perfbench"); !s.isOk()) {
            std::fprintf(stderr, "perfbench: %s\n", s.toString().c_str());
            return 1;
        }
        trace::setThreadName("perfbench-main");
        report.set("traced",
                   runSweeps(w, p, options, out, "traced", traced_s));
        report.set("replay", replay(units, p, jobs));
        if (Status s = trace::stop(); !s.isOk()) {
            std::fprintf(stderr, "perfbench: %s\n", s.toString().c_str());
            return 1;
        }
    }

    AtomicFile file;
    if (Status s = file.open(report_file); !s.isOk()) {
        std::fprintf(stderr, "perfbench: %s\n", s.toString().c_str());
        return 1;
    }
    file.stream() << report.dump() << "\n";
    if (Status s = file.commit(); !s.isOk()) {
        std::fprintf(stderr, "perfbench: %s\n", s.toString().c_str());
        return 1;
    }
    return 0;
}
