/**
 * @file
 * vxbench — the repository benchmark (see README.md here).
 *
 * Runs one workload as a closed loop from one process, timing calls into
 * the simulator's public API only (runtime::Device, core::Processor,
 * sweep::Campaign / executeRun / CacheStore / CampaignResult), checks
 * every output, and prints one JSON result line last on stdout:
 *
 *   vxbench --workload NAME --seed N --seconds S --trace 0|1
 *           [--commit ID] [--work-dir DIR] [--small] [--corrupt]
 *
 * --trace 0 reports the end-to-end metrics with tracing off. --trace 1
 * replays the same operations with spans around each public call,
 * reports the per-layer metrics and the tracing overhead, and writes
 * the spans as JSON under DIR/traces. --small selects seconds-long
 * problem sizes and --corrupt flips one output word per operation; both
 * exist for selftest.py.
 */

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "kernels/kernels.h"
#include "runtime/device.h"
#include "runtime/kargs.h"
#include "runtime/workloads.h"
#include "sweep/cache.h"
#include "sweep/campaign.h"
#include "sweep/presets.h"

namespace {

using namespace vortex;
using Clock = std::chrono::steady_clock;
namespace fs = std::filesystem;

constexpr uint64_t kMaxCycles = 400000000ull;
/** Warm reruns after each cold pass: one takes milliseconds, so many
 *  are timed and the median reported. */
constexpr int kWarmReruns = 25;

double
secondsBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/**
 * The fastest of a run's repetitions, which the end-to-end host times
 * report. Other tenants of a shared host only ever slow an operation
 * down, and their load swings by tens of percent over minutes, so the
 * best of N repeats from run to run far more closely than the median
 * (README.md, "Statistics").
 */
double
best(const std::vector<double>& v)
{
    return v.empty() ? 0.0 : *std::min_element(v.begin(), v.end());
}

/** A `samples` line on stdout: count, fastest, median and slowest. */
void
printSamples(const char* name, const std::vector<double>& v)
{
    std::vector<double> sorted = v;
    std::sort(sorted.begin(), sorted.end());
    std::printf("samples %s n=%zu best=%.6g median=%.6g worst=%.6g\n", name,
                v.size(), best(v), median(v),
                sorted.empty() ? 0.0 : sorted.back());
}

double
ratio(double num, double den)
{
    return den != 0.0 ? num / den : 0.0;
}

std::string
jsonString(const std::string& s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        if (static_cast<unsigned char>(c) >= 0x20)
            out += c;
    }
    return out + "\"";
}

std::string
jsonNumber(double v)
{
    if (!std::isfinite(v))
        return "0";
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

uint64_t
fnv1a(const void* data, size_t size, uint64_t h = 0xcbf29ce484222325ull)
{
    const auto* p = static_cast<const uint8_t*>(data);
    for (size_t i = 0; i < size; ++i)
        h = (h ^ p[i]) * 0x100000001b3ull;
    return h;
}

//
// Tracing: one span per public call, kept in memory until exit.
//

/** One recorded call. `run` groups the spans of one operation. */
struct Span
{
    const char* name;
    const char* layer;
    int64_t startNs = 0;
    int64_t endNs = 0;
    int parent = -1; ///< index of the enclosing span, -1 at the root
    uint32_t run = 0;
};

class Tracer
{
  public:
    explicit Tracer(bool enabled) : enabled_(enabled) {}

    /** Records [construction, destruction) as a span; inert when the
     *  tracer is off. */
    class Scope
    {
      public:
        Scope(Tracer* t, const char* name, const char* layer) : tracer_(t)
        {
            if (tracer_)
                index_ = tracer_->open(name, layer);
        }
        ~Scope()
        {
            if (tracer_)
                tracer_->close(index_);
        }
        Scope(const Scope&) = delete;
        Scope& operator=(const Scope&) = delete;

      private:
        Tracer* tracer_;
        int index_ = -1;
    };

    Scope span(const char* name, const char* layer)
    {
        return Scope(enabled_ ? this : nullptr, name, layer);
    }

    bool enabled() const { return enabled_; }

    /** Start a new operation; later spans carry the returned id. */
    uint32_t beginRun() { return ++run_; }

    /** Summed seconds of the spans called @p name in operation @p run. */
    double
    sum(uint32_t run, const char* name) const
    {
        double s = 0.0;
        for (const Span& sp : spans_)
            if (sp.run == run && std::strcmp(sp.name, name) == 0)
                s += (sp.endNs - sp.startNs) * 1e-9;
        return s;
    }

    /** Longest span called @p name in operation @p run, in seconds. */
    double
    max(uint32_t run, const char* name) const
    {
        double m = 0.0;
        for (const Span& sp : spans_)
            if (sp.run == run && std::strcmp(sp.name, name) == 0)
                m = std::max(m, (sp.endNs - sp.startNs) * 1e-9);
        return m;
    }

    /** Spans and per-layer total/self seconds as JSON members. */
    void
    writeJson(std::ostream& os) const
    {
        std::vector<int64_t> childNs(spans_.size(), 0);
        for (const Span& sp : spans_)
            if (sp.parent >= 0)
                childNs[sp.parent] += sp.endNs - sp.startNs;
        std::map<std::string, std::pair<double, double>> layers;
        for (size_t i = 0; i < spans_.size(); ++i) {
            int64_t d = spans_[i].endNs - spans_[i].startNs;
            auto& [total, self] = layers[spans_[i].layer];
            total += d * 1e-9;
            self += (d - childNs[i]) * 1e-9;
        }
        os << "  \"layers\": {";
        const char* sep = "\n";
        for (const auto& [layer, ts] : layers) {
            os << sep << "    " << jsonString(layer) << ": {\"total_s\": "
               << jsonNumber(ts.first)
               << ", \"self_s\": " << jsonNumber(ts.second) << "}";
            sep = ",\n";
        }
        os << "\n  },\n  \"spans\": [";
        sep = "\n";
        for (const Span& sp : spans_) {
            os << sep << "    {\"name\": " << jsonString(sp.name)
               << ", \"layer\": " << jsonString(sp.layer)
               << ", \"start_ns\": " << sp.startNs
               << ", \"end_ns\": " << sp.endNs
               << ", \"parent\": " << sp.parent << ", \"run\": " << sp.run
               << "}";
            sep = ",\n";
        }
        os << "\n  ]";
    }

  private:
    int
    open(const char* name, const char* layer)
    {
        int index = static_cast<int>(spans_.size());
        spans_.push_back(Span{name, layer, now(), 0,
                              stack_.empty() ? -1 : stack_.back(), run_});
        stack_.push_back(index);
        return index;
    }

    void
    close(int index)
    {
        spans_[index].endNs = now();
        stack_.pop_back();
    }

    int64_t
    now() const
    {
        return std::chrono::duration_cast<std::chrono::nanoseconds>(
                   Clock::now() - origin_)
            .count();
    }

    bool enabled_;
    Clock::time_point origin_ = Clock::now();
    std::vector<Span> spans_;
    std::vector<int> stack_; ///< open spans, innermost last
    uint32_t run_ = 0;
};

//
// Results.
//

struct Metric
{
    std::string name;
    double value;
    const char* unit;
};

/** What one invocation reports: operations attempted and failed, and
 *  the metrics of the selected mode. */
struct Report
{
    uint64_t attempted = 0;
    uint64_t failed = 0;
    std::vector<Metric> metrics;

    void
    add(const std::string& name, double value, const char* unit)
    {
        metrics.push_back(Metric{name, value, unit});
    }

    /** Count one operation; a non-empty @p error marks it failed. */
    void
    operation(const std::string& error)
    {
        ++attempted;
        if (!error.empty()) {
            ++failed;
            std::cerr << "vxbench: failed operation: " << error << "\n";
        }
    }

    void
    print(std::ostream& os) const
    {
        os << "{\"correct\": " << (failed == 0 ? "true" : "false")
           << ", \"attempted\": " << attempted << ", \"failed\": " << failed
           << ", \"metrics\": {";
        const char* sep = "";
        for (const Metric& m : metrics) {
            os << sep << jsonString(m.name) << ": {\"value\": "
               << jsonNumber(m.value) << ", \"unit\": " << jsonString(m.unit)
               << "}";
            sep = ", ";
        }
        os << "}}\n";
    }
};

/** Per-metric median over several operations' metric lists (same names
 *  in the same order). */
std::vector<Metric>
medianMetrics(const std::vector<std::vector<Metric>>& perOp)
{
    std::vector<Metric> out;
    if (perOp.empty())
        return out;
    for (size_t i = 0; i < perOp[0].size(); ++i) {
        std::vector<double> v;
        for (const auto& op : perOp)
            v.push_back(op[i].value);
        out.push_back(Metric{perOp[0][i].name, median(v), perOp[0][i].unit});
    }
    return out;
}

/** Peak resident set of this process (VmHWM; unlike getrusage's
 *  ru_maxrss it does not carry over the parent's peak across exec). */
double
peakRssMiB()
{
    std::ifstream in("/proc/self/status");
    std::string line;
    while (std::getline(in, line))
        if (line.rfind("VmHWM:", 0) == 0)
            return std::stod(line.substr(6)) / 1024.0; // kB
    return 0.0;
}

std::string
cpuModel()
{
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line))
        if (line.rfind("model name", 0) == 0) {
            size_t colon = line.find(':');
            if (colon != std::string::npos)
                return line.substr(line.find_first_not_of(" \t", colon + 1));
        }
    return "unknown";
}

/** Host fingerprint: two results are comparable only when it matches. */
std::string
hostJson(const std::string& commit)
{
    std::ostringstream os;
    os << "{\"cpu_model\": " << jsonString(cpuModel())
       << ", \"nproc\": " << std::thread::hardware_concurrency()
       << ", \"compiler\": " << jsonString(PERFBENCH_COMPILER)
       << ", \"build_type\": " << jsonString(PERFBENCH_BUILD_TYPE)
       << ", \"lto\": " << (PERFBENCH_LTO ? "true" : "false")
       << ", \"commit\": " << jsonString(commit) << "}";
    return os.str();
}

struct Options
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    bool small = false;
    bool corrupt = false;
    std::string commit = "unknown";
    std::string workDir = ".bench_build/perfbench";
};

/**
 * Closed loop: run @p op until the next one is predicted to end past
 * @p deadline (from the last one's duration), but at least @p minOps
 * times.
 */
void
repeatUntil(Clock::time_point deadline, int minOps,
            const std::function<void()>& op)
{
    Clock::duration last{};
    for (int done = 0;; ++done) {
        auto start = Clock::now();
        if (done >= minOps && start + last > deadline)
            return;
        op();
        last = Clock::now() - start;
    }
}

/** A cache directory unique to this process, removed by the caller. */
std::string
freshDir(const Options& opt, const char* what)
{
    static int counter = 0;
    fs::path p = fs::path(opt.workDir) / "work" /
                 (std::to_string(getpid()) + "-" + what + "-" +
                  std::to_string(counter++));
    fs::remove_all(p);
    return p.string();
}

uint64_t
dirBytes(const std::string& dir)
{
    uint64_t bytes = 0;
    for (const auto& e : fs::directory_iterator(dir))
        if (e.is_regular_file())
            bytes += e.file_size();
    return bytes;
}

/** CSV + JSON emission of @p r, the bytes a campaign front end writes. */
std::string
emit(const sweep::CampaignResult& r, Tracer& tr)
{
    std::ostringstream os;
    {
        auto s = tr.span("writeCsv", "sweep");
        r.writeCsv(os);
    }
    {
        auto s = tr.span("writeJson", "sweep");
        r.writeJson(os);
    }
    return os.str();
}

/**
 * Serial replay of Campaign::run through its public parts: expansion,
 * then per run a cache load, and on a miss executeRun + store, then the
 * manifest. What the traced run times in place of the job pool.
 */
sweep::CampaignResult
replay(const sweep::SweepSpec& spec, const sweep::CacheStore& cache,
       Tracer& tr)
{
    sweep::CampaignResult result;
    result.name = spec.name;
    for (const sweep::Axis& a : spec.axes)
        result.axisNames.push_back(a.name);
    std::vector<sweep::RunSpec> runs;
    {
        auto s = tr.span("expand", "sweep");
        runs = spec.expand();
    }
    for (const sweep::RunSpec& run : runs) {
        sweep::RunRecord rec;
        bool hit;
        {
            auto s = tr.span("CacheStore::load", "sweep");
            hit = cache.load(run, rec);
        }
        if (hit) {
            ++result.cacheHits;
        } else {
            {
                auto s = tr.span("executeRun", "sweep");
                rec = sweep::executeRun(run);
            }
            if (rec.result.ok) {
                auto s = tr.span("CacheStore::store", "sweep");
                cache.store(rec, spec.name);
            }
            ++result.cacheMisses;
        }
        result.records.push_back(std::move(rec));
    }
    {
        auto s = tr.span("CacheStore::writeManifest", "sweep");
        cache.writeManifest();
    }
    return result;
}

/** First mismatch between a warm rerun and the cold pass ("" if none). */
std::string
checkWarm(const sweep::CampaignResult& warm, const std::string& warmBytes,
          const std::string& coldBytes, size_t runs)
{
    if (warm.cacheHits != runs)
        return "warm rerun restored " + std::to_string(warm.cacheHits) +
               " of " + std::to_string(runs) + " runs from the cache";
    if (warmBytes != coldBytes)
        return "warm rerun CSV/JSON bytes differ from the cold pass";
    return "";
}

//
// Counter-derived per-layer metrics, shared by both workload kinds.
//

/** Read hit ratio: whether the loads' working set fits the cache. */
double
hitRatio(const StatGroup& s, const std::string& cache)
{
    double hits = s.get(cache + ".read_hits");
    return ratio(hits, hits + s.get(cache + ".read_misses"));
}

/** The mem-layer and core-count metrics of one operation. @p coreCycles
 *  is Σ cycles × cores over its runs. */
void
addCountMetrics(std::vector<Metric>& m, const StatGroup& s, double cycles,
                double coreCycles)
{
    auto count = [&](const char* key) {
        m.push_back(Metric{key, static_cast<double>(s.get(key)), "count"});
    };
    count("core.cycles");
    m.back().value = cycles;
    count("core.thread_instrs");
    count("core.warp_instrs");
    m.push_back(Metric{"core.issue_ratio",
                       ratio(s.get("core.warp_instrs"), coreCycles),
                       "ratio"});
    count("core.issue_scoreboard_stalls");
    count("core.issue_structural_stalls");
    count("core.fetch_icache_stalls");
    count("icache.core_reads");
    m.push_back(Metric{"icache.hit_ratio", hitRatio(s, "icache"), "ratio"});
    count("dcache.core_reads");
    count("dcache.core_writes");
    m.push_back(Metric{"dcache.hit_ratio", hitRatio(s, "dcache"), "ratio"});
    double accepted = s.get("dcache.sel_accepted");
    m.push_back(Metric{
        "dcache.bank_util",
        ratio(accepted, accepted + s.get("dcache.sel_conflicts")), "ratio"});
    count("dcache.mshr_merges");
    count("dcache.memq_stalls");
    count("l2.core_reads");
    m.push_back(Metric{"l2.hit_ratio", hitRatio(s, "l2"), "ratio"});
    count("l2.mshr_merges");
    count("l2.memq_stalls");
    m.push_back(Metric{"mem.bytes", static_cast<double>(s.get("mem.bytes")),
                       "B"});
    m.push_back(Metric{"mem.bytes_per_cycle",
                       ratio(s.get("mem.bytes"), cycles), "B/cycle"});
    count("smem.accesses");
    count("smem.bank_conflicts");
}

/** Host seconds per simulated event for @p runS of core time. */
void
addCoreTimeMetrics(std::vector<Metric>& m, double runS, double cycles,
                   double coreCycles, double threadInstrs, double statsS)
{
    m.push_back(Metric{"core.run_s", runS, "s"});
    m.push_back(Metric{"core.ns_per_cycle", ratio(runS * 1e9, cycles), "ns"});
    m.push_back(Metric{"core.ns_per_core_cycle",
                       ratio(runS * 1e9, coreCycles), "ns"});
    m.push_back(Metric{"core.ns_per_thread_instr",
                       ratio(runS * 1e9, threadInstrs), "ns"});
    m.push_back(Metric{"core.stats_s", statsS, "s"});
}

//
// Simulation workloads: one seeded kernel run per operation, each on a
// fresh Device (empty caches), verified against a host reference.
//

struct SimWorkload
{
    const char* name;
    const char* kernel; ///< Rodinia registry kernel ("sfilter" / "saxpy")
    uint32_t cores;     ///< baselineConfig(cores)
    uint32_t scale;     ///< runRodinia problem scale the sizes follow
    uint32_t smallScale; ///< scale under --small
};

const SimWorkload kSimWorkloads[] = {
    {"sfilter_1c", "sfilter", 1, 6, 1},
    {"saxpy_16c", "saxpy", 16, 48, 2},
};

/** Seeded inputs of one operation. */
struct Problem
{
    uint32_t width = 0, height = 0; ///< sfilter image
    uint32_t n = 0;                 ///< saxpy length
    float alpha = 0.0f;             ///< saxpy scalar
    std::vector<std::vector<float>> inputs; ///< copied to the device
    size_t outWords = 0;

    uint64_t
    digest() const
    {
        uint64_t h = fnv1a(&alpha, sizeof(alpha));
        for (const auto& in : inputs)
            h = fnv1a(in.data(), in.size() * 4, h);
        return h;
    }
};

Problem
makeProblem(const SimWorkload& w, uint32_t scale, uint64_t seed)
{
    Xorshift rng(0x5eed5eed00000000ull ^ seed);
    Problem p;
    if (std::strcmp(w.kernel, "sfilter") == 0) {
        p.width = 48 * scale;
        p.height = 32 * scale;
        std::vector<float> src(p.width * p.height);
        for (float& v : src)
            v = rng.nextFloat() * 255.0f;
        p.inputs = {std::move(src)};
        p.outWords = p.width * p.height;
    } else {
        p.n = 2048 * scale;
        p.alpha = 0.5f + rng.nextFloat() * 4.0f;
        std::vector<float> x(p.n), y(p.n);
        for (uint32_t i = 0; i < p.n; ++i) {
            x[i] = rng.nextFloat() * 10.0f - 5.0f;
            y[i] = rng.nextFloat() * 10.0f - 5.0f;
        }
        p.inputs = {std::move(x), std::move(y)};
        p.outWords = p.n;
    }
    return p;
}

/** The host reference output; bit-exact (same fma and association
 *  order as the kernels). */
std::vector<float>
reference(const SimWorkload& w, const Problem& p)
{
    std::vector<float> out(p.outWords);
    if (std::strcmp(w.kernel, "saxpy") == 0) {
        for (uint32_t i = 0; i < p.n; ++i)
            out[i] = std::fma(p.alpha, p.inputs[0][i], p.inputs[1][i]);
        return out;
    }
    const std::vector<float>& src = p.inputs[0];
    const int wd = static_cast<int>(p.width), ht = static_cast<int>(p.height);
    auto at = [&](int x, int y) {
        x = std::clamp(x, 0, wd - 1);
        y = std::clamp(y, 0, ht - 1);
        return src[y * wd + x];
    };
    for (int y = 0; y < ht; ++y)
        for (int x = 0; x < wd; ++x) {
            float corners = ((at(x - 1, y - 1) + at(x + 1, y - 1)) +
                             at(x - 1, y + 1)) +
                            at(x + 1, y + 1);
            float edges =
                ((at(x, y - 1) + at(x - 1, y)) + at(x + 1, y)) + at(x, y + 1);
            float sum = std::fma(edges, 2.0f, corners);
            sum = std::fma(at(x, y), 4.0f, sum);
            out[y * wd + x] = sum * 0.0625f;
        }
    return out;
}

/** One finished simulation operation. */
struct SimOp
{
    std::string error; ///< "" when the device output matched
    uint64_t cycles = 0;
    uint64_t threadInstrs = 0;
    double ipc = 0.0;
    double setupS = 0.0; ///< Device + inputs + copies + upload
    double runS = 0.0;   ///< runKernel
    double wallS = 0.0;  ///< the whole operation
    StatGroup stats;
    size_t imageBytes = 0;
    size_t copyBytes = 0;
};

SimOp
simulate(const SimWorkload& w, uint32_t scale, uint64_t seed, bool corrupt,
         Tracer& tr)
{
    SimOp op;
    auto root = tr.span("operation", "bench");
    const auto t0 = Clock::now();
    try {
        std::unique_ptr<runtime::Device> dev;
        {
            auto s = tr.span("Device", "runtime");
            dev = std::make_unique<runtime::Device>(
                sweep::baselineConfig(w.cores));
        }
        Problem p;
        {
            auto s = tr.span("inputs", "bench");
            p = makeProblem(w, scale, seed);
        }
        std::vector<Addr> addrs;
        {
            auto s = tr.span("copyToDev", "runtime");
            for (const auto& in : p.inputs) {
                Addr a = dev->memAlloc(in.size() * 4);
                dev->copyToDev(a, in.data(), in.size() * 4);
                addrs.push_back(a);
                op.copyBytes += in.size() * 4;
            }
        }
        {
            auto s = tr.span("uploadKernel", "isa");
            dev->uploadKernel(kernels::kernelSource(w.kernel));
        }
        op.imageBytes = dev->program().size();
        Addr out;
        if (std::strcmp(w.kernel, "saxpy") == 0) {
            out = addrs[1];
            dev->setKernelArg(
                runtime::SaxpyArgs{p.n, p.alpha, addrs[0], addrs[1]});
        } else {
            out = dev->memAlloc(p.outWords * 4);
            dev->setKernelArg(
                runtime::SfilterArgs{p.width, p.height, addrs[0], out});
        }
        const auto t1 = Clock::now();
        {
            auto s = tr.span("runKernel", "core");
            dev->runKernel(kMaxCycles);
        }
        const auto t2 = Clock::now();
        std::vector<float> got(p.outWords);
        {
            auto s = tr.span("copyFromDev", "runtime");
            dev->copyFromDev(got.data(), out, got.size() * 4);
            op.copyBytes += got.size() * 4;
        }
        if (corrupt) {
            uint32_t bits;
            std::memcpy(&bits, &got[0], 4);
            bits ^= 1;
            std::memcpy(&got[0], &bits, 4);
        }
        {
            auto s = tr.span("verify", "bench");
            std::vector<float> expect = reference(w, p);
            for (size_t i = 0; i < got.size() && op.error.empty(); ++i)
                if (std::memcmp(&got[i], &expect[i], 4) != 0)
                    op.error = std::string(w.name) + ": output word " +
                               std::to_string(i) + " is " +
                               std::to_string(got[i]) + ", expected " +
                               std::to_string(expect[i]);
        }
        {
            auto s = tr.span("collectStats", "core");
            dev->processor().collectStats(op.stats);
        }
        op.wallS = secondsBetween(t0, Clock::now());
        op.setupS = secondsBetween(t0, t1);
        op.runS = secondsBetween(t1, t2);
        op.cycles = dev->cycles();
        op.threadInstrs = dev->processor().threadInstrs();
        op.ipc = dev->ipc();
    } catch (const std::exception& e) {
        op.error = std::string(w.name) + ": " + e.what();
    }
    return op;
}

/** The 1-run campaign spec whose result-cache entry holds a simulation
 *  operation's record (same machine, kernel and problem size; the seed
 *  is not part of the content hash). */
sweep::SweepSpec
simSpec(const SimWorkload& w, uint32_t scale)
{
    sweep::SweepSpec s;
    s.name = w.name;
    s.base = sweep::baselineConfig(w.cores);
    s.baseWorkload.scale = scale;
    s.axes = {sweep::Axis::sweep("kernel", {w.kernel})};
    return s;
}

sweep::CampaignResult
simCampaignResult(const sweep::SweepSpec& spec, const SimOp& op)
{
    sweep::RunRecord rec;
    rec.spec = spec.expand().at(0);
    rec.result.ok = true;
    rec.result.cycles = op.cycles;
    rec.result.threadInstrs = op.threadInstrs;
    rec.result.ipc = op.ipc;
    rec.stats = op.stats;
    rec.hostSeconds = op.runS;
    sweep::CampaignResult r;
    r.name = spec.name;
    r.axisNames = {spec.axes[0].name};
    r.records = {std::move(rec)};
    return r;
}

/** Cycles and thread-instructions must repeat exactly across operations
 *  (the kernels are data-independent, so across seeds too). */
std::string
checkRepeat(std::map<std::string, std::pair<uint64_t, uint64_t>>& seen,
            const std::string& id, uint64_t cycles, uint64_t instrs)
{
    auto [it, first] = seen.try_emplace(id, cycles, instrs);
    if (first || it->second == std::make_pair(cycles, instrs))
        return "";
    return id + ": cycles/thread_instrs " + std::to_string(cycles) + "/" +
           std::to_string(instrs) + " differ from the first repetition's " +
           std::to_string(it->second.first) + "/" +
           std::to_string(it->second.second);
}

/** Per-layer metrics of traced simulation operation @p op (run id
 *  @p run) and its traced warm reruns @p warmRuns. */
std::vector<Metric>
simLayerMetrics(const SimWorkload& w, const SimOp& op, const Tracer& tr,
                uint32_t run, const std::vector<uint32_t>& warmRuns,
                uint32_t warmHits, uint64_t cacheBytes)
{
    std::vector<Metric> m;
    const double cycles = op.cycles;
    const double coreCycles = cycles * w.cores;
    m.push_back(Metric{"isa.upload_s", tr.sum(run, "uploadKernel"), "s"});
    m.push_back(Metric{"isa.image_bytes", double(op.imageBytes), "B"});
    m.push_back(Metric{"runtime.device_s", tr.sum(run, "Device"), "s"});
    m.push_back(Metric{"runtime.copy_s",
                       tr.sum(run, "copyToDev") + tr.sum(run, "copyFromDev"),
                       "s"});
    m.push_back(Metric{"runtime.copy_bytes", double(op.copyBytes), "B"});
    addCoreTimeMetrics(m, tr.sum(run, "runKernel"), cycles, coreCycles,
                       op.threadInstrs, tr.sum(run, "collectStats"));
    addCountMetrics(m, op.stats, cycles, coreCycles);

    double expand = 0, load = 0, emitS = 0;
    for (uint32_t r : warmRuns) {
        expand += tr.sum(r, "expand");
        load += tr.sum(r, "CacheStore::load");
        emitS += tr.sum(r, "writeCsv") + tr.sum(r, "writeJson");
    }
    double n = std::max<size_t>(warmRuns.size(), 1);
    m.push_back(Metric{"sweep.expand_s", expand / n, "s"});
    m.push_back(Metric{"sweep.run_s", 0.0, "s"});
    m.push_back(Metric{"sweep.critical_run_s", 0.0, "s"});
    m.push_back(Metric{"sweep.pool_util", 0.0, "ratio"});
    m.push_back(Metric{"sweep.cache_store_s",
                       tr.sum(run, "CacheStore::store") +
                           tr.sum(run, "CacheStore::writeManifest"),
                       "s"});
    m.push_back(Metric{"sweep.cache_load_s", load / n, "s"});
    m.push_back(Metric{"sweep.emit_s", emitS / n, "s"});
    m.push_back(Metric{"sweep.cache_hits", double(warmHits), "count"});
    m.push_back(Metric{"sweep.cache_misses", 0.0, "count"});
    m.push_back(Metric{"sweep.cache_bytes", double(cacheBytes), "B"});
    return m;
}

/**
 * One simulation workload. Each operation simulates on a fresh Device,
 * stores the verified record in a result cache, and then reruns it warm
 * (restored from the cache and emitted again) kWarmReruns times.
 */
void
runSimWorkload(const SimWorkload& w, const Options& opt,
               Clock::time_point deadline, Report& rep, Tracer& tracer)
{
    const uint32_t scale = opt.small ? w.smallScale : w.scale;
    std::cout << "inputs " << w.name << " seed " << opt.seed << " fnv "
              << makeProblem(w, scale, opt.seed).digest() << "\n";
    const sweep::SweepSpec spec = simSpec(w, scale);
    std::map<std::string, std::pair<uint64_t, uint64_t>> seen;
    std::vector<double> wall, run, setup, warm;
    std::vector<double> tracedWall, untracedWall;
    double instrs = 0, ipc = 0;
    std::vector<std::vector<Metric>> layers;
    Tracer off(false);

    auto operation = [&](Tracer& tr) {
        const uint32_t id = tr.beginRun();
        SimOp op = simulate(w, scale, opt.seed, opt.corrupt, tr);
        if (op.error.empty())
            op.error = checkRepeat(seen, w.name, op.cycles, op.threadInstrs);
        rep.operation(op.error);
        if (!op.error.empty())
            return;
        wall.push_back(op.wallS);
        setup.push_back(op.setupS);
        run.push_back(op.runS);
        instrs = op.threadInstrs;
        ipc = op.ipc;
        (tr.enabled() ? tracedWall : untracedWall).push_back(op.wallS);

        // Cold: store the record the way a campaign does. Warm: restore.
        const std::string dir = freshDir(opt, "cache");
        sweep::CacheStore cache(dir);
        sweep::CampaignResult cold = simCampaignResult(spec, op);
        {
            auto s = tr.span("CacheStore::store", "sweep");
            cache.store(cold.records[0], spec.name);
        }
        const std::string coldBytes = emit(cold, off);
        std::vector<uint32_t> warmRuns;
        uint32_t warmHits = 0;
        for (int i = 0; i < kWarmReruns; ++i) {
            const auto t0 = Clock::now();
            std::string bytes;
            sweep::CampaignResult r;
            if (!tr.enabled()) {
                sweep::CampaignOptions co;
                co.cacheDir = dir;
                r = sweep::Campaign(co).run(spec);
                bytes = emit(r, off);
            } else {
                warmRuns.push_back(tr.beginRun());
                r = replay(spec, cache, tr);
                bytes = emit(r, tr);
            }
            warm.push_back(secondsBetween(t0, Clock::now()));
            rep.operation(checkWarm(r, bytes, coldBytes, 1));
            warmHits = r.cacheHits;
        }
        if (tr.enabled())
            layers.push_back(simLayerMetrics(w, op, tr, id, warmRuns,
                                             warmHits, dirBytes(dir)));
        fs::remove_all(dir);
    };

    if (!opt.trace) {
        repeatUntil(deadline, 3, [&] { operation(off); });
        printSamples("wall_s", wall);
        printSamples("setup_s", setup);
        printSamples("warm_s", warm);
        rep.add("wall_s", best(wall), "s");
        rep.add("sim_mips", ratio(instrs, best(run) * 1e6), "Minstr/s");
        rep.add("setup_s", best(setup), "s");
        rep.add("peak_rss_mb", peakRssMiB(), "MiB");
        rep.add("ipc", ipc, "instr/cycle");
        rep.add("warm_s", best(warm), "s");
        return;
    }
    repeatUntil(deadline, 1, [&] {
        operation(off);
        operation(tracer);
    });
    rep.metrics = medianMetrics(layers);
    rep.add("trace.overhead_s", median(tracedWall) - median(untracedWall),
            "s");
}

//
// fig18_campaign: the paper's Fig. 18 matrix through sweep::Campaign.
//

/** fig18Spec with its axis points shuffled by @p seed (only the run
 *  order changes, never a run's work); --small keeps 1-2 cores. */
sweep::SweepSpec
campaignSpec(uint64_t seed, bool small)
{
    sweep::SweepSpec spec = sweep::fig18Spec();
    if (small)
        spec.axes[1].points.resize(2);
    Xorshift rng(0x5eed5eed00000000ull ^ seed);
    for (sweep::Axis& axis : spec.axes)
        for (size_t i = axis.points.size(); i > 1; --i)
            std::swap(axis.points[i - 1], axis.points[rng.nextBounded(i)]);
    return spec;
}

/** The campaign's set-up: spec build and expansion, then the Device and
 *  kernel upload each run pays before it simulates. */
struct CampaignSetup
{
    sweep::SweepSpec spec;
    size_t runs = 0;
    size_t imageBytes = 0;
    double seconds = 0.0;
};

CampaignSetup
campaignSetup(const Options& opt, Tracer& tr)
{
    CampaignSetup cs;
    const auto t0 = Clock::now();
    cs.spec = campaignSpec(opt.seed, opt.small);
    std::vector<sweep::RunSpec> runs;
    {
        auto s = tr.span("expand", "sweep");
        runs = cs.spec.expand();
    }
    for (const sweep::RunSpec& run : runs) {
        std::unique_ptr<runtime::Device> dev;
        {
            auto s = tr.span("Device", "runtime");
            dev = std::make_unique<runtime::Device>(run.config);
        }
        auto s = tr.span("uploadKernel", "isa");
        dev->uploadKernel(kernels::kernelSource(run.workload.kernel));
        cs.imageBytes += dev->program().size();
    }
    cs.runs = runs.size();
    cs.seconds = secondsBetween(t0, Clock::now());
    return cs;
}

/** Failures of a cold pass: failed runs, and counts that differ from an
 *  earlier repetition. */
void
checkCold(const sweep::CampaignResult& r,
          std::map<std::string, std::pair<uint64_t, uint64_t>>& seen,
          Report& rep)
{
    for (const sweep::RunRecord& rec : r.records) {
        std::string error;
        if (!rec.result.ok)
            error = rec.spec.id() + ": " + statusName(rec.result.status) +
                    " " + rec.result.error;
        else
            error = checkRepeat(seen, rec.spec.id(), rec.result.cycles,
                                rec.result.threadInstrs);
        rep.operation(error);
    }
}

void
runCampaign(const Options& opt, Clock::time_point deadline, Report& rep,
            Tracer& tracer)
{
    std::map<std::string, std::pair<uint64_t, uint64_t>> seen;
    Tracer off(false);
    sweep::CampaignOptions co;
    co.jobs = 0; // one job per host CPU
    const uint32_t jobs = sweep::Campaign(co).options().jobs;
    {
        std::ostringstream order;
        for (const sweep::RunSpec& r :
             campaignSpec(opt.seed, opt.small).expand())
            order << r.id() << ",";
        const std::string s = order.str();
        std::cout << "inputs fig18_campaign seed " << opt.seed << " fnv "
                  << fnv1a(s.data(), s.size()) << " jobs " << jobs << "\n";
    }

    /** The user's path: Campaign::run on the job pool, then emission;
     *  @return the cold pass's wall seconds. */
    std::vector<double> wall, setup, warm;
    double instrs = 0, cycles = 0;
    auto userPass = [&](const CampaignSetup& cs) {
        co.cacheDir = freshDir(opt, "cache");
        const auto t0 = Clock::now();
        sweep::CampaignResult cold = sweep::Campaign(co).run(cs.spec);
        const std::string coldBytes = emit(cold, off);
        const double wallS = secondsBetween(t0, Clock::now());
        checkCold(cold, seen, rep);
        double passInstrs = 0, passCycles = 0;
        for (const sweep::RunRecord& rec : cold.records) {
            passInstrs += rec.result.threadInstrs;
            passCycles += rec.result.cycles;
        }
        if (cold.failures() == 0) {
            wall.push_back(wallS);
            instrs = passInstrs;
            cycles = passCycles;
        }
        for (int i = 0; i < kWarmReruns; ++i) {
            const auto t1 = Clock::now();
            sweep::CampaignResult r = sweep::Campaign(co).run(cs.spec);
            std::string bytes = emit(r, off);
            if (opt.corrupt)
                bytes[0] ^= 1;
            warm.push_back(secondsBetween(t1, Clock::now()));
            rep.operation(checkWarm(r, bytes, coldBytes, cs.runs));
        }
        fs::remove_all(co.cacheDir);
        return wallS;
    };

    if (!opt.trace) {
        repeatUntil(deadline, 2, [&] {
            CampaignSetup cs = campaignSetup(opt, off);
            setup.push_back(cs.seconds);
            userPass(cs);
        });
        printSamples("wall_s", wall);
        printSamples("setup_s", setup);
        printSamples("warm_s", warm);
        rep.add("wall_s", best(wall), "s");
        rep.add("sim_mips", ratio(instrs, best(wall) * 1e6), "Minstr/s");
        rep.add("setup_s", best(setup), "s");
        rep.add("peak_rss_mb", peakRssMiB(), "MiB");
        rep.add("ipc", ratio(instrs, cycles), "instr/cycle");
        rep.add("warm_s", best(warm), "s");
        return;
    }

    // Traced run: one pass on the job pool gives the wall the pool
    // utilization is measured against; then serial replays through the
    // same public calls, alternately untraced and traced.
    const double poolWall = userPass(campaignSetup(opt, off));
    std::vector<double> tracedWall, untracedWall;
    std::vector<std::vector<Metric>> layers;
    auto serialPass = [&](Tracer& tr) {
        const uint32_t run = tr.beginRun();
        auto root = tr.span("operation", "bench");
        const auto t0 = Clock::now();
        CampaignSetup cs = campaignSetup(opt, tr);
        const std::string dir = freshDir(opt, "cache");
        sweep::CacheStore cache(dir);
        sweep::CampaignResult cold = replay(cs.spec, cache, tr);
        const std::string coldBytes = emit(cold, tr);
        (tr.enabled() ? tracedWall : untracedWall)
            .push_back(secondsBetween(t0, Clock::now()));
        checkCold(cold, seen, rep);
        const uint64_t cacheBytes = dirBytes(dir);
        std::vector<uint32_t> warmRuns;
        uint32_t warmHits = 0;
        for (int i = 0; i < kWarmReruns; ++i) {
            warmRuns.push_back(tr.beginRun());
            sweep::CampaignResult r = replay(cs.spec, cache, tr);
            rep.operation(checkWarm(r, emit(r, tr), coldBytes, cs.runs));
            warmHits = r.cacheHits;
        }
        fs::remove_all(dir);
        if (!tr.enabled())
            return;

        std::vector<Metric> m;
        StatGroup stats;
        double runS = 0, cyc = 0, coreCyc = 0, instrs = 0;
        for (const sweep::RunRecord& rec : cold.records) {
            stats.add(rec.stats);
            runS += rec.hostSeconds;
            cyc += rec.result.cycles;
            coreCyc += double(rec.result.cycles) * rec.spec.config.numCores;
            instrs += rec.result.threadInstrs;
        }
        m.push_back(Metric{"isa.upload_s", tr.sum(run, "uploadKernel"), "s"});
        m.push_back(Metric{"isa.image_bytes", double(cs.imageBytes), "B"});
        m.push_back(Metric{"runtime.device_s", tr.sum(run, "Device"), "s"});
        m.push_back(Metric{"runtime.copy_s", 0.0, "s"});
        m.push_back(Metric{"runtime.copy_bytes", 0.0, "B"});
        addCoreTimeMetrics(m, runS, cyc, coreCyc, instrs, 0.0);
        addCountMetrics(m, stats, cyc, coreCyc);
        double load = 0, emitS = 0;
        for (uint32_t r : warmRuns) {
            load += tr.sum(r, "CacheStore::load");
            emitS += tr.sum(r, "writeCsv") + tr.sum(r, "writeJson");
        }
        const double sweepRun = tr.sum(run, "executeRun");
        m.push_back(Metric{"sweep.expand_s", tr.sum(run, "expand"), "s"});
        m.push_back(Metric{"sweep.run_s", sweepRun, "s"});
        m.push_back(Metric{"sweep.critical_run_s", tr.max(run, "executeRun"),
                           "s"});
        m.push_back(Metric{"sweep.pool_util",
                           ratio(sweepRun, jobs * poolWall), "ratio"});
        m.push_back(Metric{"sweep.cache_store_s",
                           tr.sum(run, "CacheStore::store") +
                               tr.sum(run, "CacheStore::writeManifest"),
                           "s"});
        m.push_back(Metric{"sweep.cache_load_s", load / kWarmReruns, "s"});
        m.push_back(Metric{"sweep.emit_s", emitS / kWarmReruns, "s"});
        m.push_back(Metric{"sweep.cache_hits", double(warmHits), "count"});
        m.push_back(Metric{"sweep.cache_misses", double(cold.cacheMisses),
                           "count"});
        m.push_back(Metric{"sweep.cache_bytes", double(cacheBytes), "B"});
        layers.push_back(std::move(m));
    };
    repeatUntil(deadline, 1, [&] {
        serialPass(off);
        serialPass(tracer);
    });
    rep.metrics = medianMetrics(layers);
    rep.add("trace.overhead_s", median(tracedWall) - median(untracedWall),
            "s");
}

[[noreturn]] void
usage(const std::string& why)
{
    std::cerr << "vxbench: " << why
              << "\nusage: vxbench --workload sfilter_1c|saxpy_16c|"
                 "fig18_campaign --seed N --seconds S --trace 0|1 "
                 "[--commit ID] [--work-dir DIR] [--small] [--corrupt]\n";
    std::exit(2);
}

Options
parseArgs(int argc, char** argv)
{
    Options opt;
    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                usage("missing value for " + a);
            return argv[++i];
        };
        try {
            if (a == "--workload")
                opt.workload = value();
            else if (a == "--seed")
                opt.seed = std::stoull(value());
            else if (a == "--seconds")
                opt.seconds = std::stod(value());
            else if (a == "--trace")
                opt.trace = std::stoi(value()) != 0;
            else if (a == "--commit")
                opt.commit = value();
            else if (a == "--work-dir")
                opt.workDir = value();
            else if (a == "--small")
                opt.small = true;
            else if (a == "--corrupt")
                opt.corrupt = true;
            else
                usage("unknown argument " + a);
        } catch (const std::logic_error&) {
            usage("bad value for " + a);
        }
    }
    if (!(opt.seconds > 0.0))
        usage("--seconds must be positive");
    return opt;
}

} // namespace

int
main(int argc, char** argv)
{
    const auto start = Clock::now();
    const Options opt = parseArgs(argc, argv);
    const auto deadline =
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(opt.seconds));
    const std::string host = hostJson(opt.commit);
    std::cout << "host " << host << "\n";

    Report rep;
    Tracer tracer(opt.trace);
    const SimWorkload* sim = nullptr;
    for (const SimWorkload& w : kSimWorkloads)
        if (opt.workload == w.name)
            sim = &w;
    try {
        if (sim)
            runSimWorkload(*sim, opt, deadline, rep, tracer);
        else if (opt.workload == "fig18_campaign")
            runCampaign(opt, deadline, rep, tracer);
        else
            usage("unknown workload '" + opt.workload + "'");
    } catch (const std::exception& e) {
        std::cerr << "vxbench: " << e.what() << "\n";
        return 1;
    }
    std::error_code ec; // left in place while another run still uses it
    fs::remove(fs::path(opt.workDir) / "work", ec);

    if (opt.trace) {
        fs::path dir = fs::path(opt.workDir) / "traces";
        fs::create_directories(dir);
        fs::path file = dir / (opt.workload + "-seed" +
                               std::to_string(opt.seed) + ".json");
        std::ofstream os(file);
        os << "{\n  \"host\": " << host
           << ",\n  \"workload\": " << jsonString(opt.workload)
           << ",\n  \"seed\": " << opt.seed << ",\n  \"metrics\": {";
        const char* sep = "\n";
        for (const Metric& m : rep.metrics) {
            os << sep << "    " << jsonString(m.name) << ": {\"value\": "
               << jsonNumber(m.value) << ", \"unit\": " << jsonString(m.unit)
               << "}";
            sep = ",\n";
        }
        os << "\n  },\n";
        tracer.writeJson(os);
        os << "\n}\n";
        if (!os)
            std::cerr << "vxbench: could not write " << file << "\n";
        std::cout << "trace " << file.string() << "\n";
    }
    rep.print(std::cout);
    return 0;
}
