/**
 * @file
 * Shared pieces of the repository benchmark: clocks, honest
 * percentile summaries, the result record, the benchmark-side span
 * tracer and the submit/wait target the load drivers run against.
 *
 * Spans are recorded only by the benchmark's own code, around the
 * calls it makes into each module (io, tt, serve, registry, net,
 * cluster, quant, arch, linalg, common). Nothing inside src/ is
 * instrumented by this package.
 */

#ifndef PERFBENCH_BENCH_HH
#define PERFBENCH_BENCH_HH

#include <atomic>
#include <chrono>
#include <cstdint>
#include <initializer_list>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "cluster/router.hh"
#include "serve/model_registry.hh"

namespace perfbench {

using Clock = std::chrono::steady_clock;

/** Nanoseconds since the first call in this process. */
uint64_t nowNs();

inline double
usBetween(uint64_t t0_ns, uint64_t t1_ns)
{
    return double(t1_ns - t0_ns) / 1e3;
}

/**
 * Host steal time so far (seconds, all vCPUs) from /proc/stat: time
 * the hypervisor ran something else while this VM wanted a CPU.
 * Printed with each result; -1 where unavailable.
 */
double stealSeconds();

/**
 * CPU time of the calling thread (seconds). The kernel counts only
 * the time the thread ran: not the time it waited for a CPU, nor,
 * where the guest kernel accounts steal (CONFIG_PARAVIRT_TIME_
 * ACCOUNTING), the time the hypervisor gave its vCPU to another VM.
 */
double threadCpuSeconds();

/**
 * CPU placement, so runs do not differ by where the scheduler happened
 * to put things (two tie_worker processes that woke each other onto
 * one CPU served half the rate of the same two spread out). On hosts
 * with at least four CPUs the benchmark's own threads (clients, the
 * open-loop generator, the router, offline batches) run on CPUs 0 and
 * 3, and what it serves runs on CPUs 1 and 2. Elsewhere nothing is
 * pinned.
 */
bool placementOn();

/**
 * Runs the calling thread, and every thread or process it starts
 * meanwhile, on @p cpus until destroyed; a no-op when !placementOn().
 */
class CpuPin
{
  public:
    explicit CpuPin(std::initializer_list<int> cpus);
    ~CpuPin();
    CpuPin(const CpuPin &) = delete;
    CpuPin &operator=(const CpuPin &) = delete;

  private:
    bool pinned_ = false;
    std::vector<unsigned char> saved_; ///< opaque cpu_set_t bytes
};

/** Busy-wait until a nowNs() timestamp. */
void sleepUntilNs(uint64_t t_ns);


/**
 * Median, p90 and the highest of p99.9/p99/p95/p90/p50 that leaves
 * at least ten samples beyond it, plus the sample count.
 */
struct Summary
{
    size_t n = 0;
    double p50 = 0;
    double p90 = 0;
    double tail = 0;
    double tail_pct = 0; ///< which percentile `tail` is
    double p99 = 0;      ///< p99 when n >= 1000, else == tail
};
Summary summarize(std::vector<double> v);
double median(std::vector<double> v);
/** Nearest-rank @p p-th percentile (0..100) of @p v. */
double percentile(std::vector<double> v, double p);
std::string describe(const Summary &s, const char *unit);

/** One named metric with its unit, in emission order. */
struct Metric
{
    std::string name;
    double value = 0;
    std::string unit;
};

/** Everything one run reports. */
struct Result
{
    bool correct = true;
    uint64_t attempted = 0;
    uint64_t failed = 0;
    std::vector<Metric> end_to_end;
    std::vector<Metric> per_layer;
    std::vector<std::string> failures; ///< correctness-gate messages

    void e2e(const std::string &name, double v, const std::string &unit)
    {
        end_to_end.push_back({name, v, unit});
    }
    void layer(const std::string &name, double v, const std::string &unit)
    {
        per_layer.push_back({name, v, unit});
    }
    void fail(const std::string &why)
    {
        correct = false;
        failures.push_back(why);
    }
};

// ---------------------------------------------------------------------
// Benchmark-side span tracer.
// ---------------------------------------------------------------------

struct Span
{
    const char *name = "";
    const char *module = "";
    uint64_t t0_ns = 0;
    uint64_t t1_ns = 0;
    uint64_t id = 0;
    uint64_t parent = 0; ///< 0: root
    uint64_t req = 0;    ///< request id shared by a request's spans
    uint32_t tid = 0;
};

/**
 * Process-wide span store. Off by default; when off every span call
 * is a single relaxed load and no clock read. Each thread appends to
 * its own buffer, so recording never contends; buffers are merged
 * when the run ends.
 */
class Tracer
{
  public:
    static Tracer &instance();

    void enable(bool on) { on_.store(on, std::memory_order_relaxed); }
    bool on() const { return on_.load(std::memory_order_relaxed); }

    uint64_t newId() { return next_id_.fetch_add(1) + 1; }
    void add(const Span &s);
    std::vector<Span> collect() const;

  private:
    struct Buffer
    {
        uint32_t tid = 0;
        std::vector<Span> spans;
    };
    Buffer &local();

    std::atomic<bool> on_{false};
    std::atomic<uint64_t> next_id_{0};
    mutable std::mutex mu_; ///< guards buffers_
    std::vector<std::unique_ptr<Buffer>> buffers_;
};

/** RAII span around one call into a module. */
class ScopedSpan
{
  public:
    ScopedSpan(const char *name, const char *module, uint64_t req,
               uint64_t parent = 0);
    ~ScopedSpan();
    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

    uint64_t id() const { return span_.id; }

  private:
    bool on_;
    Span span_;
};

/** Record a span whose interval was measured elsewhere. */
void recordSpan(const char *name, const char *module, uint64_t t0_ns,
                uint64_t t1_ns, uint64_t req, uint64_t parent,
                uint64_t id = 0 /* 0: a new id */);

/** Per-module self time: span time not covered by child spans. */
std::map<std::string, double> selfTimeUs(const std::vector<Span> &spans);

/**
 * Chrome trace of the benchmark's spans (pid 4, one track per thread)
 * merged into @p base_json, the obs::Trace document that holds the
 * pid-1 TieSim cycles, so both read in one viewer.
 */
std::string mergeTrace(const std::string &base_json,
                       const std::vector<Span> &spans);

// ---------------------------------------------------------------------
// Submit/wait targets and the load drivers.
// ---------------------------------------------------------------------

/** One in-flight request, whichever serving path carries it. */
struct Pending
{
    uint64_t req = 0;
    uint64_t span = 0; ///< root span id when tracing
    uint64_t t_submit_ns = 0;
    tie::serve::Ticket ticket;
    tie::serve::RegistryTicket rticket;
    tie::cluster::ClusterTicket cticket;
};

/** What wait() learned about a request. */
struct Outcome
{
    bool done = false; ///< false: shed / timed out / rejected
    bool has_timing = false;
    tie::serve::RequestTiming timing;
};

/**
 * The serving path under load. submit() returns false when the
 * request is refused at admission; wait() blocks until it is
 * terminal and fills @p out on success. expected() is the bit-exact
 * oracle output for request @p req.
 */
class Target
{
  public:
    virtual ~Target() = default;
    virtual bool submit(uint64_t req, Pending *p) = 0;
    virtual Outcome wait(Pending &p, std::vector<double> &out) = 0;
    virtual const std::vector<double> &expected(uint64_t req) const = 0;
    virtual size_t outSize(uint64_t req) const = 0;
};

/** Raw outcome of one closed- or open-loop phase. */
struct LoopStats
{
    uint64_t attempted = 0;
    uint64_t done = 0;
    uint64_t shed = 0; ///< refused at admission or terminal non-Done
    uint64_t mismatched = 0;
    double wall_s = 0;
    /** Closed loop: completions per second over consecutive windows of
        equal completion count, each about kWindowS long. */
    std::vector<double> window_rps;
    std::vector<double> latency_us;
    std::vector<double> queue_us;    ///< RequestTiming, when known
    std::vector<double> service_us;  ///< RequestTiming, when known
    std::vector<double> overhead_us; ///< latency - queue - service
    std::vector<double> lateness_us; ///< open loop: submit - due
    /** (submit, done) of every completed request; traced runs only. */
    std::vector<std::pair<uint64_t, uint64_t>> intervals_ns;
    bool lateness_grew = false;

    /** Fold another phase's counts and samples into this one. */
    void absorb(const LoopStats &o);
};

/** Closed-loop throughput windows are about this long (seconds). */
constexpr double kWindowS = 0.005;

/**
 * @p clients threads for @p seconds, each keeping @p depth requests in
 * flight: submit until @p depth are outstanding, wait for the oldest,
 * submit the next. Requests still in flight at the end are waited for.
 * Per-request latency and timing samples are kept only when tracing.
 */
LoopStats runClosed(Target &target, size_t clients, size_t depth,
                    double seconds, uint64_t first_req);

/**
 * Seeded Poisson arrivals at @p rate per second for @p seconds (at
 * least @p min_requests arrivals). One thread submits at each due
 * time; two more wait on tickets in submission order. Latency is
 * timed from the due time, so a stall shows on every later request.
 * A synchronous target (whose submit does the work) runs on the
 * submitting thread alone.
 */
LoopStats runOpen(Target &target, double rate, double seconds,
                  size_t min_requests, uint64_t seed, uint64_t first_req,
                  bool synchronous);

} // namespace perfbench

#endif // PERFBENCH_BENCH_HH
