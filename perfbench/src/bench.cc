#include "bench.hh"

#include <sched.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <deque>
#include <fstream>
#include <thread>

#include "common/random.hh"

namespace perfbench {

namespace {

/** Nearest-rank percentile of an ascending vector. */
double
sortedPercentile(const std::vector<double> &sorted, double p)
{
    if (sorted.empty())
        return 0;
    const double rank = std::ceil(p / 100.0 * double(sorted.size()));
    const size_t idx = rank < 1 ? 0 : size_t(rank) - 1;
    return sorted[std::min(idx, sorted.size() - 1)];
}

} // namespace

uint64_t
nowNs()
{
    static const Clock::time_point epoch = Clock::now();
    return uint64_t(std::chrono::duration_cast<std::chrono::nanoseconds>(
                        Clock::now() - epoch)
                        .count());
}

bool
placementOn()
{
    static const bool on = [] {
        cpu_set_t set;
        return ::sched_getaffinity(0, sizeof(set), &set) == 0 &&
               CPU_COUNT(&set) >= 4 && CPU_ISSET(0, &set) &&
               CPU_ISSET(1, &set) && CPU_ISSET(2, &set) &&
               CPU_ISSET(3, &set);
    }();
    return on;
}

CpuPin::CpuPin(std::initializer_list<int> cpus)
{
    if (!placementOn())
        return;
    cpu_set_t old, set;
    if (::sched_getaffinity(0, sizeof(old), &old) != 0)
        return;
    CPU_ZERO(&set);
    for (int c : cpus)
        CPU_SET(c, &set);
    if (::sched_setaffinity(0, sizeof(set), &set) != 0)
        return;
    saved_.resize(sizeof(old));
    std::memcpy(saved_.data(), &old, sizeof(old));
    pinned_ = true;
}

CpuPin::~CpuPin()
{
    if (!pinned_)
        return;
    cpu_set_t old;
    std::memcpy(&old, saved_.data(), sizeof(old));
    ::sched_setaffinity(0, sizeof(old), &old);
}

double
stealSeconds()
{
    std::ifstream f("/proc/stat");
    std::string cpu;
    unsigned long long v[8] = {};
    if (!(f >> cpu) || cpu != "cpu")
        return -1;
    for (unsigned long long &x : v)
        if (!(f >> x))
            return -1;
    return double(v[7]) / double(::sysconf(_SC_CLK_TCK));
}

double
threadCpuSeconds()
{
    timespec ts{};
    ::clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return double(ts.tv_sec) + double(ts.tv_nsec) / 1e9;
}

void
sleepUntilNs(uint64_t t_ns)
{
    // Spin: a sleeping generator thread wakes up to milliseconds late on
    // a virtualized host, and that lateness would land on every
    // open-loop latency. Yielding lets a thread woken on this CPU (the
    // server, a waiter) run at once instead of after a time slice.
    while (nowNs() < t_ns)
        std::this_thread::yield();
}

double
median(std::vector<double> v)
{
    return percentile(std::move(v), 50);
}

double
percentile(std::vector<double> v, double p)
{
    std::sort(v.begin(), v.end());
    return sortedPercentile(v, p);
}

Summary
summarize(std::vector<double> v)
{
    Summary s;
    s.n = v.size();
    if (v.empty())
        return s;
    std::sort(v.begin(), v.end());
    s.p50 = sortedPercentile(v, 50);
    s.p90 = sortedPercentile(v, 90);
    s.tail = v.back();
    s.tail_pct = 100;
    for (double p : {99.9, 99.0, 95.0, 90.0, 50.0}) {
        if (double(s.n) * (100.0 - p) / 100.0 >= 10.0) {
            s.tail = sortedPercentile(v, p);
            s.tail_pct = p;
            break;
        }
    }
    s.p99 = s.n >= 1000 ? sortedPercentile(v, 99) : s.tail;
    return s;
}

std::string
describe(const Summary &s, const char *unit)
{
    char buf[192];
    std::snprintf(buf, sizeof(buf), "p50 %.1f %s, p90 %.1f %s, p%g %.1f %s "
                  "(n=%zu)",
                  s.p50, unit, s.p90, unit, s.tail_pct, s.tail, unit, s.n);
    return buf;
}

// ---------------------------------------------------------------------
// Tracer
// ---------------------------------------------------------------------

Tracer &
Tracer::instance()
{
    static Tracer t;
    return t;
}

Tracer::Buffer &
Tracer::local()
{
    thread_local Buffer *buf = nullptr;
    if (buf == nullptr) {
        std::lock_guard<std::mutex> lk(mu_);
        buffers_.push_back(std::make_unique<Buffer>());
        buf = buffers_.back().get();
        buf->tid = uint32_t(buffers_.size());
        buf->spans.reserve(1 << 14);
    }
    return *buf;
}

void
Tracer::add(const Span &s)
{
    Buffer &b = local();
    b.spans.push_back(s);
    b.spans.back().tid = b.tid;
}

std::vector<Span>
Tracer::collect() const
{
    std::lock_guard<std::mutex> lk(mu_);
    std::vector<Span> all;
    for (const auto &b : buffers_)
        all.insert(all.end(), b->spans.begin(), b->spans.end());
    return all;
}

ScopedSpan::ScopedSpan(const char *name, const char *module, uint64_t req,
                       uint64_t parent)
    : on_(Tracer::instance().on())
{
    if (!on_)
        return;
    span_.name = name;
    span_.module = module;
    span_.req = req;
    span_.parent = parent;
    span_.id = Tracer::instance().newId();
    span_.t0_ns = nowNs();
}

ScopedSpan::~ScopedSpan()
{
    if (!on_)
        return;
    span_.t1_ns = nowNs();
    Tracer::instance().add(span_);
}

void
recordSpan(const char *name, const char *module, uint64_t t0_ns,
           uint64_t t1_ns, uint64_t req, uint64_t parent, uint64_t id)
{
    Tracer &t = Tracer::instance();
    if (!t.on())
        return;
    Span s;
    s.name = name;
    s.module = module;
    s.t0_ns = t0_ns;
    s.t1_ns = std::max(t0_ns, t1_ns);
    s.req = req;
    s.parent = parent;
    s.id = id != 0 ? id : t.newId();
    t.add(s);
}

std::map<std::string, double>
selfTimeUs(const std::vector<Span> &spans)
{
    std::map<uint64_t, std::vector<const Span *>> children;
    for (const Span &s : spans)
        if (s.parent != 0)
            children[s.parent].push_back(&s);

    std::map<std::string, double> self;
    std::vector<std::pair<uint64_t, uint64_t>> iv;
    for (const Span &s : spans) {
        iv.clear();
        auto it = children.find(s.id);
        if (it != children.end())
            for (const Span *c : it->second) {
                const uint64_t a = std::max(s.t0_ns, c->t0_ns);
                const uint64_t b = std::min(s.t1_ns, c->t1_ns);
                if (b > a)
                    iv.push_back({a, b});
            }
        std::sort(iv.begin(), iv.end());
        uint64_t covered = 0, reach = s.t0_ns;
        for (const auto &[a, b] : iv) {
            const uint64_t lo = std::max(a, reach);
            if (b > lo) {
                covered += b - lo;
                reach = b;
            }
        }
        self[s.module] += double(s.t1_ns - s.t0_ns - covered) / 1e3;
    }
    return self;
}

std::string
mergeTrace(const std::string &base_json, const std::vector<Span> &spans)
{
    std::string ev =
        "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":4,\"tid\":0,"
        "\"args\":{\"name\":\"perfbench spans (wall-clock)\"}}";
    char buf[512];
    for (const Span &s : spans) {
        std::snprintf(buf, sizeof(buf),
                      ",{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\","
                      "\"pid\":4,\"tid\":%u,\"ts\":%.3f,\"dur\":%.3f,"
                      "\"args\":{\"req\":%llu,\"id\":%llu,"
                      "\"parent\":%llu}}",
                      s.name, s.module, s.tid, double(s.t0_ns) / 1e3,
                      double(s.t1_ns - s.t0_ns) / 1e3,
                      (unsigned long long)s.req, (unsigned long long)s.id,
                      (unsigned long long)s.parent);
        ev += buf;
    }
    const size_t open = base_json.find("\"traceEvents\"");
    const size_t close = base_json.rfind(']');
    if (open == std::string::npos || close == std::string::npos)
        return "{\"traceEvents\":[" + ev + "]}";
    const size_t lb = base_json.find('[', open);
    const bool empty =
        base_json.find_first_not_of(" \n\t", lb + 1) == close;
    return base_json.substr(0, close) + (empty ? "" : ",") + ev +
           base_json.substr(close);
}

// ---------------------------------------------------------------------
// Load drivers
// ---------------------------------------------------------------------

namespace {

bool
sameBits(const std::vector<double> &a, const std::vector<double> &b)
{
    return a.size() == b.size() &&
           std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

/** Per-thread tallies merged into a LoopStats after the phase. */
struct Tally
{
    LoopStats s;
    std::vector<uint64_t> done_at_ns;
    /** Keep per-request latency and timing samples. An untraced closed
        loop needs only completion times; its samples would add to the
        process's peak RSS, one of the metrics. */
    bool samples = true;
};

void
finishRequest(Target &target, Pending &p, const Outcome &o,
              const std::vector<double> &out, uint64_t t_from_ns,
              uint64_t t_done_ns, Tally &t)
{
    if (!o.done) {
        ++t.s.shed;
        return;
    }
    ++t.s.done;
    if (!sameBits(out, target.expected(p.req)))
        ++t.s.mismatched;
    t.done_at_ns.push_back(t_done_ns);
    if (!t.samples)
        return;
    t.s.latency_us.push_back(usBetween(t_from_ns, t_done_ns));
    if (Tracer::instance().on())
        t.s.intervals_ns.push_back({p.t_submit_ns, t_done_ns});
    if (o.has_timing) {
        t.s.queue_us.push_back(o.timing.queue_wait_us);
        t.s.service_us.push_back(o.timing.service_us);
        t.s.overhead_us.push_back(
            usBetween(p.t_submit_ns, t_done_ns) - o.timing.queue_wait_us -
            o.timing.service_us);
    }
}

void
merge(std::vector<Tally> &tallies, LoopStats &out,
      std::vector<uint64_t> &done_at)
{
    for (Tally &t : tallies) {
        out.absorb(t.s);
        done_at.insert(done_at.end(), t.done_at_ns.begin(),
                       t.done_at_ns.end());
    }
}

} // namespace

void
LoopStats::absorb(const LoopStats &o)
{
    attempted += o.attempted;
    done += o.done;
    shed += o.shed;
    mismatched += o.mismatched;
    wall_s += o.wall_s;
    lateness_grew = lateness_grew || o.lateness_grew;
    auto cat = [](std::vector<double> &dst, const std::vector<double> &src) {
        dst.insert(dst.end(), src.begin(), src.end());
    };
    cat(window_rps, o.window_rps);
    cat(latency_us, o.latency_us);
    cat(queue_us, o.queue_us);
    cat(service_us, o.service_us);
    cat(overhead_us, o.overhead_us);
    cat(lateness_us, o.lateness_us);
    intervals_ns.insert(intervals_ns.end(), o.intervals_ns.begin(),
                        o.intervals_ns.end());
}

LoopStats
runClosed(Target &target, size_t clients, size_t depth, double seconds,
          uint64_t first_req)
{
    std::atomic<uint64_t> next{first_req};
    std::vector<Tally> tallies(clients);
    const uint64_t t_start = nowNs();
    const uint64_t t_end = t_start + uint64_t(seconds * 1e9);
    const bool traced = Tracer::instance().on();

    std::vector<std::thread> threads;
    for (size_t c = 0; c < clients; ++c)
        threads.emplace_back([&, c] {
            Tally &t = tallies[c];
            t.samples = traced;
            t.done_at_ns.reserve(1 << 16);
            std::deque<Pending> inflight;
            std::vector<double> out;
            for (;;) {
                while (inflight.size() < depth && nowNs() < t_end) {
                    Pending p;
                    p.req = next.fetch_add(1);
                    p.span = traced ? Tracer::instance().newId() : 0;
                    ++t.s.attempted;
                    p.t_submit_ns = nowNs();
                    if (!target.submit(p.req, &p)) {
                        ++t.s.shed;
                        recordSpan("request", "bench", p.t_submit_ns,
                                   nowNs(), p.req, 0, p.span);
                        std::this_thread::yield();
                        continue;
                    }
                    inflight.push_back(std::move(p));
                }
                if (inflight.empty())
                    break;
                Pending &p = inflight.front();
                out.resize(target.outSize(p.req));
                const Outcome o = target.wait(p, out);
                const uint64_t t_done = nowNs();
                finishRequest(target, p, o, out, p.t_submit_ns, t_done, t);
                recordSpan("request", "bench", p.t_submit_ns, t_done, p.req,
                           0, p.span);
                inflight.pop_front();
            }
        });
    for (std::thread &th : threads)
        th.join();

    LoopStats s;
    std::vector<uint64_t> done_at;
    merge(tallies, s, done_at);
    s.wall_s = double(std::max(nowNs(), t_end) - t_start) / 1e9;

    // Windows of equal completion count, each about kWindowS long and
    // at least one full batch, cut from the sorted completion times.
    std::sort(done_at.begin(), done_at.end());
    const size_t per = std::max<size_t>(
        8, size_t(double(done_at.size()) * kWindowS /
                  std::max(s.wall_s, kWindowS)));
    uint64_t from = t_start;
    for (size_t w = per; w <= done_at.size(); w += per) {
        const uint64_t to = done_at[w - 1];
        s.window_rps.push_back(
            double(per) / (double(std::max<uint64_t>(to - from, 1)) / 1e9));
        from = to;
    }
    return s;
}

LoopStats
runOpen(Target &target, double rate, double seconds, size_t min_requests,
        uint64_t seed, uint64_t first_req, bool synchronous)
{
    // Seeded Poisson schedule: exponential gaps of mean 1/rate.
    std::vector<uint64_t> due;
    {
        tie::Rng rng(seed * 0x9e3779b97f4a7c15ull + 0x0be11);
        double t = 0;
        while (t < seconds || due.size() < min_requests) {
            t += -std::log(1.0 - rng.uniform()) / rate;
            due.push_back(uint64_t(t * 1e9));
        }
    }

    // Two waiters take tickets in submission order, so one slow request
    // does not hold back the completion time of the next.
    constexpr size_t kWaiters = 2;
    Tally sub;
    std::vector<Tally> wt(kWaiters);
    sub.s.lateness_us.reserve(due.size());

    std::mutex mu; // guards queue and producer_done
    std::condition_variable cv;
    std::deque<std::pair<Pending, uint64_t>> queue;
    bool producer_done = false;

    const uint64_t t0 = nowNs() + 2000000;
    auto submitter = [&] {
        std::vector<double> out;
        for (size_t i = 0; i < due.size(); ++i) {
            const uint64_t due_ns = t0 + due[i];
            sleepUntilNs(due_ns);
            Pending p;
            p.req = first_req + i;
            p.t_submit_ns = nowNs();
            sub.s.lateness_us.push_back(usBetween(due_ns, p.t_submit_ns));
            ++sub.s.attempted;
            ScopedSpan root("request", "bench", p.req);
            p.span = root.id();
            if (!target.submit(p.req, &p)) {
                ++sub.s.shed;
                continue;
            }
            if (synchronous) {
                out.resize(target.outSize(p.req));
                const Outcome o = target.wait(p, out);
                finishRequest(target, p, o, out, due_ns, nowNs(), wt[0]);
                continue;
            }
            std::lock_guard<std::mutex> lk(mu);
            queue.emplace_back(std::move(p), due_ns);
            cv.notify_one();
        }
        std::lock_guard<std::mutex> lk(mu);
        producer_done = true;
        cv.notify_all();
    };
    auto waiter = [&](Tally &t) {
        std::vector<double> out;
        for (;;) {
            std::pair<Pending, uint64_t> item;
            {
                std::unique_lock<std::mutex> lk(mu);
                cv.wait(lk, [&] { return !queue.empty() || producer_done; });
                if (queue.empty())
                    return;
                item = std::move(queue.front());
                queue.pop_front();
            }
            out.resize(target.outSize(item.first.req));
            const Outcome o = target.wait(item.first, out);
            finishRequest(target, item.first, o, out, item.second, nowNs(),
                          t);
        }
    };

    if (synchronous) {
        submitter();
    } else {
        std::vector<std::thread> waiters;
        for (Tally &t : wt)
            waiters.emplace_back(waiter, std::ref(t));
        submitter();
        for (std::thread &w : waiters)
            w.join();
    }

    std::vector<Tally> tallies = std::move(wt);
    tallies.push_back(std::move(sub));
    LoopStats s;
    std::vector<uint64_t> done_at;
    merge(tallies, s, done_at);
    s.wall_s = double(nowNs() - t0) / 1e9;

    // A generator that falls further behind over the phase is not
    // offering the stated rate. Compare the least lateness of the first
    // and last quarters: after a host stall the generator catches up
    // within the quarter, while one that cannot hold the rate stays
    // behind for all of it.
    const size_t q = s.lateness_us.size() / 4;
    if (q >= 10) {
        const auto first_end = s.lateness_us.begin() + q;
        const auto last_begin = s.lateness_us.end() - q;
        s.lateness_grew =
            *std::min_element(last_begin, s.lateness_us.end()) -
                *std::min_element(s.lateness_us.begin(), first_end) >
            1000.0;
    }
    return s;
}

} // namespace perfbench
