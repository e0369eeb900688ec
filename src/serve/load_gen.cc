#include "serve/load_gen.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstring>
#include <mutex>
#include <thread>

#include "common/logging.hh"
#include "common/random.hh"

namespace tie {
namespace serve {

namespace {

using Clock = std::chrono::steady_clock;

void
fillRequestInput(uint64_t seed, size_t index, std::vector<double> &x)
{
    // Mix the index into the seed (splitmix-style odd constant) so
    // consecutive requests draw unrelated streams.
    Rng rng(seed + 0x9e3779b97f4a7c15ull * (index + 1));
    for (double &v : x)
        v = rng.uniform(-1.0, 1.0);
}

bool
bitIdentical(const std::vector<double> &a, const std::vector<double> &b)
{
    return a.size() == b.size() &&
           (a.empty() || std::memcmp(a.data(), b.data(),
                                     a.size() * sizeof(double)) == 0);
}

/** What the generator learned about one request. */
struct Outcome
{
    RequestStatus status = RequestStatus::Rejected;
    bool mismatched = false;
    double latency_us = 0;
    RequestTiming timing;
};

/** Report over requests first, first + step, ... of one run. */
LoadGenReport
report(const std::vector<Outcome> &outcomes, size_t first, size_t step,
       double offered_qps, double wall_s)
{
    LoadGenReport r;
    std::vector<double> latency, queue_wait, service;
    for (size_t i = first; i < outcomes.size(); i += step) {
        const Outcome &o = outcomes[i];
        ++r.submitted;
        r.rejected += o.status == RequestStatus::Rejected;
        r.timed_out += o.status == RequestStatus::TimedOut;
        if (o.status != RequestStatus::Done)
            continue;
        ++r.completed;
        r.mismatched += o.mismatched;
        latency.push_back(o.latency_us);
        queue_wait.push_back(o.timing.queue_wait_us);
        service.push_back(o.timing.service_us);
    }
    r.open_loop = offered_qps > 0;
    r.wall_s = wall_s;
    r.offered_qps = offered_qps;
    r.achieved_qps = wall_s > 0 ? r.completed / wall_s : 0;
    r.latency = summarize(std::move(latency));
    r.queue_wait = summarize(std::move(queue_wait));
    r.service = summarize(std::move(service));
    return r;
}

/** One run's request stream: lane routing, the oracle, the outcomes. */
struct Stream
{
    LoadTarget &target;
    const LoadGenOptions &opts;
    const LaneOutputs *expected;
    size_t lanes;
    std::vector<Outcome> outcomes; ///< entry i written by one thread

    /** Fill @p x with request @p i's input; returns its lane. */
    size_t
    input(size_t i, std::vector<double> &x) const
    {
        x.resize(target.inSize(i % lanes));
        fillRequestInput(opts.seed, i, x);
        return i % lanes;
    }

    /**
     * Wait for request @p i and record its outcome. Closed-loop
     * latency runs from @p t0 (the submit) to wait-return; open-loop
     * latency is the server-side queue wait + service, which a
     * collector lagging the arrival rate cannot inflate.
     */
    void
    collect(size_t i, LoadTicket &t, std::vector<double> &y,
            Clock::time_point t0)
    {
        Outcome &o = outcomes[i];
        o.status = target.wait(i % lanes, t, &y, &o.timing);
        TIE_REQUIRE(o.status == RequestStatus::Done ||
                        o.status == RequestStatus::Rejected ||
                        o.status == RequestStatus::TimedOut,
                    "load generator wait returned ", toString(o.status));
        o.latency_us = opts.offered_qps > 0
                           ? o.timing.queue_wait_us + o.timing.service_us
                           : std::chrono::duration<double, std::micro>(
                                 Clock::now() - t0)
                                 .count();
        o.mismatched = o.status == RequestStatus::Done &&
                       expected != nullptr &&
                       !bitIdentical(y, (*expected)[i % lanes][i / lanes]);
    }
};

/** Closed loop: each client keeps one request outstanding. */
void
runClosedLoop(Stream &s)
{
    std::atomic<size_t> next{0};
    std::vector<std::thread> clients;
    for (size_t c = 0; c < s.opts.clients; ++c) {
        clients.emplace_back([&] {
            std::vector<double> x, y;
            LoadTicket t;
            for (size_t i; (i = next.fetch_add(1)) < s.opts.requests;) {
                const size_t lane = s.input(i, x);
                const Clock::time_point t0 = Clock::now();
                s.target.submit(lane, x.data(), s.opts.deadline_us, t);
                s.collect(i, t, y, t0);
            }
        });
    }
    for (std::thread &t : clients)
        t.join();
}

/** Open loop: a pacer submits, this thread collects in order. */
void
runOpenLoop(Stream &s)
{
    const LoadGenOptions &opts = s.opts;
    std::vector<LoadTicket> tickets(opts.requests);
    std::mutex mu;
    std::condition_variable cv;
    size_t produced = 0;

    std::thread pacer([&] {
        Rng rng(opts.seed ^ 0xa5a5a5a55a5a5a5aull);
        std::vector<double> x;
        Clock::time_point next = Clock::now();
        for (size_t i = 0; i < opts.requests; ++i) {
            // Poisson arrivals, independent of completions.
            const double gap_s =
                -std::log(1.0 - rng.uniform()) / opts.offered_qps;
            next += std::chrono::duration_cast<Clock::duration>(
                std::chrono::duration<double>(gap_s));
            std::this_thread::sleep_until(next);
            const size_t lane = s.input(i, x);
            // tickets[i] is published to the collector by `produced`.
            s.target.submit(lane, x.data(), opts.deadline_us,
                            tickets[i]);
            {
                std::lock_guard<std::mutex> lk(mu);
                produced = i + 1;
            }
            cv.notify_one();
        }
    });

    std::vector<double> y;
    for (size_t i = 0; i < opts.requests; ++i) {
        {
            std::unique_lock<std::mutex> lk(mu);
            cv.wait(lk, [&] { return produced > i; });
        }
        s.collect(i, tickets[i], y, Clock::time_point());
    }
    pacer.join();
}

} // namespace

std::vector<double>
makeRequestInput(uint64_t seed, size_t index, size_t n)
{
    std::vector<double> x(n);
    fillRequestInput(seed, index, x);
    return x;
}

std::vector<std::vector<double>>
tenantReferenceOutputs(const std::vector<TtLayerViewD> &model,
                       size_t slot, size_t n_models, uint64_t seed,
                       size_t total_requests)
{
    TIE_CHECK_ARG(!model.empty(),
                  "reference outputs need at least one layer");
    TIE_CHECK_ARG(n_models >= 1 && slot < n_models,
                  "tenant slot ", slot, " out of range for ", n_models,
                  " models");
    std::vector<InferSessionD> sessions;
    sessions.reserve(model.size());
    for (const TtLayerViewD &layer : model)
        sessions.push_back(InferSessionD(layer));

    std::vector<std::vector<double>> out;
    std::vector<double> cur, nxt;
    for (size_t i = slot; i < total_requests; i += n_models) {
        cur.resize(model.front().cfg.inSize());
        fillRequestInput(seed, i, cur);
        std::vector<double> *a = &cur;
        std::vector<double> *b = &nxt;
        for (InferSessionD &s : sessions) {
            b->resize(s.config().outSize());
            s.runPtr(a->data(), 1, b->data());
            std::swap(a, b);
        }
        out.push_back(*a);
    }
    return out;
}

std::vector<std::vector<double>>
referenceOutputs(const std::vector<const TtMatrix *> &model,
                 uint64_t seed, size_t requests)
{
    std::vector<TtLayerViewD> views;
    for (const TtMatrix *layer : model) {
        TIE_CHECK_ARG(layer != nullptr,
                      "referenceOutputs got a null layer");
        views.push_back(layerView(*layer));
    }
    return referenceOutputs(views, seed, requests);
}

std::vector<std::vector<double>>
referenceOutputs(const std::vector<TtLayerViewD> &model, uint64_t seed,
                 size_t requests)
{
    return tenantReferenceOutputs(model, 0, 1, seed, requests);
}

LatencySummary
summarize(std::vector<double> samples)
{
    LatencySummary s;
    if (samples.empty())
        return s;
    std::sort(samples.begin(), samples.end());
    double sum = 0;
    for (double v : samples)
        sum += v;
    const size_t n = samples.size();
    auto at = [&](double p) {
        const size_t rank = static_cast<size_t>(
            std::ceil(p / 100.0 * static_cast<double>(n)));
        return samples[std::min(n - 1, rank > 0 ? rank - 1 : 0)];
    };
    s.mean = sum / static_cast<double>(n);
    s.p50 = at(50);
    s.p95 = at(95);
    s.p99 = at(99);
    s.max = samples.back();
    return s;
}

LoadReport
runLoadGen(LoadTarget &target, const LoadGenOptions &opts,
           const LaneOutputs *expected)
{
    const size_t lanes = target.lanes();
    TIE_CHECK_ARG(lanes >= 1, "load gen needs a target with lanes");
    TIE_CHECK_ARG(opts.requests >= 1, "load gen needs requests >= 1");
    TIE_CHECK_ARG(opts.offered_qps > 0 || opts.clients >= 1,
                  "closed-loop load gen needs clients >= 1");
    TIE_CHECK_ARG(expected == nullptr || expected->size() == lanes,
                  "expected outputs must align with the target's ",
                  lanes, " lane(s)");
    for (size_t k = 0; expected != nullptr && k < lanes; ++k) {
        // Lane k serves request ids k, k + lanes, ... < requests.
        const size_t need = (opts.requests + lanes - 1 - k) / lanes;
        TIE_CHECK_ARG((*expected)[k].size() >= need, "lane ", k, ": ",
                      (*expected)[k].size(), " expected outputs for ",
                      need, " requests");
    }

    Stream s{target, opts, expected, lanes,
             std::vector<Outcome>(opts.requests)};
    const Clock::time_point start = Clock::now();
    if (opts.offered_qps > 0)
        runOpenLoop(s);
    else
        runClosedLoop(s);
    const double wall_s =
        std::chrono::duration<double>(Clock::now() - start).count();

    const double offered = std::max(0.0, opts.offered_qps);
    LoadReport rep;
    for (size_t k = 0; k < lanes; ++k)
        rep.per_model.push_back(
            report(s.outcomes, k, lanes, offered / lanes, wall_s));
    rep.aggregate = report(s.outcomes, 0, 1, offered, wall_s);
    return rep;
}

} // namespace serve
} // namespace tie
