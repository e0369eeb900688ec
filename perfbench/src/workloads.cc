#include "workloads.hh"

#include <sys/stat.h>

#include <algorithm>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <memory>
#include <thread>

#include "arch/tie_sim.hh"
#include "cluster/process.hh"
#include "cluster/router.hh"
#include "common/logging.hh"
#include "core/workloads.hh"
#include "obs/stat_registry.hh"
#include "quant/fxp.hh"
#include "serve/load_gen.hh"
#include "serve/model_registry.hh"
#include "serve/multi_tenant.hh"
#include "serve/server.hh"
#include "tt/infer_session.hh"
#include "tune/zoo.hh"

namespace perfbench {

using namespace tie;

namespace {

/** Distinct request inputs per model; request i uses input i % kPool. */
constexpr size_t kPool = 64;
/** Offline batch size (the paper's and ROADMAP's b=32). */
constexpr size_t kBatch = 32;
/** Each run's open loop keeps p99 on at least this many samples. */
constexpr size_t kMinOpen = 1100;

/** Every server in the benchmark uses these batching settings. */
serve::ServerOptions
serverOptions()
{
    serve::ServerOptions o;
    o.max_batch = 8;
    o.batch_timeout_us = 200;
    o.queue_capacity = 256;
    o.workers = 1;
    return o;
}

void
flipBit(std::vector<double> &v)
{
    uint64_t bits;
    std::memcpy(&bits, &v[0], sizeof(bits));
    bits ^= 1;
    std::memcpy(&v[0], &bits, sizeof(bits));
}

/** Random TT layer plus its int16 twin, written as a .tie artifact. */
void
writeFixture(const TtLayerConfig &cfg, uint64_t seed,
             const std::string &path)
{
    Rng rng(seed * 0x2545f4914f6cdd1dull + cfg.inSize());
    TtMatrix tt = TtMatrix::random(cfg, rng);
    TtMatrixFxp fxp = TtMatrixFxp::quantizeAuto(tt, FxpFormat{16, 10}, 6);
    io::saveTieModel({io::makeLayerSpec(tt, fxp)}, path);
}

io::TieModel
loadTraced(const std::string &path, uint64_t *t_ns = nullptr)
{
    ScopedSpan s("io.load", "io", 0);
    const uint64_t t0 = nowNs();
    io::TieModel m = io::TieModel::load(path);
    if (t_ns != nullptr)
        *t_ns = nowNs() - t0;
    return m;
}

/** Peak resident set (VmHWM) of @p pid in MiB; "self" for this one. */
double
peakRssMb(const std::string &pid)
{
    std::ifstream f("/proc/" + pid + "/status");
    std::string line;
    while (std::getline(f, line))
        if (line.rfind("VmHWM:", 0) == 0)
            return std::stod(line.substr(6)) / 1024.0;
    return 0;
}

// ---------------------------------------------------------------------
// Serving targets
// ---------------------------------------------------------------------

/** Request inputs and oracle outputs of one single-model stream. */
struct Pool
{
    std::vector<std::vector<double>> x;
    std::vector<std::vector<double>> y;

    Pool(const std::vector<TtLayerViewD> &layers, uint64_t seed)
    {
        const size_t n = layers.front().cfg.inSize();
        for (size_t i = 0; i < kPool; ++i)
            x.push_back(serve::makeRequestInput(seed, i, n));
        y = serve::referenceOutputs(layers, seed, kPool);
    }
};

/** Spans for the queue and service phases a RequestTiming reports. */
void
timingSpans(const Pending &p, const serve::RequestTiming &t,
            uint64_t parent)
{
    if (!Tracer::instance().on())
        return;
    const uint64_t q1 = p.t_submit_ns + uint64_t(t.queue_wait_us * 1e3);
    const uint64_t s1 = q1 + uint64_t(t.service_us * 1e3);
    recordSpan("serve.queue", "serve", p.t_submit_ns, q1, p.req, parent);
    recordSpan("tt.infer", "tt", q1, s1, p.req, parent);
}

class ServerTarget : public Target
{
  public:
    ServerTarget(serve::Server &s, const Pool &pool) : s_(s), pool_(pool) {}

    bool
    submit(uint64_t req, Pending *p) override
    {
        ScopedSpan sp("serve.submit", "serve", req, p->span);
        p->ticket = s_.submit(pool_.x[req % kPool].data());
        return p->ticket.valid();
    }
    Outcome
    wait(Pending &p, std::vector<double> &out) override
    {
        ScopedSpan sp("serve.wait", "serve", p.req, p.span);
        Outcome o;
        o.has_timing = true;
        o.done = s_.wait(p.ticket, &out, &o.timing) ==
                 serve::RequestStatus::Done;
        timingSpans(p, o.timing, sp.id());
        return o;
    }
    const std::vector<double> &
    expected(uint64_t req) const override
    {
        return pool_.y[req % kPool];
    }
    size_t outSize(uint64_t) const override { return s_.outSize(); }

  private:
    serve::Server &s_;
    const Pool &pool_;
};

/** Round-robin over the registry's tenants. */
class RegistryTarget : public Target
{
  public:
    struct Tenant
    {
        std::string name;
        std::vector<std::vector<double>> x, y; ///< by global slot / n
    };

    RegistryTarget(serve::ModelRegistry &reg, std::vector<Tenant> tenants)
        : reg_(reg), t_(std::move(tenants))
    {}

    bool
    submit(uint64_t req, Pending *p) override
    {
        ScopedSpan sp("registry.submit", "registry", req, p->span);
        const Tenant &t = t_[req % t_.size()];
        p->rticket = reg_.submit(t.name, t.x[slot(req)]);
        return p->rticket.valid();
    }
    Outcome
    wait(Pending &p, std::vector<double> &out) override
    {
        ScopedSpan sp("registry.wait", "registry", p.req, p.span);
        Outcome o;
        o.has_timing = true;
        o.done = reg_.wait(p.rticket, &out, &o.timing) ==
                 serve::RequestStatus::Done;
        timingSpans(p, o.timing, sp.id());
        return o;
    }
    const std::vector<double> &
    expected(uint64_t req) const override
    {
        return t_[req % t_.size()].y[slot(req)];
    }
    size_t
    outSize(uint64_t req) const override
    {
        return t_[req % t_.size()].y[0].size();
    }

  private:
    size_t slot(uint64_t req) const { return (req / t_.size()) % kPool; }

    serve::ModelRegistry &reg_;
    std::vector<Tenant> t_;
};

class RouterTarget : public Target
{
  public:
    RouterTarget(cluster::Router &r, const Pool &pool) : r_(r), pool_(pool) {}

    bool
    submit(uint64_t req, Pending *p) override
    {
        ScopedSpan sp("cluster.submit", "cluster", req, p->span);
        p->cticket = r_.submit(pool_.x[req % kPool].data());
        return p->cticket.valid();
    }
    Outcome
    wait(Pending &p, std::vector<double> &out) override
    {
        ScopedSpan sp("cluster.wait", "cluster", p.req, p.span);
        Outcome o;
        o.done = r_.wait(p.cticket, &out) == cluster::ClusterStatus::Done;
        return o;
    }
    const std::vector<double> &
    expected(uint64_t req) const override
    {
        return pool_.y[req % kPool];
    }
    size_t outSize(uint64_t) const override { return r_.outSize(); }

  private:
    cluster::Router &r_;
    const Pool &pool_;
};

/** One caller running b=1 inferences itself (submit does the work). */
class SessionTarget : public Target
{
  public:
    SessionTarget(InferSessionD &s, const Pool &pool) : s_(s), pool_(pool)
    {
        y_.resize(s.config().outSize());
    }

    bool
    submit(uint64_t req, Pending *p) override
    {
        ScopedSpan sp("tt.infer", "tt", req, p->span);
        s_.runPtr(pool_.x[req % kPool].data(), 1, y_.data());
        return true;
    }
    Outcome
    wait(Pending &, std::vector<double> &out) override
    {
        out = y_;
        Outcome o;
        o.done = true;
        return o;
    }
    const std::vector<double> &
    expected(uint64_t req) const override
    {
        return pool_.y[req % kPool];
    }
    size_t outSize(uint64_t) const override { return y_.size(); }

  private:
    InferSessionD &s_;
    const Pool &pool_;
    std::vector<double> y_;
};

// ---------------------------------------------------------------------
// Offline batches in every dtype
// ---------------------------------------------------------------------

/**
 * One layer's batch-32 sessions in f64, f32 and fxp, with the three
 * dtype oracles: f64 columns against referenceOutputs (batch 1), f32
 * columns against the f32 session's own batch-1 run, and fxp columns
 * 0 and 1 against TieSimulator::runLayer on b=1 samples.
 */
class Offline
{
  public:
    /** Build the three sessions and the batch inputs (user set-up). */
    Offline(const io::TieModel &m, uint64_t seed)
        : cfg_(m.config(0)), d_(m.layer(0)), fxp_(m.toTtMatrixFxp(0)),
          q_(m.fxpLayer(0))
    {
        const TtMatrix tt = m.toTtMatrix(0);
        TtLayerView<float> view;
        view.cfg = cfg_;
        for (size_t h = 1; h <= tt.d(); ++h)
            cores_f_.push_back(tt.core(h).unfolded().cast<float>());
        for (const MatrixF &c : cores_f_)
            view.cores.push_back({c.data(), c.rows(), c.cols()});
        f_ = std::make_unique<InferSessionF>(view);

        const size_t n = cfg_.inSize();
        xd_ = MatrixD(n, kBatch);
        for (size_t j = 0; j < kBatch; ++j) {
            const std::vector<double> x = serve::makeRequestInput(seed, j, n);
            for (size_t i = 0; i < n; ++i)
                xd_(i, j) = x[i];
        }
        xf_ = xd_.cast<float>();
        const FxpFormat in_fmt = fxp_.stage_fmt[cfg_.d() - 1].act_in;
        xq_ = quantizeMatrix(xf_, in_fmt);
    }

    /** Compute the dtype oracles (not part of any timed set-up). */
    void
    prepareOracles(const io::TieModel &m, uint64_t seed,
                   const std::string &corrupt)
    {
        const size_t n = cfg_.inSize(), mo = cfg_.outSize();
        // f64 oracle: the serving layer's batch-1 reference.
        const std::vector<std::vector<double>> ref =
            serve::referenceOutputs({m.layer(0)}, seed, kBatch);
        ref_d_ = MatrixD(mo, kBatch);
        for (size_t j = 0; j < kBatch; ++j)
            for (size_t i = 0; i < mo; ++i)
                ref_d_(i, j) = ref[j][i];
        // f32 oracle: every column run alone.
        ref_f_ = MatrixF(mo, kBatch);
        for (size_t j = 0; j < kBatch; ++j) {
            MatrixF x1(n, 1), y1;
            for (size_t i = 0; i < n; ++i)
                x1(i, 0) = xf_(i, j);
            f_->runInto(x1, y1);
            for (size_t i = 0; i < mo; ++i)
                ref_f_(i, j) = y1(i, 0);
        }
        // fxp oracle: the cycle-level simulator, one sample at a time.
        TieSimulator sim;
        ref_q_.clear();
        for (size_t j = 0; j < kSimCols; ++j) {
            Matrix<int16_t> x1(n, 1);
            for (size_t i = 0; i < n; ++i)
                x1(i, 0) = xq_(i, j);
            ref_q_.push_back(sim.runLayer(fxp_, x1).output);
        }
        if (corrupt == "f64")
            ref_d_(0, 0) = std::nextafter(ref_d_(0, 0), 1e300);
        if (corrupt == "f32")
            ref_f_(0, 0) = std::nextafter(ref_f_(0, 0), 1e30f);
        if (corrupt == "fxp")
            ref_q_[0](0, 0) ^= 1;
    }

    /** Run one batch of @p dtype (0 f64, 1 f32, 2 fxp); false on a
        wrong output. */
    bool
    run(int dtype)
    {
        switch (dtype) {
        case 0: {
            ScopedSpan s("tt.batch.f64", "tt", 0);
            d_.runInto(xd_, yd_);
        }
            return std::memcmp(yd_.data(), ref_d_.data(),
                               yd_.size() * sizeof(double)) == 0;
        case 1: {
            ScopedSpan s("tt.batch.f32", "tt", 0);
            f_->runInto(xf_, yf_);
        }
            return std::memcmp(yf_.data(), ref_f_.data(),
                               yf_.size() * sizeof(float)) == 0;
        default: {
            ScopedSpan s("quant.batch.fxp", "quant", 0);
            q_.runInto(xq_, yq_);
        }
            for (size_t j = 0; j < kSimCols; ++j)
                for (size_t i = 0; i < yq_.rows(); ++i)
                    if (yq_(i, j) != ref_q_[j](i, 0))
                        return false;
            return true;
        }
    }

  private:
    static constexpr size_t kSimCols = 2;

    TtLayerConfig cfg_;
    InferSessionD d_;
    std::vector<MatrixF> cores_f_;
    std::unique_ptr<InferSessionF> f_;
    TtMatrixFxp fxp_;
    InferSessionFxp q_;
    MatrixD xd_, yd_, ref_d_;
    MatrixF xf_, yf_, ref_f_;
    Matrix<int16_t> xq_, yq_;
    std::vector<Matrix<int16_t>> ref_q_;
};

/** Batch times of the offline rounds, per dtype (f64, f32, fxp). */
struct OfflineTimes
{
    std::vector<double> t[3];
    size_t wrong[3] = {0, 0, 0};

    void
    absorb(const OfflineTimes &o)
    {
        for (int d = 0; d < 3; ++d) {
            t[d].insert(t[d].end(), o.t[d].begin(), o.t[d].end());
            wrong[d] += o.wrong[d];
        }
    }
};

/**
 * Offline rounds for @p seconds (at least one): each round runs one
 * batch of 32 per dtype on every model and records the calling
 * thread's CPU time per dtype. The pool is pinned to one thread, so
 * the batches run on this thread alone.
 */
void
offlineSlice(std::vector<std::unique_ptr<Offline>> &models, double seconds,
             OfflineTimes &ot)
{
    const uint64_t end = nowNs() + uint64_t(seconds * 1e9);
    do {
        for (int d = 0; d < 3; ++d) {
            const double t0 = threadCpuSeconds();
            for (auto &m : models)
                if (!m->run(d))
                    ++ot.wrong[d];
            ot.t[d].push_back(threadCpuSeconds() - t0);
        }
    } while (nowNs() < end);
}

const char *const kDtype[3] = {"f64", "f32", "fxp"};

/**
 * Speed metrics read this percentile of their short samples' speed
 * (the matching low percentile of their times); see runSlices.
 */
constexpr double kFastPct = 95;

/**
 * samples_per_s.<dtype>: models * 32 over the kFastPct-th percentile
 * of the round times (see runSlices).
 */
void
offlineMetrics(const OfflineTimes &ot, size_t n_models, Result &r)
{
    for (int d = 0; d < 3; ++d)
        r.e2e(std::string("samples_per_s.") + kDtype[d],
              double(n_models * kBatch) /
                  percentile(ot.t[d], 100 - kFastPct),
              "1/s");
    std::printf("offline: %zu rounds of batch %zu in f64, f32 and fxp\n",
                ot.t[0].size(), kBatch);
}

// ---------------------------------------------------------------------
// The measured part of every workload
// ---------------------------------------------------------------------

/** Load shape and the share of the run each phase gets. */
struct Plan
{
    size_t clients = 4;
    size_t depth = 1;  ///< closed loop: requests each client keeps in flight
    double rate = 100; ///< open-loop arrivals per second
    double closed_share = 0.35;
    double open_share = 0.4;
    double offline_share = 0.25;
    bool synchronous = false;
};

struct Phases
{
    LoopStats closed;
    LoopStats open;
    uint64_t attempted = 0;
};

/**
 * The run is kSlices rounds of (closed loop, open loop, offline
 * batches), so every metric samples the whole run rather than one
 * stretch of it; the correctness gates cover every slice.
 *
 * The speed metrics read the fast end of many short samples:
 * throughput_rps is the kFastPct-th percentile of the closed loop's
 * ~5 ms windows, samples_per_s the same percentile of the offline
 * rounds' speed. On a shared host, neighbours slow this VM down for
 * milliseconds at a time (hypervisor steal, and contention for the
 * physical core and its caches), so the median of short samples
 * follows the neighbours; their fast end follows the program.
 * latency_p10_us is the 10th percentile of every open-loop request's
 * latency, the same fast end for a latency: in ten runs at a time when
 * the hypervisor stole 0–9 s per run, the median latency spread by up
 * to 0.34 of its value from run to run and the 10th percentile by at
 * most 0.11. The median and the tail are printed, from at least
 * kMinOpen requests, so the printed p99 has at least ten samples
 * beyond it.
 */
Phases
runSlices(Target &target, const Plan &plan, const RunConfig &rc,
          std::vector<std::unique_ptr<Offline>> &off, Result &r)
{
    constexpr int kSlices = 16;
    struct Slice
    {
        double steal_s = 0;
        LoopStats closed, open;
        OfflineTimes off;
    };
    std::vector<Slice> sl(kSlices);
    for (int i = 0; i < kSlices; ++i) {
        const double steal0 = stealSeconds();
        const uint64_t base = uint64_t(i + 1) << 36;
        sl[i].closed = runClosed(target, plan.clients, plan.depth,
                                 rc.seconds * plan.closed_share / kSlices,
                                 base);
        sl[i].open = runOpen(
            target, plan.rate, rc.seconds * plan.open_share / kSlices,
            (kMinOpen + kSlices - 1) / kSlices, rc.seed * kSlices + i,
            base + (1ull << 35), plan.synchronous);
        offlineSlice(off, rc.seconds * plan.offline_share / kSlices,
                     sl[i].off);
        sl[i].steal_s = stealSeconds() - steal0;
    }

    Phases ph;
    OfflineTimes ot;
    std::printf("slices, host steal s / median closed-loop window rps:");
    for (const Slice &x : sl) {
        std::printf(" %.2f/%.1f", x.steal_s, median(x.closed.window_rps));
        ph.closed.absorb(x.closed);
        ph.open.absorb(x.open);
        ot.absorb(x.off);
    }
    std::printf("\n");

    const Summary lat = summarize(ph.open.latency_us);
    const Summary late = summarize(ph.open.lateness_us);
    const double rps = percentile(ph.closed.window_rps, kFastPct);
    const double lat_p10 = percentile(ph.open.latency_us, 10);
    r.e2e("throughput_rps", rps, "1/s");
    r.e2e("latency_p10_us", lat_p10, "us");
    offlineMetrics(ot, off.size(), r);
    std::printf("closed loop: %zu clients x %zu in flight, %llu done in "
                "%.2f s, %zu windows: median %.1f rps, p%g %.1f rps\n",
                plan.clients, plan.depth, (unsigned long long)ph.closed.done,
                ph.closed.wall_s, ph.closed.window_rps.size(),
                median(ph.closed.window_rps), kFastPct, rps);
    std::printf("open loop: %.0f rps Poisson, latency from due time p10 "
                "%.1f us, %s\n",
                plan.rate, lat_p10, describe(lat, "us").c_str());
    std::printf("open loop: generator lateness %s\n",
                describe(late, "us").c_str());

    for (const Slice &s : sl) {
        for (const LoopStats *l : {&s.closed, &s.open}) {
            ph.attempted += l->attempted;
            r.attempted += l->attempted;
            r.failed += l->shed;
            if (l->mismatched > 0)
                r.fail(std::to_string(l->mismatched) +
                       " served outputs differ from the f64 oracle");
            if (l->done + l->shed != l->attempted)
                r.fail("lost requests: attempted " +
                       std::to_string(l->attempted) + ", done " +
                       std::to_string(l->done) + ", shed " +
                       std::to_string(l->shed));
        }
        if (s.open.lateness_grew)
            r.fail("open-loop generator lateness grew during a slice; "
                   "the offered rate was not held");
    }
    for (int d = 0; d < 3; ++d)
        if (ot.wrong[d] > 0)
            r.fail(std::string(kDtype[d]) + " batch outputs differ from the "
                   "oracle in " + std::to_string(ot.wrong[d]) + " runs");
    return ph;
}

/**
 * Repeat @p once (one full set-up, returning its seconds) at least
 * seven times and for ~1.5 s, at most 41 times; setup_s is the median.
 */
double
medianSetup(const std::function<double()> &once)
{
    std::vector<double> t;
    double total = 0;
    while (t.size() < 7 || (total < 1.5 && t.size() < 41)) {
        t.push_back(once());
        total += t.back();
    }
    return median(t);
}

/**
 * serve.* per-layer metrics: RequestTiming of the traced open loop
 * (where latency_p10_us is measured) and the run's mean batch size.
 */
void
serveLayerMetrics(const LoopStats &s, uint64_t completed, uint64_t batches,
                  Result &r)
{
    const Summary q = summarize(s.queue_us);
    const Summary sv = summarize(s.service_us);
    r.layer("serve.queue_wait_us.p50", q.p50, "us");
    r.layer("serve.queue_wait_us.p99", q.p99, "us");
    r.layer("serve.service_us.p50", sv.p50, "us");
    r.layer("serve.service_us.p99", sv.p99, "us");
    r.layer("serve.batch_mean",
            batches > 0 ? double(completed) / double(batches) : 0, "count");
    r.layer("serve.client_overhead_us", median(s.overhead_us), "us");
}

void
zeroLayerMetrics(const std::vector<const char *> &names, const char *unit,
                 Result &r)
{
    for (const char *n : names)
        r.layer(n, 0, unit);
}

void
noServeMetrics(Result &r)
{
    zeroLayerMetrics({"serve.queue_wait_us.p50", "serve.queue_wait_us.p99",
                      "serve.service_us.p50", "serve.service_us.p99"},
                     "us", r);
    r.layer("serve.batch_mean", 0, "count");
    r.layer("serve.client_overhead_us", 0, "us");
}

void
noRegistryMetrics(Result &r)
{
    r.layer("registry.submit_us.p50", 0, "us");
    r.layer("registry.publish_ms", 0, "ms");
    r.layer("registry.swap_p99_us", 0, "us");
}

void
noClusterMetrics(Result &r)
{
    zeroLayerMetrics({"cluster.rtt_us.p50", "cluster.rtt_us.p99",
                      "cluster.hop_overhead_us"},
                     "us", r);
    r.layer("cluster.redispatched", 0, "count");
    r.layer("cluster.shed", 0, "count");
}

/** Mean self time per request of each module, from the span tree. */
void
selfTimeMetrics(uint64_t requests, Result &r)
{
    // Only request spans: set-up and probe spans carry request id 0.
    std::vector<Span> spans = Tracer::instance().collect();
    spans.erase(std::remove_if(spans.begin(), spans.end(),
                               [](const Span &s) { return s.req == 0; }),
                spans.end());
    const std::map<std::string, double> self = selfTimeUs(spans);
    for (const char *m :
         {"bench", "io", "tt", "quant", "serve", "registry", "cluster"}) {
        auto it = self.find(m);
        r.layer(std::string("self_us.") + m,
                it == self.end() || requests == 0
                    ? 0
                    : it->second / double(requests),
                "us");
    }
}

uint64_t
counterValue(const char *name)
{
    return obs::StatRegistry::instance().counter(name).value();
}

// ---------------------------------------------------------------------
// fc6-serve
// ---------------------------------------------------------------------

void
runFc6Serve(const RunConfig &rc, Result &r)
{
    const std::string path = rc.work_dir + "/fc6.tie";
    writeFixture(workloads::vggFc6(), rc.seed, path);
    Pool pool(io::TieModel::load(path).layers(), rc.seed);
    const std::vector<double> warm = pool.y[0];
    if (rc.corrupt == "serve")
        flipBit(pool.y[1]);

    // Set-up: load the artifact, build the server (sessions packed and
    // warmed), serve one request.
    std::vector<double> load_ms;
    io::TieModel model;
    std::unique_ptr<serve::Server> server;
    r.e2e("setup_s", medianSetup([&] {
              server.reset();
              const uint64_t t0 = nowNs();
              uint64_t load_ns = 0;
              model = loadTraced(path, &load_ns);
              {
                  ScopedSpan s("serve.build", "serve", 0);
                  const CpuPin served({1, 2});
                  server = std::make_unique<serve::Server>(model.layers(),
                                                           serverOptions());
              }
              std::vector<double> y;
              const serve::Ticket t = server->submit(pool.x[0].data());
              if (!t.valid() ||
                  server->wait(t, &y) != serve::RequestStatus::Done ||
                  y != warm)
                  r.fail("fc6-serve warm-up request failed");
              load_ms.push_back(double(load_ns) / 1e6);
              return double(nowNs() - t0) / 1e9;
          }),
          "s");

    std::vector<std::unique_ptr<Offline>> off;
    off.push_back(std::make_unique<Offline>(model, rc.seed));
    off.back()->prepareOracles(model, rc.seed, rc.corrupt);

    ServerTarget target(*server, pool);
    Plan plan;
    // Sixteen requests in flight keep the queue ahead of full batches
    // of eight, so the closed loop measures the server, not how
    // promptly the clients resubmit.
    plan.clients = 4;
    plan.depth = 4;
    // The open loop runs at about a seventh of the closed-loop rate, so
    // a host stall drains before the queue it builds reaches p99.
    plan.rate = 150;
    plan.closed_share = 0.2;
    plan.open_share = 0.4;
    plan.offline_share = 0.4;
    const uint64_t c0 = counterValue("serve.completed");
    const uint64_t b0 = counterValue("serve.batches");
    const Phases ph = runSlices(target, plan, rc, off, r);

    if (rc.trace) {
        probeModules({model}, load_ms, rc.seed, r);
        serveLayerMetrics(ph.open, counterValue("serve.completed") - c0,
                          counterValue("serve.batches") - b0, r);
        noRegistryMetrics(r);
        noClusterMetrics(r);
        selfTimeMetrics(ph.attempted, r);
    }
    r.e2e("peak_rss_mb", peakRssMb("self"), "MiB");
}

// ---------------------------------------------------------------------
// zoo-mix
// ---------------------------------------------------------------------

/** CI's deterministic zoo flags (see NOTES.md). */
tune::ZooOptions
zooOptions()
{
    tune::ZooOptions z;
    tune::TuneOptions &t = z.tune;
    t.seed = 7;
    t.space.min_d = 2;
    t.space.max_d = 3;
    t.space.ranks = {1, 2, 4};
    t.max_evals = 8;
    t.epochs = 2;
    t.classes = 4;
    t.train_samples = 128;
    t.test_samples = 64;
    t.sim_mode = tune::SimMode::Analytic;
    return z;
}

void
runZooMix(const RunConfig &rc, Result &r)
{
    const std::string dir = rc.work_dir + "/zoo";
    ::mkdir(dir.c_str(), 0755);
    const tune::ZooManifest zoo = tune::buildZoo(dir, zooOptions());
    const size_t n_t = zoo.entries.size();
    std::vector<std::string> paths;
    std::vector<RegistryTarget::Tenant> tenants;
    for (size_t k = 0; k < n_t; ++k) {
        paths.push_back(dir + "/" + zoo.entries[k].file);
        const io::TieModel m = io::TieModel::load(paths.back());
        RegistryTarget::Tenant t;
        t.name = zoo.entries[k].name;
        for (size_t i = 0; i < kPool; ++i)
            t.x.push_back(serve::makeRequestInput(rc.seed, k + i * n_t,
                                                  m.inSize()));
        t.y = serve::tenantReferenceOutputs(m.layers(), k, n_t, rc.seed,
                                            kPool * n_t);
        tenants.push_back(std::move(t));
    }
    if (rc.corrupt == "serve")
        flipBit(tenants[1].y[0]);

    // Set-up: a fresh registry, every tenant loaded and published, one
    // request served.
    std::vector<double> load_ms, publish_ms;
    std::vector<io::TieModel> models(n_t);
    std::unique_ptr<serve::ModelRegistry> reg;
    r.e2e("setup_s", medianSetup([&] {
              reg.reset();
              const uint64_t t0 = nowNs();
              reg = std::make_unique<serve::ModelRegistry>(serverOptions());
              const CpuPin served({1, 2}); // publish starts the servers
              double load_total = 0;
              for (size_t k = 0; k < n_t; ++k) {
                  uint64_t load_ns = 0;
                  models[k] = loadTraced(paths[k], &load_ns);
                  load_total += double(load_ns) / 1e6;
                  ScopedSpan s("registry.publish", "registry", 0);
                  reg->publish(tenants[k].name, models[k]);
              }
              std::vector<double> y;
              serve::RegistryTicket t =
                  reg->submit(tenants[0].name, tenants[0].x[0]);
              if (!t.valid() ||
                  reg->wait(t, &y) != serve::RequestStatus::Done ||
                  y != tenants[0].y[0])
                  r.fail("zoo-mix warm-up request failed");
              load_ms.push_back(load_total);
              return double(nowNs() - t0) / 1e9;
          }),
          "s");

    std::vector<std::unique_ptr<Offline>> off;
    for (const io::TieModel &m : models) {
        off.push_back(std::make_unique<Offline>(m, rc.seed));
        off.back()->prepareOracles(m, rc.seed, rc.corrupt);
    }

    RegistryTarget target(*reg, tenants);

    // The write path beside the reads: re-publish tenant 0 from its
    // artifact every 200 ms for the whole measured run.
    std::atomic<bool> stop{false};
    std::vector<std::pair<uint64_t, uint64_t>> publishes;
    std::thread publisher([&] {
        const CpuPin served({1, 2}); // the servers each publish starts
        Clock::time_point next = Clock::now();
        while (!stop.load()) {
            next += std::chrono::milliseconds(200);
            std::this_thread::sleep_until(next);
            if (stop.load())
                break;
            ScopedSpan s("registry.publish", "registry", 0);
            const uint64_t t0 = nowNs();
            reg->publishFile(tenants[0].name, paths[0]);
            publishes.push_back({t0, nowNs()});
        }
    });

    Plan plan;
    plan.clients = 3; // + the publisher = nproc generator threads
    plan.rate = 1500; // about a seventh of the closed-loop rate
    const uint64_t c0 = counterValue("serve.completed");
    const uint64_t b0 = counterValue("serve.batches");
    const Phases ph = runSlices(target, plan, rc, off, r);
    stop.store(true);
    publisher.join();
    const serve::ModelInfo info = reg->info(tenants[0].name);
    if (info.version != 1 + publishes.size())
        r.fail("registry version of the re-published tenant is " +
               std::to_string(info.version) + " after " +
               std::to_string(publishes.size()) + " publishes");
    std::printf("registry: %zu re-publishes of %s\n", publishes.size(),
                tenants[0].name.c_str());

    if (rc.trace) {
        probeModules(models, load_ms, rc.seed, r);
        serveLayerMetrics(ph.open, counterValue("serve.completed") - c0,
                          counterValue("serve.batches") - b0, r);
        std::vector<double> submit_us;
        for (const Span &s : Tracer::instance().collect())
            if (std::strcmp(s.name, "registry.submit") == 0)
                submit_us.push_back(usBetween(s.t0_ns, s.t1_ns));
        for (const auto &[a, b] : publishes)
            publish_ms.push_back(double(b - a) / 1e6);
        // Requests of any tenant in flight while a publish ran.
        std::vector<double> swap_us;
        for (const LoopStats *l : {&ph.closed, &ph.open})
            for (const auto &[sub, done] : l->intervals_ns)
                for (const auto &[a, b] : publishes)
                    if (sub < b && done > a) {
                        swap_us.push_back(usBetween(sub, done));
                        break;
                    }
        const Summary swap = summarize(swap_us);
        std::printf("registry: requests in flight across a publish: %s\n",
                    describe(swap, "us").c_str());
        r.layer("registry.submit_us.p50", median(submit_us), "us");
        r.layer("registry.publish_ms", median(publish_ms), "ms");
        r.layer("registry.swap_p99_us", swap.p99, "us");
        noClusterMetrics(r);
        selfTimeMetrics(ph.attempted, r);
    }
    r.e2e("peak_rss_mb", peakRssMb("self"), "MiB");
}

// ---------------------------------------------------------------------
// fc7-cluster
// ---------------------------------------------------------------------

/** Two tie_worker processes behind one Router. */
struct Fleet
{
    std::vector<cluster::ChildProcess> procs;
    std::unique_ptr<cluster::Router> router;

    Fleet() = default;
    Fleet(const Fleet &) = delete;
    Fleet &operator=(const Fleet &) = delete;
    ~Fleet() { stop(); }

    bool
    start(const RunConfig &rc, const std::string &model, size_t n,
          std::string *err)
    {
        const serve::ServerOptions so = serverOptions();
        cluster::RouterOptions ro;
        for (size_t i = 0; i < n; ++i) {
            const std::string sock =
                rc.work_dir + "/w" + std::to_string(i) + ".sock";
            const std::vector<std::string> argv = {
                rc.worker_bin,
                "--model", model,
                "--listen", "unix:" + sock,
                "--workers", std::to_string(so.workers),
                "--max-batch", std::to_string(so.max_batch),
                "--queue-cap", std::to_string(so.queue_capacity),
                "--batch-timeout-us", std::to_string(so.batch_timeout_us),
            };
            cluster::ChildProcess c;
            const CpuPin served({1 + int(i % 2)});
            if (!cluster::spawnProcess(argv, &c, err))
                return false;
            procs.push_back(c);
            std::string line;
            cluster::Endpoint ep;
            if (!cluster::readLine(c.stdout_fd, &line, 30000) ||
                line.rfind("ready ", 0) != 0 ||
                !cluster::parseEndpoint(line.substr(6), &ep, err)) {
                *err = "worker gave no ready banner: " + line;
                return false;
            }
            ro.workers.push_back(ep);
        }
        router = std::make_unique<cluster::Router>(ro);
        return router->start(err);
    }

    double
    workersPeakRssMb() const
    {
        double mb = 0;
        for (const cluster::ChildProcess &c : procs)
            mb += peakRssMb(std::to_string(c.pid));
        return mb;
    }

    void
    stop()
    {
        if (router)
            router->stop();
        router.reset();
        for (cluster::ChildProcess &c : procs) {
            cluster::killProcess(c, SIGTERM);
            cluster::waitProcess(c);
        }
        procs.clear();
    }
};

void
runFc7Cluster(const RunConfig &rc, Result &r)
{
    const std::string path = rc.work_dir + "/fc7.tie";
    writeFixture(workloads::vggFc7(), rc.seed, path);
    const io::TieModel model = io::TieModel::load(path);
    Pool pool(model.layers(), rc.seed);
    if (rc.corrupt == "serve")
        flipBit(pool.y[1]);

    // Set-up: spawn two tie_worker processes (each loads and CRC-checks
    // the artifact and warms its server), connect the router, serve
    // one request.
    Fleet fleet;
    r.e2e("setup_s", medianSetup([&] {
              fleet.stop();
              const uint64_t t0 = nowNs();
              std::string err;
              {
                  ScopedSpan s("cluster.start", "cluster", 0);
                  if (!fleet.start(rc, path, 2, &err))
                      TIE_FATAL("fc7-cluster: ", err);
              }
              std::vector<double> y;
              const cluster::ClusterTicket t =
                  fleet.router->submit(pool.x[0].data());
              if (!t.valid() ||
                  fleet.router->wait(t, &y) != cluster::ClusterStatus::Done ||
                  y != pool.y[0])
                  r.fail("fc7-cluster warm-up request failed");
              return double(nowNs() - t0) / 1e9;
          }),
          "s");
    // The workers' loads happen in their own processes; io.load_ms
    // times the same artifact loaded here.
    std::vector<double> load_ms;
    for (int i = 0; i < 5; ++i) {
        uint64_t ns = 0;
        loadTraced(path, &ns);
        load_ms.push_back(double(ns) / 1e6);
    }

    std::vector<std::unique_ptr<Offline>> off;
    off.push_back(std::make_unique<Offline>(model, rc.seed));
    off.back()->prepareOracles(model, rc.seed, rc.corrupt);

    RouterTarget target(*fleet.router, pool);
    Plan plan;
    plan.clients = 4;
    plan.rate = 250; // about an eighth of the closed-loop rate
    plan.closed_share = 0.2;
    plan.open_share = 0.3;
    plan.offline_share = 0.5;
    const Phases ph = runSlices(target, plan, rc, off, r);

    const cluster::RouterStats st = fleet.router->stats();
    std::printf("router: %zu live replicas, %llu accepted, %llu done, "
                "%llu redispatched, %llu worker deaths, %llu reconnects\n",
                fleet.router->liveWorkers(),
                (unsigned long long)st.accepted,
                (unsigned long long)st.done,
                (unsigned long long)st.redispatched,
                (unsigned long long)st.worker_deaths,
                (unsigned long long)st.reconnects);
    if (st.done + st.shed + st.timed_out != st.accepted)
        r.fail("router lost requests: accepted " +
               std::to_string(st.accepted) + ", done " +
               std::to_string(st.done) + ", shed " +
               std::to_string(st.shed) + ", timed out " +
               std::to_string(st.timed_out));
    const double workers_mb = fleet.workersPeakRssMb();
    fleet.stop();

    if (rc.trace) {
        probeModules({model}, load_ms, rc.seed, r);
        noServeMetrics(r);
        noRegistryMetrics(r);
        const Summary rtt = summarize(ph.closed.latency_us);
        double infer_us = 0, codec_us = 0;
        for (const Metric &m : r.per_layer) {
            if (m.name == "tt.infer_us.b1")
                infer_us = m.value;
            if (m.name == "net.encode_us" || m.name == "net.decode_us")
                codec_us += m.value;
        }
        r.layer("cluster.rtt_us.p50", rtt.p50, "us");
        r.layer("cluster.rtt_us.p99", rtt.p99, "us");
        r.layer("cluster.hop_overhead_us", rtt.p50 - infer_us - codec_us,
                "us");
        r.layer("cluster.redispatched", double(st.redispatched), "count");
        r.layer("cluster.shed", double(st.shed), "count");
        selfTimeMetrics(ph.attempted, r);
    }
    r.e2e("peak_rss_mb", peakRssMb("self") + workers_mb, "MiB");
}

// ---------------------------------------------------------------------
// lstm-offline
// ---------------------------------------------------------------------

void
runLstmOffline(const RunConfig &rc, Result &r)
{
    const std::string path = rc.work_dir + "/lstm.tie";
    writeFixture(workloads::lstmYoutube(), rc.seed, path);
    Pool pool(io::TieModel::load(path).layers(), rc.seed);
    if (rc.corrupt == "serve")
        flipBit(pool.y[1]);

    // Set-up: load, build the three dtype batch sessions and the b=1
    // session, run one batch of each dtype and one request.
    std::vector<double> load_ms;
    io::TieModel model;
    std::vector<std::unique_ptr<Offline>> off;
    std::unique_ptr<InferSessionD> b1;
    r.e2e("setup_s", medianSetup([&] {
              off.clear();
              b1.reset();
              const uint64_t t0 = nowNs();
              uint64_t load_ns = 0;
              model = loadTraced(path, &load_ns);
              {
                  ScopedSpan s("tt.session_build", "tt", 0);
                  off.push_back(std::make_unique<Offline>(model, rc.seed));
                  b1 = std::make_unique<InferSessionD>(model.layer(0));
              }
              for (int d = 0; d < 3; ++d)
                  off[0]->run(d); // checked against the oracles below
              std::vector<double> y(model.outSize());
              b1->runPtr(pool.x[0].data(), 1, y.data());
              if (y != pool.y[0])
                  r.fail("lstm-offline warm-up request failed");
              load_ms.push_back(double(load_ns) / 1e6);
              return double(nowNs() - t0) / 1e9;
          }),
          "s");
    off[0]->prepareOracles(model, rc.seed, rc.corrupt);

    SessionTarget target(*b1, pool);
    Plan plan;
    plan.clients = 1;
    plan.rate = 600; // about a seventh of the closed-loop rate
    plan.synchronous = true;
    plan.closed_share = 0.15;
    plan.open_share = 0.3;
    plan.offline_share = 0.55;
    const Phases ph = runSlices(target, plan, rc, off, r);

    if (rc.trace) {
        probeModules({model}, load_ms, rc.seed, r);
        noServeMetrics(r);
        noRegistryMetrics(r);
        noClusterMetrics(r);
        selfTimeMetrics(ph.attempted, r);
    }
    r.e2e("peak_rss_mb", peakRssMb("self"), "MiB");
}

} // namespace

void
runWorkload(const RunConfig &rc, Result &r)
{
    if (rc.workload == "fc6-serve")
        runFc6Serve(rc, r);
    else if (rc.workload == "zoo-mix")
        runZooMix(rc, r);
    else if (rc.workload == "fc7-cluster")
        runFc7Cluster(rc, r);
    else if (rc.workload == "lstm-offline")
        runLstmOffline(rc, r);
    else
        r.fail("unknown workload " + rc.workload);
}

} // namespace perfbench
